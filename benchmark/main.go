// Command benchmark is the repository's one benchmark: four federation
// workloads measured end to end — wall-clock and bytes to a target accuracy,
// round time, CPU, memory — and, in a separate traced run, attributed layer
// by layer from outside the program under test. README.md in this directory
// is the glossary; BENCHMARK.json at the repository root fixes the metric
// names, directions and bounds.
//
//	go run . [-workload W] [-seed N] [-trace 0|1] [-selfcheck]
//
// Each rep runs in a fresh child process of this binary, so peak memory and
// allocation counters belong to that rep alone.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// reps is how many times a run repeats its workload, every time at the run's
// seed: a fixed count of fixed-length reps, so the count and byte metrics of
// one seed are the same numbers on every host and commit, and the timing
// metrics are medians over the same amount of work.
const reps = 3

// maxRetries caps how many drifted reps one run discards and reruns.
const maxRetries = 2

// repRunner runs one rep of w at seed. The command starts a child process;
// the tests substitute an in-process call.
type repRunner func(ctx context.Context, w *workload, seed int64, traced bool) (*repResult, error)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one workload's outcome over a run's reps.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Host      hostInfo               `json:"host"`
	Reps      int                    `json:"reps"`
	Retries   int                    `json:"retries"`
	CalibMs   []float64              `json:"calib_gemm_ms"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	TraceFile string                 `json:"trace_file,omitempty"`
}

// repState tracks one workload's reps while a run interleaves workloads.
type repState struct {
	w       *workload
	reps    []*repResult
	retries int
}

// measure runs the end-to-end reps of every workload in ws, interleaved
// (A B C D A B C D …) so host drift lands on all of them alike.
func measure(ctx context.Context, ws []*workload, seed int64, run repRunner) ([]*runResult, error) {
	states := make([]*repState, len(ws))
	for i, w := range ws {
		states[i] = &repState{w: w}
	}
	for pending := true; pending; {
		pending = false
		for _, s := range states {
			if len(s.reps) == reps {
				continue
			}
			pending = true
			rep, err := run(ctx, s.w, seed, false)
			if err != nil {
				return nil, err
			}
			if rep.drifted() && s.retries < maxRetries {
				s.retries++
				fmt.Fprintf(os.Stderr, "%s: calibration moved %.3f → %.3f ms across the rep; discarded\n",
					s.w.Name, rep.CalibBeforeMs, rep.CalibAfterMs)
				continue
			}
			s.reps = append(s.reps, rep)
		}
	}
	results := make([]*runResult, len(states))
	for i, s := range states {
		results[i] = aggregate(s, seed)
	}
	return results, nil
}

// aggregate folds a workload's reps into its end-to-end result: every metric
// is the median over the reps of the per-rep value. The reps share one seed,
// so on the inproc engine they must also share one history.
func aggregate(s *repState, seed int64) *runResult {
	first := s.reps[0]
	res := &runResult{
		Workload: s.w.Name, Seed: seed, Host: first.Host, Reps: len(s.reps), Retries: s.retries,
		Metrics: map[string]metricValue{},
	}
	for _, r := range s.reps {
		res.CalibMs = append(res.CalibMs, r.CalibBeforeMs, r.CalibAfterMs)
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		res.Failures = append(res.Failures, r.Failures...)
	}
	res.checkHistories(s.w, s.reps)
	for _, m := range endToEnd {
		vals := make([]float64, len(s.reps))
		for i, r := range s.reps {
			vals[i] = r.E2E[m.Name]
		}
		res.Metrics[m.Name] = metricValue{Value: median(vals), Unit: m.Unit}
	}
	res.Correct = res.Failed == 0
	return res
}

// checkHistories holds reps of one seed to the determinism contract: equal
// inputs, equal accuracy and byte histories. It binds the inproc engine only;
// the node runtime books heartbeats and reconnects as they happen.
func (res *runResult) checkHistories(w *workload, reps []*repResult) {
	if w.Nodes > 0 {
		return
	}
	res.Attempted++
	for _, r := range reps[1:] {
		if r.HistoryKey != reps[0].HistoryKey {
			res.Failed++
			res.Failures = append(res.Failures, fmt.Sprintf("reps of seed %d disagree: histories %s and %s", res.Seed, reps[0].HistoryKey, r.HistoryKey))
			return
		}
	}
}

// traced makes the separate traced run of one workload: two traced reps
// between three untraced ones (U T U T U), all at the run's seed. The spans
// and probes of the first traced rep give the per-layer metrics; the medians
// of the two kinds' round times give the tracing overhead, and alternating
// them keeps a host that speeds up or slows down from landing on one kind.
func traced(ctx context.Context, w *workload, seed int64, run repRunner) (*runResult, error) {
	var plain, withSpans []*repResult
	for i := 0; i < 5; i++ {
		rep, err := run(ctx, w, seed, i%2 == 1)
		if err != nil {
			return nil, err
		}
		if i%2 == 1 {
			withSpans = append(withSpans, rep)
		} else {
			plain = append(plain, rep)
		}
	}
	rep := withSpans[0]
	res := &runResult{
		Workload: w.Name, Seed: seed, Host: rep.Host, Reps: 1,
		CalibMs:   []float64{rep.CalibBeforeMs, rep.CalibAfterMs},
		Attempted: rep.Attempted, Failed: rep.Failed, Failures: rep.Failures,
		Metrics: map[string]metricValue{}, TraceFile: rep.TraceFile,
	}
	// Tracing must observe the run without changing it.
	res.checkHistories(w, append(withSpans, plain...))
	p50 := func(rs []*repResult) float64 {
		vals := make([]float64, len(rs))
		for i, r := range rs {
			vals[i] = r.E2E["round_ms_p50"]
		}
		return median(vals)
	}
	if base := p50(plain); base > 0 {
		rep.Layer["trace.overhead_share"] = p50(withSpans)/base - 1
	}
	rep.Layer["failed_share"] = float64(res.Failed) / float64(res.Attempted)
	for _, m := range perLayer {
		res.Metrics[m.Name] = metricValue{Value: rep.Layer[m.Name], Unit: m.Unit}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// childRunner runs a rep in a fresh process of this binary at the
// benchmark's GOMAXPROCS and decodes the result it prints.
func childRunner(ctx context.Context, w *workload, seed int64, traced bool) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate benchmark binary: %w", err)
	}
	ctx, cancel := context.WithTimeout(ctx, repTimeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10), "-trace", trace)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(benchProcs()))
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s rep: %w", w.Name, err)
	}
	var rep repResult
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("%s rep: decode result: %w", w.Name, err)
	}
	return &rep, nil
}

// benchFile is the part of BENCHMARK.json the command reads.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchFile(path string) (*benchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// repoRoot is the directory holding BENCHMARK.json: the working directory
// when the driver runs the command, its parent under `go run .` from here.
func repoRoot() string {
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		if _, err := os.Stat(filepath.Join("..", "BENCHMARK.json")); err == nil {
			return ".."
		}
	}
	return "."
}

// printResult lists every metric by name with its unit, then the whole
// result as one line of JSON (baseline.json is a list of these).
func printResult(res *runResult) {
	fmt.Printf("workload %s  seed %d  reps %d  retries %d  GOMAXPROCS %d of %d  %s %v\n",
		res.Workload, res.Seed, res.Reps, res.Retries, res.Host.GOMAXPROCS, res.Host.NProc, res.Host.GoVersion, res.Host.CPUFeatures)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("  %-28s %16.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("  attempted %d  failed %d  calib_gemm_ms %.4f\n", res.Attempted, res.Failed, median(res.CalibMs))
	for _, f := range res.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	if res.TraceFile != "" {
		fmt.Printf("  spans written to %s\n", res.TraceFile)
	}
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	fmt.Printf("%s\n", b)
}

// driverLine is the last line of standard output in single-workload mode.
func driverLine(res *runResult) string {
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	return string(b)
}

// repeatsExactly reports whether two runs of one seed must give metric the
// same number to the last bit: the target crossing everywhere (the accuracy
// history is deterministic on every engine), and on the inproc engine also
// the final accuracy and every byte count. The node runtime's bytes include
// heartbeats, which follow the clock.
func repeatsExactly(w *workload, metric string) bool {
	switch metric {
	case "rounds_to_target":
		return true
	case "final_acc", "bytes_to_target", "up_bytes_per_round", "down_bytes_per_round":
		return w.Nodes == 0
	}
	return false
}

// selfcheck runs two full end-to-end sets back to back on this binary and
// holds every pair of medians to the bound BENCHMARK.json fixes, and the
// metrics that repeat exactly to equality.
func selfcheck(ctx context.Context, ws []*workload, seed int64, run repRunner, bf *benchFile) (bool, error) {
	var sets [2][]*runResult
	for i := range sets {
		rs, err := measure(ctx, ws, seed, run)
		if err != nil {
			return false, err
		}
		sets[i] = rs
	}
	ok := true
	fmt.Printf("%-18s %-22s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "ratio", "bound")
	for wi, a := range sets[0] {
		b := sets[1][wi]
		if !a.Correct || !b.Correct {
			ok = false
			fmt.Printf("%-18s failed its output checks: %v %v\n", a.Workload, a.Failures, b.Failures)
		}
		for _, m := range bf.EndToEnd {
			x, y := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			ratio := math.NaN()
			if x != 0 {
				ratio = y / x
			}
			bound, verdict := fmt.Sprintf("%6.2f", m.Bound), ""
			switch {
			case repeatsExactly(ws[wi], m.Name):
				bound = " exact"
				if x != y {
					ok = false
					verdict = "  DISAGREE"
				}
			case math.IsNaN(ratio) || math.Abs(ratio-1) > m.Bound:
				ok = false
				verdict = "  DISAGREE"
			}
			fmt.Printf("%-18s %-22s %14.6g %14.6g %8.4f %s%s\n", a.Workload, m.Name, x, y, ratio, bound, verdict)
		}
	}
	return ok, nil
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name  = flag.String("workload", "", "workload to run (default: all four, interleaved)")
		seed  = flag.Int64("seed", 1, "workload seed")
		trace = flag.Int("trace", 0, "1 makes the separate traced run and reports the per-layer metrics (after the end-to-end set when no -workload is given)")
		check = flag.Bool("selfcheck", false, "run two full sets and compare their medians to the bounds")
		child = flag.Bool("child", false, "internal: run one rep in this process and print its result")
	)
	// The driver's command line carries the measuring time BENCHMARK.json
	// names. A run's length is fixed in rounds and reps, sized to that time
	// on the reference host, so the value changes nothing here.
	flag.Float64("seconds", 0, "accepted for the driver: run length is fixed by the round and rep counts")
	flag.Parse()
	ctx := context.Background()
	root := repoRoot()

	ws := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		ws = []*workload{w}
	}

	if *child {
		if *name == "" {
			fmt.Fprintln(os.Stderr, "benchmark: -child needs -workload")
			return 2
		}
		rep, err := runRep(ctx, ws[0], *seed, *trace == 1, filepath.Join(root, "benchmark", "out"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	}

	if benchProcs() == 1 {
		fmt.Fprintln(os.Stderr, "benchmark: "+parallelNote)
	}
	if *check {
		bf, err := readBenchFile(filepath.Join(root, "BENCHMARK.json"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: -selfcheck needs the bounds: %v\n", err)
			return 2
		}
		ok, err := selfcheck(ctx, ws, *seed, childRunner, bf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}

	// One workload: the end-to-end run or the traced run, as the driver asks.
	// All workloads: the end-to-end set, and with -trace 1 the traced set too.
	var results []*runResult
	var err error
	traceRun := *trace == 1
	if !traceRun || *name == "" {
		results, err = measure(ctx, ws, *seed, childRunner)
	}
	for i := 0; traceRun && err == nil && i < len(ws); i++ {
		var res *runResult
		if res, err = traced(ctx, ws[i], *seed, childRunner); err == nil {
			results = append(results, res)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	code := 0
	for _, res := range results {
		printResult(res)
		if !res.Correct {
			code = 1
		}
	}
	if *name != "" {
		fmt.Println(driverLine(results[0]))
	}
	return code
}
