package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cmdtest"
)

// fedsim must run a tiny experiment end to end and print the CSV learning
// curve plus the final summary line.
func TestFedsimSmoke(t *testing.T) {
	out := cmdtest.Run(t, nil, "-dataset", "fashion", "-clients", "4", "-rounds", "2", "-featdim", "16")
	if !strings.Contains(out, "round,local_epochs,mean_acc") {
		t.Fatalf("missing CSV header:\n%s", out)
	}
	if !strings.Contains(out, "# final:") {
		t.Fatalf("missing final summary:\n%s", out)
	}
}

// The binary-level kill-and-resume golden: checkpoint every round, then
// resume from the middle with a fresh process; stdout and the scheduler
// trace must be byte-identical to the uninterrupted run.
func TestFedsimCheckpointResumeGolden(t *testing.T) {
	dir := t.TempDir()
	common := []string{
		"-dataset", "fashion", "-clients", "4", "-rounds", "4", "-featdim", "16",
		"-sched", "semisync", "-quorum", "2", "-stragglers", "1", "-slowdown", "2", "-seed", "3",
	}
	fullTrace := filepath.Join(dir, "full.trace")
	full := cmdtest.Run(t, nil, append(append([]string(nil), common...), "-trace", fullTrace)...)

	ckptDir := filepath.Join(dir, "ckpt")
	cmdtest.Run(t, nil, append(append([]string(nil), common...), "-checkpoint", ckptDir)...)

	resumeTrace := filepath.Join(dir, "resume.trace")
	resumed := cmdtest.Run(t, nil, append(append([]string(nil), common...),
		"-resume", filepath.Join(ckptDir, "round-00002.ckpt"), "-trace", resumeTrace)...)

	// The resumed run prints an extra "resumed from" notice on stderr;
	// compare the metric lines (stdout content).
	strip := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if !strings.HasPrefix(line, "fedsim: resumed") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	if strip(full) != strip(resumed) {
		t.Fatalf("resumed output differs from uninterrupted run\n--- full ---\n%s\n--- resumed ---\n%s", full, resumed)
	}
	ft, err := os.ReadFile(fullTrace)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := os.ReadFile(resumeTrace)
	if err != nil {
		t.Fatal(err)
	}
	if string(ft) != string(rt) {
		t.Fatal("resumed scheduler trace differs from uninterrupted run")
	}
}

// An async checkpoint holds no trace of the core count: the same run at
// GOMAXPROCS 1 and 4 writes byte-identical files, for FedClassAvg and for
// FedAvg's full-model average.
func TestFedsimCheckpointBytesAcrossCores(t *testing.T) {
	for _, method := range []string{"Proposed", "FedAvg"} {
		dirs := map[string]string{}
		for _, procs := range []string{"1", "4"} {
			dirs[procs] = filepath.Join(t.TempDir(), "ckpt")
			cmdtest.Run(t, []string{"GOMAXPROCS=" + procs}, "-dataset", "fashion", "-method", method,
				"-sched", "async", "-clients", "4", "-rounds", "2", "-fleet", "homogeneous",
				"-checkpoint", dirs[procs])
		}
		files, err := filepath.Glob(filepath.Join(dirs["1"], "*.ckpt"))
		if err != nil || len(files) != 2 {
			t.Fatalf("%s: checkpoints %v (err %v), want 2", method, files, err)
		}
		for _, one := range files {
			a, err := os.ReadFile(one)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(filepath.Join(dirs["4"], filepath.Base(one)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("%s: %s differs between GOMAXPROCS 1 and 4", method, filepath.Base(one))
			}
		}
	}
}

// The dtype-generic numeric core, end to end through flags: an f32 run
// produces a learning curve, a custom -arch/-width rotation builds, and a
// dtype-mismatched resume is rejected as a usage error.
func TestFedsimDTypeAndRotationFlags(t *testing.T) {
	out := cmdtest.Run(t, nil, "-dataset", "fashion", "-clients", "4", "-rounds", "2",
		"-featdim", "16", "-dtype", "f32")
	if !strings.Contains(out, "dtype f32") || !strings.Contains(out, "# final:") {
		t.Fatalf("f32 run output:\n%s", out)
	}

	out = cmdtest.Run(t, nil, "-dataset", "fashion", "-clients", "4", "-rounds", "1",
		"-featdim", "16", "-arch", "resnet,alexnet", "-width", "1,2", "-method", "FedProto")
	if !strings.Contains(out, "custom(resnet,alexnet)") {
		t.Fatalf("rotation fleet not reported:\n%s", out)
	}

	dir := t.TempDir()
	ckptDir := filepath.Join(dir, "ckpt")
	common := []string{"-dataset", "fashion", "-clients", "4", "-rounds", "2", "-featdim", "16", "-dtype", "f32"}
	cmdtest.Run(t, nil, append(append([]string(nil), common...), "-checkpoint", ckptDir)...)
	out = cmdtest.RunErr(t, 2, nil, "-dataset", "fashion", "-clients", "4", "-rounds", "3",
		"-featdim", "16", "-dtype", "f64", "-resume", filepath.Join(ckptDir, "round-00001.ckpt"))
	if !strings.Contains(out, "dtype") {
		t.Fatalf("dtype mismatch not reported:\n%s", out)
	}
}

// The -resident flag: a lazy virtual fleet runs end to end — a named fleet
// or an -arch/-width rotation alike — any finite budget reproduces any other
// budget byte for byte, a mid-run checkpoint resumes, -evalsample samples an
// eager fleet too, and the flag interlocks reject in the standard usage
// style.
func TestFedsimLazyFleetFlags(t *testing.T) {
	common := []string{"-dataset", "fashion", "-clients", "50", "-rounds", "3",
		"-featdim", "16", "-rate", "0.1", "-method", "FedAvg", "-fleet", "homogeneous", "-seed", "3"}
	run := func(extra ...string) string {
		out := cmdtest.Run(t, nil, append(append([]string(nil), common...), extra...)...)
		var keep []string
		for _, line := range strings.Split(out, "\n") {
			// The header names the resident budget; metrics must not.
			if !strings.HasPrefix(line, "# fedsim") && !strings.HasPrefix(line, "fedsim: resumed") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	small := run("-resident", "2")
	large := run("-resident", "40")
	if small != large {
		t.Fatalf("resident budget changed the metrics\n--- resident 2 ---\n%s\n--- resident 40 ---\n%s", small, large)
	}

	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	run("-resident", "2", "-checkpoint", ckptDir)
	resumed := run("-resident", "2", "-resume", filepath.Join(ckptDir, "round-00001.ckpt"))
	if small != resumed {
		t.Fatalf("lazy resume differs from uninterrupted run\n--- full ---\n%s\n--- resumed ---\n%s", small, resumed)
	}

	rotation := []string{"-method", "Proposed", "-arch", "resnet,cnn2", "-width", "1,2"}
	rotSmall := run(append([]string{"-resident", "2"}, rotation...)...)
	if rotLarge := run(append([]string{"-resident", "40"}, rotation...)...); rotSmall != rotLarge {
		t.Fatalf("resident budget changed a rotation fleet's metrics\n--- resident 2 ---\n%s\n--- resident 40 ---\n%s", rotSmall, rotLarge)
	}

	out := cmdtest.Run(t, nil, "-dataset", "fashion", "-clients", "8", "-rounds", "2", "-featdim", "16", "-evalsample", "4")
	if !strings.Contains(out, "# final:") {
		t.Fatalf("eager run with -evalsample:\n%s", out)
	}
	if out := cmdtest.RunErr(t, 2, nil, "-resident", "-1"); !strings.Contains(out, "-resident") {
		t.Fatalf("negative resident:\n%s", out)
	}
	if out := cmdtest.RunErr(t, 2, nil, "-resident", "4", "-transport", "tcp"); !strings.Contains(out, "resident") {
		t.Fatalf("resident over tcp:\n%s", out)
	}
}

// The -transport flag: tcp runs the node split over real localhost
// sockets — under any scheduler — and every virtual-clock-only feature is
// rejected with a usage error in the standard post-parse style.
func TestFedsimTransportFlag(t *testing.T) {
	out := cmdtest.Run(t, nil, "-dataset", "fashion", "-clients", "3", "-rounds", "2",
		"-featdim", "16", "-transport", "tcp")
	if !strings.Contains(out, "transport tcp") || !strings.Contains(out, "# final:") {
		t.Fatalf("tcp transport run output:\n%s", out)
	}
	if !strings.Contains(out, "rounds per wall-clock second") {
		t.Fatalf("tcp run should book wall-clock throughput:\n%s", out)
	}
	// The async and semisync schedules run over the wire too (PR 6); a
	// one-round accept check here, accuracy parity in internal/fl's tests.
	out = cmdtest.Run(t, nil, "-dataset", "fashion", "-clients", "3", "-rounds", "1",
		"-featdim", "16", "-transport", "tcp", "-sched", "async", "-staleness", "4")
	if !strings.Contains(out, "sched async") || !strings.Contains(out, "# final:") {
		t.Fatalf("tcp async run output:\n%s", out)
	}
	out = cmdtest.Run(t, nil, "-dataset", "fashion", "-clients", "3", "-rounds", "1",
		"-featdim", "16", "-transport", "tcp", "-sched", "semisync", "-quorum", "2")
	if !strings.Contains(out, "sched semisync") || !strings.Contains(out, "# final:") {
		t.Fatalf("tcp semisync run output:\n%s", out)
	}
	// A scripted rotation is a per-id builder, so client nodes build it too.
	out = cmdtest.Run(t, nil, "-dataset", "fashion", "-clients", "3", "-rounds", "1",
		"-featdim", "16", "-transport", "tcp", "-arch", "resnet,cnn2")
	if !strings.Contains(out, "custom(resnet,cnn2)") || !strings.Contains(out, "# final:") {
		t.Fatalf("tcp rotation run output:\n%s", out)
	}

	common := []string{"-dataset", "fashion", "-clients", "3", "-rounds", "1", "-featdim", "16", "-transport", "tcp"}
	rejects := []struct {
		extra []string
		want  string
	}{
		{[]string{"-checkpoint", t.TempDir()}, "checkpoint"},
		{[]string{"-trace", "/tmp/x.trace"}, "trace"},
		{[]string{"-leave", "0.2"}, "leave"},
		{[]string{"-stragglers", "1"}, "straggler"},
	}
	for _, tc := range rejects {
		out := cmdtest.RunErr(t, 2, nil, append(append([]string(nil), common...), tc.extra...)...)
		if !strings.Contains(out, tc.want) {
			t.Fatalf("rejection for %v should mention %q:\n%s", tc.extra, tc.want, out)
		}
	}
	if out := cmdtest.RunErr(t, 2, nil, "-transport", "smoke-signals"); !strings.Contains(out, "unknown transport") {
		t.Fatalf("bad transport name:\n%s", out)
	}
}
