package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// tinyRounds keeps every workload's rep under a second while still crossing
// an evaluation boundary on the EvalEvery-5 node workloads.
var tinyRounds = map[string]int{
	"het_sync":         3,
	"wire_sparse_tcp":  6,
	"wire_dense_tree":  6,
	"lazy_async_churn": 12,
}

// inProcess runs reps in the test process instead of a child.
func inProcess(outDir string) repRunner {
	return func(ctx context.Context, w *workload, seed int64, traced bool) (*repResult, error) {
		return runRep(ctx, w, seed, traced, outDir)
	}
}

func loadBenchFile(t *testing.T) *benchFile {
	t.Helper()
	bf, err := readBenchFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	bf := loadBenchFile(t)
	seen := map[string]bool{}
	check := func(kind string, have []metricSpec, n int, at func(int) (string, string)) {
		if len(have) != n {
			t.Fatalf("%s: %d metrics in the command, %d in BENCHMARK.json", kind, len(have), n)
		}
		for i, m := range have {
			name, unit := at(i)
			if m.Name != name || m.Unit != unit {
				t.Errorf("%s[%d]: command has %s (%s), BENCHMARK.json has %s (%s)", kind, i, m.Name, m.Unit, name, unit)
			}
			if !nameRE.MatchString(m.Name) || len(m.Name) > 64 {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64 characters", m.Name)
			}
			if m.Unit == "" {
				t.Errorf("metric %s has no unit", m.Name)
			}
			if seen[m.Name] {
				t.Errorf("metric %s is named twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	check("end_to_end", endToEnd, len(bf.EndToEnd), func(i int) (string, string) { return bf.EndToEnd[i].Name, bf.EndToEnd[i].Unit })
	check("per_layer", perLayer, len(bf.PerLayer), func(i int) (string, string) { return bf.PerLayer[i].Name, bf.PerLayer[i].Unit })
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the command, %d in BENCHMARK.json", len(workloads), len(bf.Workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: command has %s, BENCHMARK.json has %s", i, w.Name, bf.Workloads[i].Name)
		}
	}
}

// emitted decodes the driver line and checks it carries exactly the metrics
// of want, each once and with its unit.
func emitted(t *testing.T, res *runResult, want []metricSpec) {
	t.Helper()
	var line struct {
		Correct   *bool                  `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    *int                   `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(driverLine(res)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("%s: driver line: %v", res.Workload, err)
	}
	if line.Correct == nil || line.Failed == nil || line.Attempted < 1 {
		t.Errorf("%s: driver line lacks correct/failed or attempted < 1", res.Workload)
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, want %d", res.Workload, len(line.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := line.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", res.Workload, m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", res.Workload, m.Name, got.Unit, m.Unit)
		}
	}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	run := inProcess(t.TempDir())
	ctx := context.Background()
	for _, full := range workloads {
		w := *full
		w.Rounds = tinyRounds[w.Name]
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel() // nothing here reads a clock for its verdict
			// Two real reps of one seed, folded as a run folds its three.
			st := &repState{w: &w}
			for len(st.reps) < 2 {
				rep, err := run(ctx, &w, 1, false)
				if err != nil {
					t.Fatal(err)
				}
				st.reps = append(st.reps, rep)
			}
			e2e := aggregate(st, 1)
			emitted(t, e2e, endToEnd)
			for _, f := range e2e.Failures {
				// A three-round run cannot reach its target or floor; anything
				// else — lost rounds, node errors, broken ledgers, reps of one
				// seed that disagree — is real.
				if !regexp.MustCompile(`^(target|final_acc) `).MatchString(f) {
					t.Error(f)
				}
			}
			for _, m := range endToEnd {
				if v := e2e.Metrics[m.Name].Value; !(v > 0) {
					t.Errorf("end-to-end metric %s is %v, must be positive", m.Name, v)
				}
			}

			tr, err := traced(ctx, &w, 1, run)
			if err != nil {
				t.Fatal(err)
			}
			emitted(t, tr, perLayer)
			checkSpanFile(t, tr.TraceFile)
		})
	}
}

// TestMeasureRerunsDriftedReps gives measure a host whose calibration moves
// under the first three reps: two are discarded and rerun, the third is kept
// because the run's retries are spent, and the rep count stays fixed.
func TestMeasureRerunsDriftedReps(t *testing.T) {
	w := findWorkload("het_sync")
	calls := 0
	run := func(context.Context, *workload, int64, bool) (*repResult, error) {
		calls++
		after := 1.0
		if calls <= 3 {
			after = 1.2
		}
		return &repResult{E2E: map[string]float64{}, CalibBeforeMs: 1, CalibAfterMs: after, Attempted: 1, HistoryKey: "k"}, nil
	}
	results, err := measure(context.Background(), []*workload{w}, 1, run)
	if err != nil {
		t.Fatal(err)
	}
	if res := results[0]; res.Reps != reps || res.Retries != maxRetries || calls != reps+maxRetries {
		t.Errorf("%d reps kept, %d retries, %d reps run; want %d, %d, %d", res.Reps, res.Retries, calls, reps, maxRetries, reps+maxRetries)
	}
}

// TestSelfcheckHoldsExactMetricsToEquality feeds selfcheck two sets that
// differ by one part in a million in a count metric: far inside every bound,
// and still a disagreement.
func TestSelfcheckHoldsExactMetricsToEquality(t *testing.T) {
	bf := loadBenchFile(t)
	w := findWorkload("het_sync")
	calls := 0
	rep := func(rounds float64) repRunner {
		return func(context.Context, *workload, int64, bool) (*repResult, error) {
			calls++
			e2e := map[string]float64{}
			for _, m := range endToEnd {
				e2e[m.Name] = 1
			}
			if calls > reps { // the second set
				e2e["rounds_to_target"] = rounds
			}
			return &repResult{E2E: e2e, CalibBeforeMs: 1, CalibAfterMs: 1, Attempted: 1, HistoryKey: "k"}, nil
		}
	}
	if ok, err := selfcheck(context.Background(), []*workload{w}, 1, rep(1), bf); err != nil || !ok {
		t.Errorf("two equal sets: ok=%v err=%v, want agreement", ok, err)
	}
	calls = 0
	if ok, err := selfcheck(context.Background(), []*workload{w}, 1, rep(1.000001), bf); err != nil || ok {
		t.Errorf("rounds_to_target moved by 1e-6: ok=%v err=%v, want a disagreement", ok, err)
	}
}

func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("%s does not parse: %v", path, err)
	}
	if len(tf.Spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	for i, s := range tf.Spans {
		if s.ID != i || s.End < s.Start {
			t.Fatalf("%s: span %d has id %d, interval [%d,%d]", path, i, s.ID, s.Start, s.End)
		}
		if s.Parent >= 0 {
			p := tf.Spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				t.Errorf("%s: span %d %s [%d,%d] leaves its parent %d %s [%d,%d]",
					path, s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
			}
		}
	}
	for id, self := range selfTimes(tf.Spans) {
		if self < 0 {
			t.Errorf("%s: span %d has self time %d", path, id, self)
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "round", Start: 0, End: 100, Parent: -1},
		{ID: 1, Name: "step", Start: 10, End: 40, Parent: 0},
		{ID: 2, Name: "step", Start: 30, End: 60, Parent: 0}, // overlaps span 1
		{ID: 3, Name: "inner", Start: 35, End: 38, Parent: 2},
	}
	want := []int64{50, 30, 27, 3}
	for id, got := range selfTimes(spans) {
		if got != want[id] {
			t.Errorf("span %d: self time %d, want %d", id, got, want[id])
		}
	}
}

func TestPercentileRefusesAThinTail(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 95); err == nil {
		t.Error("p95 of 199 samples leaves 10 beyond it only from 200 up; want a refusal")
	}
	xs = append(xs, 200)
	got, err := percentile(xs, 95)
	if err != nil || got != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190", got, err)
	}
	if got, err := percentile(xs[:100], 90); err != nil || got != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", got, err)
	}
}

func TestTrailingMeanAveragesAtMostKPoints(t *testing.T) {
	got := trailingMean([]float64{3, 5, 10, 0, 2}, 3)
	want := []float64{3, 4, 6, 5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("trailing mean = %v, want %v", got, want)
			break
		}
	}
}

func TestFirstCrossingOnANonMonotoneCurve(t *testing.T) {
	acc := []float64{0.20, 0.58, 0.61, 0.55, 0.66, 0.59}
	if got := firstCrossing(acc, 0.60); got != 2 {
		t.Errorf("first crossing of 0.60 at index %d, want 2: the later dip and recovery must not move it", got)
	}
	if got := firstCrossing(acc, 0.70); got != -1 {
		t.Errorf("crossing of a target never reached = %d, want -1", got)
	}
}
