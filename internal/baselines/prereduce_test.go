package baselines

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fl"
)

// groupAndReduce drives the tree path: split ups into consecutive groups,
// PreReduce each, and fold the aggregates into algo's accumulators.
func groupAndReduce(t *testing.T, algo fl.ReducibleWireAlgorithm, ups []*fl.Update, sizes []int) {
	t.Helper()
	c := 0
	for a, sz := range sizes {
		au, err := algo.PreReduce(ups[c : c+sz])
		if err != nil {
			t.Fatalf("PreReduce group %d: %v", a, err)
		}
		au.Agg = a
		if err := algo.WireApplyAggregate(au); err != nil {
			t.Fatalf("WireApplyAggregate group %d: %v", a, err)
		}
		c += sz
	}
}

func maxRelDiff(a, b []float64) float64 {
	var worst float64
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if m := math.Max(math.Abs(a[i]), math.Abs(b[i])); m > 0 {
			d /= m
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// FedAvg's pre-reduction: singleton groups (and any grouping of
// integer-valued data) commit byte-identically to flat fan-in; arbitrary
// float data under arbitrary grouping stays within regrouping noise.
func TestFedAvgPreReduceParity(t *testing.T) {
	const n, k = 33, 6
	joins := make([]fl.WireJoin, k)
	init := make([]float64, n)
	for i := range init {
		init[i] = float64(i)
	}
	for i := range joins {
		joins[i] = fl.WireJoin{ID: i, TrainSize: 10 + i, NumParams: n, Init: [][]float64{init}}
	}
	makeUps := func(integer bool, rng *rand.Rand) []*fl.Update {
		ups := make([]*fl.Update, k)
		for c := range ups {
			v := make([]float64, n)
			for i := range v {
				if integer {
					v[i] = float64(rng.Intn(512) - 256)
				} else {
					v[i] = rng.NormFloat64()
				}
			}
			w := float64(1 + rng.Intn(5))
			if !integer {
				w = rng.Float64() + 0.5
			}
			ups[c] = &fl.Update{Client: c, Weight: w, Vecs: bodies(v)}
		}
		return ups
	}
	run := func(ups []*fl.Update, sizes []int) []float64 {
		algo := NewFedAvg(1)
		if err := algo.WireSetup(joins, 3); err != nil {
			t.Fatal(err)
		}
		if sizes == nil {
			for _, u := range ups {
				if err := algo.WireApply(u); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			groupAndReduce(t, algo, ups, sizes)
		}
		if err := algo.WireCommit(); err != nil {
			t.Fatal(err)
		}
		return algo.Global()
	}

	intUps := makeUps(true, rand.New(rand.NewSource(7)))
	want := run(intUps, nil)
	for _, sizes := range [][]int{{1, 1, 1, 1, 1, 1}, {3, 3}, {2, 4}, {6}} {
		got := run(intUps, sizes)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("integer data, grouping %v: global[%d] = %v, want %v", sizes, i, got[i], want[i])
			}
		}
	}

	fUps := makeUps(false, rand.New(rand.NewSource(9)))
	wantF := run(fUps, nil)
	gotSingle := run(fUps, []int{1, 1, 1, 1, 1, 1})
	for i := range gotSingle {
		if math.Float64bits(gotSingle[i]) != math.Float64bits(wantF[i]) {
			t.Fatalf("singleton groups must be bit-exact: global[%d] = %v, want %v", i, gotSingle[i], wantF[i])
		}
	}
	if d := maxRelDiff(run(fUps, []int{3, 3}), wantF); d > 1e-12 {
		t.Fatalf("float data, grouping {3,3}: rel diff %g", d)
	}
}

// FedProto's segmented pre-reduction: per-class exact sums with per-class
// weights commit byte-identically to flat fan-in on integer data, with
// partial reports (nil classes, zero counts) preserved.
func TestFedProtoPreReduceParity(t *testing.T) {
	const featDim, numClasses, k = 5, 4, 6
	joins := make([]fl.WireJoin, k)
	for i := range joins {
		joins[i] = fl.WireJoin{ID: i, TrainSize: 10, FeatDim: featDim, NumClasses: numClasses}
	}
	rng := rand.New(rand.NewSource(11))
	ups := make([]*fl.Update, k)
	for c := range ups {
		vecs := make([][]float64, numClasses)
		counts := make([]int, numClasses)
		for cls := range vecs {
			if rng.Intn(3) == 0 {
				continue
			}
			v := make([]float64, featDim)
			for i := range v {
				v[i] = float64(rng.Intn(128) - 64)
			}
			vecs[cls] = v
			counts[cls] = 1 + rng.Intn(9)
		}
		ups[c] = &fl.Update{Client: c, Weight: 1, Vecs: bodies(vecs...), Counts: counts}
	}
	run := func(sizes []int) [][]float64 {
		algo := NewFedProto(1, 1)
		if err := algo.WireSetup(joins, 0); err != nil {
			t.Fatal(err)
		}
		if sizes == nil {
			for _, u := range ups {
				if err := algo.WireApply(u); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			groupAndReduce(t, algo, ups, sizes)
		}
		if err := algo.WireCommit(); err != nil {
			t.Fatal(err)
		}
		out := make([][]float64, numClasses)
		for cls, p := range algo.globalProtos {
			if p != nil {
				out[cls] = append([]float64(nil), p...)
			}
		}
		return out
	}

	want := run(nil)
	for _, sizes := range [][]int{{1, 1, 1, 1, 1, 1}, {3, 3}, {2, 4}, {6}} {
		got := run(sizes)
		for cls := range got {
			if (got[cls] == nil) != (want[cls] == nil) {
				t.Fatalf("grouping %v: class %d reported=%v, want %v", sizes, cls, got[cls] != nil, want[cls] != nil)
			}
			for i := range got[cls] {
				if math.Float64bits(got[cls][i]) != math.Float64bits(want[cls][i]) {
					t.Fatalf("grouping %v: proto[%d][%d] = %v, want %v", sizes, cls, i, got[cls][i], want[cls][i])
				}
			}
		}
	}
}

// KT-pFL has no sound pre-reduction, so aggregators pass its updates
// through; FedAvg's weight average is reducible.
func TestKTpFLPreReduceGuard(t *testing.T) {
	if _, ok := interface{}(NewKTpFLWeights(1)).(fl.ReducibleWireAlgorithm); ok {
		t.Fatal("KT-pFL must not advertise a pre-reduction")
	}
	if _, ok := interface{}(NewFedAvg(1)).(fl.ReducibleWireAlgorithm); !ok {
		t.Fatal("FedAvg must advertise its pre-reduction")
	}
}

// protoFleetSize, protoDim and protoClasses are the geometry of the
// negative-count tests' FedProto reports.
const protoFleetSize, protoDim, protoClasses = 3, 5, 4

// protoReport is client's FedProto report with the given per-class sample
// counts and integer-valued prototypes.
func protoReport(client int, counts ...int) *fl.Update {
	vecs := make([][]float64, protoClasses)
	for cls := range vecs {
		vecs[cls] = make([]float64, protoDim)
		for i := range vecs[cls] {
			vecs[cls][i] = float64(10*client + 3*cls - i)
		}
	}
	return &fl.Update{Client: client, Weight: 1, Vecs: bodies(vecs...), Counts: counts}
}

// protoServer is a FedProto server half set up for protoFleetSize clients.
func protoServer(t *testing.T) *FedProto {
	t.Helper()
	joins := make([]fl.WireJoin, protoFleetSize)
	for i := range joins {
		joins[i] = fl.WireJoin{ID: i, TrainSize: 10, FeatDim: protoDim, NumClasses: protoClasses}
	}
	algo := NewFedProto(1, 1)
	if err := algo.WireSetup(joins, 0); err != nil {
		t.Fatal(err)
	}
	return algo
}

// commitProtos commits algo and returns a copy of its prototype table.
func commitProtos(t *testing.T, algo *FedProto) [][]float64 {
	t.Helper()
	if err := algo.WireCommit(); err != nil {
		t.Fatal(err)
	}
	out := make([][]float64, len(algo.globalProtos))
	for cls, p := range algo.globalProtos {
		out[cls] = append([]float64(nil), p...)
	}
	return out
}

// wantNegativeCount fails unless err refuses client 2's class 1, the
// negative count of negativeReport.
func wantNegativeCount(t *testing.T, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "client 2") || !strings.Contains(err.Error(), "class 1") {
		t.Fatalf("a negative class count: err = %v, want one naming client 2 and class 1", err)
	}
}

// negativeReport is client 2's report with a well-formed class 0 ahead of
// a negative class 1 count: refusing it must fold neither.
func negativeReport() *fl.Update { return protoReport(2, 5, -2, 1, 1) }

func sameProtos(t *testing.T, got, want [][]float64) {
	t.Helper()
	for cls := range want {
		if len(got[cls]) != len(want[cls]) {
			t.Fatalf("class %d: %d dims, want %d", cls, len(got[cls]), len(want[cls]))
		}
		for i := range want[cls] {
			if math.Float64bits(got[cls][i]) != math.Float64bits(want[cls][i]) {
				t.Fatalf("proto[%d][%d] = %v, want %v", cls, i, got[cls][i], want[cls][i])
			}
		}
	}
}

// TestFedProtoPreReduceRejectsNegativeCounts: an aggregator refuses a
// subtree holding a negative class count, naming the client and class, and
// its next reduction — of the well-formed reports — commits at the root to
// the table those reports make alone.
func TestFedProtoPreReduceRejectsNegativeCounts(t *testing.T) {
	good := []*fl.Update{protoReport(0, 3, 1, 2, 4), protoReport(1, 2, 2, 0, 1)}
	agg := NewFedProto(1, 1)
	_, err := agg.PreReduce([]*fl.Update{good[0], negativeReport()})
	wantNegativeCount(t, err)
	au, err := agg.PreReduce(good)
	if err != nil {
		t.Fatal(err)
	}
	root := protoServer(t)
	if err := root.WireApplyAggregate(au); err != nil {
		t.Fatal(err)
	}
	flat := protoServer(t)
	for _, u := range good {
		if err := flat.WireApply(u); err != nil {
			t.Fatal(err)
		}
	}
	sameProtos(t, commitProtos(t, root), commitProtos(t, flat))
}
