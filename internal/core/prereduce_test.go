package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/fl"
)

// FedClassAvg's pre-reduction, both variants: integer-valued data commits
// byte-identically to flat fan-in under any grouping, and with
// ShareAllWeights the classifier recovered from the tail of the merged
// full-model sum matches the flat classifier average exactly.
func TestFedClassAvgPreReduceParity(t *testing.T) {
	const nAll, nC, k = 24, 8, 6
	rng := rand.New(rand.NewSource(13))
	for _, shareAll := range []bool{false, true} {
		want := nC
		if shareAll {
			want = nAll
		}
		init := make([]float64, want)
		for i := range init {
			init[i] = float64(i % 7)
		}
		joins := make([]fl.WireJoin, k)
		for i := range joins {
			joins[i] = fl.WireJoin{ID: i, TrainSize: 10 + i, FeatDim: 4, NumClasses: 2,
				NumParams: nAll, NumClassifier: nC, Init: [][]float64{init}}
		}
		ups := make([]*fl.Update, k)
		for c := range ups {
			v := make([]float64, want)
			for i := range v {
				v[i] = float64(rng.Intn(512) - 256)
			}
			ups[c] = &fl.Update{Client: c, Weight: float64(1 + rng.Intn(4)), Vecs: []comm.Body{comm.AsF64Body(v)}}
		}
		run := func(sizes []int) ([]float64, []float64) {
			algo := New(Options{ShareAllWeights: shareAll})
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
				c := 0
				for a, sz := range sizes {
					au, err := algo.PreReduce(ups[c : c+sz])
					if err != nil {
						t.Fatalf("PreReduce group %d: %v", a, err)
					}
					if err := algo.WireApplyAggregate(au); err != nil {
						t.Fatalf("WireApplyAggregate group %d: %v", a, err)
					}
					c += sz
				}
			}
			if err := algo.WireCommit(); err != nil {
				t.Fatal(err)
			}
			return algo.GlobalClassifier(), algo.Global()
		}

		wantC, wantAll := run(nil)
		for _, sizes := range [][]int{{1, 1, 1, 1, 1, 1}, {3, 3}, {2, 4}, {6}} {
			gotC, gotAll := run(sizes)
			for i := range gotC {
				if math.Float64bits(gotC[i]) != math.Float64bits(wantC[i]) {
					t.Fatalf("shareAll=%v grouping %v: classifier[%d] = %v, want %v", shareAll, sizes, i, gotC[i], wantC[i])
				}
			}
			for i := range gotAll {
				if math.Float64bits(gotAll[i]) != math.Float64bits(wantAll[i]) {
					t.Fatalf("shareAll=%v grouping %v: all[%d] = %v, want %v", shareAll, sizes, i, gotAll[i], wantAll[i])
				}
			}
		}
	}
}

// An aggregator's second round reuses the first one's accumulator and its
// rounded sum (ExactAccumulator.RoundInto): all a repeat PreReduce of the
// same geometry allocates is the envelope of the aggregate it ships — the
// AggUpdate and its one-slot Vecs.
func TestFedClassAvgPreReduceAllocs(t *testing.T) {
	const n, k = 512, 4
	rng := rand.New(rand.NewSource(17))
	ups := make([]*fl.Update, k)
	for c := range ups {
		v := make([]float64, n)
		for i := range v {
			v[i] = 0.05 * rng.NormFloat64()
		}
		ups[c] = &fl.Update{Client: c, Weight: 30, Vecs: []comm.Body{comm.AsF64Body(v)}}
	}
	algo := New(Options{})
	reduce := func() {
		if _, err := algo.PreReduce(ups); err != nil {
			t.Fatal(err)
		}
	}
	reduce()
	if a := testing.AllocsPerRun(10, reduce); a != 2 {
		t.Fatalf("repeat PreReduce: %v allocs per run, want 2 (the shipped aggregate's envelope)", a)
	}
}
