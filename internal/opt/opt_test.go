package opt

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// quadratic problem: minimize Σ (w_i - target_i)², gradient 2(w - t).
func quadParams(rng *rand.Rand, n int) (*nn.Param, []float64) {
	p := &nn.Param{Name: "w", Value: tensor.New(n), Grad: tensor.New(n)}
	p.Value.FillRandn(rng, 1)
	target := make([]float64, n)
	for i := range target {
		target[i] = rng.NormFloat64()
	}
	return p, target
}

func lossAndGrad(p *nn.Param, target []float64) float64 {
	var l float64
	for i, w := range p.Value.Data {
		d := w - target[i]
		l += d * d
		p.Grad.Data[i] = 2 * d
	}
	return l
}

func converges(t *testing.T, o Optimizer, steps int, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	p, target := quadParams(rng, 8)
	initial := lossAndGrad(p, target)
	for i := 0; i < steps; i++ {
		lossAndGrad(p, target)
		o.Step([]*nn.Param{p})
	}
	final := lossAndGrad(p, target)
	if final > initial*tol {
		t.Fatalf("did not converge: %g → %g", initial, final)
	}
}

func TestAdamConverges(t *testing.T) {
	converges(t, NewAdam(0.1), 300, 1e-3)
}

func TestAdamFirstStepIsLRSized(t *testing.T) {
	// With bias correction, the first Adam step has magnitude ≈ lr
	// regardless of gradient scale.
	for _, g := range []float64{1e-6, 1, 1e6} {
		p := &nn.Param{Name: "w", Value: tensor.New(1), Grad: tensor.FromSlice([]float64{g}, 1)}
		NewAdam(0.01).Step([]*nn.Param{p})
		if math.Abs(math.Abs(p.Value.Data[0])-0.01) > 1e-3 {
			t.Fatalf("first step %v for grad %v, want ≈ 0.01", p.Value.Data[0], g)
		}
	}
}

func TestOptimizerStatePerParameter(t *testing.T) {
	// Moments must be tracked per parameter, not shared.
	a := &nn.Param{Name: "a", Value: tensor.New(1), Grad: tensor.FromSlice([]float64{1}, 1)}
	b := &nn.Param{Name: "b", Value: tensor.New(1), Grad: tensor.FromSlice([]float64{-1}, 1)}
	o := NewAdam(0.1)
	o.Step([]*nn.Param{a, b})
	o.Step([]*nn.Param{a, b})
	if a.Value.Data[0] >= 0 || b.Value.Data[0] <= 0 {
		t.Fatalf("moments mixed across params: a=%v b=%v", a.Value.Data[0], b.Value.Data[0])
	}
	if math.Abs(a.Value.Data[0]+b.Value.Data[0]) > 1e-12 {
		t.Fatalf("symmetric problem should stay symmetric: a=%v b=%v", a.Value.Data[0], b.Value.Data[0])
	}
}

// A restored snapshot from a differently shaped model must fail with the
// shape diagnostic at the next Step — at either dtype — rather than an
// index-out-of-range inside the update loop.
func TestRestoredStateShapeMismatchPanics(t *testing.T) {
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
		rng := rand.New(rand.NewSource(41))
		layer := nn.NewDense(3, 2, rng)
		nn.Pack(layer.Params(), dt)
		ad := NewAdam(0.01)
		if err := ad.SetState(State{Ints: []int64{1}, Vecs: [][]float64{{1, 2}, {3, 4}}}); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%v: mismatched restored state must panic", dt)
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "restored state") {
					t.Fatalf("%v: want the shape diagnostic, got %v", dt, r)
				}
			}()
			ad.Step(layer.Params())
		}()
	}
}

// Borrow lends the optimizer's own vectors and counter without allocating,
// Adopt keeps the vectors it is handed, and State/SetState — their copying
// forms — share nothing with either side.
func TestBorrowAdoptAliasStateCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p, target := quadParams(rng, 4)
	params := []*nn.Param{p}
	a := NewAdam(0.1)
	for i := 0; i < 3; i++ {
		lossAndGrad(p, target)
		a.Step(params)
	}
	live := a.Borrow()
	if len(live.Ints) != 1 || live.Ints[0] != 3 || len(live.F64) != 2*4 || live.F32 != nil || len(live.Sizes) != 1 {
		t.Fatalf("borrowed %+v, want step 3 and m, v in one float64 slab", live)
	}
	if &live.F64[0] != &a.Borrow().F64[0] {
		t.Fatal("Borrow copied the moments")
	}
	if n := testing.AllocsPerRun(10, func() { live = a.Borrow() }); n != 0 {
		t.Fatalf("Borrow allocates %.0f times", n)
	}

	st := a.State()
	if len(st.Vecs) != 2 || &st.Vecs[0][0] == &live.F64[0] || &st.Ints[0] == &live.Ints[0] {
		t.Fatal("State aliases the optimizer, or does not split m and v")
	}
	b := NewAdam(0.1)
	if err := b.SetState(st); err != nil {
		t.Fatal(err)
	}
	st.Vecs[0][0]++ // must not reach b
	if got := b.Borrow(); got.F64[0] != live.F64[0] || got.Ints[0] != 3 {
		t.Fatal("SetState kept a reference to its argument")
	}

	slab := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if err := b.Adopt(Live{Ints: []int64{7}, F64: slab, Sizes: []int{4}}); err != nil {
		t.Fatal(err)
	}
	if got := b.Borrow(); &got.F64[4] != &slab[4] || got.Ints[0] != 7 {
		t.Fatal("Adopt copied the slab it was given")
	}
	if err := b.Adopt(Live{Ints: []int64{1}, F64: slab[:4], Sizes: []int{4}}); err == nil {
		t.Fatal("Adam adopted one moment per value")
	}
	if err := b.Adopt(Live{Ints: []int64{1}, F64: slab, Sizes: []int{3}}); err == nil {
		t.Fatal("Adam adopted a slab longer than its blocks")
	}
	if err := b.Adopt(Live{F64: slab, Sizes: []int{4}}); err == nil {
		t.Fatal("Adam adopted a state without its step count")
	}
}

// Adam is an exported struct, so it steps and lends its state when built as
// a literal exactly as the constructor's instance does.
func TestOptimizerLiteralsMatchConstructors(t *testing.T) {
	got, want := &Adam{LR: 0.1, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}, NewAdam(0.1)
	var vals [2][]float64
	for i, o := range []Optimizer{got, want} {
		p, target := quadParams(rand.New(rand.NewSource(5)), 6)
		for range 3 {
			lossAndGrad(p, target)
			o.Step([]*nn.Param{p})
		}
		vals[i] = p.Value.Data
	}
	for j := range vals[0] {
		if vals[0][j] != vals[1][j] {
			t.Fatalf("value %d is %v, the constructor's instance reaches %v", j, vals[0][j], vals[1][j])
		}
	}
	live := got.Borrow()
	if len(live.Ints) != 1 || len(live.F64) != 2*6 {
		t.Fatalf("lends %d ints and %d moments, want 1 and %d", len(live.Ints), len(live.F64), 2*6)
	}
	if live.Ints[0] != 3 {
		t.Fatalf("lends step count %d after 3 steps", live.Ints[0])
	}
}
