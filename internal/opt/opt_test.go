package opt

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// quadratic problem: minimize Σ (w_i - target_i)², gradient 2(w - t).
func quadParams(rng *rand.Rand, n int) (*nn.Param, []float64) {
	p := &nn.Param{Name: "w", Value: tensor.New(n), Grad: tensor.New(n)}
	p.Value.FillRandn(rng, 1)
	nn.Pack([]*nn.Param{p}, tensor.F64)
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
		p := &nn.Param{Name: "w", Value: tensor.New(1), Grad: tensor.New(1)}
		nn.Pack([]*nn.Param{p}, tensor.F64)
		p.Grad.Data[0] = g
		NewAdam(0.01).Step([]*nn.Param{p})
		if math.Abs(math.Abs(p.Value.Data[0])-0.01) > 1e-3 {
			t.Fatalf("first step %v for grad %v, want ≈ 0.01", p.Value.Data[0], g)
		}
	}
}

func TestOptimizerStatePerParameter(t *testing.T) {
	// Moments must be tracked per parameter, not shared.
	a := &nn.Param{Name: "a", Value: tensor.New(1), Grad: tensor.New(1)}
	b := &nn.Param{Name: "b", Value: tensor.New(1), Grad: tensor.New(1)}
	nn.Pack([]*nn.Param{a, b}, tensor.F64)
	a.Grad.Data[0], b.Grad.Data[0] = 1, -1
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

// Adam is an exported struct, so it steps as a literal exactly as the
// constructor's instance does, and its State is the step count, lent
// without allocating; the moments are the model's.
func TestOptimizerLiteralsMatchConstructors(t *testing.T) {
	got, want := &Adam{LR: 0.1, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}, NewAdam(0.1)
	var vals [2][]float64
	var p *nn.Param
	for i, o := range []Optimizer{got, want} {
		var target []float64
		p, target = quadParams(rand.New(rand.NewSource(5)), 6)
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
	st := got.State()
	if len(st.Ints) != 1 || st.Ints[0] != 3 || len(st.Vecs) != 0 {
		t.Fatalf("state %+v after 3 steps, want the step count 3 alone", st)
	}
	if &st.Ints[0] != &got.State().Ints[0] {
		t.Fatal("State copied the step count")
	}
	if n := testing.AllocsPerRun(10, func() { st = got.State() }); n != 0 {
		t.Fatalf("State allocates %.0f times", n)
	}
	if !nn.MomentsLive([]*nn.Param{p}) || p.M.Size() != 6 || p.V.Size() != 6 || p.V.Data[0] == 0 {
		t.Fatal("the stepped model holds no moments")
	}
	b := NewAdam(0.1)
	if err := b.SetState(State{Ints: []int64{7}}); err != nil || b.State().Ints[0] != 7 {
		t.Fatalf("SetState of step count 7: %v, then %v", err, b.State())
	}
	for _, bad := range []State{{}, {Ints: []int64{1, 2}}, {Ints: []int64{1}, Vecs: [][]float64{{0}}}} {
		if b.SetState(bad) == nil {
			t.Fatalf("SetState accepted %+v", bad)
		}
	}
}
