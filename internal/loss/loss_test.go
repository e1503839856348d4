package loss

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func numGrad(x *tensor.Tensor, j int, f func() float64) float64 {
	const eps = 1e-6
	orig := x.Data[j]
	x.Data[j] = orig + eps
	up := f()
	x.Data[j] = orig - eps
	down := f()
	x.Data[j] = orig
	return (up - down) / (2 * eps)
}

func TestCrossEntropyGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	logits := tensor.New(5, 4)
	logits.FillRandn(rng, 1.5)
	labels := []int{0, 3, 2, 1, 3}
	_, grad := CrossEntropy(logits, labels)
	for j := 0; j < logits.Size(); j++ {
		want := numGrad(logits, j, func() float64 {
			l, _ := CrossEntropy(logits, labels)
			return l
		})
		if math.Abs(grad.Data[j]-want) > 1e-6 {
			t.Fatalf("dlogits[%d]: analytic %g vs numeric %g", j, grad.Data[j], want)
		}
	}
}

func TestCrossEntropyValue(t *testing.T) {
	// Uniform logits must give loss log(C).
	logits := tensor.New(3, 4)
	l, _ := CrossEntropy(logits, []int{0, 1, 2})
	if math.Abs(l-math.Log(4)) > 1e-12 {
		t.Fatalf("uniform CE = %g, want log 4 = %g", l, math.Log(4))
	}
	// A huge correct logit drives the loss to ~0.
	conf := tensor.New(1, 3)
	conf.Set(0, 1, 50)
	l2, _ := CrossEntropy(conf, []int{1})
	if l2 > 1e-10 {
		t.Fatalf("confident CE = %g, want ~0", l2)
	}
}

func TestCrossEntropyStability(t *testing.T) {
	logits := tensor.FromSlice([]float64{1e4, -1e4, 0}, 1, 3)
	l, grad := CrossEntropy(logits, []int{0})
	if math.IsNaN(l) || math.IsInf(l, 0) {
		t.Fatalf("CE overflowed: %g", l)
	}
	for _, g := range grad.Data {
		if math.IsNaN(g) {
			t.Fatal("CE gradient NaN")
		}
	}
}

func TestSupConGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	features := tensor.New(8, 5) // 2N=8, N=4
	features.FillRandn(rng, 1)
	labels := []int{0, 1, 0, 2}
	_, grad := SupCon(features, labels, SupConOptions{Temperature: 0.3})
	for j := 0; j < features.Size(); j++ {
		want := numGrad(features, j, func() float64 {
			l, _ := SupCon(features, labels, SupConOptions{Temperature: 0.3})
			return l
		})
		if math.Abs(grad.Data[j]-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("dfeat[%d]: analytic %g vs numeric %g", j, grad.Data[j], want)
		}
	}
}

func TestSupConPullsPositivesTogether(t *testing.T) {
	// Two classes, features almost aligned within class: the loss must be
	// lower than for shuffled labels.
	rng := rand.New(rand.NewSource(3))
	feats := tensor.New(8, 4)
	base := [][]float64{{1, 0, 0, 0}, {0, 1, 0, 0}}
	labels := []int{0, 1, 0, 1}
	for i := 0; i < 8; i++ {
		cls := labels[i%4]
		for j := 0; j < 4; j++ {
			feats.Set(i, j, base[cls][j]+0.05*rng.NormFloat64())
		}
	}
	aligned, _ := SupCon(feats, labels)
	mis, _ := SupCon(feats, []int{0, 0, 1, 1})
	if aligned >= mis {
		t.Fatalf("aligned loss %g should beat misaligned %g", aligned, mis)
	}
}

func TestSupConScaleInvariance(t *testing.T) {
	// SupCon normalizes features, so scaling all features must not change
	// the loss value.
	rng := rand.New(rand.NewSource(4))
	f1 := tensor.New(6, 3)
	f1.FillRandn(rng, 1)
	labels := []int{0, 1, 2}
	l1, _ := SupCon(f1, labels)
	f2 := tensor.Scale(f1, 7.3)
	l2, _ := SupCon(f2, labels)
	if math.Abs(l1-l2) > 1e-9 {
		t.Fatalf("scale changed SupCon: %g vs %g", l1, l2)
	}
}

func TestProximalGradientAndValue(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := &nn.Param{Name: "w", Value: tensor.New(4), Grad: tensor.New(4)}
	p.Value.FillRandn(rng, 1)
	global := []float64{0.1, -0.2, 0.3, 0}
	rho := 0.25
	penalty := Proximal([]*nn.Param{p}, global, rho)
	var want float64
	for j, g := range global {
		d := p.Value.Data[j] - g
		want += d * d
		if gotG, wantG := p.Grad.Data[j], 2*rho*d; math.Abs(gotG-wantG) > 1e-12 {
			t.Fatalf("prox grad[%d] = %g, want %g", j, gotG, wantG)
		}
	}
	if math.Abs(penalty-rho*want) > 1e-12 {
		t.Fatalf("prox penalty = %g, want %g", penalty, rho*want)
	}
	// rho=0 must be a no-op.
	before := p.Grad.Clone()
	if got := Proximal([]*nn.Param{p}, global, 0); got != 0 {
		t.Fatalf("rho=0 penalty = %g", got)
	}
	if !tensor.ApproxEqual(before, p.Grad, 0) {
		t.Fatal("rho=0 modified gradients")
	}
}

func TestKLDistillGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	logits := tensor.New(4, 5)
	logits.FillRandn(rng, 1)
	teacher := tensor.New(4, 5)
	teacher.FillUniform(rng, 0.05, 1)
	for i := 0; i < 4; i++ {
		row := teacher.Row(i)
		var s float64
		for _, v := range row {
			s += v
		}
		for j := range row {
			row[j] /= s
		}
	}
	const temp = 2.0
	_, grad := KLDistill(logits, teacher, temp)
	for j := 0; j < logits.Size(); j++ {
		want := numGrad(logits, j, func() float64 {
			l, _ := KLDistill(logits, teacher, temp)
			return l
		})
		if math.Abs(grad.Data[j]-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("distill dlogits[%d]: analytic %g vs numeric %g", j, grad.Data[j], want)
		}
	}
}

func TestKLDistillZeroWhenMatched(t *testing.T) {
	logits := tensor.FromSlice([]float64{1, 2, 3}, 1, 3)
	teacher := SoftmaxWithTemperature(logits, 2.0)
	l, grad := KLDistill(logits, teacher, 2.0)
	if l > 1e-12 {
		t.Fatalf("matched distill loss = %g, want 0", l)
	}
	if grad.MaxAbs() > 1e-12 {
		t.Fatalf("matched distill grad max %g, want 0", grad.MaxAbs())
	}
}

func TestSoftmaxWithTemperature(t *testing.T) {
	logits := tensor.FromSlice([]float64{2, 0, -2}, 1, 3)
	p := SoftmaxWithTemperature(logits, 1)
	var s float64
	for _, v := range p.Data {
		s += v
	}
	if math.Abs(s-1) > 1e-12 {
		t.Fatalf("softmax rows must sum to 1, got %g", s)
	}
	// Higher temperature flattens the distribution.
	pHot := SoftmaxWithTemperature(logits, 10)
	if pHot.Data[0]-pHot.Data[2] >= p.Data[0]-p.Data[2] {
		t.Fatal("high temperature should flatten the softmax")
	}
}
