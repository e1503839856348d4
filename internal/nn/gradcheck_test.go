package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// numericalGrad estimates dLoss/dθ for one scalar θ via central differences.
func numericalGrad(set func(v float64), get func() float64, lossFn func() float64) float64 {
	const eps = 1e-5
	orig := get()
	set(orig + eps)
	up := lossFn()
	set(orig - eps)
	down := lossFn()
	set(orig)
	return (up - down) / (2 * eps)
}

// quadLoss is a simple deterministic scalar loss over a tensor: Σ a_i·y_i²/2
// with fixed pseudo-random a, so dL/dy_i = a_i·y_i.
func quadLoss(y *tensor.Tensor) (float64, *tensor.Tensor) {
	grad := tensor.New(y.Shape...)
	var l float64
	for i, v := range y.Data {
		a := 0.5 + float64((i*2654435761)%97)/97.0
		l += 0.5 * a * v * v
		grad.Data[i] = a * v
	}
	return l, grad
}

// checkLayerGradients verifies analytic parameter and input gradients of a
// layer against finite differences through quadLoss.
func checkLayerGradients(t *testing.T, layer Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	lossFn := func() float64 {
		y := layer.Forward(x.Clone(), true)
		l, _ := quadLoss(y)
		return l
	}
	// Analytic gradients, from the zero gradients packing gives.
	Pack(layer.Params(), tensor.F64)
	y := layer.Forward(x.Clone(), true)
	_, dy := quadLoss(y)
	dx := layer.Backward(dy)

	for _, p := range layer.Params() {
		for j := 0; j < p.Value.Size(); j += gradStride(p.Value.Size()) {
			got := p.Grad.Data[j]
			want := numericalGrad(
				func(v float64) { p.Value.Data[j] = v },
				func() float64 { return p.Value.Data[j] },
				lossFn)
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("%s[%d]: analytic %g vs numeric %g", p.Name, j, got, want)
			}
		}
	}
	for j := 0; j < x.Size(); j += gradStride(x.Size()) {
		got := dx.Data[j]
		want := numericalGrad(
			func(v float64) { x.Data[j] = v },
			func() float64 { return x.Data[j] },
			lossFn)
		if math.Abs(got-want) > tol*(1+math.Abs(want)) {
			t.Fatalf("dx[%d]: analytic %g vs numeric %g", j, got, want)
		}
	}
}

// gradStride samples a subset of coordinates for large tensors to keep the
// finite-difference checks fast while still covering every region.
func gradStride(n int) int {
	if n <= 64 {
		return 1
	}
	return n/64 + 1
}

func randInput(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	x.FillRandn(rng, 1)
	return x
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	layer := NewDense(7, 5, rng)
	checkLayerGradients(t, layer, randInput(rng, 4, 7), 1e-6)
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	layer := NewConv2D(2, 3, 3, 1, 1, 1, rng)
	checkLayerGradients(t, layer, randInput(rng, 2, 2, 5, 5), 1e-5)
}

func TestConv2DStrideGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	layer := NewConv2D(2, 4, 3, 2, 1, 1, rng)
	checkLayerGradients(t, layer, randInput(rng, 2, 2, 6, 6), 1e-5)
}

func TestConv2DGroupedGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	layer := NewConv2D(4, 4, 3, 1, 1, 2, rng)
	checkLayerGradients(t, layer, randInput(rng, 2, 4, 4, 4), 1e-5)
}

func TestConv2DPointwiseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	layer := NewConv2D(4, 6, 1, 1, 0, 1, rng)
	checkLayerGradients(t, layer, randInput(rng, 3, 4, 3, 3), 1e-5)
}

func TestBatchNorm2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	layer := NewBatchNorm2D(3)
	// Nudge gamma/beta off their init so gradients are generic.
	layer.Gamma.Value.FillUniform(rng, 0.5, 1.5)
	layer.Beta.Value.FillUniform(rng, -0.5, 0.5)
	checkLayerGradients(t, layer, randInput(rng, 4, 3, 3, 3), 1e-4)
}

func TestBatchNormEvalModeBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	layer := NewBatchNorm2D(4)
	Pack(layer.Params(), tensor.F64)
	// Train once to move running stats, then check eval-mode gradients.
	x := randInput(rng, 6, 4, 2, 2)
	layer.Forward(x, true)
	evalX := randInput(rng, 3, 4, 2, 2)
	lossFn := func() float64 {
		y := layer.Forward(evalX.Clone(), false)
		l, _ := quadLoss(y)
		return l
	}
	y := layer.Forward(evalX.Clone(), false)
	_, dy := quadLoss(y)
	dx := layer.Backward(dy)
	for j := 0; j < evalX.Size(); j++ {
		want := numericalGrad(
			func(v float64) { evalX.Data[j] = v },
			func() float64 { return evalX.Data[j] },
			lossFn)
		if math.Abs(dx.Data[j]-want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("eval dx[%d]: analytic %g vs numeric %g", j, dx.Data[j], want)
		}
	}
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	layer := NewMaxPool2D(2, 2)
	checkLayerGradients(t, layer, randInput(rng, 2, 2, 4, 4), 1e-6)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	layer := NewGlobalAvgPool()
	checkLayerGradients(t, layer, randInput(rng, 2, 3, 4, 4), 1e-6)
}

func TestReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	layer := NewReLU()
	checkLayerGradients(t, layer, randInput(rng, 3, 9), 1e-6)
}

func TestChannelShuffleGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	layer := NewChannelShuffle(2)
	checkLayerGradients(t, layer, randInput(rng, 2, 4, 3, 3), 1e-6)
}

func TestResidualIdentityGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	body := NewSequential(
		NewConv2D(2, 2, 3, 1, 1, 1, rng),
		NewReLU(),
	)
	layer := NewResidual(body, nil)
	checkLayerGradients(t, layer, randInput(rng, 2, 2, 4, 4), 1e-5)
}

func TestResidualProjectionGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	body := NewSequential(
		NewConv2D(2, 4, 3, 1, 1, 1, rng),
	)
	skip := NewSequential(
		NewConv2D(2, 4, 1, 1, 0, 1, rng),
	)
	layer := NewResidual(body, skip)
	checkLayerGradients(t, layer, randInput(rng, 2, 2, 4, 4), 1e-5)
}

func TestInceptionGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	layer := NewInception(
		NewSequential(NewConv2D(3, 2, 1, 1, 0, 1, rng), NewReLU()),
		NewSequential(NewConv2D(3, 2, 1, 1, 0, 1, rng), NewReLU(), NewConv2D(2, 3, 3, 1, 1, 1, rng)),
	)
	checkLayerGradients(t, layer, randInput(rng, 2, 3, 4, 4), 1e-5)
}

func TestSequentialCompositeGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	layer := NewSequential(
		NewConv2D(1, 3, 3, 1, 1, 1, rng),
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewFlatten(),
		NewDense(3*3*3, 4, rng),
	)
	checkLayerGradients(t, layer, randInput(rng, 2, 1, 6, 6), 1e-5)
}
