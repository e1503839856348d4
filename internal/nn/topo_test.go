package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// Structural tests of the composite layers in topo.go: concat layouts,
// shuffle permutations, buffer recursion and dtype parity. (Gradient
// correctness is covered separately in gradcheck_test.go.)

func TestChannelShufflePermutation(t *testing.T) {
	// With G=2 and C=4, channel g·(C/G)+i moves to position i·G+g:
	// [0 1 2 3] → positions [0 2 1 3].
	cs := NewChannelShuffle(2)
	x := tensor.New(1, 4, 1, 2)
	for ch := 0; ch < 4; ch++ {
		x.Data[ch*2] = float64(ch)
		x.Data[ch*2+1] = float64(ch) + 0.5
	}
	out := cs.Forward(x, false)
	wantChan := []int{0, 2, 1, 3} // out channel p holds input channel wantChan[p]
	for p, src := range wantChan {
		if out.Data[p*2] != float64(src) || out.Data[p*2+1] != float64(src)+0.5 {
			t.Fatalf("output channel %d holds %v, want channel %d", p, out.Data[p*2:p*2+2], src)
		}
	}
	// Backward applies the inverse permutation: shuffling the output
	// gradient must reproduce the input layout.
	back := cs.Backward(out)
	if !tensor.ApproxEqual(back, x, 0) {
		t.Fatal("Backward(Forward(x)) must be the identity permutation")
	}
}

func TestChannelShuffleRejectsIndivisibleChannels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("channels not divisible by groups must panic")
		}
	}()
	NewChannelShuffle(3).Forward(tensor.New(1, 4, 2, 2), false)
}

func TestInceptionConcatLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// Branch 1: 1×1 conv to 2 channels; branch 2: 1×1 conv to 3 channels.
	b1 := NewSequential(NewConv2D(2, 2, 1, 1, 0, 1, rng))
	b2 := NewSequential(NewConv2D(2, 3, 1, 1, 0, 1, rng))
	in := NewInception(b1, b2)
	x := tensor.New(2, 2, 4, 4)
	x.FillRandn(rng, 1)
	out := in.Forward(x, false)
	if out.Dim(1) != 5 {
		t.Fatalf("concat channels = %d, want 5", out.Dim(1))
	}
	// The first 2 channels of every sample must equal branch 1's output.
	o1 := b1.Forward(x, false)
	spatial := 16
	for i := 0; i < 2; i++ {
		for ch := 0; ch < 2; ch++ {
			for p := 0; p < spatial; p++ {
				got := out.Data[(i*5+ch)*spatial+p]
				want := o1.Data[(i*2+ch)*spatial+p]
				if got != want {
					t.Fatalf("sample %d channel %d pixel %d: %g vs branch %g", i, ch, p, got, want)
				}
			}
		}
	}
}

func TestInceptionRejectsSpatialMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	b1 := NewSequential(NewConv2D(1, 1, 1, 1, 0, 1, rng))
	b2 := NewSequential(NewMaxPool2D(2, 2)) // halves the spatial extent
	in := NewInception(b1, b2)
	defer func() {
		if recover() == nil {
			t.Fatal("branches with different spatial extents must panic")
		}
	}()
	in.Forward(tensor.New(1, 1, 4, 4), false)
}

func TestResidualShapeMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// Body changes the channel count but the skip is identity: must panic.
	r := NewResidual(NewSequential(NewConv2D(2, 4, 1, 1, 0, 1, rng)), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("residual with mismatched body/skip shapes must panic")
		}
	}()
	r.Forward(tensor.New(1, 2, 3, 3), false)
}

func TestCompositeBuffersRecursion(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	res := NewResidual(
		NewSequential(NewConv2D(2, 2, 3, 1, 1, 1, rng), NewBatchNorm2D(2)),
		NewSequential(NewConv2D(2, 2, 1, 1, 0, 1, rng), NewBatchNorm2D(2)),
	)
	inc := NewInception(
		NewSequential(NewConv2D(2, 2, 1, 1, 0, 1, rng), NewBatchNorm2D(2)),
		NewSequential(NewConv2D(2, 2, 1, 1, 0, 1, rng)),
	)
	seq := NewSequential(res, inc)
	// 2 batch-norms in the residual (body+skip) and 1 in the inception, each
	// contributing mean and variance slices.
	if got := len(seq.Buffers()); got != 6 {
		t.Fatalf("Buffers() returned %d slices, want 6", got)
	}
	// The slices are live views: writing through them must hit the layers.
	seq.Buffers()[0][0] = 42
	if rb, ok := res.Body.Layers[1].(*BatchNorm2D); !ok || rb.RunningMean[0] != 42 {
		t.Fatal("Buffers must expose live running-stat slices")
	}
}

// The composite layers must produce near-identical results at both dtypes
// when the f32 model is the rounded f64 model.
func TestTopoDTypeParity(t *testing.T) {
	build := func() *Sequential {
		rng := rand.New(rand.NewSource(25))
		res := NewResidual(NewSequential(
			NewConv2D(2, 2, 3, 1, 1, 1, rng),
			NewReLU(),
		), nil)
		return NewSequential(
			res,
			NewChannelShuffle(2),
			NewInception(
				NewSequential(NewConv2D(2, 2, 1, 1, 0, 1, rng)),
				NewSequential(NewConv2D(2, 3, 1, 1, 0, 1, rng)),
			),
		)
	}
	m64 := build()
	m32 := build() // identical weights (same seed)
	Pack(m64.Params(), tensor.F64)
	Pack(m32.Params(), tensor.F32)

	rng := rand.New(rand.NewSource(26))
	x64 := tensor.New(2, 2, 4, 4)
	x64.FillRandn(rng, 1)
	x32 := x64.AsType(tensor.F32)

	o64 := m64.Forward(x64, true)
	o32 := m32.Forward(x32, true)
	if o32.DT != tensor.F32 {
		t.Fatalf("f32 model produced %v output", o32.DT)
	}
	if !tensor.ApproxEqual(o32, o64, 1e-4) {
		t.Fatal("composite forward diverges between dtypes")
	}
	g64 := tensor.New(o64.Shape...)
	g64.FillRandn(rng, 1)
	d64 := m64.Backward(g64)
	d32 := m32.Backward(g64.AsType(tensor.F32))
	if !tensor.ApproxEqual(d32, d64, 1e-3) {
		t.Fatal("composite backward diverges between dtypes")
	}
}
