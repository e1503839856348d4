package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// A packed model's moments are one slab of the values' storage type, every
// m block and then every v block: none in use until UseMoments, zero when
// they come into use — in a reused slab too — and left alone while in use.
// A run of the model's parameters reaches the whole model's moments.
func TestMomentsComeIntoUseZeroed(t *testing.T) {
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32, tensor.BF16} {
		params := NewSequential(NewDense(4, 6, rand.New(rand.NewSource(1))), NewDense(6, 3, rand.New(rand.NewSource(2)))).Params()
		Pack(params, dt)
		if MomentsLive(params) {
			t.Fatalf("%v: a packed model's moments are in use before any step", dt)
		}
		UseMoments(params[2:]) // the second layer's run
		n, off := NumParams(params), 0
		slab := span(params[0].M, 0, 2*n)
		for i, p := range params {
			m, v := span(&slab, off, 2*n), span(&slab, n+off, 2*n)
			if p.M.DT != dt.Backing() || p.M.Size() != p.Value.Size() || p.V.Size() != p.Value.Size() || !sameStorage(&m, p.M) || !sameStorage(&v, p.V) {
				t.Fatalf("%v: parameter %d's moments are not its blocks of one %v slab, every m then every v", dt, i, dt.Backing())
			}
			if p.M.MaxAbs() != 0 || p.V.MaxAbs() != 0 {
				t.Fatalf("%v: parameter %d's moments came into use dirty", dt, i)
			}
			off += p.Value.Size()
		}
		for _, p := range params {
			p.M.Fill(0.5)
			p.V.Fill(0.25)
		}
		UseMoments(params)
		if !MomentsLive(params) || params[3].V.AppendFloat64s(nil)[0] != 0.25 {
			t.Fatalf("%v: UseMoments changed moments in use", dt)
		}
		DropMoments(params)
		if MomentsLive(params) {
			t.Fatalf("%v: dropped moments are in use", dt)
		}
		UseMoments(params)
		for i, p := range params {
			if p.M.MaxAbs() != 0 || p.V.MaxAbs() != 0 {
				t.Fatalf("%v: parameter %d's reused moments came into use dirty", dt, i)
			}
		}
		if !sameStorage(&slab, params[0].M) {
			t.Fatalf("%v: moments reused no slab", dt)
		}
	}
}

func TestFlattenSetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewSequential(
		NewDense(4, 6, rng),
		NewReLU(),
		NewDense(6, 3, rng),
	)
	params := m.Params()
	Pack(params, tensor.F64)
	flat := FlattenParams(params)
	if len(flat) != NumParams(params) {
		t.Fatalf("flat length %d, want %d", len(flat), NumParams(params))
	}
	// Perturb, write back, verify.
	for i := range flat {
		flat[i] += 1
	}
	if err := SetFlatParams(params, flat); err != nil {
		t.Fatal(err)
	}
	again := FlattenParams(params)
	for i := range flat {
		if again[i] != flat[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
	if err := SetFlatParams(params, flat[:3]); err == nil {
		t.Fatal("short vector must error")
	}
}

// A packed model's gradients are a step's: none before UseGrads, which
// leases one range of the model's pass arena — zero, though the arena is
// dirty — and points every Grad at its block; a run of the parameters
// reaches the whole model's. ZeroGrads zeroes gradients in use and brings
// none into use, and DropGrads and the end of the pass hand them back.
func TestZeroGrads(t *testing.T) {
	defer tensor.ScrubFreed(math.NaN())()
	s := NewSequential(NewDense(3, 4, rand.New(rand.NewSource(2))), NewDense(4, 3, rand.New(rand.NewSource(3))))
	params := s.Params()
	Pack(params, tensor.F64)
	holds := func() bool { _, g := Flat(params); return g.Size() > 0 }
	zeros := func(g *tensor.Tensor) bool {
		return !slices.ContainsFunc(g.AppendFloat64s(nil), func(v float64) bool { return v != 0 })
	}
	ZeroGrads(params)
	if holds() {
		t.Fatal("ZeroGrads brought gradients into use")
	}
	for range 2 {
		UseGrads(params[2:])
		_, g := Flat(params)
		if g.Size() != NumParams(params) || !zeros(&g) {
			t.Fatalf("%d gradients came into use, want %d zeros", g.Size(), NumParams(params))
		}
		params[0].Grad.Fill(5)
		UseGrads(params)
		if params[0].Grad.MaxAbs() != 5 {
			t.Fatal("UseGrads changed gradients in use")
		}
		ZeroGrads(params)
		if !zeros(&g) {
			t.Fatal("ZeroGrads left gradient nonzero")
		}
		DropGrads(params)
		if holds() || g.AppendFloat64s(nil)[0] == 0 {
			t.Fatal("DropGrads kept the lease")
		}
	}
	UseGrads(params)
	Release(s)
	if holds() {
		t.Fatal("a pass ended with its gradients in use")
	}
}

func TestBatchNormRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	bn := NewBatchNorm2D(3)
	x := tensor.New(64, 3, 1, 1)
	// Channel 0 ~ N(5, 4), others standard.
	for i := 0; i < 64; i++ {
		x.Data[i*3] = 5 + 2*rng.NormFloat64()
		x.Data[i*3+1] = rng.NormFloat64()
		x.Data[i*3+2] = rng.NormFloat64()
	}
	for e := 0; e < 50; e++ {
		bn.Forward(x, true)
	}
	if bn.RunningMean[0] < 4 || bn.RunningMean[0] > 6 {
		t.Fatalf("running mean %v should approach 5", bn.RunningMean[0])
	}
	if bn.RunningVar[0] < 2.5 || bn.RunningVar[0] > 6 {
		t.Fatalf("running var %v should approach 4", bn.RunningVar[0])
	}
	// Eval output for the mean input should be ≈ beta (0) for channel 0 at
	// value 5.
	probe := tensor.New(1, 3, 1, 1)
	probe.Data[0] = 5
	out := bn.Forward(probe, false)
	if v := out.Data[0]; v < -0.5 || v > 0.5 {
		t.Fatalf("eval normalization off: %v", v)
	}
}

func TestMaxPoolSelectsMaxima(t *testing.T) {
	p := NewMaxPool2D(2, 2)
	x := tensor.FromSlice([]float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	}, 1, 1, 4, 4)
	out := p.Forward(x, true)
	want := []float64{4, 8, 12, 16}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("pool[%d] = %v, want %v", i, out.Data[i], v)
		}
	}
}

func TestChannelShuffleIsPermutation(t *testing.T) {
	cs := NewChannelShuffle(2)
	x := tensor.New(1, 4, 1, 1)
	for i := 0; i < 4; i++ {
		x.Data[i] = float64(i)
	}
	y := cs.Forward(x, true)
	// Forward then inverse (Backward) must restore the input.
	z := cs.Backward(y)
	if !tensor.ApproxEqual(x, z, 0) {
		t.Fatalf("shuffle not invertible: %v → %v → %v", x.Data, y.Data, z.Data)
	}
	// And the shuffle must actually move channels.
	if tensor.ApproxEqual(x, y, 0) {
		t.Fatal("shuffle was identity")
	}
}

func TestConv2DOutputShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewConv2D(1, 2, 3, 2, 1, 1, rng)
	oh, ow := c.OutputShape(12, 12)
	if oh != 6 || ow != 6 {
		t.Fatalf("stride-2 output %dx%d, want 6x6", oh, ow)
	}
	out := c.Forward(tensor.New(2, 1, 12, 12), true)
	if out.Dim(2) != 6 || out.Dim(3) != 6 || out.Dim(1) != 2 {
		t.Fatalf("forward shape %v", out.Shape)
	}
}

func TestConv2DGroupsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("groups not dividing channels must panic")
		}
	}()
	NewConv2D(3, 4, 3, 1, 1, 2, rand.New(rand.NewSource(1)))
}

// An evaluation-mode Sequential.Forward hands layers' workspaces back while
// it runs. It must give the bits its layers give run one by one with
// nothing released — through a chain whose outputs alias their inputs
// (two Flatten views in a row), where the Dense
// after them reads the storage of the ReLU before them and writes an output
// of the same size, which a premature release would hand it to overwrite
// mid-read — and leave the layers it released holding no workspace.
func TestEvalForwardReleasesBehind(t *testing.T) {
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
		rng := rand.New(rand.NewSource(31))
		s := NewSequential(
			NewConv2D(1, 4, 3, 1, 1, 1, rng),
			NewReLU(),
			NewFlatten(),
			NewFlatten(),
			NewDense(4*6*6, 4*6*6, rng),
			NewReLU(),
			NewDense(4*6*6, 3, rng),
		)
		Pack(s.Params(), dt)
		x := tensor.NewOf(dt, 5, 1, 6, 6)
		x.FillRandn(rng, 1)
		ref := x
		for _, l := range s.Layers {
			ref = l.Forward(ref, false)
		}
		want := ref.AppendFloat64s(nil)
		Release(s)
		for pass := 0; pass < 2; pass++ {
			got := s.Forward(x, false).AppendFloat64s(nil)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v pass %d: output %d is %v, layer by layer %v", dt, pass, i, got[i], want[i])
				}
			}
		}
		if c := s.Layers[0].(*Conv2D); c.cols != nil || c.out != nil {
			t.Fatalf("%v: the first convolution still holds workspaces after an evaluation forward", dt)
		}
		if s.Layers[6].(*Dense).out == nil {
			t.Fatalf("%v: the last layer released the output Forward returned", dt)
		}
		Release(s)
	}
}

// heldGrad returns the input gradient a layer of TestBackwardReleasesBehind's
// model holds; Flatten's are views, which hold none.
func heldGrad(l Layer) *tensor.Tensor {
	switch l := l.(type) {
	case *Conv2D:
		return l.dx
	case *ReLU:
		return l.dx
	case *Dense:
		return l.dx
	}
	return nil
}

// A training backward walk hands each input gradient back once the layer in
// front has read it, and a convolution leases its scratch for one call. The
// walk must give the parameter gradients and the input gradient its layers
// give run one by one with nothing handed back — through a convolution
// whose batch fits one block (Backward reuses, then hands back, the
// forward's lowering), one that lowers in two, and a Flatten view whose
// gradient lives in the Dense behind it — and leave the returned gradient
// intact, no layer but the first holding an input gradient and no
// convolution holding scratch; a params-only walk leaves no input gradient
// at all. A second Backward after one training Forward, which must lower
// again, adds the first one's increments bit for bit on both convolutions.
func TestBackwardReleasesBehind(t *testing.T) {
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32, tensor.BF16} {
		build := func() *Sequential {
			rng := rand.New(rand.NewSource(33))
			s := NewSequential(
				NewConv2D(1, 8, 3, 1, 1, 1, rng),
				NewConv2D(8, 4, 3, 1, 1, 1, rng),
				NewReLU(),
				NewFlatten(),
				NewDense(4*16*16, 3, rng),
			)
			Pack(s.Params(), dt)
			return s
		}
		grads := func(s *Sequential) *tensor.Tensor {
			_, g := Flat(s.Params())
			return tensor.FromSlice(g.AppendFloat64s(nil), g.Size())
		}
		rng := rand.New(rand.NewSource(34))
		x := tensor.NewOf(dt, 6, 1, 16, 16)
		x.FillRandn(rng, 1)
		gy := tensor.NewOf(dt, 6, 3)
		gy.FillRandn(rng, 1)

		ref := build()
		a := x
		for _, l := range ref.Layers {
			a = l.Forward(a, true)
		}
		wantDX := gy
		for i := len(ref.Layers) - 1; i >= 0; i-- {
			wantDX = ref.Layers[i].Backward(wantDX)
		}

		s := build()
		convs := []*Conv2D{s.Layers[0].(*Conv2D), s.Layers[1].(*Conv2D)}
		s.Forward(x, true)
		if convs[0].blocks() != 1 || convs[1].blocks() != 2 {
			t.Fatalf("%v: the convolutions lower in %d and %d blocks, want 1 and 2", dt, convs[0].blocks(), convs[1].blocks())
		}
		if convs[0].cols == nil || convs[1].cols != nil {
			t.Fatalf("%v: after a training forward only the single-block convolution may keep its lowering", dt)
		}
		dx := s.Backward(gy)
		bitsEqual(t, fmt.Sprintf("%v: the walk's input gradient", dt), dx, wantDX)
		bitsEqual(t, fmt.Sprintf("%v: the walk's parameter gradients", dt), grads(s), grads(ref))
		for i, l := range s.Layers {
			if i > 0 && heldGrad(l) != nil {
				t.Errorf("%v: layer %d still holds its input gradient after the walk", dt, i)
			}
		}
		for i, c := range convs {
			if c.cols != nil || c.gemmOut != nil || c.gmat != nil || c.dcols != nil || c.dwt != nil || c.dbs != nil {
				t.Errorf("%v: convolution %d still holds scratch after a training step", dt, i)
			}
		}

		Release(s)
		ZeroGrads(s.Params())
		s.Forward(x, true)
		s.BackwardParams(gy)
		bitsEqual(t, fmt.Sprintf("%v: the params-only walk's parameter gradients", dt), grads(s), grads(ref))
		for i, l := range s.Layers {
			if heldGrad(l) != nil {
				t.Errorf("%v: layer %d still holds its input gradient after a params-only walk", dt, i)
			}
		}

		s.Forward(x, true)
		for i, c := range convs {
			oy := tensor.NewOf(dt, 6, c.OutC, 16, 16)
			oy.FillRandn(rng, 1)
			ZeroGrads(s.Params())
			dx1 := c.Backward(oy).Clone()
			twice := grads(s)
			twice.AddInPlace(twice)
			dx2 := c.Backward(oy)
			bitsEqual(t, fmt.Sprintf("%v: convolution %d's second backward's input gradient", dt, i), dx2, dx1)
			bitsEqual(t, fmt.Sprintf("%v: convolution %d's parameter gradients after two backwards", dt, i), grads(s), twice)
		}
		Release(s)
	}
}
