package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// The zero-allocation training path: after one warm-up iteration sizes the
// cached workspaces, steady-state Forward/Backward must not touch the heap.
// The only tolerated residue is the handful of parallel-dispatch closures a
// layer hands to the persistent worker pool — a small constant independent
// of batch size, block count, channel count and spatial extent.
func parallelDispatchBudget() float64 {
	// A parallel loop may cost its closure and, per shard handed to the
	// pool, dispatch state, so the allowance scales with the worker count
	// (but not with batch size, block count, channels or spatial extent).
	// Conv2D's per-sample range function is built with the layer and the
	// pool's dispatch and GEMM launches reuse pooled state, so today's
	// figure is 0; the slack covers pooled state (panels, launches,
	// WaitGroups) revived after a GC cycle.
	return float64(8 + 4*tensor.Workers())
}

// convAllocShapes are the alloc gates' convolution batches: one block at
// 10×10, and a ragged three blocks (2, 2, 1 samples) at 32×32, where one
// sample lowers to 36 Ki of the convBlockElems budget. Per-call
// allocation must not grow with the block count any more than with batch
// size.
var convAllocShapes = []struct{ n, side, blocks int }{{4, 10, 1}, {5, 32, 3}}

// convAllocLayer builds the alloc gates' 4→8 3×3 convolution at dt with an
// input and an output gradient of the given shape, and checks its block
// count after one warm-up training step.
func convAllocLayer(t *testing.T, dt tensor.DType, seed int64, n, side, blocks int) (layer *Conv2D, x, grad *tensor.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	layer = NewConv2D(4, 8, 3, 1, 1, 1, rng)
	Pack(layer.Params(), dt)
	x = tensor.NewOf(dt, n, 4, side, side)
	x.FillRandn(rng, 1)
	grad = tensor.NewOf(dt, n, 8, side, side)
	grad.FillRandn(rng, 1)
	layer.Forward(x, true)
	layer.Backward(grad)
	if got := layer.blocks(); got != blocks {
		t.Fatalf("batch %d at %dx%d lowers in %d blocks, want %d", n, side, side, got, blocks)
	}
	return layer, x, grad
}

func TestConv2DForwardAllocs(t *testing.T) {
	for _, sh := range convAllocShapes {
		layer, x, _ := convAllocLayer(t, tensor.F64, 1, sh.n, sh.side, sh.blocks)
		layer.Forward(x, true)
		avg := testing.AllocsPerRun(50, func() {
			layer.Forward(x, true)
		})
		if budget := parallelDispatchBudget(); avg > budget {
			t.Fatalf("Conv2D.Forward over %d blocks allocates %.1f objects/op in steady state, want <= %.0f", sh.blocks, avg, budget)
		}
	}
}

func TestConv2DTrainStepAllocs(t *testing.T) {
	for _, sh := range convAllocShapes {
		layer, x, grad := convAllocLayer(t, tensor.F64, 2, sh.n, sh.side, sh.blocks)
		avg := testing.AllocsPerRun(50, func() {
			layer.Forward(x, true)
			layer.Backward(grad)
		})
		if budget := 2 * parallelDispatchBudget(); avg > budget {
			t.Fatalf("Conv2D forward+backward over %d blocks allocates %.1f objects/op in steady state, want <= %.0f", sh.blocks, avg, budget)
		}
	}
}

func TestDenseForwardAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	layer := NewDense(64, 32, rng)
	x := tensor.New(16, 64)
	x.FillRandn(rng, 1)
	layer.Forward(x, true)
	layer.Forward(x, true)
	avg := testing.AllocsPerRun(100, func() {
		layer.Forward(x, true)
	})
	if avg > parallelDispatchBudget() {
		t.Fatalf("Dense.Forward allocates %.1f objects/op in steady state, want ~0", avg)
	}
}

// The zero-allocation contract holds identically on the float32 fast path:
// dtype dispatch happens per call, never per element, and the per-dtype
// pools serve the narrow buffers.
func TestConv2DTrainStepAllocsF32(t *testing.T) {
	for _, sh := range convAllocShapes {
		layer, x, grad := convAllocLayer(t, tensor.F32, 12, sh.n, sh.side, sh.blocks)
		avg := testing.AllocsPerRun(50, func() {
			layer.Forward(x, true)
			layer.Backward(grad)
		})
		if budget := 2 * parallelDispatchBudget(); avg > budget {
			t.Fatalf("f32 Conv2D forward+backward over %d blocks allocates %.1f objects/op in steady state, want <= %.0f", sh.blocks, avg, budget)
		}
	}
}

func TestDenseTrainStepAllocsF32(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	layer := NewDense(64, 32, rng)
	Pack(layer.Params(), tensor.F32)
	x := tensor.NewOf(tensor.F32, 16, 64)
	x.FillRandn(rng, 1)
	grad := tensor.NewOf(tensor.F32, 16, 32)
	grad.FillRandn(rng, 1)
	layer.Forward(x, true)
	layer.Backward(grad)
	avg := testing.AllocsPerRun(100, func() {
		layer.Forward(x, true)
		layer.Backward(grad)
	})
	if budget := 2 * parallelDispatchBudget(); avg > budget {
		t.Fatalf("f32 Dense forward+backward allocates %.1f objects/op in steady state, want <= %.0f", avg, budget)
	}
}

func TestDenseTrainStepAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	layer := NewDense(64, 32, rng)
	Pack(layer.Params(), tensor.F64)
	x := tensor.New(16, 64)
	x.FillRandn(rng, 1)
	grad := tensor.New(16, 32)
	grad.FillRandn(rng, 1)
	layer.Forward(x, true)
	layer.Backward(grad)
	avg := testing.AllocsPerRun(100, func() {
		layer.Forward(x, true)
		layer.Backward(grad)
	})
	if budget := 2 * parallelDispatchBudget(); avg > budget {
		t.Fatalf("Dense forward+backward allocates %.1f objects/op in steady state, want <= %.0f", avg, budget)
	}
}

// groupAllocNet is a MiniResNet-shaped extractor for 8×8 inputs: a
// convolution stem with batch norm, an identity and a projection residual
// block, max pooling, global average pooling and a dense head.
func groupAllocNet(seed int64, dt tensor.DType) *Sequential {
	rng := rand.New(rand.NewSource(seed))
	s := NewSequential(
		NewConv2D(1, 4, 3, 1, 1, 1, rng),
		NewBatchNorm2D(4),
		NewReLU(),
		NewResidual(NewSequential(
			NewConv2D(4, 4, 3, 1, 1, 1, rng),
			NewBatchNorm2D(4),
			NewReLU(),
		), nil),
		NewMaxPool2D(2, 2),
		NewResidual(NewSequential(
			NewConv2D(4, 8, 3, 1, 1, 1, rng),
			NewBatchNorm2D(8),
		), NewSequential(
			NewConv2D(4, 8, 1, 1, 0, 1, rng),
			NewBatchNorm2D(8),
		)),
		NewReLU(),
		NewGlobalAvgPool(),
		NewDense(8, 5, rng),
	)
	Pack(s.Params(), dt)
	return s
}

// TestGroupTrainStepAllocs is the group pass's allocation gate: a
// steady-state training step of a two-member group, composites included,
// allocates no more than a single layer's dispatch allowance — the lists a
// step needs are its leader's, reused across steps (none is allocated here
// at any worker count).
func TestGroupTrainStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool puts; the alloc gate runs without -race")
	}
	const g = 2
	rng := rand.New(rand.NewSource(41))
	seqs := make([]*Sequential, g)
	xs := make([]*tensor.Tensor, g)
	grads := make([]*tensor.Tensor, g)
	for i := range seqs {
		seqs[i] = groupAllocNet(int64(i+1), tensor.F64)
		xs[i] = tensor.New(6, 1, 8, 8)
		xs[i].FillRandn(rng, 1)
		grads[i] = tensor.New(6, 5)
		grads[i].FillRandn(rng, 1)
	}
	step := func() {
		SequentialForwardBatch(seqs, xs, true)
		SequentialBackwardBatch(seqs, grads)
	}
	step()
	if avg, budget := testing.AllocsPerRun(50, step), parallelDispatchBudget(); avg > budget {
		t.Fatalf("a two-member group step allocates %.1f objects/op in steady state, want <= %.0f", avg, budget)
	}
}
