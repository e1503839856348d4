package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// buildBatchNet constructs a small net covering every fused-group layer
// kind: plain conv, grouped conv, and dense (plus generic-path layers in
// between), for side×side inputs. Identical seeds yield identical weights.
func buildBatchNet(seed int64, dt tensor.DType, side int) *Sequential {
	rng := rand.New(rand.NewSource(seed))
	s := NewSequential(
		NewConv2D(1, 4, 3, 1, 1, 1, rng),
		NewReLU(),
		NewConv2D(4, 4, 3, 1, 1, 2, rng),
		NewReLU(),
		NewFlatten(),
		NewDense(4*side*side, 5, rng),
	)
	Pack(s.Params(), dt)
	return s
}

func bitsEqual(t *testing.T, ctx string, a, b *tensor.Tensor) {
	t.Helper()
	if a.DT.Backing() == tensor.F32 {
		av, bv := tensor.Of[float32](a), tensor.Of[float32](b)
		for i := range av {
			if math.Float32bits(av[i]) != math.Float32bits(bv[i]) {
				t.Fatalf("%s: element %d: %x vs %x", ctx, i, math.Float32bits(av[i]), math.Float32bits(bv[i]))
			}
		}
		return
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			t.Fatalf("%s: element %d: %x vs %x", ctx, i, math.Float64bits(a.Data[i]), math.Float64bits(b.Data[i]))
		}
	}
}

// TestSequentialBatchMatchesSolo is the layer-level grouping-invariance
// gate: a lockstep forward/backward over a group of identical-architecture
// models must be byte-identical to stepping each model alone — outputs,
// input gradients and parameter gradients — at every dtype, for uniform and
// ragged batch sizes, at every worker cap. At 6×6 every convolution lowers
// the batch in one block; at 24×24 the grouped one lowers it in two, and the
// ragged member in three, so each block's launch fuses the members whose
// blocks match and runs the others alone.
func TestSequentialBatchMatchesSolo(t *testing.T) {
	const g = 3
	for _, side := range []int{6, 24} {
		n, raggedN := 4, 2
		if side == 24 {
			// The grouped 4→4 convolution lowers 2·18 rows per pixel.
			per := convBlockElems / (2 * 18 * side * side)
			n, raggedN = 2*per, 2*per+1
		}
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32, tensor.BF16} {
			for _, ragged := range []bool{false, true} {
				for _, workers := range []int{1, tensor.Workers()} {
					prev := tensor.SetMaxWorkers(workers)
					solo := make([]*Sequential, g)
					grouped := make([]*Sequential, g)
					xs := make([]*tensor.Tensor, g)
					grads := make([]*tensor.Tensor, g)
					rng := rand.New(rand.NewSource(7))
					for i := 0; i < g; i++ {
						solo[i] = buildBatchNet(int64(i+1), dt, side)
						grouped[i] = buildBatchNet(int64(i+1), dt, side)
						ni := n
						if ragged && i == g-1 {
							ni = raggedN
						}
						xs[i] = tensor.NewOf(dt, ni, 1, side, side)
						xs[i].FillUniform(rng, -1, 1)
						grads[i] = tensor.NewOf(dt, ni, 5)
						grads[i].FillUniform(rng, -1, 1)
					}

					refY := make([]*tensor.Tensor, g)
					refDX := make([]*tensor.Tensor, g)
					for i := 0; i < g; i++ {
						refY[i] = solo[i].Forward(xs[i], true).Clone()
						refDX[i] = solo[i].Backward(grads[i]).Clone()
					}

					gotY := SequentialForwardBatch(grouped, xs, true)
					gotDX := SequentialBackwardBatch(grouped, grads)
					if side == 24 {
						if b := grouped[0].Layers[2].(*Conv2D).blocks(); b != 2 {
							t.Fatalf("the grouped convolution lowers in %d blocks, want 2", b)
						}
						if b := grouped[g-1].Layers[2].(*Conv2D).blocks(); ragged && b != 3 {
							t.Fatalf("the ragged member lowers in %d blocks, want 3", b)
						}
					}
					for i := 0; i < g; i++ {
						bitsEqual(t, "output", gotY[i], refY[i])
						bitsEqual(t, "dx", gotDX[i], refDX[i])
						sp, gp := solo[i].Params(), grouped[i].Params()
						for j := range sp {
							bitsEqual(t, "grad "+sp[j].Name, gp[j].Grad, sp[j].Grad)
						}
					}
					tensor.SetMaxWorkers(prev)
				}
			}
		}
	}
}

// TestDenseBatchHeterogeneousShapes checks the non-uniform fallback: dense
// layers of different widths still batch correctly (via sequential
// standalone products).
func TestDenseBatchHeterogeneousShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dims := [][2]int{{6, 4}, {3, 7}}
	ds := make([]*Dense, len(dims))
	ref := make([]*Dense, len(dims))
	xs := make([]*tensor.Tensor, len(dims))
	for i, d := range dims {
		r1 := rand.New(rand.NewSource(int64(i + 11)))
		r2 := rand.New(rand.NewSource(int64(i + 11)))
		ds[i] = NewDense(d[0], d[1], r1)
		ref[i] = NewDense(d[0], d[1], r2)
		xs[i] = tensor.New(5, d[0])
		xs[i].FillUniform(rng, -1, 1)
	}
	ys := DenseForwardBatch(ds, xs, true)
	for i := range ds {
		bitsEqual(t, "hetero forward", ys[i], ref[i].Forward(xs[i], true))
	}
}
