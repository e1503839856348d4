package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// wholeBatchConv is the convolution as it ran before blocks: the whole batch
// lowered into one [Groups·K, N·spatial] matrix, per group the forward, dWᵀ
// and dcols GEMMs on that matrix, and col2im from the whole column
// gradient. It returns y and dx and accumulates into c's W.Grad and B.Grad.
// Only c's geometry fields and parameters are used.
func wholeBatchConv[F tensor.Float](c *Conv2D, x, gy *tensor.Tensor) (y, dx *tensor.Tensor) {
	n := x.Dim(0)
	c.ensureWorkspace(n, x.Dim(2), x.Dim(3))
	dt := x.DT
	sp := c.outH * c.outW
	ns, ke, ocg := n*sp, c.kernelElems, c.outCPerGroup
	rowsOf := func(t *tensor.Tensor, g, rows int) *tensor.Tensor {
		v := &tensor.Tensor{}
		tensor.ViewInto(v, t, g*rows*ns, (g+1)*rows*ns, rows, ns)
		return v
	}
	wOf := func(p *tensor.Tensor, g int) *tensor.Tensor {
		v := &tensor.Tensor{}
		tensor.ViewInto(v, p, g*ocg*ke, (g+1)*ocg*ke, ocg, ke)
		return v
	}

	cols := tensor.NewOf(dt, c.Groups*ke, ns)
	for i := 0; i < n; i++ {
		im2col(c, tensor.Of[F](x), tensor.Of[F](cols), i, i, ns)
	}
	y = tensor.NewOf(dt, n, c.OutC, c.outH, c.outW)
	gemmOut := tensor.NewOf(dt, ocg, ns)
	yd, god, bias := tensor.Of[F](y), tensor.Of[F](gemmOut), tensor.Of[F](c.B.Value)
	for g := 0; g < c.Groups; g++ {
		tensor.MatMulInto(gemmOut, wOf(c.W.Value, g), rowsOf(cols, g, ke))
		for oc := 0; oc < ocg; oc++ {
			ch := g*ocg + oc
			for i := 0; i < n; i++ {
				for p := 0; p < sp; p++ {
					yd[(i*c.OutC+ch)*sp+p] = god[oc*ns+i*sp+p] + bias[ch]
				}
			}
		}
	}

	gmat := tensor.NewOf(dt, c.OutC, ns)
	gm, gyd, db := tensor.Of[F](gmat), tensor.Of[F](gy), tensor.Of[F](c.B.Grad)
	for ch := 0; ch < c.OutC; ch++ {
		for i := 0; i < n; i++ {
			copy(gm[ch*ns+i*sp:ch*ns+(i+1)*sp], gyd[(i*c.OutC+ch)*sp:(i*c.OutC+ch+1)*sp])
		}
		var s F
		for _, v := range gm[ch*ns : (ch+1)*ns] {
			s += v
		}
		db[ch] += s
	}
	dcols := tensor.NewOf(dt, c.Groups*ke, ns)
	dwt := tensor.NewOf(dt, ke, ocg)
	for g := 0; g < c.Groups; g++ {
		tensor.MatMulABTInto(dwt, rowsOf(cols, g, ke), rowsOf(gmat, g, ocg))
		addTransposed(tensor.Of[F](wOf(c.W.Grad, g)), tensor.Of[F](dwt), ocg, ke)
		tensor.MatMulATBInto(rowsOf(dcols, g, ke), wOf(c.W.Value, g), rowsOf(gmat, g, ocg))
	}
	dx = tensor.NewOf(dt, n, c.InC, c.inH, c.inW)
	for i := 0; i < n; i++ {
		col2im(c, tensor.Of[F](dcols), tensor.Of[F](dx), i, i, ns)
	}
	return y, dx
}

// poisonWorkspaces ends c's pass with every arena no pass holds scrubbed
// with NaN — c's own, with what c held past its calls and its per-call
// scratch alike — so the next layer of the same geometry takes dirty
// storage from its arena.
func poisonWorkspaces(c *Conv2D) {
	defer tensor.ScrubFreed(math.NaN())()
	Release(c)
}

// convSide is the input size at which one sample's lowering takes between
// a quarter and a half of convBlockElems, so a block holds two to four
// samples and small batches reach one, two and three blocks.
func convSide(inC, k, stride, pad int) int {
	for h := k; ; h++ {
		o := (h+2*pad-k)/stride + 1
		if 4*inC*k*k*o*o >= convBlockElems {
			return h
		}
	}
}

// TestConvBlockedMatchesWholeBatch is the blocking gate: a forward and
// backward that lower the batch block by block must reproduce the
// whole-batch lowering bit for bit — y, dX, W.Grad and B.Grad — at every
// dtype, group count, kernel, stride and padding, for batches of exactly
// one block, two blocks and a ragged three, at one worker and at all of
// them, with the layer's workspaces taken dirty from its arena.
func TestConvBlockedMatchesWholeBatch(t *testing.T) {
	const inC, outC = 8, 12
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32, tensor.BF16} {
		for _, groups := range []int{1, 2, 4} {
			for _, k := range []int{1, 3} {
				for _, stride := range []int{1, 2} {
					for _, pad := range []int{0, 1} {
						h := convSide(inC, k, stride, pad)
						o := (h+2*pad-k)/stride + 1
						per := convBlockElems / (inC * k * k * o * o)
						if per < 2 {
							t.Fatalf("k%d s%d p%d: %d samples per block, want at least 2", k, stride, pad, per)
						}
						for _, shape := range []struct{ n, blocks int }{{per, 1}, {2 * per, 2}, {2*per + 1, 3}} {
							for _, workers := range []int{1, tensor.Workers()} {
								name := fmt.Sprintf("%v/g%d/k%d/s%d/p%d/n%d/w%d", dt, groups, k, stride, pad, shape.n, workers)
								t.Run(name, func(t *testing.T) {
									prev := tensor.SetMaxWorkers(workers)
									defer tensor.SetMaxWorkers(prev)
									checkConvBlocked(t, dt, inC, outC, k, stride, pad, groups, h, shape.n, shape.blocks)
								})
							}
						}
					}
				}
			}
		}
	}
}

func checkConvBlocked(t *testing.T, dt tensor.DType, inC, outC, k, stride, pad, groups, h, n, blocks int) {
	layer := func() *Conv2D {
		c := NewConv2D(inC, outC, k, stride, pad, groups, rand.New(rand.NewSource(5)))
		Pack(c.Params(), dt)
		UseGrads(c.Params())
		rng := rand.New(rand.NewSource(6))
		c.W.Grad.FillUniform(rng, -1, 1)
		c.B.Grad.FillUniform(rng, -1, 1)
		return c
	}
	rng := rand.New(rand.NewSource(7))
	x := tensor.NewOf(dt, n, inC, h, h)
	x.FillUniform(rng, -1, 1)
	ref := layer()
	oh, ow := ref.OutputShape(h, h)
	gy := tensor.NewOf(dt, n, outC, oh, ow)
	gy.FillUniform(rng, -1, 1)
	var wantY, wantDX *tensor.Tensor
	if dt.Backing() == tensor.F32 {
		wantY, wantDX = wholeBatchConv[float32](ref, x, gy)
	} else {
		wantY, wantDX = wholeBatchConv[float64](ref, x, gy)
	}

	probe := layer()
	probe.Forward(x, true)
	probe.Backward(gy)
	poisonWorkspaces(probe)

	c := layer()
	y := c.Forward(x, true).Clone()
	if got := c.blocks(); got != blocks {
		t.Fatalf("batch %d lowers in %d blocks, want %d", n, got, blocks)
	}
	dx := c.Backward(gy)
	bitsEqual(t, "y", y, wantY)
	bitsEqual(t, "dx", dx, wantDX)
	bitsEqual(t, "W.Grad", c.W.Grad, ref.W.Grad)
	bitsEqual(t, "B.Grad", c.B.Grad, ref.B.Grad)
	Release(c)
}

// TestConvBackwardNeedsTrainingForward pins the contract Backward relies on
// to lower the batch again: it must follow a training-mode Forward, and
// fails loudly before any Forward, after an evaluation one and after a
// release.
func TestConvBackwardNeedsTrainingForward(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := tensor.New(2, 2, 6, 6)
	x.FillUniform(rng, -1, 1)
	gy := tensor.New(2, 4, 6, 6)
	gy.FillUniform(rng, -1, 1)
	for _, tc := range []struct {
		name string
		prep func(c *Conv2D)
	}{
		{"before any forward", func(*Conv2D) {}},
		{"after an evaluation forward", func(c *Conv2D) { c.Forward(x, false) }},
		{"after a training then an evaluation forward", func(c *Conv2D) {
			c.Forward(x, true)
			c.Forward(x, false)
		}},
		{"after a release", func(c *Conv2D) {
			c.Forward(x, true)
			c.release()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewConv2D(2, 4, 3, 1, 1, 1, rng)
			Pack(c.Params(), tensor.F64)
			tc.prep(c)
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "training-mode Forward") {
					t.Fatalf("Backward panicked with %v, want the training-Forward contract", r)
				}
			}()
			c.Backward(gy)
		})
	}
	c := NewConv2D(2, 4, 3, 1, 1, 1, rng)
	Pack(c.Params(), tensor.F64)
	c.Forward(x, true)
	c.Backward(gy) // the contract's positive case
}
