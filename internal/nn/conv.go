package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over [N, C, H, W] inputs with optional grouped
// convolution (groups > 1 partitions input and output channels, as in
// ShuffleNet). Weights are stored as [outC, (inC/groups)·kH·kW], and the
// whole batch is lowered into one im2col matrix of shape
// [groups·kernelElems, N·outH·outW] so the forward pass is a single GEMM per
// group per batch rather than one tiny GEMM per sample.
//
// The layer keeps its im2col, GEMM and gradient workspaces across the calls
// of a pass, sized and typed to match the parameters' dtype; steady-state
// training allocates nothing. See the package comment for the workspace
// lease and the activation aliasing contract.
type Conv2D struct {
	InC, OutC    int
	KH, KW       int
	Stride, Pad  int
	Groups       int
	W, B         *Param
	inH, inW     int // set on Forward
	outH, outW   int
	batch        int
	inCPerGroup  int
	outCPerGroup int
	kernelElems  int

	// Reusable workspaces, sized on first use in a pass and whenever the
	// input geometry changes. The backward-only workspaces (gmat, dcols,
	// dwt, dx) are taken lazily in Backward so evaluation-mode forwards
	// never pay for them.
	cols    *tensor.Tensor // [Groups·kernelElems, N·spatial] im2col matrix
	gemmOut *tensor.Tensor // [outCPerGroup, N·spatial] per-group product
	gmat    *tensor.Tensor // [OutC, N·spatial] gathered output gradient
	dcols   *tensor.Tensor // [Groups·kernelElems, N·spatial] column gradient
	dwt     *tensor.Tensor // [kernelElems, outCPerGroup] transposed dW product
	dx      *tensor.Tensor
	out     ring2
	bwdOK   bool // backward workspaces match the current geometry

	// Cached per-group views over the workspaces and weights, rebuilt only
	// on geometry changes so the hot path creates no tensor headers.
	wgV, dwV     []*tensor.Tensor
	colsV, gmatV []*tensor.Tensor
	dcolsV       []*tensor.Tensor
}

// NewConv2D constructs a grouped convolution layer with He-normal weights.
func NewConv2D(inC, outC, k, stride, pad, groups int, rng *rand.Rand) *Conv2D {
	if groups < 1 || inC%groups != 0 || outC%groups != 0 {
		panic(fmt.Sprintf("nn: Conv2D groups=%d must divide inC=%d and outC=%d", groups, inC, outC))
	}
	c := &Conv2D{
		InC: inC, OutC: outC, KH: k, KW: k, Stride: stride, Pad: pad, Groups: groups,
		inCPerGroup:  inC / groups,
		outCPerGroup: outC / groups,
	}
	c.kernelElems = c.inCPerGroup * k * k
	c.W = newParam("conv.W", outC, c.kernelElems)
	c.B = newParam("conv.B", outC)
	heInit(c.W.Value, c.kernelElems, rng)
	return c
}

// OutputShape returns the spatial output size for a given input size.
func (c *Conv2D) OutputShape(h, w int) (int, int) {
	oh := (h+2*c.Pad-c.KH)/c.Stride + 1
	ow := (w+2*c.Pad-c.KW)/c.Stride + 1
	return oh, ow
}

// ensureWorkspace (re)builds the batch workspaces and group views when the
// input geometry (or the model dtype) changes; with a stable geometry it is
// a cheap no-op.
func (c *Conv2D) ensureWorkspace(n, h, w int) {
	dt := c.W.Value.DT
	oh, ow := c.OutputShape(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: Conv2D output %dx%d not positive for input %dx%d", oh, ow, h, w))
	}
	if n == c.batch && h == c.inH && w == c.inW && c.cols != nil && c.cols.DT == dt {
		return
	}
	c.batch, c.inH, c.inW, c.outH, c.outW = n, h, w, oh, ow
	c.bwdOK = false
	ns := n * oh * ow
	ke, sp := c.kernelElems, ns
	c.cols = tensor.EnsureOf(dt, c.cols, c.Groups*ke, sp)
	c.gemmOut = tensor.EnsureOf(dt, c.gemmOut, c.outCPerGroup, sp)
	if len(c.wgV) != c.Groups {
		c.wgV = make([]*tensor.Tensor, c.Groups)
		c.dwV = make([]*tensor.Tensor, c.Groups)
		c.colsV = make([]*tensor.Tensor, c.Groups)
		c.gmatV = make([]*tensor.Tensor, c.Groups)
		c.dcolsV = make([]*tensor.Tensor, c.Groups)
	}
	for g := 0; g < c.Groups; g++ {
		wlo, whi := g*c.outCPerGroup*ke, (g+1)*c.outCPerGroup*ke
		setView(&c.wgV[g], c.W.Value, wlo, whi, c.outCPerGroup, ke)
		setView(&c.colsV[g], c.cols, g*ke*sp, (g+1)*ke*sp, ke, sp)
	}
}

// ensureBackwardWorkspace lazily sizes the gradient workspaces to the
// geometry of the preceding Forward. Evaluation-only layers never build
// them.
func (c *Conv2D) ensureBackwardWorkspace() {
	if c.bwdOK {
		return
	}
	dt := c.W.Value.DT
	ke := c.kernelElems
	sp := c.batch * c.outH * c.outW
	c.gmat = tensor.EnsureOf(dt, c.gmat, c.OutC, sp)
	c.dcols = tensor.EnsureOf(dt, c.dcols, c.Groups*ke, sp)
	c.dwt = tensor.EnsureOf(dt, c.dwt, ke, c.outCPerGroup)
	for g := 0; g < c.Groups; g++ {
		wlo, whi := g*c.outCPerGroup*ke, (g+1)*c.outCPerGroup*ke
		setView(&c.dwV[g], c.W.Grad, wlo, whi, c.outCPerGroup, ke)
		setView(&c.dcolsV[g], c.dcols, g*ke*sp, (g+1)*ke*sp, ke, sp)
		setView(&c.gmatV[g], c.gmat, g*c.outCPerGroup*sp, (g+1)*c.outCPerGroup*sp, c.outCPerGroup, sp)
	}
	c.bwdOK = true
}

// setView retargets a cached rank-2 view header at elements [lo,hi) of a
// workspace tensor, allocating the header only once per group.
func setView(vp **tensor.Tensor, src *tensor.Tensor, lo, hi, r, cols int) {
	v := *vp
	if v == nil {
		v = &tensor.Tensor{}
		*vp = v
	}
	tensor.ViewInto(v, src, lo, hi, r, cols)
}

// Forward computes the convolution for a batch [N, C, H, W].
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: Conv2D.Forward input shape %v, want [N,%d,H,W]", x.Shape, c.InC))
	}
	if x.DT != c.W.Value.DT {
		panic(fmt.Sprintf("nn: Conv2D.Forward input dtype %v, model is %v (cast inputs at the model boundary)", x.DT, c.W.Value.DT))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	c.ensureWorkspace(n, h, w)
	out := c.out.next(x.DT, n, c.OutC, c.outH, c.outW)
	if x.DT.Backing() == tensor.F32 {
		convForward(c, tensor.Of[float32](x), tensor.Of[float32](out),
			tensor.Of[float32](c.cols), tensor.Of[float32](c.gemmOut), tensor.Of[float32](c.B.Value), n)
	} else {
		convForward(c, x.Data, out.Data, c.cols.Data, c.gemmOut.Data, c.B.Value.Data, n)
	}
	return out
}

// convForward runs the dtype-generic forward: per-sample im2col lowering,
// one GEMM per group, and the bias-fused scatter back to [N, C, H, W].
func convForward[F tensor.Float](c *Conv2D, xd, outd, colsd, gemmOutd, bias []F, n int) {
	parallelFor(n, func(i int) { im2col(c, xd, colsd, i) })
	for g := 0; g < c.Groups; g++ {
		tensor.MatMulInto(c.gemmOut, c.wgV[g], c.colsV[g])
		convScatterGroup(c, outd, gemmOutd, bias, g, n)
	}
}

// convScatterGroup scatters one group's [outCPerGroup, N·spatial] GEMM
// product back to the per-sample layout, fusing the bias add. Shared by the
// standalone forward and the cross-client batched forward.
func convScatterGroup[F tensor.Float](c *Conv2D, outd, gemmOutd, bias []F, g, n int) {
	spatial := c.outH * c.outW
	for oc := 0; oc < c.outCPerGroup; oc++ {
		ch := g*c.outCPerGroup + oc
		b := bias[ch]
		src := gemmOutd[oc*n*spatial : (oc+1)*n*spatial]
		for i := 0; i < n; i++ {
			tensor.AddScalarInto(outd[(i*c.OutC+ch)*spatial:(i*c.OutC+ch+1)*spatial],
				src[i*spatial:(i+1)*spatial], b)
		}
	}
}

// convInitsDX reports whether col2im's same-size fast path initializes every
// dx channel plane itself (first tap writes, later taps accumulate); callers
// only pre-zero dx when it does not.
func (c *Conv2D) convInitsDX() bool {
	return c.Stride == 1 && c.outW == c.inW && c.outH == c.inH
}

// Backward accumulates dW, dB and returns dX. It reuses the im2col matrix
// built by the preceding Forward call.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n := grad.Dim(0)
	if n != c.batch || grad.Dim(1) != c.OutC {
		panic(fmt.Sprintf("nn: Conv2D.Backward grad shape %v does not match forward batch %d", grad.Shape, c.batch))
	}
	c.ensureBackwardWorkspace()
	c.dx = tensor.EnsureOf(grad.DT, c.dx, n, c.InC, c.inH, c.inW)
	if !c.convInitsDX() {
		c.dx.Zero()
	}
	if grad.DT.Backing() == tensor.F32 {
		convBackward(c, tensor.Of[float32](grad), tensor.Of[float32](c.gmat),
			tensor.Of[float32](c.B.Grad), tensor.Of[float32](c.dcols), tensor.Of[float32](c.dx), n)
	} else {
		convBackward(c, grad.Data, c.gmat.Data, c.B.Grad.Data, c.dcols.Data, c.dx.Data, n)
	}
	return c.dx
}

// convBackward runs the dtype-generic backward: gradient gather to
// channel-major, bias reduction, the two GEMMs per group, and the col2im
// scatter back to the input gradient.
func convBackward[F tensor.Float](c *Conv2D, gradd, gm, db, dcolsd, dxd []F, n int) {
	convGatherGrad(c, gradd, gm, db, n)
	for g := 0; g < c.Groups; g++ {
		// dW_g += gmat_g · colsᵀ_g, computed as the transposed product
		// dWᵀ_g = cols_g · gmatᵀ_g: the ABT kernel transpose-packs its
		// second operand, and gmat_g (outCPerGroup rows) is an order of
		// magnitude shorter than cols_g (kernelElems rows), so this form
		// packs ~10× fewer elements and reuses each panel across every
		// kernelElems output row. dW is zero on entry (grads are cleared
		// each step), so scattering the transpose back is bit-identical
		// to accumulating the direct product.
		tensor.MatMulABTInto(c.dwt, c.colsV[g], c.gmatV[g])
		addTransposed(tensor.Of[F](c.dwV[g]), tensor.Of[F](c.dwt), c.outCPerGroup, c.kernelElems)
		// dcols_g = W_gᵀ · gmat_g
		tensor.MatMulATBInto(c.dcolsV[g], c.wgV[g], c.gmatV[g])
	}
	parallelFor(n, func(i int) { col2im(c, dcolsd, dxd, i) })
}

// convGatherGrad gathers the output gradient into the [OutC, N·spatial]
// channel-major layout — so the weight and column gradients are one GEMM per
// group each — and folds the bias gradient reduction. Shared by the
// standalone backward and the cross-client batched backward.
func convGatherGrad[F tensor.Float](c *Conv2D, gradd, gm, db []F, n int) {
	spatial := c.outH * c.outW
	parallelFor(c.OutC, func(ch int) {
		tensor.CopyRows(gm[ch*n*spatial:(ch+1)*n*spatial], gradd[ch*spatial:],
			n, spatial, spatial, c.OutC*spatial)
	})
	for ch := 0; ch < c.OutC; ch++ {
		seg := gm[ch*n*spatial : (ch+1)*n*spatial]
		var s F
		for _, v := range seg {
			s += v
		}
		db[ch] += s
	}
}

// addTransposed accumulates dst += srcᵀ where dst is m×n and src is n×m,
// both row-major. Reads src sequentially; the strided writes touch only the
// small dst (a per-group weight-gradient block).
func addTransposed[F tensor.Float](dst, src []F, m, n int) {
	for j := 0; j < n; j++ {
		col := src[j*m : (j+1)*m]
		for i, v := range col {
			dst[i*n+j] += v
		}
	}
}

// Params returns the kernel and bias parameters.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// release also forgets the geometry, so the next Forward rebuilds the
// workspaces and every group view.
func (c *Conv2D) release() {
	c.out.release()
	putBack(&c.cols, &c.gemmOut, &c.gmat, &c.dcols, &c.dwt, &c.dx)
	for _, vs := range [][]*tensor.Tensor{c.wgV, c.dwV, c.colsV, c.gmatV, c.dcolsV} {
		dropViews(vs)
	}
	c.batch, c.bwdOK = 0, false
}

// im2col unrolls sample i of x into its column block of the batch im2col
// matrix: cols[row, i·spatial + p] holds the receptive-field element `row`
// of output pixel p. Every position is written, so the workspace needs no
// zeroing between batches. For stride 1 (every convolution in the model
// zoo) each output row is zero-pad, one contiguous copy, zero-pad — a
// memmove instead of a bounds check per pixel, which matters twice over on
// the float32 path where the same move touches half the bytes.
func im2col[F tensor.Float](c *Conv2D, xd, colsd []F, i int) {
	spatial := c.outH * c.outW
	ns := c.batch * spatial
	chanSize := c.inH * c.inW
	base := i * c.InC * chanSize
	for ch := 0; ch < c.InC; ch++ {
		g := ch / c.inCPerGroup
		chInG := ch % c.inCPerGroup
		src := xd[base+ch*chanSize : base+(ch+1)*chanSize]
		for kh := 0; kh < c.KH; kh++ {
			ihOff := kh - c.Pad
			for kw := 0; kw < c.KW; kw++ {
				rowIdx := g*c.kernelElems + (chInG*c.KH+kh)*c.KW + kw
				dst := colsd[rowIdx*ns+i*spatial : rowIdx*ns+(i+1)*spatial]
				if c.Stride == 1 {
					off := kw - c.Pad
					if ihOff == 0 && off == 0 && c.outW == c.inW && c.outH == c.inH {
						// The center (or 1×1) tap of a same-size convolution
						// reads the whole channel verbatim: one memmove.
						copy(dst, src)
						continue
					}
					lo, hi, _ := rowSpan(c.outW, c.inW, off)
					ohLo, ohHi := rowBand(c.outH, c.inH, ihOff)
					if c.outW == c.inW && c.outH == c.inH {
						// Same-size tap: dst[oh·W+ow] = src[(oh+dy)·W+ow+dx]
						// is one plane-wide shift, so the whole valid region
						// copies as a single memmove. The elements that wrap
						// across row boundaries land exactly on the zero-pad
						// columns and are overwritten below.
						shift := ihOff*c.inW + off
						dlo := 0
						if shift < 0 {
							dlo = -shift
						}
						dhi := len(dst)
						if limit := len(dst) - shift; dhi > limit {
							dhi = limit
						}
						copy(dst[dlo:dhi], src[dlo+shift:dhi+shift])
						zeroSpan(dst[:ohLo*c.outW])
						zeroSpan(dst[ohHi*c.outW:])
						zeroCols(dst[ohLo*c.outW:ohHi*c.outW], c.outW, lo, hi)
						continue
					}
					// Valid output rows form one contiguous band; everything
					// in the band copies as one strided-rows kernel call and
					// the zero padding splits into the boundary rows (one
					// contiguous memclr each) plus the row edges.
					zeroSpan(dst[:ohLo*c.outW])
					zeroSpan(dst[ohHi*c.outW:])
					for oh := ohLo; oh < ohHi; oh++ {
						zeroSpan(dst[oh*c.outW : oh*c.outW+lo])
						zeroSpan(dst[oh*c.outW+hi : (oh+1)*c.outW])
					}
					if ohHi > ohLo && hi > lo {
						tensor.CopyRows(dst[ohLo*c.outW+lo:], src[(ohLo+ihOff)*c.inW+off+lo:],
							ohHi-ohLo, hi-lo, c.outW, c.inW)
					}
					continue
				}
				p := 0
				for oh := 0; oh < c.outH; oh++ {
					ih := oh*c.Stride - c.Pad + kh
					if ih < 0 || ih >= c.inH {
						row := dst[p : p+c.outW]
						for j := range row {
							row[j] = 0
						}
						p += c.outW
						continue
					}
					rowBase := ih * c.inW
					for ow := 0; ow < c.outW; ow++ {
						iw := ow*c.Stride - c.Pad + kw
						if iw >= 0 && iw < c.inW {
							dst[p] = src[rowBase+iw]
						} else {
							dst[p] = 0
						}
						p++
					}
				}
			}
		}
	}
}

// rowSpan returns the [lo,hi) range of output columns whose input column
// iw = ow + off lies in [0, inW), for a stride-1 row.
func rowSpan(outW, inW, off int) (lo, hi, offOut int) {
	lo = 0
	if off < 0 {
		lo = -off
	}
	hi = outW
	if limit := inW - off; hi > limit {
		hi = limit
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi, off
}

// rowBand returns the [ohLo,ohHi) range of output rows whose input row
// ih = oh + ihOff lies in [0, inH), clamped to [0, outH).
func rowBand(outH, inH, ihOff int) (ohLo, ohHi int) {
	ohLo = 0
	if ihOff < 0 {
		ohLo = -ihOff
	}
	if ohLo > outH {
		ohLo = outH
	}
	ohHi = outH
	if limit := inH - ihOff; ohHi > limit {
		ohHi = limit
	}
	if ohHi < ohLo {
		ohHi = ohLo
	}
	return ohLo, ohHi
}

// zeroSpan clears a slice (compiled to a memclr).
func zeroSpan[F tensor.Float](s []F) {
	for i := range s {
		s[i] = 0
	}
}

// zeroCols clears columns [0,lo) and [hi,w) of every w-wide row of plane.
// The one-column edges of a 3×3/pad-1 tap compile to a single strided store
// per row instead of a subslice per row.
func zeroCols[F tensor.Float](plane []F, w, lo, hi int) {
	if lo == 1 {
		for q := 0; q < len(plane); q += w {
			plane[q] = 0
		}
	} else if lo > 1 {
		for base := 0; base < len(plane); base += w {
			for q := base; q < base+lo; q++ {
				plane[q] = 0
			}
		}
	}
	if hi == w-1 {
		for q := w - 1; q < len(plane); q += w {
			plane[q] = 0
		}
	} else if hi < w-1 {
		for base := 0; base < len(plane); base += w {
			for q := base + hi; q < base+w; q++ {
				plane[q] = 0
			}
		}
	}
}

// col2im scatters sample i's column block of the gradient matrix back into
// dx, accumulating where receptive fields overlap. Stride-1 rows accumulate
// over one contiguous span with no per-pixel bounds checks. In the same-size
// geometry the first tap initializes each channel plane (copy plus edge
// clears), so callers skip zeroing dx beforehand; every other geometry
// accumulates into a caller-zeroed dx (see convInitsDX).
func col2im[F tensor.Float](c *Conv2D, dcolsd, dxd []F, i int) {
	spatial := c.outH * c.outW
	ns := c.batch * spatial
	chanSize := c.inH * c.inW
	base := i * c.InC * chanSize
	fast := c.convInitsDX()
	for ch := 0; ch < c.InC; ch++ {
		g := ch / c.inCPerGroup
		chInG := ch % c.inCPerGroup
		dst := dxd[base+ch*chanSize : base+(ch+1)*chanSize]
		init := fast
		for kh := 0; kh < c.KH; kh++ {
			ihOff := kh - c.Pad
			for kw := 0; kw < c.KW; kw++ {
				rowIdx := g*c.kernelElems + (chInG*c.KH+kh)*c.KW + kw
				src := dcolsd[rowIdx*ns+i*spatial : rowIdx*ns+(i+1)*spatial]
				if c.Stride == 1 {
					off := kw - c.Pad
					if ihOff == 0 && off == 0 && c.outW == c.inW && c.outH == c.inH {
						// Center/1×1 tap: one whole-channel accumulate.
						if init {
							copy(dst, src)
							init = false
						} else {
							tensor.VecAccumulate(dst, src)
						}
						continue
					}
					lo, hi, _ := rowSpan(c.outW, c.inW, off)
					ohLo, ohHi := rowBand(c.outH, c.inH, ihOff)
					if c.outW == c.inW && c.outH == c.inH {
						// Same-size tap: the scatter dst[q+shift] += src[q]
						// is one plane-wide accumulate. src is the dcols
						// scratch (rebuilt by the next backward), so the pad
						// columns can be zeroed in place first; the positions
						// that would wrap across row boundaries read exactly
						// those zeroed elements and the out-of-band rows clip
						// against the plane bounds.
						shift := ihOff*c.inW + off
						zeroCols(src, c.outW, lo, hi)
						qlo := 0
						if shift < 0 {
							qlo = -shift
						}
						qhi := len(src)
						if limit := len(src) - shift; qhi > limit {
							qhi = limit
						}
						if init {
							// First tap of the channel plane: write instead
							// of accumulate and clear the clipped margins, so
							// dx needs no up-front zeroing.
							zeroSpan(dst[:qlo+shift])
							copy(dst[qlo+shift:qhi+shift], src[qlo:qhi])
							zeroSpan(dst[qhi+shift:])
							init = false
						} else {
							tensor.VecAccumulate(dst[qlo+shift:qhi+shift], src[qlo:qhi])
						}
						continue
					}
					if ohHi > ohLo && hi > lo {
						tensor.AccumulateRows(dst[(ohLo+ihOff)*c.inW+off+lo:], src[ohLo*c.outW+lo:],
							ohHi-ohLo, hi-lo, c.inW, c.outW)
					}
					continue
				}
				p := 0
				for oh := 0; oh < c.outH; oh++ {
					ih := oh*c.Stride - c.Pad + kh
					if ih < 0 || ih >= c.inH {
						p += c.outW
						continue
					}
					rowBase := ih * c.inW
					for ow := 0; ow < c.outW; ow++ {
						iw := ow*c.Stride - c.Pad + kw
						if iw >= 0 && iw < c.inW {
							dst[rowBase+iw] += src[p]
						}
						p++
					}
				}
			}
		}
	}
}

// parallelFor runs f(i) for i in [0,n) on the persistent tensor worker pool,
// partitioning indices contiguously.
func parallelFor(n int, f func(i int)) {
	tensor.ParallelSharded(n, tensor.Workers(), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
}
