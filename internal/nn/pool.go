package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// MaxPool2D is a max pooling layer over [N, C, H, W] inputs.
type MaxPool2D struct {
	ws
	K, Stride  int
	inShape    []int
	outH, outW int
	out, dx    *tensor.Tensor

	// argmax is the flat index into the input of every output element, for
	// Backward: ints over am, a lease of the pass's arena, which goes back
	// with dx (releaseGrad) or when the pass ends.
	argmax []int
	am     *tensor.Tensor

	// x and y are Forward's operands for the duration of the call, and task
	// pools samples [lo,hi) of them: built with the layer, so a dispatch
	// allocates nothing.
	x, y *tensor.Tensor
	task func(shard, lo, hi int)
}

// NewMaxPool2D builds a pooling layer with square kernel k and the given
// stride (stride = k gives the usual non-overlapping pooling).
func NewMaxPool2D(k, stride int) *MaxPool2D {
	m := &MaxPool2D{K: k, Stride: stride}
	m.task = m.poolRange
	return m
}

// Forward computes per-window maxima and records argmax positions.
func (m *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: MaxPool2D.Forward input shape %v, want rank 4", x.Shape))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	m.inShape = append(m.inShape[:0], n, c, h, w)
	m.outH = (h-m.K)/m.Stride + 1
	m.outW = (w-m.K)/m.Stride + 1
	if m.outH <= 0 || m.outW <= 0 {
		panic(fmt.Sprintf("nn: MaxPool2D output not positive for input %dx%d kernel %d", h, w, m.K))
	}
	m.out = m.ensure(x.DT, m.out, n, c, m.outH, m.outW)
	out := m.out
	m.am, m.argmax = m.arena().EnsureInts(x.DT, m.am, out.Size())
	m.x, m.y = x, out
	tensor.ParallelSharded(n, tensor.Workers(), m.task)
	m.x, m.y = nil, nil
	return out
}

// poolRange is task: samples [lo,hi) of the current Forward.
func (m *MaxPool2D) poolRange(_, lo, hi int) {
	c, h, w := m.inShape[1], m.inShape[2], m.inShape[3]
	for i := lo; i < hi; i++ {
		if m.x.DT.Backing() == tensor.F32 {
			maxPoolSample(m, tensor.Of[float32](m.x), tensor.Of[float32](m.y), i, c, h, w)
		} else {
			maxPoolSample(m, m.x.Data, m.y.Data, i, c, h, w)
		}
	}
}

func maxPoolSample[F tensor.Float](m *MaxPool2D, xd, outd []F, i, c, h, w int) {
	if m.K == 2 && m.Stride == 2 {
		maxPool2x2Sample(m, xd, outd, i, c, h, w)
		return
	}
	for ch := 0; ch < c; ch++ {
		inBase := (i*c + ch) * h * w
		outBase := (i*c + ch) * m.outH * m.outW
		for oh := 0; oh < m.outH; oh++ {
			for ow := 0; ow < m.outW; ow++ {
				bestIdx := -1
				var bestVal F
				for kh := 0; kh < m.K; kh++ {
					ih := oh*m.Stride + kh
					for kw := 0; kw < m.K; kw++ {
						iw := ow*m.Stride + kw
						idx := inBase + ih*w + iw
						if v := xd[idx]; bestIdx < 0 || v > bestVal {
							bestIdx, bestVal = idx, v
						}
					}
				}
				o := outBase + oh*m.outW + ow
				outd[o] = bestVal
				m.argmax[o] = bestIdx
			}
		}
	}
}

// maxPool2x2Sample unrolls the ubiquitous 2×2/stride-2 window: four loads,
// three compares, no inner loops. The compare order (row-major within the
// window, strict greater-than) matches the generic path exactly, so argmax
// tie-breaking — and therefore the backward routing — is identical.
func maxPool2x2Sample[F tensor.Float](m *MaxPool2D, xd, outd []F, i, c, h, w int) {
	if xf, ok := any(xd).([]float32); ok && maxPool2x2AsmF32(m, xf, any(outd).([]float32), i, c, h, w) {
		return
	}
	if xf, ok := any(xd).([]float64); ok && maxPool2x2AsmF64(m, xf, any(outd).([]float64), i, c, h, w) {
		return
	}
	for ch := 0; ch < c; ch++ {
		inBase := (i*c + ch) * h * w
		outBase := (i*c + ch) * m.outH * m.outW
		for oh := 0; oh < m.outH; oh++ {
			r0 := inBase + (oh * 2 * w)
			// Row subslices hoist the bounds checks out of the pixel loop;
			// indices stay row-relative until the argmax store.
			row0 := xd[r0 : r0+w]
			row1 := xd[r0+w : r0+2*w]
			o := outBase + oh*m.outW
			outRow := outd[o : o+m.outW]
			amRow := m.argmax[o : o+m.outW]
			p := 0
			for ow := range outRow {
				rel, bestVal := p, row0[p]
				if v := row0[p+1]; v > bestVal {
					rel, bestVal = p+1, v
				}
				if v := row1[p]; v > bestVal {
					rel, bestVal = w+p, v
				}
				if v := row1[p+1]; v > bestVal {
					rel, bestVal = w+p+1, v
				}
				outRow[ow] = bestVal
				amRow[ow] = r0 + rel
				p += 2
			}
		}
	}
}

// maxPool2x2AsmF32 hands each channel plane to the AVX-512 pooling kernel,
// which reproduces the scalar candidate order exactly (values and argmax
// alike). Returns false when the tier is unavailable so the caller runs the
// scalar loop instead.
func maxPool2x2AsmF32(m *MaxPool2D, xd, outd []float32, i, c, h, w int) bool {
	for ch := 0; ch < c; ch++ {
		inBase := (i*c + ch) * h * w
		outBase := (i*c + ch) * m.outH * m.outW
		if !tensor.MaxPool2x2F32(xd[inBase:inBase+h*w], outd[outBase:outBase+m.outH*m.outW],
			m.argmax[outBase:outBase+m.outH*m.outW], m.outH, m.outW, w, inBase) {
			return false
		}
	}
	return true
}

// maxPool2x2AsmF64 is the f64 twin of maxPool2x2AsmF32.
func maxPool2x2AsmF64(m *MaxPool2D, xd, outd []float64, i, c, h, w int) bool {
	for ch := 0; ch < c; ch++ {
		inBase := (i*c + ch) * h * w
		outBase := (i*c + ch) * m.outH * m.outW
		if !tensor.MaxPool2x2F64(xd[inBase:inBase+h*w], outd[outBase:outBase+m.outH*m.outW],
			m.argmax[outBase:outBase+m.outH*m.outW], m.outH, m.outW, w, inBase) {
			return false
		}
	}
	return true
}

// Backward routes each output gradient to its argmax input position. The
// positions are the preceding Forward's, which the backward walk hands
// back with the input gradient, so it follows a Forward.
func (m *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if m.am == nil {
		panic("nn: MaxPool2D.Backward without a Forward: the argmax positions have been handed back")
	}
	m.dx = m.ensure(grad.DT, m.dx, m.inShape...)
	m.dx.Zero()
	if grad.DT.Backing() == tensor.F32 {
		maxPoolBwd(tensor.Of[float32](m.dx), tensor.Of[float32](grad), m.argmax)
	} else {
		maxPoolBwd(m.dx.Data, grad.Data, m.argmax)
	}
	return m.dx
}

func maxPoolBwd[F tensor.Float](dxd, gradd []F, argmax []int) {
	for o, idx := range argmax {
		dxd[idx] += gradd[o]
	}
}

// Params returns nil; pooling has no parameters.
func (m *MaxPool2D) Params() []*Param { return nil }

func (m *MaxPool2D) release() {
	putBack(&m.out, &m.dx, &m.am)
	m.argmax = nil
}

func (m *MaxPool2D) releaseGrad() {
	putBack(&m.dx, &m.am)
	m.argmax = nil
}

// GlobalAvgPool averages each channel's spatial map, mapping [N, C, H, W]
// to [N, C]. It is the standard head before the final FC layers.
type GlobalAvgPool struct {
	ws
	inShape []int
	out, dx *tensor.Tensor
}

// NewGlobalAvgPool builds the layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Forward averages over the spatial dimensions.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: GlobalAvgPool input shape %v, want rank 4", x.Shape))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	g.inShape = append(g.inShape[:0], n, c, h, w)
	g.out = g.ensure(x.DT, g.out, n, c)
	if x.DT.Backing() == tensor.F32 {
		gapFwd(tensor.Of[float32](g.out), tensor.Of[float32](x), n, c, h, w)
	} else {
		gapFwd(g.out.Data, x.Data, n, c, h, w)
	}
	return g.out
}

func gapFwd[F tensor.Float](outd, xd []F, n, c, h, w int) {
	area := F(float64(h * w))
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			var s F
			s = tensor.SumAcc(s, xd[(i*c+ch)*h*w:(i*c+ch+1)*h*w])
			outd[i*c+ch] = s / area
		}
	}
}

// Backward spreads each channel gradient uniformly over its spatial map.
func (g *GlobalAvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := g.inShape[0], g.inShape[1], g.inShape[2], g.inShape[3]
	g.dx = g.ensure(grad.DT, g.dx, n, c, h, w)
	if grad.DT.Backing() == tensor.F32 {
		gapBwd(tensor.Of[float32](g.dx), tensor.Of[float32](grad), n, c, h, w)
	} else {
		gapBwd(g.dx.Data, grad.Data, n, c, h, w)
	}
	return g.dx
}

func gapBwd[F tensor.Float](dxd, gradd []F, n, c, h, w int) {
	inv := F(1.0 / float64(h*w))
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			gv := gradd[i*c+ch] * inv
			seg := dxd[(i*c+ch)*h*w : (i*c+ch+1)*h*w]
			for p := range seg {
				seg[p] = gv
			}
		}
	}
}

// Params returns nil; pooling has no parameters.
func (g *GlobalAvgPool) Params() []*Param { return nil }

func (g *GlobalAvgPool) release() { putBack(&g.out, &g.dx) }

func (g *GlobalAvgPool) releaseGrad() { putBack(&g.dx) }

// Flatten reshapes [N, ...] activations to [N, rest], remembering the input
// shape so Backward can restore it. Both directions return cached view
// headers over the argument's storage, so no data moves and nothing is
// allocated.
type Flatten struct {
	ws
	inShape []int
	fwd     viewRing2
	bwd     viewRing2
}

// NewFlatten builds the layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all trailing dimensions.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.inShape = append(f.inShape[:0], x.Shape...)
	rest := 1
	for _, d := range x.Shape[1:] {
		rest *= d
	}
	return f.fwd.next(x, x.Dim(0), rest)
}

// Backward restores the original shape.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return f.bwd.next(grad, f.inShape...)
}

// Params returns nil; flattening has no parameters.
func (f *Flatten) Params() []*Param { return nil }

func (f *Flatten) release() {
	f.fwd.release()
	f.bwd.release()
}

// releaseGrad has nothing to hand back: Backward returns a view of its
// argument's storage, whose owner hands it back.
func (f *Flatten) releaseGrad() {}
