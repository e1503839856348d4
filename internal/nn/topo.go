package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Residual computes y = Body(x) + Skip(x), the ResNet building block. When
// Skip is nil the identity shortcut is used, which requires Body to preserve
// the input shape.
type Residual struct {
	Body *Sequential
	Skip *Sequential // nil means identity

	out ring2
	dx  *tensor.Tensor
}

// NewResidual builds a residual block. Pass skip == nil for an identity
// shortcut or a projection (for example 1×1 conv) when shapes change.
func NewResidual(body *Sequential, skip *Sequential) *Residual {
	return &Residual{Body: body, Skip: skip}
}

// Forward evaluates both paths and sums them.
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	main := r.Body.Forward(x, train)
	var short *tensor.Tensor
	if r.Skip != nil {
		short = r.Skip.Forward(x, train)
	} else {
		short = x
	}
	if main.Size() != short.Size() {
		panic(fmt.Sprintf("nn: Residual shape mismatch body %v vs skip %v", main.Shape, short.Shape))
	}
	out := r.out.next(main.DT, main.Shape...)
	tensor.AddInto(out, main, short)
	return out
}

// Backward propagates the gradient through both paths and sums the input
// gradients.
func (r *Residual) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dMain := r.Body.Backward(grad)
	r.dx = tensor.EnsureOf(dMain.DT, r.dx, dMain.Shape...)
	if r.Skip != nil {
		dSkip := r.Skip.Backward(grad)
		tensor.AddInto(r.dx, dMain, dSkip)
	} else {
		tensor.AddInto(r.dx, dMain, grad)
	}
	return r.dx
}

// Params returns the parameters of both paths.
func (r *Residual) Params() []*Param {
	ps := r.Body.Params()
	if r.Skip != nil {
		ps = append(ps, r.Skip.Params()...)
	}
	return ps
}

func (r *Residual) release() {
	r.Body.release()
	if r.Skip != nil {
		r.Skip.release()
	}
	r.out.release()
	putBack(&r.dx)
}

func (r *Residual) init(rng *rand.Rand) {
	r.Body.init(rng)
	if r.Skip != nil {
		r.Skip.init(rng)
	}
}

// Buffers returns the non-trainable state of both paths.
func (r *Residual) Buffers() [][]float64 {
	bs := r.Body.Buffers()
	if r.Skip != nil {
		bs = append(bs, r.Skip.Buffers()...)
	}
	return bs
}

// Inception evaluates several branches on the same input and concatenates
// their outputs along the channel axis, as in GoogLeNet. Every branch must
// produce [N, C_b, H, W] with identical N, H, W.
type Inception struct {
	Branches []*Sequential

	branchC []int
	outH    int
	outW    int
	outs    []*tensor.Tensor
	out     ring2
	gb      *tensor.Tensor
}

// NewInception builds the block from its branches.
func NewInception(branches ...*Sequential) *Inception { return &Inception{Branches: branches} }

// Forward concatenates branch outputs channel-wise.
func (in *Inception) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(in.outs) != len(in.Branches) {
		in.outs = make([]*tensor.Tensor, len(in.Branches))
		in.branchC = make([]int, len(in.Branches))
	}
	outs := in.outs
	totalC := 0
	n := x.Dim(0)
	for b, br := range in.Branches {
		o := br.Forward(x, train)
		if o.Rank() != 4 || o.Dim(0) != n {
			panic(fmt.Sprintf("nn: Inception branch %d output shape %v", b, o.Shape))
		}
		if b == 0 {
			in.outH, in.outW = o.Dim(2), o.Dim(3)
		} else if o.Dim(2) != in.outH || o.Dim(3) != in.outW {
			panic(fmt.Sprintf("nn: Inception branch %d spatial mismatch %v", b, o.Shape))
		}
		outs[b] = o
		in.branchC[b] = o.Dim(1)
		totalC += o.Dim(1)
	}
	out := in.out.next(outs[0].DT, n, totalC, in.outH, in.outW)
	spatial := in.outH * in.outW
	for i := 0; i < n; i++ {
		chOff := 0
		for b, o := range outs {
			cb := in.branchC[b]
			tensor.CopySegment(out, (i*totalC+chOff)*spatial, o, i*cb*spatial, cb*spatial)
			chOff += cb
		}
	}
	return out
}

// Backward splits the gradient channel-wise, propagates each slice through
// its branch, and sums the resulting input gradients.
func (in *Inception) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n := grad.Dim(0)
	totalC := grad.Dim(1)
	spatial := in.outH * in.outW
	var dx *tensor.Tensor
	chOff := 0
	for b, br := range in.Branches {
		cb := in.branchC[b]
		in.gb = tensor.EnsureOf(grad.DT, in.gb, n, cb, in.outH, in.outW)
		gb := in.gb
		for i := 0; i < n; i++ {
			tensor.CopySegment(gb, i*cb*spatial, grad, (i*totalC+chOff)*spatial, cb*spatial)
		}
		d := br.Backward(gb)
		if dx == nil {
			dx = d
		} else {
			dx.AddInPlace(d)
		}
		chOff += cb
	}
	return dx
}

// Params returns the parameters of all branches.
func (in *Inception) Params() []*Param {
	var ps []*Param
	for _, br := range in.Branches {
		ps = append(ps, br.Params()...)
	}
	return ps
}

func (in *Inception) release() {
	for _, br := range in.Branches {
		br.release()
	}
	clear(in.outs)
	in.out.release()
	putBack(&in.gb)
}

func (in *Inception) init(rng *rand.Rand) {
	for _, br := range in.Branches {
		br.init(rng)
	}
}

// Buffers returns the non-trainable state of all branches.
func (in *Inception) Buffers() [][]float64 {
	var bs [][]float64
	for _, br := range in.Branches {
		bs = append(bs, br.Buffers()...)
	}
	return bs
}

// ChannelShuffle permutes channels of [N, C, H, W] activations so that
// grouped convolutions exchange information, as in ShuffleNet. With G
// groups, channel g·(C/G)+i moves to position i·G+g.
type ChannelShuffle struct {
	Groups  int
	inShape []int
	out     ring2
	dx      *tensor.Tensor
}

// NewChannelShuffle builds the layer.
func NewChannelShuffle(groups int) *ChannelShuffle { return &ChannelShuffle{Groups: groups} }

// Forward applies the shuffle permutation.
func (cs *ChannelShuffle) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1)%cs.Groups != 0 {
		panic(fmt.Sprintf("nn: ChannelShuffle input %v with groups %d", x.Shape, cs.Groups))
	}
	cs.inShape = append(cs.inShape[:0], x.Shape...)
	return cs.permute(x, false)
}

// Backward applies the inverse permutation to the gradient.
func (cs *ChannelShuffle) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return cs.permute(grad, true)
}

func (cs *ChannelShuffle) permute(x *tensor.Tensor, inverse bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	perGroup := c / cs.Groups
	var out *tensor.Tensor
	if inverse {
		cs.dx = tensor.EnsureOf(x.DT, cs.dx, n, c, h, w)
		out = cs.dx
	} else {
		out = cs.out.next(x.DT, n, c, h, w)
	}
	spatial := h * w
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			g, idx := ch/perGroup, ch%perGroup
			dst := idx*cs.Groups + g
			from, to := ch, dst
			if inverse {
				from, to = dst, ch
			}
			tensor.CopySegment(out, (i*c+to)*spatial, x, (i*c+from)*spatial, spatial)
		}
	}
	return out
}

// Params returns nil; shuffling has no parameters.
func (cs *ChannelShuffle) Params() []*Param { return nil }

func (cs *ChannelShuffle) release() {
	cs.out.release()
	putBack(&cs.dx)
}
