package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Residual computes y = Body(x) + Skip(x), the ResNet building block. An
// identity shortcut is a Skip of no layers, which requires Body to preserve
// the input shape.
type Residual struct {
	ws
	Body *Sequential
	Skip *Sequential

	out, dx *tensor.Tensor

	subs []*Sequential // while r leads a call: the members' bodies or skips
}

// NewResidual builds a residual block. Pass skip == nil for an identity
// shortcut or a projection (for example 1×1 conv) when shapes change.
func NewResidual(body *Sequential, skip *Sequential) *Residual {
	if skip == nil {
		skip = NewSequential()
	}
	r := &Residual{Body: body, Skip: skip}
	r.bind(new(pass))
	return r
}

func (r *Residual) bind(p *pass) {
	r.ws.bind(p)
	r.Body.bind(p)
	r.Skip.bind(p)
}

// Forward evaluates both paths and sums them, as a group of one.
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	ls, acts := [1]Layer{r}, [1]*tensor.Tensor{x}
	r.forwardGroup(ls[:], acts[:], train)
	return acts[0]
}

// forwardGroup walks the members' bodies, then their skips, as groups, and
// sums each member's two outputs.
func (r *Residual) forwardGroup(ls []Layer, acts []*tensor.Tensor, train bool) {
	mains := SequentialForwardBatch(sublayers(&r.subs, ls, (*Residual).body), acts, train)
	shorts := SequentialForwardBatch(sublayers(&r.subs, ls, (*Residual).skip), acts, train)
	drop(&r.subs)
	for g, l := range ls {
		m, main, short := l.(*Residual), mains[g], shorts[g]
		if main.Size() != short.Size() {
			panic(fmt.Sprintf("nn: Residual shape mismatch body %v vs skip %v", main.Shape, short.Shape))
		}
		m.out = m.ensure(main.DT, m.out, main.Shape...)
		tensor.AddInto(m.out, main, short)
		acts[g] = m.out
	}
}

// Backward propagates the gradient through both paths and sums the input
// gradients, as a group of one. The paths' input gradients go back to the
// pool once summed.
func (r *Residual) Backward(grad *tensor.Tensor) *tensor.Tensor {
	ls, acts := [1]Layer{r}, [1]*tensor.Tensor{grad}
	r.backwardGroup(ls[:], acts[:])
	return acts[0]
}

func (r *Residual) backwardGroup(ls []Layer, acts []*tensor.Tensor) {
	dMains := SequentialBackwardBatch(sublayers(&r.subs, ls, (*Residual).body), acts)
	dSkips := SequentialBackwardBatch(sublayers(&r.subs, ls, (*Residual).skip), acts)
	drop(&r.subs)
	for g, l := range ls {
		m, dMain := l.(*Residual), dMains[g]
		m.dx = m.ensure(dMain.DT, m.dx, dMain.Shape...)
		tensor.AddInto(m.dx, dMain, dSkips[g])
		acts[g] = m.dx
		m.Body.releaseGrad()
		m.Skip.releaseGrad()
	}
}

func (r *Residual) body() *Sequential { return r.Body }
func (r *Residual) skip() *Sequential { return r.Skip }

// Params returns the parameters of both paths.
func (r *Residual) Params() []*Param { return append(r.Body.Params(), r.Skip.Params()...) }

func (r *Residual) release() {
	r.Body.release()
	r.Skip.release()
	putBack(&r.out, &r.dx)
}

func (r *Residual) releaseGrad() { putBack(&r.dx) }

func (r *Residual) init(rng *rand.Rand) {
	r.Body.init(rng)
	r.Skip.init(rng)
}

// Buffers returns the non-trainable state of both paths.
func (r *Residual) Buffers() [][]float64 { return append(r.Body.Buffers(), r.Skip.Buffers()...) }

// Inception evaluates several branches on the same input and concatenates
// their outputs along the channel axis, as in GoogLeNet. Every branch must
// produce [N, C_b, H, W] with identical N, H, W.
type Inception struct {
	ws
	Branches []*Sequential

	branchC []int
	outH    int
	outW    int
	outs    []*tensor.Tensor
	out     *tensor.Tensor
	gb      *tensor.Tensor // a branch's slice of the output gradient, for one Backward

	// Group scratch while in leads: the members' branches at one index,
	// held for one call, and their branch gradients.
	subs []*Sequential
	gbs  []*tensor.Tensor
}

// NewInception builds the block from its branches.
func NewInception(branches ...*Sequential) *Inception {
	in := &Inception{Branches: branches, outs: make([]*tensor.Tensor, len(branches)), branchC: make([]int, len(branches))}
	in.bind(new(pass))
	return in
}

func (in *Inception) bind(p *pass) {
	in.ws.bind(p)
	for _, br := range in.Branches {
		br.bind(p)
	}
}

// Forward concatenates branch outputs channel-wise, as a group of one.
func (in *Inception) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	ls, acts := [1]Layer{in}, [1]*tensor.Tensor{x}
	in.forwardGroup(ls[:], acts[:], train)
	return acts[0]
}

// forwardGroup walks each branch of the members as a group, then
// concatenates each member's branch outputs.
func (in *Inception) forwardGroup(ls []Layer, acts []*tensor.Tensor, train bool) {
	for b := range in.Branches {
		outs := SequentialForwardBatch(in.branch(ls, b), acts, train)
		for g, l := range ls {
			m, o := l.(*Inception), outs[g]
			if o.Rank() != 4 || o.Dim(0) != acts[g].Dim(0) {
				panic(fmt.Sprintf("nn: Inception branch %d output shape %v", b, o.Shape))
			}
			if b == 0 {
				m.outH, m.outW = o.Dim(2), o.Dim(3)
			} else if o.Dim(2) != m.outH || o.Dim(3) != m.outW {
				panic(fmt.Sprintf("nn: Inception branch %d spatial mismatch %v", b, o.Shape))
			}
			m.outs[b], m.branchC[b] = o, o.Dim(1)
		}
	}
	drop(&in.subs)
	for g, l := range ls {
		acts[g] = l.(*Inception).concat(acts[g].Dim(0))
	}
}

// concat copies the kept branch outputs into one channel-wise output.
func (in *Inception) concat(n int) *tensor.Tensor {
	totalC := 0
	for _, cb := range in.branchC {
		totalC += cb
	}
	in.out = in.ensure(in.outs[0].DT, in.out, n, totalC, in.outH, in.outW)
	out := in.out
	spatial := in.outH * in.outW
	for i := 0; i < n; i++ {
		chOff := 0
		for b, o := range in.outs {
			cb := in.branchC[b]
			tensor.CopySegment(out, (i*totalC+chOff)*spatial, o, i*cb*spatial, cb*spatial)
			chOff += cb
		}
	}
	return out
}

// Backward splits the gradient channel-wise, propagates each slice through
// its branch, and sums the resulting input gradients, as a group of one. The
// sum accumulates into branch 0's input gradient, so that is what Backward
// returns (and releaseGrad hands back); every other branch's goes back to
// the arena once added, and the slices once the last branch has run.
func (in *Inception) Backward(grad *tensor.Tensor) *tensor.Tensor {
	ls, acts := [1]Layer{in}, [1]*tensor.Tensor{grad}
	in.backwardGroup(ls[:], acts[:])
	return acts[0]
}

func (in *Inception) backwardGroup(ls []Layer, acts []*tensor.Tensor) {
	gbs := sized(&in.gbs, len(ls))
	var dxs []*tensor.Tensor
	for b := range in.Branches {
		for g, l := range ls {
			gbs[g] = l.(*Inception).branchGrad(b, acts[g])
		}
		d := SequentialBackwardBatch(in.branch(ls, b), gbs)
		if b == 0 {
			dxs = d
			continue
		}
		for g, dx := range dxs {
			dx.AddInPlace(d[g])
			ls[g].(*Inception).Branches[b].releaseGrad()
		}
	}
	drop(&in.subs)
	copy(acts, dxs)
	for _, l := range ls {
		putBack(&l.(*Inception).gb)
	}
}

// branchGrad copies branch b's channels of grad into the layer's branch
// gradient.
func (in *Inception) branchGrad(b int, grad *tensor.Tensor) *tensor.Tensor {
	n, totalC := grad.Dim(0), grad.Dim(1)
	spatial := in.outH * in.outW
	chOff := 0
	for _, cb := range in.branchC[:b] {
		chOff += cb
	}
	cb := in.branchC[b]
	in.gb = in.ensure(grad.DT, in.gb, n, cb, in.outH, in.outW)
	for i := 0; i < n; i++ {
		tensor.CopySegment(in.gb, i*cb*spatial, grad, (i*totalC+chOff)*spatial, cb*spatial)
	}
	return in.gb
}

// branch fills the leader's list with every member's branch b.
func (in *Inception) branch(ls []Layer, b int) []*Sequential {
	return sublayers(&in.subs, ls, func(m *Inception) *Sequential { return m.Branches[b] })
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
	putBack(&in.out)
	drop(&in.gbs)
}

func (in *Inception) releaseGrad() { in.Branches[0].releaseGrad() }

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
	ws
	Groups  int
	inShape []int
	out, dx *tensor.Tensor
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
		cs.dx = cs.ensure(x.DT, cs.dx, n, c, h, w)
		out = cs.dx
	} else {
		cs.out = cs.ensure(x.DT, cs.out, n, c, h, w)
		out = cs.out
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

func (cs *ChannelShuffle) release() { putBack(&cs.out, &cs.dx) }

func (cs *ChannelShuffle) releaseGrad() { putBack(&cs.dx) }
