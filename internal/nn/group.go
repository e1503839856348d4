package nn

import "repro/internal/tensor"

// Group stepping (DESIGN.md §12): every layer has one forward and one
// backward implementation, over a group of same-configuration instances —
// the layers at one position of structurally identical models — and
// Forward and Backward are that implementation at a group of one. Dense and
// Conv2D fuse their members' GEMMs into batched launches, which keep every
// product's standalone shard plan, so a group step is byte-identical to
// stepping its members one by one. Sequential's walker steps each position
// as a group, and Residual and Inception step their sublayers' groups
// through it; every other layer steps per member inside it, a memory-bound
// pass with no launch to amortize. Members share one models.Config by
// construction (fl.GroupCohort), so a member of another type or depth is a
// programming error and panics, as a shape mismatch does.
//
// A group's leader, its first member, keeps the lists a step needs and
// refills them every step, so a steady-state step allocates nothing at any
// group size. Lists naming the members are emptied when the call returns,
// so no model keeps another reachable; operand and activation lists are
// emptied by release.

// A grouper steps a group of instances of its type; ls[0] is the receiver.
// acts holds each member's input on entry and its output on return, and
// likewise its gradients in backward.
type grouper interface {
	forwardGroup(ls []Layer, acts []*tensor.Tensor, train bool)
	backwardGroup(ls []Layer, acts []*tensor.Tensor)
}

// A paramGrouper can also step its group's backward for parameter
// gradients alone, computing no input gradient (SequentialBackwardParams).
type paramGrouper interface {
	grouper
	backwardParamsGroup(ls []Layer, grads []*tensor.Tensor)
}

// members fills the list dst with the layers of ls as their concrete type L;
// a member of another type panics.
func members[L Layer](dst *[]L, ls []Layer) []L {
	s := (*dst)[:0]
	for _, l := range ls {
		s = append(s, l.(L))
	}
	*dst = s
	return s
}

// sublayers fills the list dst with sub(m) for every member m of ls.
func sublayers[L Layer](dst *[]*Sequential, ls []Layer, sub func(L) *Sequential) []*Sequential {
	s := (*dst)[:0]
	for _, l := range ls {
		s = append(s, sub(l.(L)))
	}
	*dst = s
	return s
}

// sized returns the list *s at length n, reusing its capacity.
func sized[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

// drop empties a list, clearing what it referenced but keeping its capacity.
func drop[T any](s *[]T) {
	clear((*s)[:cap(*s)])
	*s = (*s)[:0]
}

// launch is a leader's operand lists for one fused product, one entry per
// member taking part.
type launch struct {
	outs, as, bs []*tensor.Tensor
	fused        []bool // Conv2D: the members already issued for this block
}

// start begins entry point op's first launch, checking that it was given
// one activation per member.
func (l *launch) start(op string, nMembers, nActs int) *launch {
	if nMembers != nActs {
		panic("nn: " + op + " length mismatch")
	}
	l.reset()
	return l
}

func (l *launch) reset() { l.outs, l.as, l.bs = l.outs[:0], l.as[:0], l.bs[:0] }

func (l *launch) add(out, a, b *tensor.Tensor) {
	l.outs, l.as, l.bs = append(l.outs, out), append(l.as, a), append(l.bs, b)
}

func (l *launch) release() {
	drop(&l.outs)
	drop(&l.as)
	drop(&l.bs)
}

// SequentialForwardBatch is the Sequential walker: it runs
// seqs[g].Forward(xs[g], train) for every g, position by position, each
// position's members stepped as a group. It returns the outputs in the
// leader's list, valid until the leader's next group forward.
//
// An evaluation-mode walk (train false) keeps nothing for a backward pass,
// so it hands each position's workspaces back to the arena as soon as
// nothing downstream can read them: once the position after the one whose
// storage holds the activations has written its outputs into storage of its
// own. A layer whose output shares its input's storage (Flatten's view)
// keeps the owner alive one position longer. The last owner's outputs are
// what the walk returns, so they stay.
func SequentialForwardBatch(seqs []*Sequential, xs []*tensor.Tensor, train bool) []*tensor.Tensor {
	if len(seqs) != len(xs) {
		panic("nn: SequentialForwardBatch length mismatch")
	}
	lead := seqs[0]
	acts := sized(&lead.fwd, len(xs))
	copy(acts, xs)
	owner := -1 // the position whose storage acts are in; -1 is the caller's input
	for i, l := range lead.Layers {
		at, x := lead.position(seqs, i), acts[0]
		if gl, ok := l.(grouper); ok {
			gl.forwardGroup(at, acts, train)
		} else {
			for g, m := range at {
				acts[g] = m.Forward(acts[g], train)
			}
		}
		if !train && !sameStorage(x, acts[0]) {
			handBack(seqs, owner, Layer.release)
			owner = i
		}
	}
	drop(&lead.at)
	return acts
}

// handBack applies release to every member's layer at position i; -1, the
// walk's caller, owns what it passed in and is left alone.
func handBack(seqs []*Sequential, i int, release func(Layer)) {
	if i < 0 {
		return
	}
	for _, s := range seqs {
		release(s.Layers[i])
	}
}

// SequentialBackwardBatch is the walker's reverse pass matching
// SequentialForwardBatch. It returns the input gradients in the leader's
// list, valid until the leader's next group backward.
//
// The walk hands each position's input gradients back to the arena as soon
// as the position in front has read them, the evaluation forward's
// release-behind rule run in reverse: once a position has written its
// gradients into storage of its own, the previous owner's go back. A layer
// whose gradient shares its argument's storage (Flatten's view) keeps the
// owner alive one position longer. What the walk returns stays.
func SequentialBackwardBatch(seqs []*Sequential, grads []*tensor.Tensor) []*tensor.Tensor {
	return sequentialBackward(seqs, grads, -1)
}

// SequentialBackwardParams is SequentialBackwardBatch for a caller that
// reads no input gradient — a training step, which only wants the parameter
// gradients. The walk ends at the first layer with parameters, which
// computes its parameter gradients alone (Dense, Conv2D): the input-gradient
// product of a model's first layer, its buffer and, for a convolution, the
// column scatter are skipped, and the parameter-free layers in front of it
// (Flatten) are not visited. Every parameter gradient is the full walk's,
// bit for bit. A first layer of another kind (Residual, Inception,
// BatchNorm) gets the full walk. The last gradient the walk read goes back
// to the arena too, so the walk leaves no input gradient leased.
func SequentialBackwardParams(seqs []*Sequential, grads []*tensor.Tensor) {
	sequentialBackward(seqs, grads, seqs[0].firstWeights())
}

// firstWeights returns the index of the first layer with parameters or
// running statistics when it can compute its parameter gradients alone,
// else -1 (a layer without either implements no initializer).
func (s *Sequential) firstWeights() int {
	for i, l := range s.Layers {
		if _, ok := l.(initializer); ok {
			if _, ok := l.(paramGrouper); ok {
				return i
			}
			return -1
		}
	}
	return -1
}

// sequentialBackward walks the positions from the last down: all of them,
// returning the input gradients, when stop is -1; down to stop otherwise,
// whose layer computes its parameter gradients alone, returning nil.
func sequentialBackward(seqs []*Sequential, grads []*tensor.Tensor, stop int) []*tensor.Tensor {
	if len(seqs) != len(grads) {
		panic("nn: SequentialBackwardBatch length mismatch")
	}
	lead := seqs[0]
	acts := sized(&lead.bwd, len(grads))
	copy(acts, grads)
	owner := -1 // the position whose storage acts are in; -1 is the caller's gradient
	for i := len(lead.Layers) - 1; i >= 0; i-- {
		at, grad := lead.position(seqs, i), acts[0]
		l := lead.Layers[i]
		if i == stop {
			l.(paramGrouper).backwardParamsGroup(at, acts)
			handBack(seqs, owner, Layer.releaseGrad)
			acts = nil
			break
		}
		if gl, ok := l.(grouper); ok {
			gl.backwardGroup(at, acts)
		} else {
			for g, m := range at {
				acts[g] = m.Backward(acts[g])
			}
		}
		if !sameStorage(grad, acts[0]) {
			handBack(seqs, owner, Layer.releaseGrad)
			owner = i
		}
	}
	drop(&lead.at)
	return acts
}

// position fills the leader's list with every member's layer at index i.
func (s *Sequential) position(seqs []*Sequential, i int) []Layer {
	s.at = s.at[:0]
	for _, m := range seqs {
		if len(m.Layers) != len(s.Layers) {
			panic("nn: group members differ in depth")
		}
		s.at = append(s.at, m.Layers[i])
	}
	return s.at
}
