package nn

import (
	"repro/internal/tensor"
)

// Cross-client batched stepping (DESIGN.md §12): a group of structurally
// identical models advances through one forward/backward pass in lockstep,
// lowering each layer's per-client GEMMs — one per model — into a single
// batched launch via tensor.MatMulBatch*. The batched entry points preserve
// every product's standalone shard plan, so a group step is byte-identical
// to stepping the models one after another; grouping is purely a dispatch
// optimization.
//
// Only the GEMM-bearing layers (Dense, Conv2D) have fused group paths.
// Everything else — activations, pooling, normalization, shape adapters and
// composites — runs per model at its layer index, which costs nothing:
// those layers are memory-bound elementwise passes with no launch to
// amortize.

// DenseForwardBatch runs ds[g].Forward(xs[g], train) for every g with the
// per-client GEMMs fused into one batched launch.
func DenseForwardBatch(ds []*Dense, xs []*tensor.Tensor, train bool) []*tensor.Tensor {
	if len(ds) != len(xs) {
		panic("nn: DenseForwardBatch length mismatch")
	}
	ys := make([]*tensor.Tensor, len(ds))
	ws := make([]*tensor.Tensor, len(ds))
	for g, d := range ds {
		x := xs[g]
		if x.Rank() != 2 || x.Cols() != d.In {
			panicShape("Dense.Forward", x, d.In)
		}
		if x.DT != d.W.Value.DT {
			panic("nn: DenseForwardBatch input dtype mismatch (cast inputs at the model boundary)")
		}
		d.x = x
		ys[g] = d.out.next(x.DT, x.Rows(), d.Out)
		ws[g] = d.W.Value
	}
	tensor.MatMulBatchInto(ys, xs, ws)
	for g, d := range ds {
		n := xs[g].Rows()
		y := ys[g]
		if y.DT.Backing() == tensor.F32 {
			addBiasRows(tensor.Of[float32](y), tensor.Of[float32](d.B.Value), n, d.Out)
		} else {
			addBiasRows(y.Data, d.B.Value.Data, n, d.Out)
		}
	}
	return ys
}

// DenseBackwardBatch runs ds[g].Backward(grads[g]) for every g, fusing the
// weight-gradient and input-gradient GEMMs across the group.
func DenseBackwardBatch(ds []*Dense, grads []*tensor.Tensor) []*tensor.Tensor {
	if len(ds) != len(grads) {
		panic("nn: DenseBackwardBatch length mismatch")
	}
	wgrads := make([]*tensor.Tensor, len(ds))
	xs := make([]*tensor.Tensor, len(ds))
	wvals := make([]*tensor.Tensor, len(ds))
	dxs := make([]*tensor.Tensor, len(ds))
	for g, d := range ds {
		wgrads[g] = d.W.Grad
		xs[g] = d.x
		d.dx = tensor.EnsureOf(grads[g].DT, d.dx, grads[g].Rows(), d.In)
		dxs[g] = d.dx
		wvals[g] = d.W.Value
	}
	tensor.MatMulBatchATBAcc(wgrads, xs, grads)
	for g, d := range ds {
		tensor.ColSumsAcc(d.B.Grad, grads[g])
	}
	tensor.MatMulBatchABTInto(dxs, grads, wvals)
	return dxs
}

// sameConvConfig reports whether every layer shares cs[0]'s static
// convolution geometry, the precondition for walking their channel groups in
// lockstep.
func sameConvConfig(cs []*Conv2D) bool {
	c0 := cs[0]
	for _, c := range cs[1:] {
		if c.InC != c0.InC || c.OutC != c0.OutC || c.KH != c0.KH || c.KW != c0.KW ||
			c.Stride != c0.Stride || c.Pad != c0.Pad || c.Groups != c0.Groups {
			return false
		}
	}
	return true
}

// Conv2DForwardBatch runs cs[g].Forward(xs[g], train) for every g through
// the convolution block driver (convForward): block by block, each member
// lowers its own block, and each channel group's per-client GEMMs of that
// block fuse into one batched launch across the members whose block widths
// match, with the bias-fused scatter per client in between (each client's
// gemmOut scratch is reused across its groups, so group products must
// scatter before the next group index runs).
func Conv2DForwardBatch(cs []*Conv2D, xs []*tensor.Tensor, train bool) []*tensor.Tensor {
	if len(cs) != len(xs) {
		panic("nn: Conv2DForwardBatch length mismatch")
	}
	outs := make([]*tensor.Tensor, len(cs))
	if !sameConvConfig(cs) {
		for g, c := range cs {
			outs[g] = c.Forward(xs[g], train)
		}
		return outs
	}
	convForward(cs, xs, outs, train)
	return outs
}

// Conv2DBackwardBatch runs cs[g].Backward(grads[g]) for every g through the
// backward block driver (convBackward), fusing each block's weight- and
// column-gradient GEMMs per channel group across the clients.
func Conv2DBackwardBatch(cs []*Conv2D, grads []*tensor.Tensor) []*tensor.Tensor {
	if len(cs) != len(grads) {
		panic("nn: Conv2DBackwardBatch length mismatch")
	}
	dxs := make([]*tensor.Tensor, len(cs))
	if !sameConvConfig(cs) {
		for g, c := range cs {
			dxs[g] = c.Backward(grads[g])
		}
		return dxs
	}
	convBackward(cs, grads, dxs)
	return dxs
}

// batchable reports whether the sequentials can step in lockstep at all:
// every model must have the same layer count (grouped cohorts share a
// models.Config, so this holds; the check keeps misuse safe).
func batchable(seqs []*Sequential) bool {
	for _, s := range seqs[1:] {
		if len(s.Layers) != len(seqs[0].Layers) {
			return false
		}
	}
	return true
}

// denseGroup returns the group's layers at index i when they are all *Dense,
// nil otherwise. The leader's layer is probed before allocating so that
// non-Dense indices — the common case in a conv net — cost nothing.
func denseGroup(seqs []*Sequential, i int) []*Dense {
	if _, ok := seqs[0].Layers[i].(*Dense); !ok {
		return nil
	}
	ds := make([]*Dense, len(seqs))
	for g, s := range seqs {
		d, ok := s.Layers[i].(*Dense)
		if !ok {
			return nil
		}
		ds[g] = d
	}
	return ds
}

// convGroup returns the group's layers at index i when they are all
// *Conv2D, nil otherwise. Probes the leader before allocating, as
// denseGroup does.
func convGroup(seqs []*Sequential, i int) []*Conv2D {
	if _, ok := seqs[0].Layers[i].(*Conv2D); !ok {
		return nil
	}
	cs := make([]*Conv2D, len(seqs))
	for g, s := range seqs {
		c, ok := s.Layers[i].(*Conv2D)
		if !ok {
			return nil
		}
		cs[g] = c
	}
	return cs
}

// SequentialForwardBatch advances a group of structurally identical
// Sequentials through one forward pass in lockstep, batching the Dense and
// Conv2D layers across the group and running every other layer per model.
// It is byte-identical to calling seqs[g].Forward(xs[g], train) one model at
// a time.
func SequentialForwardBatch(seqs []*Sequential, xs []*tensor.Tensor, train bool) []*tensor.Tensor {
	if len(seqs) != len(xs) {
		panic("nn: SequentialForwardBatch length mismatch")
	}
	cur := append([]*tensor.Tensor(nil), xs...)
	if !batchable(seqs) {
		for g, s := range seqs {
			cur[g] = s.Forward(cur[g], train)
		}
		return cur
	}
	for i := range seqs[0].Layers {
		if ds := denseGroup(seqs, i); ds != nil {
			cur = DenseForwardBatch(ds, cur, train)
		} else if cs := convGroup(seqs, i); cs != nil {
			cur = Conv2DForwardBatch(cs, cur, train)
		} else {
			for g, s := range seqs {
				cur[g] = s.Layers[i].Forward(cur[g], train)
			}
		}
	}
	return cur
}

// SequentialBackwardBatch is the reverse lockstep pass matching
// SequentialForwardBatch.
func SequentialBackwardBatch(seqs []*Sequential, grads []*tensor.Tensor) []*tensor.Tensor {
	if len(seqs) != len(grads) {
		panic("nn: SequentialBackwardBatch length mismatch")
	}
	cur := append([]*tensor.Tensor(nil), grads...)
	if !batchable(seqs) {
		for g, s := range seqs {
			cur[g] = s.Backward(cur[g])
		}
		return cur
	}
	for i := len(seqs[0].Layers) - 1; i >= 0; i-- {
		if ds := denseGroup(seqs, i); ds != nil {
			cur = DenseBackwardBatch(ds, cur)
		} else if cs := convGroup(seqs, i); cs != nil {
			cur = Conv2DBackwardBatch(cs, cur)
		} else {
			for g, s := range seqs {
				cur[g] = s.Layers[i].Backward(cur[g])
			}
		}
	}
	return cur
}
