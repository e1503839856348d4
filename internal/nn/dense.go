package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Dense is a fully connected layer: y = x·W + b with x of shape [N, in].
// Output and input-gradient buffers are reused across the iterations of a
// pass; the weight gradient accumulates directly into W.Grad, so a
// steady-state step allocates nothing. All buffers follow the parameters'
// dtype.
type Dense struct {
	ws
	In, Out int
	W, B    *Param

	x       *tensor.Tensor // cached input
	out, dx *tensor.Tensor

	// Group scratch while d leads (group.go).
	ms     []*Dense
	launch launch
}

// NewDense builds a dense layer with He-normal weights and zero biases.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{
		In:  in,
		Out: out,
		W:   newParam("dense.W", in, out),
		B:   newParam("dense.B", out),
	}
	d.init(rng)
	return d
}

// init draws He-normal weights and zeroes the biases, in the parameters'
// dtype: the constructor's initialization and Init's re-initialization.
func (d *Dense) init(rng *rand.Rand) {
	heInit(d.W.Value, d.In, rng)
	d.B.Value.Zero()
}

// Forward computes y = x·W + b, as a group of one.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return DenseForwardBatch([]*Dense{d}, []*tensor.Tensor{x}, train)[0]
}

// DenseForwardBatch runs ds[g].Forward(xs[g], train) for every g as one
// group step: the members' products x·W run as one fused launch, then each
// adds its bias. It returns the outputs in the leader's operand list, valid
// until the leader's next group step.
func DenseForwardBatch(ds []*Dense, xs []*tensor.Tensor, train bool) []*tensor.Tensor {
	l := ds[0].launch.start("DenseForwardBatch", len(ds), len(xs))
	for g, d := range ds {
		x := xs[g]
		if x.Rank() != 2 || x.Cols() != d.In {
			panicShape("Dense.Forward", x, d.In)
		}
		if x.DT != d.W.Value.DT {
			panic(fmt.Sprintf("nn: Dense.Forward input dtype %v, model is %v (cast inputs at the model boundary)", x.DT, d.W.Value.DT))
		}
		d.x = x
		d.out = d.ensure(x.DT, d.out, x.Rows(), d.Out)
		l.add(d.out, x, d.W.Value)
	}
	tensor.MatMulBatchInto(l.outs, l.as, l.bs)
	for g, d := range ds {
		if y := l.outs[g]; y.DT.Backing() == tensor.F32 {
			addBiasRows(tensor.Of[float32](y), tensor.Of[float32](d.B.Value), y.Rows(), d.Out)
		} else {
			addBiasRows(y.Data, d.B.Value.Data, y.Rows(), d.Out)
		}
	}
	return l.outs
}

func (d *Dense) forwardGroup(ls []Layer, acts []*tensor.Tensor, train bool) {
	copy(acts, DenseForwardBatch(members(&d.ms, ls), acts, train))
	drop(&d.ms)
}

func addBiasRows[F tensor.Float](y, b []F, n, cols int) {
	for i := 0; i < n; i++ {
		row := y[i*cols : (i+1)*cols]
		for j := range row {
			row[j] += b[j]
		}
	}
}

// Backward accumulates dW += xᵀ·dy, db += Σ_rows dy and returns dx = dy·Wᵀ,
// as a group of one.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return DenseBackwardBatch([]*Dense{d}, []*tensor.Tensor{grad})[0]
}

// DenseBackwardBatch runs ds[g].Backward(grads[g]) for every g as one group
// step: the weight-gradient and the input-gradient products each run as one
// fused launch. It returns the input gradients in the leader's operand
// list, valid until the leader's next group step.
func DenseBackwardBatch(ds []*Dense, grads []*tensor.Tensor) []*tensor.Tensor {
	denseParamGrads(ds, grads)
	l := &ds[0].launch
	l.reset()
	for g, d := range ds {
		grad := grads[g]
		d.dx = d.ensure(grad.DT, d.dx, grad.Rows(), d.In)
		l.add(d.dx, grad, d.W.Value)
	}
	tensor.MatMulBatchABTInto(l.outs, l.as, l.bs)
	return l.outs
}

// denseParamGrads is the parameter half of a group backward step: dW += xᵀ·dy
// as one fused launch, then db += Σ_rows dy per member.
func denseParamGrads(ds []*Dense, grads []*tensor.Tensor) {
	l := ds[0].launch.start("DenseBackwardBatch", len(ds), len(grads))
	for g, d := range ds {
		l.add(d.W.Grad, d.x, grads[g])
	}
	tensor.MatMulBatchATBAcc(l.outs, l.as, l.bs)
	for g, d := range ds {
		tensor.ColSumsAcc(d.B.Grad, grads[g])
	}
}

func (d *Dense) backwardGroup(ls []Layer, acts []*tensor.Tensor) {
	copy(acts, DenseBackwardBatch(members(&d.ms, ls), acts))
	drop(&d.ms)
}

func (d *Dense) backwardParamsGroup(ls []Layer, grads []*tensor.Tensor) {
	denseParamGrads(members(&d.ms, ls), grads)
	drop(&d.ms)
}

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

func (d *Dense) release() {
	putBack(&d.out, &d.dx)
	d.x = nil
	d.launch.release()
}

func (d *Dense) releaseGrad() { putBack(&d.dx) }

func panicShape(op string, x *tensor.Tensor, want int) {
	panic(fmt.Sprintf("%s: unexpected input shape %v (want trailing dim %d)", op, x.Shape, want))
}
