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
	In, Out int
	W, B    *Param

	x   *tensor.Tensor // cached input
	out ring2
	dx  *tensor.Tensor
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

// Forward computes y = x·W + b.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 2 || x.Cols() != d.In {
		panicShape("Dense.Forward", x, d.In)
	}
	if x.DT != d.W.Value.DT {
		panic(fmt.Sprintf("nn: Dense.Forward input dtype %v, model is %v (cast inputs at the model boundary)", x.DT, d.W.Value.DT))
	}
	d.x = x
	n := x.Rows()
	y := d.out.next(x.DT, n, d.Out)
	tensor.MatMulInto(y, x, d.W.Value)
	if y.DT.Backing() == tensor.F32 {
		addBiasRows(tensor.Of[float32](y), tensor.Of[float32](d.B.Value), n, d.Out)
	} else {
		addBiasRows(y.Data, d.B.Value.Data, n, d.Out)
	}
	return y
}

func addBiasRows[F tensor.Float](y, b []F, n, cols int) {
	for i := 0; i < n; i++ {
		row := y[i*cols : (i+1)*cols]
		for j := range row {
			row[j] += b[j]
		}
	}
}

// Backward accumulates dW += xᵀ·dy, db += Σ_rows dy and returns dx = dy·Wᵀ.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	tensor.MatMulATBAcc(d.W.Grad, d.x, grad)
	tensor.ColSumsAcc(d.B.Grad, grad)
	d.dx = tensor.EnsureOf(grad.DT, d.dx, grad.Rows(), d.In)
	tensor.MatMulABTInto(d.dx, grad, d.W.Value)
	return d.dx
}

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

func (d *Dense) release() {
	d.out.release()
	putBack(&d.dx)
	d.x = nil
}

func panicShape(op string, x *tensor.Tensor, want int) {
	panic(fmt.Sprintf("%s: unexpected input shape %v (want trailing dim %d)", op, x.Shape, want))
}
