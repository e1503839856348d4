package nn

import "repro/internal/tensor"

// ReLU applies max(0, x) elementwise. The backward pass reads the cached
// forward output instead of a separate mask: out > 0 holds exactly where
// the input was positive, so the pass-through set is recoverable for free
// and the forward loop writes one array instead of two.
type ReLU struct {
	ws
	out, dx *tensor.Tensor
}

// NewReLU builds the layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward zeroes negative activations.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.out = r.ensure(x.DT, r.out, x.Shape...)
	if x.DT.Backing() == tensor.F32 {
		reluFwd(tensor.Of[float32](r.out), tensor.Of[float32](x))
	} else {
		reluFwd(r.out.Data, x.Data)
	}
	return r.out
}

func reluFwd[F tensor.Float](out, x []F) {
	tensor.VecReluForward(out, x)
}

// Backward passes gradients only through positive activations.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	r.dx = r.ensure(grad.DT, r.dx, grad.Shape...)
	if grad.DT.Backing() == tensor.F32 {
		reluBwd(tensor.Of[float32](r.dx), tensor.Of[float32](grad), tensor.Of[float32](r.out))
	} else {
		reluBwd(r.dx.Data, grad.Data, r.out.Data)
	}
	return r.dx
}

func reluBwd[F tensor.Float](dx, grad, y []F) {
	tensor.VecReluBackward(dx, grad, y)
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

func (r *ReLU) release() { putBack(&r.out, &r.dx) }

func (r *ReLU) releaseGrad() { putBack(&r.dx) }
