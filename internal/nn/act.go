package nn

import "repro/internal/tensor"

// ReLU applies max(0, x) elementwise. The backward pass reads the cached
// forward output instead of a separate mask: out > 0 holds exactly where
// the input was positive, so the pass-through set is recoverable for free
// and the forward loop writes one array instead of two.
type ReLU struct {
	y   *tensor.Tensor // last forward output (owned by the ring)
	out ring2
	dx  *tensor.Tensor
}

// NewReLU builds the layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward zeroes negative activations.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := r.out.next(x.DT, x.Shape...)
	if x.DT.Backing() == tensor.F32 {
		reluFwd(tensor.Of[float32](out), tensor.Of[float32](x))
	} else {
		reluFwd(out.Data, x.Data)
	}
	r.y = out
	return out
}

func reluFwd[F tensor.Float](out, x []F) {
	tensor.VecReluForward(out, x)
}

// Backward passes gradients only through positive activations.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	r.dx = tensor.EnsureOf(grad.DT, r.dx, grad.Shape...)
	if grad.DT.Backing() == tensor.F32 {
		reluBwd(tensor.Of[float32](r.dx), tensor.Of[float32](grad), tensor.Of[float32](r.y))
	} else {
		reluBwd(r.dx.Data, grad.Data, r.y.Data)
	}
	return r.dx
}

func reluBwd[F tensor.Float](dx, grad, y []F) {
	tensor.VecReluBackward(dx, grad, y)
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

func (r *ReLU) release() {
	r.out.release()
	putBack(&r.dx)
	r.y = nil
}
