package nn

import (
	"math/rand"

	"repro/internal/tensor"
)

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

// Dropout zeroes activations with probability P during training and scales
// survivors by 1/(1-P) (inverted dropout), so evaluation is the identity.
// The mask stays float64 bookkeeping (one multiplier per element drawn from
// the layer RNG); the activations flow in the input dtype.
type Dropout struct {
	P    float64
	rng  *rand.Rand
	mask []float64
	out  ring2
	dx   *tensor.Tensor
}

// NewDropout builds a dropout layer with its own RNG stream.
func NewDropout(p float64, rng *rand.Rand) *Dropout { return &Dropout{P: p, rng: rng} }

// Forward applies the dropout mask in training mode.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.P <= 0 {
		d.mask = nil
		return x
	}
	out := d.out.next(x.DT, x.Shape...)
	n := x.Size()
	if cap(d.mask) < n {
		d.mask = make([]float64, n)
	}
	d.mask = d.mask[:n]
	keep := 1 - d.P
	inv := 1 / keep
	for i := range d.mask {
		if d.rng.Float64() < keep {
			d.mask[i] = inv
		} else {
			d.mask[i] = 0
		}
	}
	if x.DT.Backing() == tensor.F32 {
		dropoutFwd(tensor.Of[float32](out), tensor.Of[float32](x), d.mask)
	} else {
		dropoutFwd(out.Data, x.Data, d.mask)
	}
	return out
}

// dropoutFwd zeroes dropped positions explicitly (not by multiplying with 0,
// which would leak NaN from non-finite activations).
func dropoutFwd[F tensor.Float](out, x []F, mask []float64) {
	for i, v := range x {
		if m := mask[i]; m != 0 {
			out[i] = v * F(m)
		} else {
			out[i] = 0
		}
	}
}

func dropoutApply[F tensor.Float](out, x []F, mask []float64) {
	for i, v := range x {
		out[i] = v * F(mask[i])
	}
}

// Backward applies the same mask to the gradient.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		return grad
	}
	d.dx = tensor.EnsureOf(grad.DT, d.dx, grad.Shape...)
	if grad.DT.Backing() == tensor.F32 {
		dropoutApply(tensor.Of[float32](d.dx), tensor.Of[float32](grad), d.mask)
	} else {
		dropoutApply(d.dx.Data, grad.Data, d.mask)
	}
	return d.dx
}

// Params returns nil; dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }

func (d *Dropout) release() {
	d.out.release()
	putBack(&d.dx)
}
