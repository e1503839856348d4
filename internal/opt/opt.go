// Package opt implements the optimizer every client of the reproduction
// trains under: Adam.
//
// An optimizer's own state is its step count; the moments it updates are
// the model's (nn.UseMoments): one slab in the values' storage type beside
// the value slab, every m then every v in Params() order, stepped one block
// per kernel call (see tensor.AdamStep). The slab comes into use, zeroed,
// at the model's first step and stays with the model through its reuse,
// and the client store frames it where it lies. So the serializable State
// is the step count alone. The gradients it reads are the step's, leased
// from the pass (nn.UseGrads), and go back when the step ends.
package opt

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update to params using their Grad fields and ends
	// the step: it hands the gradients back (nn.DropGrads), so the next
	// step's first write brings them into use zeroed.
	Step(params []*nn.Param)
}

// State is a serializable snapshot of an optimizer's own state: integer
// counters (Adam's step count) and float64 vectors. The exact layout is
// optimizer-specific; a State produced by one optimizer type must only be
// restored into the same type.
type State struct {
	Ints []int64
	Vecs [][]float64
}

// Checkpointable is implemented by optimizers whose internal state can be
// captured into a checkpoint and restored, so a resumed run continues the
// exact update trajectory of an uninterrupted one.
type Checkpointable interface {
	Optimizer
	State() State
	SetState(State) error
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction, over the
// moments of the model it steps.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t [1]int64 // the step count: an array, so State lends it without allocating
}

// NewAdam builds an Adam optimizer with the conventional defaults for any
// zero-valued hyperparameter (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// State returns the step count, lent: it is valid until the next Step or
// SetState.
func (a *Adam) State() State { return State{Ints: a.t[:]} }

// SetState restores a step count captured by State.
func (a *Adam) SetState(st State) error {
	if len(st.Ints) != 1 || len(st.Vecs) != 0 {
		return fmt.Errorf("opt: state carries %d ints and %d vectors, want the step count alone", len(st.Ints), len(st.Vecs))
	}
	a.t[0] = st.Ints[0]
	return nil
}

// Step applies one bias-corrected Adam update and hands the gradients back.
// A step that nothing wrote gradients for steps on zeros.
func (a *Adam) Step(params []*nn.Param) {
	nn.UseMoments(params)
	nn.UseGrads(params)
	a.t[0]++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t[0]))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t[0]))
	for _, p := range params {
		if p.Value.DT.Backing() == tensor.F32 {
			adamStep(p.Value.F32, p.Grad.F32, p.M.F32, p.V.F32, a.LR, a.Beta1, a.Beta2, a.Eps, c1, c2)
			// BF16 storage invariant: parameters re-narrow after every
			// mutation so serialized values round-trip exactly. The moments
			// stay full float32 — they are optimizer state, not storage.
			tensor.RoundBF16InPlace(p.Value)
		} else {
			adamStep(p.Value.Data, p.Grad.Data, p.M.Data, p.V.Data, a.LR, a.Beta1, a.Beta2, a.Eps, c1, c2)
		}
	}
	nn.DropGrads(params)
}

// adamStep updates block w with its moments m and v.
func adamStep[F tensor.Float](w, g, m, v []F, lr, beta1, beta2, eps, c1, c2 float64) {
	tensor.AdamStep(w, g, m, v, F(lr), F(beta1), F(beta2), F(eps), F(c1), F(c2))
}
