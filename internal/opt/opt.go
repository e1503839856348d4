// Package opt implements the first-order optimizers used by the
// reproduction: SGD with momentum/weight decay and Adam. Optimizers keep
// per-parameter state keyed by position, so a single optimizer instance must
// stay paired with one parameter list for its lifetime.
//
// Moment vectors live in the model dtype (they are touched once per element
// per step, exactly like the parameters), while the serializable State
// snapshot is always float64 bookkeeping: float32 moments widen exactly, so
// checkpoint round trips are lossless at either dtype. A restored State is
// held widened until the first Step reveals the parameter dtype, then
// migrates onto the matching fast path.
//
// The state has one serialisation: Borrow lends the live counters and
// moment vectors, Adopt takes ownership of a set, and State/SetState are
// their copying forms. A caller that is done with the state before the
// optimizer's next Step (the lazy client store writing or reading a spill
// record) uses Borrow/Adopt and copies nothing. Moment vectors are
// exact-length storage from the tensor pool, and Live.Recycle hands a
// borrowed set back when the optimizer's life ends.
package opt

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update to params using their Grad fields. The caller
	// is responsible for zeroing gradients between steps.
	Step(params []*nn.Param)
}

// State is a serializable snapshot of an optimizer's internal state:
// integer counters (Adam's step count) plus per-parameter moment vectors,
// widened to float64. The exact layout is optimizer-specific; a State
// produced by one optimizer type must only be restored into the same type.
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

// Live is an optimizer's state by reference: its integer counters and its
// moment vectors in the dtype they are kept in (at most one of F64/F32 is
// non-nil; both are nil before the first Step). What Borrow returns aliases
// the optimizer and is valid until its next Step or Adopt; what Adopt is
// handed belongs to the optimizer from then on.
type Live struct {
	Ints []int64
	F64  [][]float64
	F32  [][]float32
}

// State returns a copy of l, widened to float64, that shares nothing with it.
func (l Live) State() State {
	st := State{Ints: append([]int64(nil), l.Ints...)}
	switch {
	case l.F32 != nil:
		st.Vecs = make([][]float64, len(l.F32))
		for i, v := range l.F32 {
			w := make([]float64, len(v))
			for j, x := range v {
				w[j] = float64(x)
			}
			st.Vecs[i] = w
		}
	case l.F64 != nil:
		st.Vecs = make([][]float64, len(l.F64))
		for i, v := range l.F64 {
			st.Vecs[i] = append([]float64(nil), v...)
		}
	}
	return st
}

// Recycle hands l's moment vectors to the tensor pool (tensor.PutStorage),
// for the next optimizer that sizes its state or the next spill record
// decoded to take. It ends the lending optimizer's life: it must not step
// again.
func (l Live) Recycle() {
	for _, v := range l.F64 {
		tensor.PutStorage(v)
	}
	for _, v := range l.F32 {
		tensor.PutStorage(v)
	}
}

// Live returns a copy of st in the form Adopt takes.
func (st State) Live() Live {
	c := Live{Ints: st.Ints, F64: st.Vecs}.State()
	return Live{Ints: c.Ints, F64: c.Vecs}
}

// moments is a dtype-dispatched set of state vectors, one group per kind of
// moment and one vector per parameter in each group (Adam: every m, then
// every v). At most one of f64/f32 is non-nil; adopted float64 vectors
// narrow lazily on first use by a float32 model.
type moments struct {
	f64 [][]float64
	f32 [][]float32
}

// adopt installs l's vectors; an empty set means "not stepped yet".
func (m *moments) adopt(l Live) {
	m.f64, m.f32 = nil, nil
	if len(l.F64) > 0 {
		m.f64 = l.F64
	} else if len(l.F32) > 0 {
		m.f32 = l.F32
	}
}

// ensure sizes the state for the parameter list in its dtype, groups vectors
// per parameter, migrating adopted float64 vectors onto the f32 path when the
// model turns out to be float32 (widening/narrowing of f32-exact values is
// lossless). Vectors are exact-length storage from the tensor pool; the
// float64 vectors a migration replaces go back to it.
func (m *moments) ensure(params []*nn.Param, groups int) {
	want := groups * len(params)
	if nn.ParamsDType(params).Backing() == tensor.F32 {
		if m.f32 != nil {
			checkVecCount(len(m.f32), want)
			return
		}
		m.f32 = make([][]float32, want)
		if m.f64 != nil { // restored snapshot: narrow it
			checkVecCount(len(m.f64), want)
			for i, v := range m.f64 {
				w := tensor.GetStorage[float32](len(v))
				for j, x := range v {
					w[j] = float32(x)
				}
				m.f32[i] = w
				tensor.PutStorage(v)
			}
			m.f64 = nil
			return
		}
		for i := range m.f32 {
			m.f32[i] = tensor.ZeroStorage[float32](params[i%len(params)].Value.Size())
		}
		return
	}
	if m.f64 != nil {
		checkVecCount(len(m.f64), want)
		return
	}
	if m.f32 != nil {
		panic("opt: float32 optimizer state applied to a float64 model")
	}
	m.f64 = make([][]float64, want)
	for i := range m.f64 {
		m.f64[i] = tensor.ZeroStorage[float64](params[i%len(params)].Value.Size())
	}
}

// checkVecCount turns a state/model shape mismatch (a restored snapshot
// from a differently shaped model) into a diagnostic panic instead of an
// index-out-of-range deep inside the update loop, symmetrically for both
// dtypes.
func checkVecCount(have, want int) {
	if have != want {
		panic(fmt.Sprintf("opt: restored state has %d vectors, model wants %d", have, want))
	}
}

// SGD is stochastic gradient descent with optional classical momentum and
// decoupled L2 weight decay.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity moments
}

// NewSGD builds an SGD optimizer.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay}
}

// Step applies v ← μv + g + λw; w ← w − η·v.
func (s *SGD) Step(params []*nn.Param) {
	if s.Momentum != 0 {
		s.velocity.ensure(params, 1)
	}
	f32 := nn.ParamsDType(params).Backing() == tensor.F32
	for i, p := range params {
		if f32 {
			var v []float32
			if s.Momentum != 0 {
				v = s.velocity.f32[i]
			}
			sgdStep(tensor.Of[float32](p.Value), tensor.Of[float32](p.Grad), v,
				float32(s.LR), float32(s.Momentum), float32(s.WeightDecay))
			// BF16 storage invariant: parameters re-narrow after every
			// mutation so serialized values round-trip exactly. Velocity
			// stays full float32 — it is optimizer state, not storage.
			tensor.RoundBF16InPlace(p.Value)
		} else {
			var v []float64
			if s.Momentum != 0 {
				v = s.velocity.f64[i]
			}
			sgdStep(p.Value.Data, p.Grad.Data, v, s.LR, s.Momentum, s.WeightDecay)
		}
	}
}

func sgdStep[F tensor.Float](w, g, v []F, lr, momentum, weightDecay F) {
	switch {
	case momentum != 0:
		for j := range w {
			gj := g[j] + weightDecay*w[j]
			v[j] = momentum*v[j] + gj
			w[j] -= lr * v[j]
		}
	default:
		for j := range w {
			w[j] -= lr * (g[j] + weightDecay*w[j])
		}
	}
}

// Borrow lends the momentum velocities (none until the first momentum Step).
func (s *SGD) Borrow() Live { return Live{F64: s.velocity.f64, F32: s.velocity.f32} }

// Adopt takes ownership of velocities lent by Borrow or decoded from a copy.
func (s *SGD) Adopt(l Live) error {
	if len(l.Ints) != 0 {
		return fmt.Errorf("opt: SGD state carries %d ints, want 0", len(l.Ints))
	}
	s.velocity.adopt(l)
	return nil
}

// State captures the momentum velocities, widened to float64.
func (s *SGD) State() State { return s.Borrow().State() }

// SetState restores momentum velocities captured by State.
func (s *SGD) SetState(st State) error { return s.Adopt(st.Live()) }

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	// t is the step count, an array so Borrow can lend it as Live.Ints
	// without allocating.
	t [1]int64
	// mv holds the first moments of every parameter, then the second.
	mv moments
}

// NewAdam builds an Adam optimizer with the conventional defaults for any
// zero-valued hyperparameter (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Borrow lends the step count and the moment vectors (every m, then every
// v; none until the first Step).
func (a *Adam) Borrow() Live { return Live{Ints: a.t[:], F64: a.mv.f64, F32: a.mv.f32} }

// Adopt takes ownership of moments lent by Borrow or decoded from a copy.
func (a *Adam) Adopt(l Live) error {
	if len(l.Ints) != 1 {
		return fmt.Errorf("opt: Adam state carries %d ints, want 1", len(l.Ints))
	}
	if n := len(l.F64) + len(l.F32); n%2 != 0 {
		return fmt.Errorf("opt: Adam state carries %d moment vectors, want an even count", n)
	}
	a.t[0] = l.Ints[0]
	a.mv.adopt(l)
	return nil
}

// State captures the step count and first/second moment vectors, widened to
// float64.
func (a *Adam) State() State { return a.Borrow().State() }

// SetState restores a snapshot captured by State.
func (a *Adam) SetState(st State) error { return a.Adopt(st.Live()) }

// Step applies one bias-corrected Adam update.
func (a *Adam) Step(params []*nn.Param) {
	a.mv.ensure(params, 2)
	a.t[0]++
	n := len(params)
	c1 := 1 - math.Pow(a.Beta1, float64(a.t[0]))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t[0]))
	if nn.ParamsDType(params).Backing() == tensor.F32 {
		for i, p := range params {
			adamStep(tensor.Of[float32](p.Value), tensor.Of[float32](p.Grad), a.mv.f32[i], a.mv.f32[n+i],
				float32(a.LR), float32(a.Beta1), float32(a.Beta2), float32(a.Eps), float32(c1), float32(c2))
			// BF16 storage invariant (see SGD.Step): moments stay float32.
			tensor.RoundBF16InPlace(p.Value)
		}
		return
	}
	for i, p := range params {
		adamStep(p.Value.Data, p.Grad.Data, a.mv.f64[i], a.mv.f64[n+i],
			a.LR, a.Beta1, a.Beta2, a.Eps, c1, c2)
	}
}

func adamStep[F tensor.Float](w, g, m, v []F, lr, beta1, beta2, eps, c1, c2 F) {
	tensor.AdamStep(w, g, m, v, lr, beta1, beta2, eps, c1, c2)
}
