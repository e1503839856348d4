// Package opt implements the optimizer every client of the reproduction
// trains under: Adam. It keeps its state in the order of the parameter list
// it steps, so a single optimizer instance must stay paired with one
// parameter list for its lifetime.
//
// The moments are one slab in the model dtype (they are touched once per
// element per step, exactly like the parameters), a block per parameter
// for each kind of moment in turn — the model's arena order (nn.Pack) —
// stepped one block per kernel call (see tensor.AdamStep). The
// serializable State snapshot is float64 bookkeeping: float32 moments
// widen exactly, so checkpoint round trips are lossless at either dtype. A
// restored State is held widened until the first Step reveals the
// parameter dtype, then migrates onto the matching fast path.
//
// The state has one serialisation: Borrow lends the live counters and
// moment slab, Adopt takes ownership of a set, and State/SetState are
// their copying forms. A caller that is done with the state before the
// optimizer's next Step (the lazy client store writing or reading a spill
// record) uses Borrow/Adopt and copies nothing. Moment slabs are
// exact-length storage from the tensor pool, and Live.Recycle hands a
// borrowed one back when the optimizer's life ends.
package opt

import (
	"fmt"
	"math"
	"slices"

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
// moment slab in the dtype it is kept in (at most one of F64/F32 is
// non-nil; both are nil before the first Step) — a block per parameter of
// Sizes for each kind of moment in turn, the order of State's vectors.
// What Borrow returns aliases the optimizer and is valid until its next
// Step or Adopt; what Adopt is handed belongs to the optimizer from then on.
type Live struct {
	Ints  []int64
	F64   []float64
	F32   []float32
	Sizes []int
}

// LiveOf lays out a state: the counters ints, and the moment slab vec over
// parameter blocks of sizes, copied into exact-length pool storage —
// float32 when f32 is set.
func LiveOf(ints []int64, vec []float64, sizes []int, f32 bool) Live {
	l := Live{Ints: ints, Sizes: sizes}
	switch {
	case len(vec) == 0:
	case f32:
		l.F32 = tensor.GetStorage[float32](len(vec))
		for j, x := range vec {
			l.F32[j] = float32(x)
		}
	default:
		l.F64 = append(tensor.GetStorage[float64](len(vec))[:0], vec...)
	}
	return l
}

// State returns a copy of l, widened to float64, that shares nothing with
// it: the slab split into its blocks.
func (l Live) State() State {
	st := State{Ints: append([]int64(nil), l.Ints...)}
	l.Blocks(new([]float64), func(b []float64) { st.Vecs = append(st.Vecs, append([]float64(nil), b...)) })
	return st
}

// Blocks calls f with each block of the moment slab in order, a block per
// parameter of Sizes for each kind of moment, as float64: a float32 slab is
// widened into *scratch first, reusing its capacity.
func (l Live) Blocks(scratch *[]float64, f func([]float64)) {
	slab := l.F64
	if l.F32 != nil {
		*scratch = (&tensor.Tensor{DT: tensor.F32, F32: l.F32}).AppendFloat64s((*scratch)[:0])
		slab = *scratch
	}
	for len(slab) > 0 && len(l.Sizes) > 0 {
		for _, n := range l.Sizes {
			f(slab[:n])
			slab = slab[n:]
		}
	}
}

// Recycle hands l's moment slab to the tensor pool for the next optimizer
// or spill record decoded to take. It ends the lending optimizer's life.
func (l Live) Recycle() {
	tensor.PutStorage(l.F64)
	tensor.PutStorage(l.F32)
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction. Its
// moment slab is laid out as Live's: every m, then every v. An adopted
// float64 slab narrows lazily for a float32 model.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t     [1]int64 // the step count: an array, so Borrow lends it without allocating
	f64   []float64
	f32   []float32
	sizes []int
}

// NewAdam builds an Adam optimizer with the conventional defaults for any
// zero-valued hyperparameter (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Borrow lends the step count and the moment slab (see Live), which exists
// after a Step.
func (a *Adam) Borrow() Live { return Live{Ints: a.t[:], F64: a.f64, F32: a.f32, Sizes: a.sizes} }

// Adopt copies l's step count and takes ownership of its slab.
func (a *Adam) Adopt(l Live) error {
	if err := a.Fits(l); err != nil {
		return err
	}
	copy(a.t[:], l.Ints)
	a.f64, a.f32, a.sizes = l.F64, l.F32, l.Sizes
	return nil
}

// Fits reports why l cannot be adopted: it carries another number of
// counters than the one step count, or a moment slab that is neither empty
// (not stepped yet) nor two blocks (m and v) of l.Sizes.
func (a *Adam) Fits(l Live) error {
	n := 0
	for _, size := range l.Sizes {
		n += size
	}
	switch slab := len(l.F64) + len(l.F32); {
	case len(l.Ints) != 1:
		return fmt.Errorf("opt: state carries %d ints, want 1", len(l.Ints))
	case l.F64 != nil && l.F32 != nil:
		return fmt.Errorf("opt: state carries float64 and float32 moments")
	case slab != 0 && slab != 2*n:
		return fmt.Errorf("opt: state carries %d moments, want 2 per value of %d", slab, n)
	}
	return nil
}

// State returns a copy of the state that shares nothing with a.
func (a *Adam) State() State { return a.Borrow().State() }

// SetState restores a snapshot captured by State: its vectors, every m
// then every v, lie end to end in the slab.
func (a *Adam) SetState(st State) error {
	per := len(st.Vecs) / 2
	if 2*per != len(st.Vecs) {
		return fmt.Errorf("opt: state carries %d moment vectors, not 2 per parameter", len(st.Vecs))
	}
	sizes := make([]int, per)
	for i := range sizes {
		sizes[i] = len(st.Vecs[i])
	}
	return a.Adopt(LiveOf(slices.Clone(st.Ints), slices.Concat(st.Vecs...), sizes, false))
}

// ensure sizes the state for the parameter list in its dtype — a zero pool
// slab of m and v blocks on the first Step — or migrates an adopted float64
// slab onto the f32 path when the model turns out to be float32 (narrowing
// f32-exact values is lossless).
func (a *Adam) ensure(params []*nn.Param) {
	f32 := nn.ParamsDType(params).Backing() == tensor.F32
	switch {
	case a.f64 == nil && a.f32 == nil:
		a.sizes = make([]int, len(params))
		for i, p := range params {
			a.sizes[i] = p.Value.Size()
		}
		if n := 2 * nn.NumParams(params); f32 {
			a.f32 = tensor.ZeroStorage[float32](n)
		} else {
			a.f64 = tensor.ZeroStorage[float64](n)
		}
	case f32 && a.f64 != nil: // restored snapshot: narrow it
		a.f32 = LiveOf(nil, a.f64, nil, true).F32
		tensor.PutStorage(a.f64)
		a.f64 = nil
	case !f32 && a.f32 != nil:
		panic("opt: float32 optimizer state applied to a float64 model")
	}
	if len(a.sizes) != len(params) {
		// A restored snapshot of a differently shaped model: a diagnostic
		// here, not an index-out-of-range deep inside the update loop.
		panic(fmt.Sprintf("opt: restored state has moments for %d parameters, model has %d", len(a.sizes), len(params)))
	}
}

// Step applies one bias-corrected Adam update.
func (a *Adam) Step(params []*nn.Param) {
	a.ensure(params)
	a.t[0]++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t[0]))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t[0]))
	off := 0
	for _, p := range params {
		if a.f32 != nil {
			adamStep(tensor.Of[float32](p.Value), tensor.Of[float32](p.Grad), a.f32, off, a.LR, a.Beta1, a.Beta2, a.Eps, c1, c2)
			// BF16 storage invariant: parameters re-narrow after every
			// mutation so serialized values round-trip exactly. The moments
			// stay full float32 — they are optimizer state, not storage.
			tensor.RoundBF16InPlace(p.Value)
		} else {
			adamStep(p.Value.Data, p.Grad.Data, a.f64, off, a.LR, a.Beta1, a.Beta2, a.Eps, c1, c2)
		}
		off += p.Value.Size()
	}
}

// adamStep updates block w, which lies at offset off of the m and v halves
// of the moment slab mv.
func adamStep[F tensor.Float](w, g, mv []F, off int, lr, beta1, beta2, eps, c1, c2 float64) {
	m, v := mv[off:off+len(w)], mv[len(mv)/2+off:len(mv)/2+off+len(w)]
	tensor.AdamStep(w, g, m, v, F(lr), F(beta1), F(beta2), F(eps), F(c1), F(c2))
}
