package fl

import (
	"math"
	"math/bits"
)

// ExactAccumulator is the grouping-invariant reduction behind hierarchical
// aggregation: a weighted vector sum carried as an exact fixed-point
// integer so that folding the same updates in any order, under any
// grouping, produces byte-identical float64 results.
//
// The contract the tree topology rests on: each per-term product w·v[i] is
// rounded once in float64 (deterministic and independent of grouping), and
// the sum of those products is carried exactly. Round then performs the
// single round-to-nearest-even back to float64. Fold-them-all-flat and
// fold-in-groups-then-Merge therefore agree bit for bit, which is what
// lets an edge aggregator pre-reduce its subtree into one exactly-rounded
// sum whatever order its children reported in.
//
// Representation. Every finite float64 is an integer multiple of 2^-1074,
// so sums live on a fixed-point grid whose bit g weighs 2^(g-1074); a term
// with biased exponent x puts its 53-bit mantissa at grid bits [x-1, x+51].
// A cell is a 192-bit two's-complement window onto that grid — three
// uint64 limbs, struct-of-arrays, plus the grid bit its bit 0 sits on (the
// anchor) — placed anchorRoom bits below the first term it receives.
// Model-like data never leaves such a window: it spans 2^96 of dynamic
// range below the first term and 2^42 above it. A cell whose terms or
// carries do leave it is promoted, once and exactly, to a full-width
// Kulisch cell (wideLimbs limbs covering the whole grid) in a side table;
// from then on the narrow arrays only hold its slot.
//
// Nonfinite terms poison the accumulator: an integer grid has no NaN or
// Inf, so the first nonfinite product degrades the accumulator to plain
// float64 sums that propagate the nonfinite values faithfully — garbage
// stays loudly garbage instead of corrupting the grid.
type ExactAccumulator struct {
	// Cells [0, n) are the vector; cell n is the weight sum.
	n          int
	anchor     []uint16
	l0, l1, l2 []uint64
	// wide holds the promoted cells, wideLimbs limbs each, anchored at grid
	// bit 0. A promoted cell has anchor[i] == promoted and its slot in l0[i].
	wide []uint64
	// plain/plainW carry the degraded float64 sums once poisoned.
	poisoned bool
	plain    []float64
	plainW   float64
}

const (
	// wideLimbs is the width of a promoted cell. Terms occupy grid bits
	// [0, 2098); the remaining 78 bits are carry headroom, enough for 2^77
	// same-sign terms.
	wideLimbs = 34
	// headroom is how many leading sign bits a freshly anchored window
	// keeps: 2^42 of growth above what it holds.
	headroom = 43
	// anchorRoom is how far below its first term a window is anchored.
	anchorRoom = 192 - 53 - headroom
	// maxShift is the highest in-window position of a term's low bit that
	// keeps its 53 bits clear of the sign bit.
	maxShift = 192 - 1 - 53
	// promoted marks a cell that lives in the wide table; no window can be
	// anchored there (anchors stop at 2045).
	promoted = math.MaxUint16
)

// NewExactAccumulator builds an exact accumulator over n elements.
func NewExactAccumulator(n int) *ExactAccumulator {
	return &ExactAccumulator{
		n:      n,
		anchor: make([]uint16, n+1),
		l0:     make([]uint64, n+1),
		l1:     make([]uint64, n+1),
		l2:     make([]uint64, n+1),
	}
}

// ReuseExactAccumulator returns an empty accumulator over n elements: e
// itself, reset, when it has that length (an aggregator reduces the same
// geometry every round), a new one otherwise. e may be nil.
func ReuseExactAccumulator(e *ExactAccumulator, n int) *ExactAccumulator {
	if e == nil || e.n != n {
		return NewExactAccumulator(n)
	}
	e.Reset()
	return e
}

// Len returns the element count.
func (e *ExactAccumulator) Len() int { return e.n }

// Reset returns the accumulator to its freshly built state, keeping its
// storage.
func (e *ExactAccumulator) Reset() {
	clear(e.anchor)
	clear(e.l0)
	clear(e.l1)
	clear(e.l2)
	e.wide = e.wide[:0]
	e.poisoned, e.plain, e.plainW = false, nil, 0
}

// poison degrades the accumulator to plain float64 arithmetic,
// materializing the exact sums accumulated so far.
func (e *ExactAccumulator) poison() {
	if e.poisoned {
		return
	}
	e.poisoned = true
	e.plain = make([]float64, e.n)
	for i := range e.plain {
		e.plain[i] = e.roundCell(i)
	}
	e.plainW = e.roundCell(e.n)
}

// Fold adds one weighted vector: cells[i] += fl64(w·vec[i]) exactly, and
// the weight sum gains w. The per-term product is rounded once in float64 —
// the same rounding every grouping performs — so the accumulated sum is a
// pure function of the multiset of (vec, w) pairs.
func (e *ExactAccumulator) Fold(vec []float64, w float64) {
	if len(vec) != e.n {
		panic("fl: ExactAccumulator.Fold length mismatch")
	}
	if math.IsNaN(w) || math.IsInf(w, 0) {
		e.poison()
	}
	if e.poisoned {
		for i, v := range vec {
			e.plain[i] += w * v
		}
		e.plainW += w
		return
	}
	anchor, l0, l1, l2 := e.anchor[:len(vec)], e.l0[:len(vec)], e.l1[:len(vec)], e.l2[:len(vec)]
	for i, v := range vec {
		b := math.Float64bits(w * v)
		x := int(b >> 52 & 0x7ff)
		m := b & (1<<52 - 1)
		if uint(x-1) >= 0x7fe { // zero, subnormal or nonfinite
			if x != 0 {
				e.poison()
				for j := i; j < len(vec); j++ {
					e.plain[j] += w * vec[j]
				}
				e.plainW += w
				return
			}
			if m == 0 {
				continue
			}
			x = 1
		} else {
			m |= 1 << 52
		}
		// The term is ±m at grid bit x-1; negation is complement plus a
		// carry-in, so both signs take the same three adds.
		neg := b >> 63
		mask := -neg
		s := x - 1 - int(anchor[i])
		if uint(s) > maxShift && anchor[i] != promoted && l0[i]|l1[i]|l2[i] == 0 {
			// Empty, or cancelled to zero: anchor afresh below this term.
			s = min(x-1, anchorRoom)
			anchor[i] = uint16(x - 1 - s)
		}
		if uint(s) <= maxShift {
			r := uint(s) & 63
			lo, hi := m<<r, m>>(64-r)
			var t0, t1, t2 uint64
			switch s >> 6 {
			case 0:
				t0, t1 = lo, hi
			case 1:
				t1, t2 = lo, hi
			default:
				t2 = lo // s ≥ 128 leaves r ≤ 10, so hi is empty
			}
			t2 ^= mask
			a2 := l2[i]
			s0, c := bits.Add64(l0[i], t0^mask, neg)
			s1, c := bits.Add64(l1[i], t1^mask, c)
			s2, _ := bits.Add64(a2, t2, c)
			if (a2^s2)&(t2^s2)>>63 == 0 { // no signed overflow
				l0[i], l1[i], l2[i] = s0, s1, s2
				continue
			}
		}
		e.addTerm(i, w*v)
	}
	e.addTerm(e.n, w)
}

// addTerm adds one finite float64 to cell i by the general path.
func (e *ExactAccumulator) addTerm(i int, t float64) {
	b := math.Float64bits(t)
	x := int(b >> 52 & 0x7ff)
	m := b & (1<<52 - 1)
	if x == 0 {
		x = 1
	} else {
		m |= 1 << 52
	}
	neg := b >> 63
	e.addCell(i, (m^-neg)+neg, -neg, -neg, x-1)
}

// addCell adds the signed 192-bit window o, anchored at grid bit oa, into
// cell i: the general path under Fold's inlined one, and Merge's only one.
// The operand anchored higher is shifted down to the other's anchor; if
// that or the sum does not fit the window, the cell is promoted.
func (e *ExactAccumulator) addCell(i int, o0, o1, o2 uint64, oa int) {
	if o0|o1|o2 == 0 {
		return
	}
	if e.anchor[i] == promoted {
		e.wideAdd(int(e.l0[i]), o0, o1, o2, oa)
		return
	}
	a0, a1, a2, a := e.l0[i], e.l1[i], e.l2[i], int(e.anchor[i])
	if a0|a1|a2 == 0 {
		// Empty, or cancelled to zero: anchor afresh below o, as far as
		// leaves o its headroom.
		a = oa - min(oa, max(signBits(o0, o1, o2)-headroom, 0))
	}
	if lo := min(a, oa); a-lo < signBits(a0, a1, a2) && oa-lo < signBits(o0, o1, o2) {
		a0, a1, a2 = shl192(a0, a1, a2, a-lo)
		b0, b1, b2 := shl192(o0, o1, o2, oa-lo)
		s0, c := bits.Add64(a0, b0, 0)
		s1, c := bits.Add64(a1, b1, c)
		s2, _ := bits.Add64(a2, b2, c)
		if (a2^s2)&(b2^s2)>>63 == 0 {
			e.l0[i], e.l1[i], e.l2[i], e.anchor[i] = s0, s1, s2, uint16(lo)
			return
		}
	}
	e.wideAdd(e.promote(i), o0, o1, o2, oa)
}

// signBits counts the leading bits of a 192-bit two's-complement value
// that equal its sign bit: shifting left by fewer keeps the value.
func signBits(x0, x1, x2 uint64) int {
	s := uint64(int64(x2) >> 63)
	switch {
	case x2 != s:
		return bits.LeadingZeros64(x2 ^ s)
	case x1 != s:
		return 64 + bits.LeadingZeros64(x1^s)
	}
	return 128 + bits.LeadingZeros64(x0^s)
}

// shl192 shifts a 192-bit value left by d in [0, 192).
func shl192(x0, x1, x2 uint64, d int) (uint64, uint64, uint64) {
	switch d >> 6 {
	case 1:
		x0, x1, x2 = 0, x0, x1
	case 2:
		x0, x1, x2 = 0, 0, x0
	}
	r := uint(d) & 63
	return x0 << r, x1<<r | x0>>(64-r), x2<<r | x1>>(64-r)
}

// promote moves cell i into a fresh wide slot and returns the slot.
func (e *ExactAccumulator) promote(i int) int {
	slot := len(e.wide) / wideLimbs
	e.wide = append(e.wide, make([]uint64, wideLimbs)...)
	e.wideAdd(slot, e.l0[i], e.l1[i], e.l2[i], int(e.anchor[i]))
	e.anchor[i], e.l0[i] = promoted, uint64(slot)
	return slot
}

// promotions reports how many cells have left the narrow path.
func (e *ExactAccumulator) promotions() int { return len(e.wide) / wideLimbs }

// wideCell returns promoted cell slot's limbs.
func (e *ExactAccumulator) wideCell(slot int) []uint64 {
	return e.wide[slot*wideLimbs:][:wideLimbs]
}

// wideAdd adds the signed window o, anchored at grid bit oa, into a wide
// cell, sign-extending it to the cell's top.
func (e *ExactAccumulator) wideAdd(slot int, o0, o1, o2 uint64, oa int) {
	cell := e.wideCell(slot)
	ext := uint64(int64(o2) >> 63)
	r := uint(oa) & 63
	x := [4]uint64{o0 << r, o1<<r | o0>>(64-r), o2<<r | o1>>(64-r), ext<<r | o2>>(64-r)}
	var c uint64
	for j, k := 0, oa>>6; k < wideLimbs; j, k = j+1, k+1 {
		t := ext
		if j < len(x) {
			t = x[j]
		}
		cell[k], c = bits.Add64(cell[k], t, c)
	}
}

// Merge folds another accumulator's exact state into this one. Adding two
// exact sums is itself exact, so merging group accumulators in any nesting
// is byte-identical to having folded every update flat.
func (e *ExactAccumulator) Merge(o *ExactAccumulator) {
	if o.Len() != e.Len() {
		panic("fl: ExactAccumulator.Merge length mismatch")
	}
	if o.poisoned {
		e.poison()
	}
	if e.poisoned {
		sum, wsum := o.Round()
		for i, v := range sum {
			e.plain[i] += v
		}
		e.plainW += wsum
		return
	}
	for i, oa := range o.anchor {
		if oa != promoted {
			e.addCell(i, o.l0[i], o.l1[i], o.l2[i], int(oa))
			continue
		}
		if e.anchor[i] != promoted {
			e.promote(i)
		}
		cell, ocell := e.wideCell(int(e.l0[i])), o.wideCell(int(o.l0[i]))
		var c uint64
		for k := range cell {
			cell[k], c = bits.Add64(cell[k], ocell[k], c)
		}
	}
}

// Round returns the accumulated sums rounded to float64 — the single
// rounding of the whole reduction — plus the exact weight total. The
// accumulator is not reset; Round is a pure observation.
func (e *ExactAccumulator) Round() (sum []float64, wsum float64) {
	return e.RoundInto(nil)
}

// RoundInto is Round writing the sums into dst, reallocated only when its
// capacity is short, for a caller that rounds the same geometry every
// round.
func (e *ExactAccumulator) RoundInto(dst []float64) (sum []float64, wsum float64) {
	if dst == nil || cap(dst) < e.n {
		dst = make([]float64, e.n)
	}
	sum = dst[:e.n]
	if e.poisoned {
		copy(sum, e.plain)
		return sum, e.plainW
	}
	for i := range sum {
		sum[i] = e.roundCell(i)
	}
	return sum, e.roundCell(e.n)
}

// roundCell rounds cell i to the nearest float64, ties to even.
func (e *ExactAccumulator) roundCell(i int) float64 {
	if e.anchor[i] == promoted {
		var x [wideLimbs]uint64
		copy(x[:], e.wideCell(int(e.l0[i])))
		return roundInt(x[:], 0)
	}
	x := [3]uint64{e.l0[i], e.l1[i], e.l2[i]}
	return roundInt(x[:], int(e.anchor[i]))
}

// roundInt rounds x·2^(anchor-1074), x a little-endian two's-complement
// integer (clobbered), to the nearest float64 with ties to even and
// overflow to ±Inf. Zero is +0: a sum that cancels exactly is +0 under
// round-to-nearest, and zero terms never reach a cell.
func roundInt(x []uint64, anchor int) float64 {
	// Magnitude by complement-and-carry under a sign mask: the sign of a
	// sum is a coin flip, not something to branch on.
	neg := x[len(x)-1] >> 63
	c := neg
	for k := range x {
		x[k], c = bits.Add64(x[k]^-neg, 0, c)
	}
	k := len(x) - 1
	for k >= 0 && x[k] == 0 {
		k--
	}
	if k < 0 {
		return 0
	}
	// top is the leading 64 bits of the magnitude, normalized; rest is
	// nonzero iff any bit below them is set.
	lz := uint(bits.LeadingZeros64(x[k]))
	top, rest := x[k]<<lz, uint64(0)
	if k > 0 {
		top |= x[k-1] >> (64 - lz)
		rest = x[k-1] << lz
		for _, limb := range x[:k-1] {
			rest |= limb
		}
	}
	p := anchor + 64*k + 63 - int(lz) // grid bit of the leading one
	var b uint64
	switch {
	case p <= 52:
		// Below 2^53 grid units the integer is its own float64 encoding,
		// subnormal or the first normal binade: nothing to round.
		b = top >> (63 - uint(p))
	case p > 2097:
		b = 0x7ff << 52
	default:
		// The leading one lands on the exponent field's low bit, which is
		// what makes the field p-51; a round-up that carries out of the
		// mantissa steps the exponent, up to the encoding of Inf.
		b = uint64(p-52)<<52 + top>>11
		var sticky uint64
		if top&(1<<10-1)|rest != 0 {
			sticky = 1
		}
		b += top >> 10 & (sticky | b) & 1
	}
	return math.Float64frombits(neg<<63 | b)
}
