package fl

import (
	"math"
	"math/bits"
)

// ExactAccumulator is the grouping-invariant reduction behind hierarchical
// aggregation: a weighted vector sum carried exactly so that folding the
// same updates in any order, under any grouping, produces byte-identical
// float64 results.
//
// The contract the tree topology rests on: each per-term product w·v[i] is
// rounded once in float64 (deterministic and independent of grouping), and
// the sum of those products is carried exactly. Round then performs the
// single round-to-nearest-even back to float64. Fold-them-all-flat and
// fold-in-groups-then-Merge therefore agree bit for bit, which is what
// lets an edge aggregator pre-reduce its subtree into one exactly-rounded
// sum whatever order its children reported in.
//
// Representation. A cell is a pair of float64s (hi, lo) whose exact real
// sum is the cell's value: 16 bytes, struct-of-arrays. A term p joins a
// cell by two of Knuth's TwoSums — hi+p = s+d exactly, then lo+d = t+r
// exactly — and the cell becomes (s, t) when the residual r is exactly
// zero, which keeps hi+lo equal to the exact sum. TwoSum is error-free for
// any finite operands whose sum does not overflow, subnormals included
// (Ogita, Rump & Oishi, "Accurate sum and dot product", SIAM J. Sci.
// Comput. 2005), so the pair is exact by construction, and Round's fl(hi+lo)
// is the correctly rounded sum because one IEEE addition is correctly
// rounded. Model-like data keeps r at zero: the rounding errors lo gathers
// span far fewer than 53 bits.
//
// A term the pair cannot take exactly — a nonzero residual, an overflow —
// promotes its cell, once, to a full-width Kulisch cell: wideLimbs limbs of
// a two's-complement integer over the grid of every finite float64, whose
// bit g weighs 2^(g-1074), held in a side table. A promoted cell keeps a
// NaN in hi and its slot in lo, so every later term reaches the wide cell
// through the same one test that catches a residual. On AVX2 hosts the
// pair step runs four cells at a time (exact_amd64.s) and hands a group
// with a residual back to the scalar loop unwritten.
//
// Nonfinite terms poison the accumulator: an integer grid has no NaN or
// Inf, so the first nonfinite product degrades the accumulator to plain
// float64 sums that propagate the nonfinite values faithfully — garbage
// stays loudly garbage instead of corrupting the grid.
type ExactAccumulator struct {
	// Cells [0, n) are the vector; cell n is the weight sum.
	n      int
	hi, lo []float64
	// wide holds the promoted cells, wideLimbs limbs each, anchored at grid
	// bit 0.
	wide []uint64
	// plain/plainW carry the degraded float64 sums once poisoned.
	poisoned bool
	plain    []float64
	plainW   float64
}

// wideLimbs is the width of a promoted cell. Terms occupy grid bits
// [0, 2098); the remaining 78 bits are carry headroom, enough for 2^77
// same-sign terms.
const wideLimbs = 34

// NewExactAccumulator builds an exact accumulator over n elements.
func NewExactAccumulator(n int) *ExactAccumulator {
	return &ExactAccumulator{n: n, hi: make([]float64, n+1), lo: make([]float64, n+1)}
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
	clear(e.hi)
	clear(e.lo)
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
	if !e.poisoned {
		i := e.foldPairs(vec, w)
		if !e.poisoned {
			e.add(e.n, w)
			return
		}
		vec = vec[i:]
	}
	plain := e.plain[len(e.plain)-len(vec):]
	for i, v := range vec {
		plain[i] += float64(w * v)
	}
	e.plainW += w
}

// foldPairs folds w·vec into the cells and returns len(vec), or the index
// of the nonfinite product that poisoned the accumulator, its cell
// untouched.
func (e *ExactAccumulator) foldPairs(vec []float64, w float64) int {
	hi, lo := e.hi[:len(vec)], e.lo[:len(vec)]
	for i := 0; i < len(vec); {
		i += pairFold(hi[i:], lo[i:], vec[i:], w)
		// The scalar loop takes the group the vector loop stopped at, or
		// everything when there is none.
		end := len(vec)
		if pairSIMD {
			end = min(i+4, end)
		}
		for ; i < end; i++ {
			// The explicit conversion rounds the product on its own: a
			// fused hi + w·v would leave TwoSum's error term wrong.
			p := float64(w * vec[i])
			s, d := twoSum(hi[i], p)
			t, r := twoSum(lo[i], d)
			// The one branch: a residual, an overflow's NaN, a nonfinite
			// product and a promoted cell's NaN hi all land here.
			if r != 0 {
				if !e.add(i, p) {
					return i
				}
				continue
			}
			hi[i], lo[i] = s, t
		}
	}
	return len(vec)
}

// add adds one term to cell i by the general path: Fold's for a term its
// pair cannot take, Merge's for every term. A nonfinite term poisons the
// accumulator without touching the cell and reports false.
func (e *ExactAccumulator) add(i int, t float64) bool {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		e.poison()
		return false
	}
	if !math.IsNaN(e.hi[i]) {
		s, d := twoSum(e.hi[i], t)
		u, r := twoSum(e.lo[i], d)
		if r == 0 {
			e.hi[i], e.lo[i] = s, u
			return true
		}
		e.promote(i)
	}
	e.wideAdd(int(e.lo[i]), t)
	return true
}

// twoSum returns s = fl(a+b) and the error d with s+d = a+b exactly
// (Knuth), for finite a and b whose sum does not overflow.
func twoSum(a, b float64) (s, d float64) {
	s = a + b
	z := s - a
	return s, (a - (s - z)) + (b - z)
}

// promote moves cell i's pair into a fresh wide cell, exactly, and leaves
// the NaN that routes every later term there.
func (e *ExactAccumulator) promote(i int) {
	slot := len(e.wide) / wideLimbs
	e.wide = append(e.wide, make([]uint64, wideLimbs)...)
	e.wideAdd(slot, e.hi[i])
	e.wideAdd(slot, e.lo[i])
	e.hi[i], e.lo[i] = math.NaN(), float64(slot)
}

// promotions reports how many cells have left the pair path.
func (e *ExactAccumulator) promotions() int { return len(e.wide) / wideLimbs }

// wideCell returns promoted cell slot's limbs.
func (e *ExactAccumulator) wideCell(slot int) []uint64 {
	return e.wide[slot*wideLimbs:][:wideLimbs]
}

// wideAdd adds the finite t into a wide cell: its 53-bit mantissa at grid
// bit x-1 (x the biased exponent, 1 for a subnormal), sign-extended to the
// cell's top. Negation is complement plus a carry-in, so both signs take
// the same adds.
func (e *ExactAccumulator) wideAdd(slot int, t float64) {
	b := math.Float64bits(t)
	x := int(b >> 52 & 0x7ff)
	m := b & (1<<52 - 1)
	if x == 0 {
		x = 1
	} else {
		m |= 1 << 52
	}
	neg := b >> 63
	mask := -neg
	r := uint(x-1) & 63
	cell := e.wideCell(slot)[(x-1)>>6:]
	var c uint64
	cell[0], c = bits.Add64(cell[0], m<<r^mask, neg)
	cell[1], c = bits.Add64(cell[1], m>>(64-r)^mask, c)
	for k := 2; k < len(cell); k++ {
		cell[k], c = bits.Add64(cell[k], mask, c)
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
	for i, a := range o.hi {
		if !math.IsNaN(a) {
			// A pair is two terms.
			e.add(i, a)
			e.add(i, o.lo[i])
			continue
		}
		if !math.IsNaN(e.hi[i]) {
			e.promote(i)
		}
		cell, ocell := e.wideCell(int(e.lo[i])), o.wideCell(int(o.lo[i]))
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
	hi, lo := e.hi[:e.n], e.lo[:e.n]
	for i := range sum {
		if sum[i] = hi[i] + lo[i] + 0; sum[i] != sum[i] {
			sum[i] = e.roundCell(i) // a promoted cell
		}
	}
	return sum, e.roundCell(e.n)
}

// roundCell rounds cell i to the nearest float64, ties to even. Zero is +0:
// a sum that cancels exactly is +0 under round-to-nearest, and adding +0
// turns fl(hi+lo)'s -0 into it.
func (e *ExactAccumulator) roundCell(i int) float64 {
	a, b := e.hi[i], e.lo[i]
	if !math.IsNaN(a) {
		return a + b + 0
	}
	var x [wideLimbs]uint64
	copy(x[:], e.wideCell(int(b)))
	return roundInt(x[:])
}

// roundInt rounds x·2^-1074, x a little-endian two's-complement integer
// (clobbered), to the nearest float64 with ties to even and overflow to
// ±Inf. Zero is +0.
func roundInt(x []uint64) float64 {
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
	p := 64*k + 63 - int(lz) // grid bit of the leading one
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
