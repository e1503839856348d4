package fl

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

// bigRefAccumulator is the oracle ExactAccumulator is held to: the same
// contract carried in math/big, as the accumulator itself was until the
// fixed-point cells replaced it. 2304 mantissa bits hold any partial sum of
// float64 terms unrounded (the terms span ~2100 binary exponents and the
// term count adds log2(N) more), and big.Float.Float64 does the single
// round-to-nearest-even. big.Float has no NaN and panics on Inf−Inf, hence
// the poison-to-plain-float64 rule both implementations share.
type bigRefAccumulator struct {
	cells    []big.Float
	wcell    big.Float
	poisoned bool
	plain    []float64
	plainW   float64
	scratch  big.Float
}

const bigRefPrec = 2304

func newBigRef(n int) *bigRefAccumulator {
	e := &bigRefAccumulator{cells: make([]big.Float, n)}
	for i := range e.cells {
		e.cells[i].SetPrec(bigRefPrec)
	}
	e.wcell.SetPrec(bigRefPrec)
	e.scratch.SetPrec(bigRefPrec)
	return e
}

func (e *bigRefAccumulator) poison() {
	if e.poisoned {
		return
	}
	e.poisoned = true
	e.plain = make([]float64, len(e.cells))
	for i := range e.cells {
		e.plain[i], _ = e.cells[i].Float64()
	}
	e.plainW, _ = e.wcell.Float64()
}

func (e *bigRefAccumulator) Fold(vec []float64, w float64) {
	if math.IsNaN(w) || math.IsInf(w, 0) {
		e.poison()
	}
	if e.poisoned {
		for i, v := range vec {
			e.plain[i] += float64(w * v)
		}
		e.plainW += w
		return
	}
	for i, v := range vec {
		t := w * v
		if math.IsNaN(t) || math.IsInf(t, 0) {
			e.poison()
			for j := i; j < len(vec); j++ {
				e.plain[j] += float64(w * vec[j])
			}
			e.plainW += w
			return
		}
		if t == 0 {
			continue
		}
		e.scratch.SetFloat64(t)
		e.cells[i].Add(&e.cells[i], &e.scratch)
	}
	e.scratch.SetFloat64(w)
	e.wcell.Add(&e.wcell, &e.scratch)
}

func (e *bigRefAccumulator) Merge(o *bigRefAccumulator) {
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
	for i := range e.cells {
		e.cells[i].Add(&e.cells[i], &o.cells[i])
	}
	e.wcell.Add(&e.wcell, &o.wcell)
}

func (e *bigRefAccumulator) Round() (sum []float64, wsum float64) {
	sum = make([]float64, len(e.cells))
	if e.poisoned {
		copy(sum, e.plain)
		return sum, e.plainW
	}
	for i := range e.cells {
		sum[i], _ = e.cells[i].Float64()
	}
	wsum, _ = e.wcell.Float64()
	return sum, wsum
}

// refPair drives an ExactAccumulator and its oracle through the same
// operations.
type refPair struct {
	acc *ExactAccumulator
	ref *bigRefAccumulator
}

func newRefPair(n int) refPair { return refPair{NewExactAccumulator(n), newBigRef(n)} }

func (p refPair) fold(vec []float64, w float64) {
	p.acc.Fold(vec, w)
	p.ref.Fold(vec, w)
}

func (p refPair) merge(o refPair) {
	p.acc.Merge(o.acc)
	p.ref.Merge(o.ref)
}

// sameFloat is bitwise equality, with every NaN equal to every other: a
// poisoned pair runs the same float64 operations, but NaN payloads are not
// part of the contract.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// check compares the pair's rounded sums and weight bit for bit.
func (p refPair) check(t testing.TB, where string) {
	t.Helper()
	got, gotW := p.acc.Round()
	want, wantW := p.ref.Round()
	if p.acc.poisoned != p.ref.poisoned {
		t.Fatalf("%s: poisoned = %v, oracle %v", where, p.acc.poisoned, p.ref.poisoned)
	}
	if !sameFloat(gotW, wantW) {
		t.Fatalf("%s: wsum = %x (%g), oracle %x (%g)", where, math.Float64bits(gotW), gotW, math.Float64bits(wantW), wantW)
	}
	for i := range want {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s: sum[%d] = %x (%g), oracle %x (%g)", where, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// nastyVec fills a vector with values spanning wide exponent ranges, mixed
// signs, and denormal-adjacent magnitudes — the inputs where plain float64
// summation is most grouping-sensitive.
func nastyVec(rng *rand.Rand, n int, f32Only bool) []float64 {
	v := make([]float64, n)
	scales := []float64{1e-300, 1e-30, 1e-8, 1, 1e8, 1e30, 1e300}
	if f32Only {
		scales = []float64{1e-30, 1e-8, 1, 1e8, 1e30}
	}
	for i := range v {
		x := (rng.Float64()*2 - 1) * scales[rng.Intn(len(scales))]
		if f32Only {
			x = float64(float32(x))
		}
		v[i] = x
	}
	return v
}

// groupings of 12 updates: every partition shape the tree can produce,
// including the flat one, singletons, and lopsided splits.
var groupings = [][]int{
	{12},
	{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
	{6, 6},
	{4, 4, 4},
	{1, 11},
	{3, 4, 5},
	{2, 2, 2, 2, 2, 2},
}

// The exactness claim the tree topology rests on: folding the same
// weighted updates under ANY grouping, then merging the group
// accumulators, is byte-identical to folding them all flat — for full-f64
// and f32-truncated values alike, and regardless of merge nesting.
func TestExactAccumulatorGroupingInvariance(t *testing.T) {
	const n, k = 64, 12
	for _, f32 := range []bool{false, true} {
		rng := rand.New(rand.NewSource(41))
		vecs := make([][]float64, k)
		ws := make([]float64, k)
		for c := 0; c < k; c++ {
			vecs[c] = nastyVec(rng, n, f32)
			// Weights stay within [1e-3, 1e3] so no product w·v can
			// overflow — a nonfinite product would (deliberately)
			// poison the accumulator into order-sensitive plain sums.
			w := (rng.Float64() + 1e-3) * []float64{1e-3, 1, 1e3}[rng.Intn(3)]
			if f32 {
				w = float64(float32(w))
			}
			ws[c] = w
		}

		flat := NewExactAccumulator(n)
		for c := 0; c < k; c++ {
			flat.Fold(vecs[c], ws[c])
		}
		if flat.poisoned {
			t.Fatalf("f32=%v: test inputs poisoned the accumulator", f32)
		}
		wantSum, wantW := flat.Round()

		for _, sizes := range groupings {
			// Fold each group separately...
			var groups []*ExactAccumulator
			c := 0
			for _, sz := range sizes {
				g := NewExactAccumulator(n)
				for j := 0; j < sz; j++ {
					g.Fold(vecs[c], ws[c])
					c++
				}
				groups = append(groups, g)
			}
			// ...then merge left-to-right and right-to-left: both
			// nestings must agree with the flat fold bit for bit.
			for _, reversed := range []bool{false, true} {
				root := NewExactAccumulator(n)
				if reversed {
					for i := len(groups) - 1; i >= 0; i-- {
						root.Merge(groups[i])
					}
				} else {
					for _, g := range groups {
						root.Merge(g)
					}
				}
				gotSum, gotW := root.Round()
				if math.Float64bits(gotW) != math.Float64bits(wantW) {
					t.Fatalf("f32=%v grouping %v reversed=%v: wsum %x != %x",
						f32, sizes, reversed, math.Float64bits(gotW), math.Float64bits(wantW))
				}
				for i := range gotSum {
					if math.Float64bits(gotSum[i]) != math.Float64bits(wantSum[i]) {
						t.Fatalf("f32=%v grouping %v reversed=%v: sum[%d] %x != %x",
							f32, sizes, reversed, i, math.Float64bits(gotSum[i]), math.Float64bits(wantSum[i]))
					}
				}
			}
		}
	}
}

// ShardedAccumulator.Merge is the root's half of the reduction: folding
// exact per-group sums into the sharded state must be byte-identical to
// flat Accumulate calls, across shard counts, all the way through
// CommitInto. Integer-valued data makes every float64 operation exact, so
// the comparison isolates the plumbing (weighting, shard bounds, commit
// normalization) rather than float rounding.
func TestShardedMergeMatchesFlatAccumulate(t *testing.T) {
	const n, k = 37, 12
	rng := rand.New(rand.NewSource(43))
	vecs := make([][]float64, k)
	ws := make([]float64, k)
	for c := 0; c < k; c++ {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(rng.Intn(1024) - 512)
		}
		vecs[c] = v
		ws[c] = float64(1 + rng.Intn(8))
	}

	for _, shards := range []int{1, 2, 3, 8} {
		flat := NewSharded(n, shards)
		for c := 0; c < k; c++ {
			flat.Accumulate(vecs[c], ws[c])
		}
		wantDst := make([]float64, n)
		flat.CommitInto(wantDst, 1, nil)

		for _, sizes := range groupings {
			tree := NewSharded(n, shards)
			c := 0
			for _, sz := range sizes {
				g := NewExactAccumulator(n)
				for j := 0; j < sz; j++ {
					g.Fold(vecs[c], ws[c])
					c++
				}
				sum, wsum := g.Round()
				tree.Merge(sum, wsum)
			}
			gotDst := make([]float64, n)
			tree.CommitInto(gotDst, 1, nil)
			for i := range gotDst {
				if math.Float64bits(gotDst[i]) != math.Float64bits(wantDst[i]) {
					t.Fatalf("shards=%d grouping %v: commit[%d] = %v, want %v",
						shards, sizes, i, gotDst[i], wantDst[i])
				}
			}
		}
	}
}

// Segment shards behave the same way: exact per-segment group sums merged
// via MergeSegment commit byte-identically to flat AccumulateSegment.
func TestSegmentedMergeMatchesFlatAccumulate(t *testing.T) {
	segLens := []int{4, 7, 1, 16}
	rng := rand.New(rand.NewSource(47))
	const k = 6

	type contrib struct {
		segs [][]float64 // per segment, nil = not reported
		w    float64
	}
	contribs := make([]contrib, k)
	for c := range contribs {
		segs := make([][]float64, len(segLens))
		for s, l := range segLens {
			if rng.Intn(4) == 0 {
				continue // this client skips the segment
			}
			v := make([]float64, l)
			for i := range v {
				v[i] = float64(rng.Intn(256) - 128)
			}
			segs[s] = v
		}
		contribs[c] = contrib{segs: segs, w: float64(1 + rng.Intn(5))}
	}

	flat := NewSegmented(segLens)
	for _, ct := range contribs {
		for s, seg := range ct.segs {
			if seg != nil {
				flat.AccumulateSegment(s, seg, ct.w)
			}
		}
	}
	total := 0
	for _, l := range segLens {
		total += l
	}
	wantDst := make([]float64, total)
	flat.CommitInto(wantDst, 1, nil)

	tree := NewSegmented(segLens)
	for _, sizes := range [][]int{{6}, {3, 3}, {2, 2, 2}, {1, 5}} {
		c := 0
		for _, sz := range sizes {
			group := contribs[c : c+sz]
			c += sz
			for s, l := range segLens {
				g := NewExactAccumulator(l)
				any := false
				for _, ct := range group {
					if ct.segs[s] != nil {
						g.Fold(ct.segs[s], ct.w)
						any = true
					}
				}
				if !any {
					continue
				}
				sum, wsum := g.Round()
				tree.MergeSegment(s, sum, wsum)
			}
		}
		gotDst := make([]float64, total)
		tree.CommitInto(gotDst, 1, nil)
		for i := range gotDst {
			if math.Float64bits(gotDst[i]) != math.Float64bits(wantDst[i]) {
				t.Fatalf("grouping %v: commit[%d] = %v, want %v", sizes, i, gotDst[i], wantDst[i])
			}
		}
	}
}

// Nonfinite inputs must not corrupt the accumulator (a fixed-point grid has
// no NaN or Inf): they degrade it to plain float64 sums that propagate the
// garbage.
func TestExactAccumulatorNonfinite(t *testing.T) {
	e := NewExactAccumulator(2)
	e.Fold([]float64{1, 2}, 3)
	e.Fold([]float64{math.NaN(), 1}, 1)
	sum, _ := e.Round()
	if !math.IsNaN(sum[0]) {
		t.Fatalf("NaN input vanished: %v", sum)
	}
	if sum[1] != 7 {
		t.Fatalf("finite lane corrupted: %v", sum)
	}

	e = NewExactAccumulator(1)
	e.Fold([]float64{math.Inf(1)}, 1)
	e.Fold([]float64{math.Inf(-1)}, 1)
	sum, _ = e.Round()
	if !math.IsNaN(sum[0]) {
		t.Fatalf("Inf-Inf should be NaN, got %v", sum)
	}

	// A poisoned accumulator merged into a clean one poisons it too.
	clean := NewExactAccumulator(1)
	clean.Fold([]float64{5}, 1)
	clean.Merge(e)
	sum, _ = clean.Round()
	if !math.IsNaN(sum[0]) {
		t.Fatalf("poison did not propagate through Merge: %v", sum)
	}

	// Nonfinite weight poisons immediately.
	e = NewExactAccumulator(1)
	e.Fold([]float64{0}, math.Inf(1))
	sum, _ = e.Round()
	if !math.IsNaN(sum[0]) {
		t.Fatalf("Inf·0 weight should be NaN, got %v", sum)
	}
}

// modelLikeVec is a trained layer's worth of weights, N(0, 0.05²): what
// the tree actually folds, under client weights like 30.
func modelLikeVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 0.05 * rng.NormFloat64()
	}
	return v
}

// The fixed-point cells against the math/big oracle: Round must agree bit
// for bit after any sequence of folds and merges, on the narrow path and
// the promoted one alike.
func TestExactAccumulatorMatchesBigFloat(t *testing.T) {
	t.Run("nasty", func(t *testing.T) {
		const n, accs, ops = 48, 4, 60
		rng := rand.New(rand.NewSource(53))
		pairs := make([]refPair, accs)
		for i := range pairs {
			pairs[i] = newRefPair(n)
		}
		for op := 0; op < ops; op++ {
			dst := rng.Intn(accs)
			if src := rng.Intn(accs); rng.Intn(4) == 0 && src != dst {
				pairs[dst].merge(pairs[src])
			} else {
				w := (rng.Float64() + 1e-3) * []float64{-1e-3, 1, 1e3}[rng.Intn(3)]
				pairs[dst].fold(nastyVec(rng, n, op%2 == 0), w)
			}
			pairs[dst].check(t, "nasty")
		}
		promoted := 0
		for _, p := range pairs {
			if p.acc.poisoned {
				t.Fatal("test inputs poisoned the accumulator")
			}
			promoted += p.acc.promotions()
		}
		if promoted == 0 {
			t.Fatal("1e-300..1e300 terms promoted no cell: the wide path went unexercised")
		}
	})

	t.Run("model-like", func(t *testing.T) {
		const n, children = 20000, 4
		rng := rand.New(rand.NewSource(59))
		groups := []refPair{newRefPair(n), newRefPair(n)}
		for _, g := range groups {
			for c := 0; c < children; c++ {
				g.fold(modelLikeVec(rng, n), 30)
			}
			g.check(t, "model-like fold")
		}
		groups[0].merge(groups[1])
		groups[0].check(t, "model-like merge")
		if p := groups[0].acc.promotions() + groups[1].acc.promotions(); p != 0 {
			t.Fatalf("model-like data promoted %d cells: the fast path is lost", p)
		}
	})

	const (
		tiny = 0x1p-1074 // smallest subnormal
		half = 0x1p-53   // half an ulp of 1
		ulp  = 0x1p-52
		maxF = math.MaxFloat64
	)
	cases := []struct {
		name  string
		terms []float64 // folded one by one into a single cell at weight w
		w     float64
	}{
		{"cancel to +0", []float64{1.5, -1.5}, 30},
		{"cancel to +0 from below", []float64{-0x1p-1000, 0x1p-1000}, 1},
		{"cancel across the window", []float64{0x1p200, 1, -0x1p200, -1}, 1},
		{"negative-zero products", []float64{math.Copysign(0, -1), 0, 1e-300}, -1e-300},
		{"subnormal products", []float64{tiny, 3 * tiny, -tiny, 0x1p-1030}, 1},
		{"subnormal sum reaching normal", []float64{0x1p-1023, 0x1p-1023, tiny}, 1},
		{"product rounded into the subnormals", []float64{0x1.8p-1000, -0x1.4p-1001}, 0x1p-60},
		{"tie to even, down", []float64{1, half}, 1},
		{"tie to even, up", []float64{1 + ulp, half}, 1},
		{"tie broken by a sticky bit", []float64{1, half, tiny}, 1},
		{"tie broken from below", []float64{1 + ulp, half, -tiny}, 1},
		{"negative tie to even, down", []float64{-1, -half}, 1},
		{"negative tie to even, up", []float64{-1 - ulp, -half}, 1},
		{"round-up carrying into the exponent", []float64{2 - ulp, half}, 1},
		{"overflow to +Inf", []float64{maxF, maxF}, 1},
		{"overflow to -Inf", []float64{-maxF, -maxF}, 1},
		{"overflow on the tie", []float64{maxF, 0x1p970}, 1},
		{"just under overflow", []float64{maxF, 0x1p970, -tiny}, 1},
		{"overflow and back", []float64{maxF, maxF, -maxF}, 1},
		{"wide dynamic range", []float64{maxF, tiny, -maxF}, 1},
		{"zero weight", []float64{1, 2}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Once term by term, once with the second half merged in.
			flat, a, b := newRefPair(1), newRefPair(1), newRefPair(1)
			for i, v := range tc.terms {
				flat.fold([]float64{v}, tc.w)
				flat.check(t, "flat")
				if i < len(tc.terms)/2 {
					a.fold([]float64{v}, tc.w)
				} else {
					b.fold([]float64{v}, tc.w)
				}
			}
			a.merge(b)
			a.check(t, "merged")
		})
	}

	// 2^20 same-sign folds into one cell: twenty bits of carries above the
	// first term stay inside the window's headroom.
	t.Run("carry headroom", func(t *testing.T) {
		p := newRefPair(1)
		v := []float64{2 - ulp}
		for i := 0; i < 1<<20; i++ {
			p.fold(v, -3)
		}
		p.check(t, "2^20 folds")
		if p.acc.promotions() != 0 {
			t.Fatal("2^20 same-sign folds left the window")
		}
	})
}

// The vector pair fold is the scalar loop four cells at a time: folding
// the same model-like and nasty vectors with it on and off leaves the same
// cells bit for bit — pairs, promoted cells and their order in the wide
// table — and a product that overflows mid-vector poisons both alike.
func TestExactAccumulatorPairFoldTiers(t *testing.T) {
	if !pairSIMD {
		t.Skip("no vector pair fold on this host")
	}
	const n = 1031 // the last three cells are a scalar tail
	rng := rand.New(rand.NewSource(67))
	vecs := make([][]float64, 12)
	for c := range vecs {
		if c%3 == 2 {
			vecs[c] = nastyVec(rng, n, false)
		} else {
			vecs[c] = modelLikeVec(rng, n)
		}
	}
	overflow := modelLikeVec(rng, n)
	overflow[517] = math.MaxFloat64
	fold := func(simd bool, last []float64) *ExactAccumulator {
		defer func(old bool) { pairSIMD = old }(pairSIMD)
		pairSIMD = simd
		e := NewExactAccumulator(n)
		for c, v := range vecs {
			e.Fold(v, []float64{30, -7, 0.5}[c%3])
		}
		if last != nil {
			e.Fold(last, 30)
		}
		return e
	}
	vector, scalar := fold(true, nil), fold(false, nil)
	if vector.promotions() == 0 {
		t.Fatal("no cell promoted: the vector loop never handed a group back")
	}
	for i := range vector.hi {
		if math.Float64bits(vector.hi[i]) != math.Float64bits(scalar.hi[i]) || math.Float64bits(vector.lo[i]) != math.Float64bits(scalar.lo[i]) {
			t.Fatalf("cell %d: vector (%x, %x), scalar (%x, %x)", i,
				math.Float64bits(vector.hi[i]), math.Float64bits(vector.lo[i]), math.Float64bits(scalar.hi[i]), math.Float64bits(scalar.lo[i]))
		}
	}
	if !slices.Equal(vector.wide, scalar.wide) {
		t.Fatal("the wide cells differ")
	}
	vector, scalar = fold(true, overflow), fold(false, overflow)
	got, gotW := vector.Round()
	want, wantW := scalar.Round()
	if !vector.poisoned || !scalar.poisoned || !sameFloat(gotW, wantW) {
		t.Fatalf("overflow: poisoned %v/%v, weight %v/%v", vector.poisoned, scalar.poisoned, gotW, wantW)
	}
	for i := range want {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("overflow: sum[%d] = %x vector, %x scalar", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// fuzzWeights are the fold weights a fuzz program picks from: a byte
// cannot spell a useful float64, and most random ones would only poison.
// The NaN comes last, so the seeds written before it keep their weights.
var fuzzWeights = []float64{1, -1, 30, 0.5, 1e-3, 0x1p-60, 0x1p60, -0x1p-1000, 0, 0x1p900, math.NaN()}

// fuzzFold is one fold of a fuzz program, kept to be replayed.
type fuzzFold struct {
	vec []float64
	w   float64
}

// FuzzExactAccumulator runs a short program of folds, merges and resets
// over two accumulators of 1–4 cells and holds every step to the oracle.
// The first byte sizes the cells; then each op is one opcode byte, and a
// fold reads a weight byte and eight raw float64 bytes per cell (missing
// bytes read as zero).
//
// At the end each accumulator's folds — the multiset its merges gathered —
// are replayed flat in program order, and again shuffled and split across
// two accumulators that are then merged: the property the tree rests on.
// Both round to the program's bits and to the oracle's; a poisoned
// multiset, whose plain float64 sums depend on the order, is held to the
// oracle alone.
func FuzzExactAccumulator(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		var seed int64
		for _, b := range prog {
			seed = seed*31 + int64(b)
		}
		next := func(n int) []byte {
			var buf [8]byte
			k := copy(buf[:n], prog)
			prog = prog[k:]
			return buf[:n]
		}
		n := int(next(1)[0])%4 + 1
		pairs := [2]refPair{newRefPair(n), newRefPair(n)}
		var folds [2][]fuzzFold
		for steps := 0; len(prog) > 0 && steps < 64; steps++ {
			op := next(1)[0]
			d := op & 1
			dst, src := pairs[d], pairs[d^1]
			switch op >> 1 % 4 {
			case 0, 1:
				w := fuzzWeights[int(next(1)[0])%len(fuzzWeights)]
				vec := make([]float64, n)
				for i := range vec {
					vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(next(8)))
				}
				dst.fold(vec, w)
				folds[d] = append(folds[d], fuzzFold{vec, w})
			case 2:
				dst.merge(src)
				folds[d] = append(folds[d], folds[d^1]...)
			case 3:
				dst.acc.Reset()
				pairs[d].ref = newBigRef(n)
				dst = pairs[d]
				folds[d] = nil
			}
			dst.check(t, "fuzz")
		}
		rng := rand.New(rand.NewSource(seed))
		for d, p := range pairs {
			flat, a, b := newRefPair(n), newRefPair(n), newRefPair(n)
			for _, fd := range folds[d] {
				flat.fold(fd.vec, fd.w)
			}
			shuffled := slices.Clone(folds[d])
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			cut := rng.Intn(len(shuffled) + 1)
			for i, fd := range shuffled {
				if i < cut {
					a.fold(fd.vec, fd.w)
				} else {
					b.fold(fd.vec, fd.w)
				}
			}
			a.merge(b)
			flat.check(t, "replayed flat")
			a.check(t, "regrouped")
			if flat.acc.poisoned {
				continue
			}
			got, gotW := a.acc.Round()
			for _, other := range []refPair{flat, p} {
				want, wantW := other.acc.Round()
				if !sameFloat(gotW, wantW) {
					t.Fatalf("accumulator %d regrouped: wsum = %x, in order %x", d, math.Float64bits(gotW), math.Float64bits(wantW))
				}
				for i := range want {
					if !sameFloat(got[i], want[i]) {
						t.Fatalf("accumulator %d regrouped: sum[%d] = %x, in order %x", d, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
			}
		}
	})
}

// The steady state an aggregator lives in allocates nothing but the result:
// folding and merging narrow cells and resetting are free, and Round makes
// exactly the slice it returns.
func TestExactAccumulatorAllocs(t *testing.T) {
	const n = 4096
	rng := rand.New(rand.NewSource(61))
	v0, v1 := modelLikeVec(rng, n), modelLikeVec(rng, n)
	e, other := NewExactAccumulator(n), NewExactAccumulator(n)
	other.Fold(v1, 30)
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"Merge into empty", func() { e.Merge(other) }},
		{"Fold", func() { e.Fold(v0, 30) }},
		{"Merge", func() { e.Merge(other) }},
		{"Reset+Fold", func() { e.Reset(); e.Fold(v0, 30); e.Fold(v1, -7) }},
	} {
		if a := testing.AllocsPerRun(10, tc.op); a != 0 {
			t.Errorf("%s: %v allocs per run, want 0", tc.name, a)
		}
		if e.promotions() != 0 {
			t.Fatalf("%s promoted %d cells: the gate measured the wide path", tc.name, e.promotions())
		}
	}
	if a := testing.AllocsPerRun(10, func() { e.Round() }); a != 1 {
		t.Errorf("Round: %v allocs per run, want 1 (the result)", a)
	}
}
