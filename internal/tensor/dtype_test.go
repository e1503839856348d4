package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func randTensorOf(dt DType, rng *rand.Rand, shape ...int) *Tensor {
	t := NewOf(dt, shape...)
	t.FillRandn(rng, 1)
	return t
}

func TestDTypeParseString(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want DType
		ok   bool
	}{
		{"f64", F64, true}, {"float64", F64, true}, {"", F64, true},
		{"f32", F32, true}, {"float32", F32, true},
		{"f16", F64, false}, {"int8", F64, false},
	} {
		got, err := ParseDType(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseDType(%q) = %v, %v", tc.in, got, err)
		}
	}
	if F64.String() != "f64" || F32.String() != "f32" {
		t.Errorf("String: %v %v", F64, F32)
	}
	if F64.Bytes() != 8 || F32.Bytes() != 4 {
		t.Errorf("Bytes: %d %d", F64.Bytes(), F32.Bytes())
	}
	if !F64.Valid() || !F32.Valid() || DType(9).Valid() {
		t.Error("Valid misclassifies")
	}
}

func TestNewOfZeroValueDType(t *testing.T) {
	if (&Tensor{}).DT != F64 {
		t.Fatal("zero-value Tensor must be F64 for backward compatibility")
	}
	f := NewOf(F32, 2, 3)
	if f.DT != F32 || len(f.F32) != 6 || f.Data != nil {
		t.Fatalf("NewOf(F32): %+v", f)
	}
	if DTypeOf[float32]() != F32 || DTypeOf[float64]() != F64 {
		t.Fatal("DTypeOf misreports")
	}
}

func TestOfPanicsOnDTypeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Of[float64] on an F32 tensor must panic")
		}
	}()
	Of[float64](NewOf(F32, 2))
}

// The float32 facade ops must agree with their float64 counterparts to
// float32 precision on identical inputs.
func TestElementwiseOpsF32MatchF64(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 129 // odd length to cross any unrolling
	a64 := randTensorOf(F64, rng, n)
	b64 := randTensorOf(F64, rng, n)
	a32, b32 := a64.AsType(F32), b64.AsType(F32)

	check := func(name string, got32, want64 *Tensor) {
		t.Helper()
		if !ApproxEqual(got32, want64, 1e-5) {
			t.Errorf("%s: f32 result diverges from f64", name)
		}
	}
	check("AddInto", func() *Tensor { o := NewOf(F32, n); AddInto(o, a32, b32); return o }(),
		func() *Tensor { o := New(n); AddInto(o, a64, b64); return o }())
	check("MulInto", func() *Tensor { o := NewOf(F32, n); MulInto(o, a32, b32); return o }(),
		func() *Tensor { o := New(n); MulInto(o, a64, b64); return o }())
	check("Axpy", func() *Tensor { o := a32.Clone(); o.AxpyInPlace(0.37, b32); return o }(),
		func() *Tensor { o := a64.Clone(); o.AxpyInPlace(0.37, b64); return o }())
	check("Scale", Scale(a32, -1.25), Scale(a64, -1.25))
	check("Sub", Sub(a32, b32), Sub(a64, b64))

	if g, w := Dot(a32, b32), Dot(a64, b64); math.Abs(g-w) > 1e-3 {
		t.Errorf("Dot: %v vs %v", g, w)
	}
	if g, w := a32.Sum(), a64.Sum(); math.Abs(g-w) > 1e-3 {
		t.Errorf("Sum: %v vs %v", g, w)
	}
	if g, w := a32.MaxAbs(), a64.MaxAbs(); math.Abs(g-w) > 1e-5 {
		t.Errorf("MaxAbs: %v vs %v", g, w)
	}
}

func TestRowHelpersAndViews(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := randTensorOf(F32, rng, 3, 4)
	row := RowOf[float32](m, 1)
	if len(row) != 4 {
		t.Fatalf("RowOf length %d", len(row))
	}
	dst := make([]float64, 4)
	m.RowTo(1, dst)
	for j := range dst {
		if dst[j] != float64(row[j]) {
			t.Fatalf("RowTo[%d] = %v, want %v", j, dst[j], row[j])
		}
	}
	if m.At(1, 2) != float64(row[2]) {
		t.Fatal("At widening broken")
	}
	m.Set(1, 2, 0.5)
	if row[2] != 0.5 {
		t.Fatal("Set narrowing broken")
	}

	var view Tensor
	ViewInto(&view, m, 4, 8, 2, 2)
	if view.DT != F32 || view.Size() != 4 || &view.F32[0] != &m.F32[4] {
		t.Fatal("ViewInto must alias the F32 backing")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Row on an F32 tensor must panic")
		}
	}()
	m.Row(0)
}

func TestConversionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := randTensorOf(F32, rng, 17)
	// f32 → f64 → f32 must be exact: widening is lossless.
	wide := f.AsType(F64)
	back := wide.AsType(F32)
	for i := range f.F32 {
		if back.F32[i] != f.F32[i] {
			t.Fatalf("round trip changed element %d", i)
		}
	}
	// AppendFloat64s/SetFromFloat64s are the bookkeeping boundary and must
	// round-trip exactly too.
	flat := f.AppendFloat64s(nil)
	g := NewOf(F32, 17)
	g.SetFromFloat64s(flat)
	for i := range f.F32 {
		if g.F32[i] != f.F32[i] {
			t.Fatalf("flat round trip changed element %d", i)
		}
	}
	// WriteFloat64sAt narrows segments.
	h := NewOf(F32, 17)
	h.WriteFloat64sAt(3, flat[3:9])
	for i := 3; i < 9; i++ {
		if h.F32[i] != f.F32[i] {
			t.Fatalf("WriteFloat64sAt changed element %d", i)
		}
	}
}

// All three GEMM forms at f32 must agree with the f64 reference to f32
// precision, at shapes covering full tiles, partial tiles and row tails of
// both the portable and the 8×8 FMA kernel.
func TestMatMulF32MatchesF64(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	shapes := [][3]int{{1, 1, 1}, {3, 5, 7}, {8, 8, 8}, {9, 17, 11}, {16, 32, 24}, {33, 65, 19}}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a64 := randTensorOf(F64, rng, m, k)
		b64 := randTensorOf(F64, rng, k, n)
		bT64 := Transpose(b64)
		a32, b32, bT32 := a64.AsType(F32), b64.AsType(F32), bT64.AsType(F32)

		tol := 1e-4 * math.Sqrt(float64(k))
		if got, want := MatMul(a32, b32), MatMul(a64, b64); !ApproxEqual(got, want, tol) {
			t.Errorf("MatMul f32 diverges at %v", s)
		}
		if got, want := MatMulATB(Transpose(a32), b32), MatMulATB(Transpose(a64), b64); !ApproxEqual(got, want, tol) {
			t.Errorf("MatMulATB f32 diverges at %v", s)
		}
		if got, want := MatMulABT(a32, bT32), MatMulABT(a64, bT64); !ApproxEqual(got, want, tol) {
			t.Errorf("MatMulABT f32 diverges at %v", s)
		}

		// Acc variants accumulate on top of a seeded output.
		seed64 := randTensorOf(F64, rng, k, n)
		seed32 := seed64.AsType(F32)
		accWant := seed64.Clone()
		MatMulATBAcc(accWant, a64, MatMul(a64, b64))
		accGot := seed32.Clone()
		MatMulATBAcc(accGot, a32, MatMul(a32, b32))
		if !ApproxEqual(accGot, accWant, 10*tol*math.Sqrt(float64(m))) {
			t.Errorf("MatMulATBAcc f32 diverges at %v", s)
		}
	}
}

// The pool's element types never serve each other: float32 storage handed
// back serves the next float32 request of its length, and a float64 request
// of that length gets storage of its own.
func TestPoolDTypeSeparation(t *testing.T) {
	p := NewPool()
	f64, f32 := exactFor[float64](p), exactFor[float32](p)
	a := f32.get(16, false)
	for i := range a {
		a[i] = 3
	}
	f32.put(a)
	if b := f32.get(16, true); &b[0] != &a[0] || b[15] != 0 {
		t.Fatal("expected the float32 storage handed back, zeroed, to serve the next float32 request")
	}
	if c := f64.get(16, false); len(c) != 16 {
		t.Fatalf("float64 request after a float32 hand-back: %d elements", len(c))
	}
}

func TestEnsureOfDTypeChange(t *testing.T) {
	a := TakeArena(0)
	defer a.Free()
	t64 := a.Ensure(F64, nil, 4)
	t32 := a.Ensure(F32, t64, 4)
	if t32.DT != F32 || len(t32.F32) != 4 || t32.Data != nil {
		t.Fatal("Ensure must lease anew on dtype change")
	}
	again := a.Ensure(F32, t32, 2)
	if again != t32 || len(again.F32) != 2 {
		t.Fatal("Ensure must reuse matching-dtype storage")
	}
}

func TestReductionRowOpsF32(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a64 := randTensorOf(F64, rng, 5, 9)
	a32 := a64.AsType(F32)
	for i := 0; i < 5; i++ {
		if a32.ArgMaxRow(i) != a64.ArgMaxRow(i) {
			t.Errorf("ArgMaxRow(%d) differs across dtypes", i)
		}
	}
	s32 := a32.Clone()
	s32.SoftmaxRowsInPlace()
	s64 := a64.Clone()
	s64.SoftmaxRowsInPlace()
	if !ApproxEqual(s32, s64, 1e-5) {
		t.Error("SoftmaxRowsInPlace diverges")
	}
	n32 := a32.Clone()
	norms32 := n32.NormalizeRowsInPlace(nil, 1e-12)
	n64 := a64.Clone()
	norms64 := n64.NormalizeRowsInPlace(nil, 1e-12)
	if !ApproxEqual(n32, n64, 1e-5) {
		t.Error("NormalizeRowsInPlace diverges")
	}
	for i := range norms32 {
		if math.Abs(norms32[i]-norms64[i]) > 1e-4 {
			t.Errorf("norm %d diverges: %v vs %v", i, norms32[i], norms64[i])
		}
	}
	tr32, tr64 := Transpose(a32), Transpose(a64)
	if !ApproxEqual(tr32, tr64, 1e-6) {
		t.Error("Transpose diverges")
	}
	cc := ConcatRows(a32, a32)
	if cc.DT != F32 || cc.Rows() != 10 {
		t.Errorf("ConcatRows dtype/shape: %v %v", cc.DT, cc.Shape)
	}
	sl := a32.SliceRows(1, 3)
	if sl.DT != F32 || !ApproxEqual(sl, a64.SliceRows(1, 3), 1e-6) {
		t.Error("SliceRows diverges")
	}
}

// Mixed-dtype operands must fail loudly, not corrupt.
func TestMixedDTypePanics(t *testing.T) {
	a := New(2, 2)
	b := NewOf(F32, 2, 2)
	for name, f := range map[string]func(){
		"AddInPlace": func() { a.AddInPlace(b) },
		"MatMulInto": func() { MatMulInto(New(2, 2), a, b) },
		"CopyFrom":   func() { a.CopyFrom(b) },
		"Segment":    func() { CopySegment(a, 0, b, 0, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mixed dtypes must panic", name)
				}
			}()
			f()
		}()
	}
}

func BenchmarkMatMulInto32Tensor(b *testing.B) {
	a := NewOf(F32, 64, 64)
	c := NewOf(F32, 64, 64)
	out := NewOf(F32, 64, 64)
	a.Fill(0.5)
	c.Fill(0.25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(out, a, c)
	}
}

// The vector primitives must match their scalar fallbacks bit for bit at
// both widths, including the NaN/-0 relu edge cases.
func TestVecPrimitivesMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	n := 67 // forces a scalar tail at both lane widths
	x64 := make([]float64, n)
	g64 := make([]float64, n)
	for i := range x64 {
		x64[i] = rng.NormFloat64()
		g64[i] = rng.NormFloat64()
	}
	x64[3] = math.NaN()
	x64[5] = math.Inf(-1)
	x64[7] = math.Copysign(0, -1)

	out := make([]float64, n)
	VecReluForward(out, x64)
	dx := make([]float64, n)
	VecReluBackward(dx, g64, out)
	acc := append([]float64(nil), g64...)
	VecAccumulate(acc, x64)
	for i := range x64 {
		var wantOut float64
		if x64[i] > 0 {
			wantOut = x64[i]
		}
		if out[i] != wantOut && !(math.IsNaN(out[i]) && math.IsNaN(wantOut)) {
			t.Fatalf("relu fwd[%d] = %v, want %v", i, out[i], wantOut)
		}
		var wantDx float64
		if out[i] > 0 {
			wantDx = g64[i]
		}
		if dx[i] != wantDx {
			t.Fatalf("relu bwd[%d] = %v, want %v", i, dx[i], wantDx)
		}
		if want := g64[i] + x64[i]; acc[i] != want && !math.IsNaN(want) {
			t.Fatalf("accumulate[%d] = %v, want %v", i, acc[i], want)
		}
	}

	x32 := make([]float32, n)
	g32 := make([]float32, n)
	for i := range x32 {
		x32[i] = float32(rng.NormFloat64())
		g32[i] = float32(rng.NormFloat64())
	}
	x32[2] = float32(math.NaN())
	out32 := make([]float32, n)
	VecReluForward(out32, x32)
	dx32 := make([]float32, n)
	VecReluBackward(dx32, g32, out32)
	for i := range x32 {
		var want float32
		if x32[i] > 0 {
			want = x32[i]
		}
		if out32[i] != want && !(out32[i] != out32[i] && want != want) {
			t.Fatalf("relu32 fwd[%d] = %v, want %v", i, out32[i], want)
		}
		var wantDx float32
		if out32[i] > 0 {
			wantDx = g32[i]
		}
		if dx32[i] != wantDx {
			t.Fatalf("relu32 bwd[%d] = %v, want %v", i, dx32[i], wantDx)
		}
	}
}

// GEMM results must be bit-identical at every shard layout: tile-aligned
// shard boundaries keep each row's FMA-tile-vs-tail decomposition a
// function of the row index alone (the property that makes runs
// reproducible across machines with different core counts). Exercised
// directly against the shard parameter at awkward row counts.
func TestGEMMShardLayoutIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, dt := range []DType{F64, F32} {
		for _, rows := range []int{5, 13, 16, 33, 64} {
			k, n := 96, 320 // big enough that row tiles and panels all engage
			a := randTensorOf(dt, rng, rows, k)
			b := randTensorOf(dt, rng, k, n)
			var ref *Tensor
			for _, shards := range []int{1, 2, 3, 5, 8, 16} {
				out := NewOf(dt, rows, n)
				chunk, nsh := shardRanges(rows, shards)
				for s := 0; s < nsh; s++ {
					lo, hi := s*chunk, min(s*chunk+chunk, rows)
					if dt == F32 {
						gemmRange(opNN, simdTierFor[float32](n), Of[float32](out), Of[float32](a), Of[float32](b), rows, k, n, lo, hi, false)
					} else {
						gemmRange(opNN, simdTierFor[float64](n), out.Data, a.Data, b.Data, rows, k, n, lo, hi, false)
					}
				}
				if ref == nil {
					ref = out
					continue
				}
				if !ApproxEqual(out, ref, 0) {
					t.Fatalf("%v rows=%d: shards=%d result differs bitwise from shards=1", dt, rows, shards)
				}
			}
		}
	}
}

// TestBF16RoundTripRNE pins the bfloat16 narrowing contract: exact values
// survive unchanged, ties round to even, f32 subnormals map onto bf16
// subnormals by mantissa rounding, and NaN narrows to a quiet NaN rather
// than an infinity.
func TestBF16RoundTripRNE(t *testing.T) {
	exact := []float32{0, 1, -1, 0.5, -2.25, 3.140625, float32(math.Inf(1)), float32(math.Inf(-1))}
	for _, v := range exact {
		if got := BF16ToF32(BF16FromF32(v)); math.Float32bits(got) != math.Float32bits(v) {
			t.Fatalf("bf16-exact %v round-tripped to %v", v, got)
		}
	}
	// Signed zero keeps its sign bit.
	negZero := math.Float32frombits(0x80000000)
	if math.Float32bits(BF16ToF32(BF16FromF32(negZero))) != 0x80000000 {
		t.Fatal("-0 lost its sign through bf16")
	}
	// Round-to-nearest-even at the tie: 1 + 2^-8 is exactly halfway between
	// bf16(1.0) and the next step 1 + 2^-7; the even mantissa (1.0) wins.
	// One ulp above the tie must round up instead.
	tie := math.Float32frombits(0x3f808000)
	if got := BF16ToF32(BF16FromF32(tie)); got != 1.0 {
		t.Fatalf("tie %x rounded to %v, want 1 (even)", math.Float32bits(tie), got)
	}
	aboveTie := math.Float32frombits(0x3f808001)
	if got := BF16ToF32(BF16FromF32(aboveTie)); got != 1.0078125 {
		t.Fatalf("above-tie rounded to %v, want 1.0078125", got)
	}
	// The odd-mantissa tie rounds up to the next even: 1.0078125 + 2^-8
	// is halfway between mantissas 0x81 (odd) and 0x82 (even).
	oddTie := math.Float32frombits(0x3f818000)
	if got := BF16ToF32(BF16FromF32(oddTie)); got != 1.015625 {
		t.Fatalf("odd tie rounded to %v, want 1.015625 (mantissa 0x82)", got)
	}
	// Subnormals: the smallest f32 subnormal underflows to zero under RNE;
	// a value at half the smallest bf16 subnormal step plus one ulp rounds
	// up to the smallest bf16 subnormal.
	minSub32 := math.Float32frombits(1)
	if got := BF16FromF32(minSub32); got != 0 {
		t.Fatalf("min f32 subnormal narrowed to %#x, want 0", got)
	}
	halfStepUp := math.Float32frombits(0x00008001)
	if got := BF16FromF32(halfStepUp); got != 0x0001 {
		t.Fatalf("above-half subnormal narrowed to %#x, want 0x0001", got)
	}
	if got := BF16ToF32(0x0001); math.Float32bits(got) != 0x00010000 {
		t.Fatalf("min bf16 subnormal widened to %#x", math.Float32bits(got))
	}
	// NaN: quiet, sign preserved, never an infinity.
	for _, bits := range []uint32{0x7fc00000, 0x7f800001, 0xffc12345, 0x7f80ffff} {
		h := BF16FromF32(math.Float32frombits(bits))
		w := BF16ToF32(h)
		if !math.IsNaN(float64(w)) {
			t.Fatalf("NaN %#x narrowed to non-NaN %#x", bits, h)
		}
		if (h>>15)&1 != uint16(bits>>31) {
			t.Fatalf("NaN %#x lost its sign: bf16 %#x", bits, h)
		}
	}
}
