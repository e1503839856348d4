package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndShape(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 || x.Rank() != 3 || x.Dim(1) != 3 {
		t.Fatalf("unexpected geometry: %v size %d", x.Shape, x.Size())
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong size must panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetRow(t *testing.T) {
	x := New(3, 4)
	x.Set(1, 2, 7)
	if x.At(1, 2) != 7 {
		t.Fatal("At/Set mismatch")
	}
	row := x.Row(1)
	row[0] = 5
	if x.At(1, 0) != 5 {
		t.Fatal("Row must be a view, not a copy")
	}
}

func TestCloneIndependence(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	y := x.Clone()
	y.Data[0] = 99
	if x.Data[0] == 99 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{10, 20, 30}, 3)
	sum := Add(a, b)
	if sum.Data[2] != 33 {
		t.Fatalf("Add: %v", sum.Data)
	}
	diff := Sub(b, a)
	if diff.Data[0] != 9 {
		t.Fatalf("Sub: %v", diff.Data)
	}
	sc := Scale(a, 2)
	if sc.Data[1] != 4 {
		t.Fatalf("Scale: %v", sc.Data)
	}
	a.AxpyInPlace(0.5, b)
	if a.Data[0] != 6 {
		t.Fatalf("Axpy: %v", a.Data)
	}
	if got := Dot(b, b); got != 100+400+900 {
		t.Fatalf("Dot: %v", got)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
}

func TestMatMulShapesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inner-dimension mismatch must panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

// TestMatMulAgainstNaive cross-checks the blocked/parallel kernel against a
// straightforward triple loop on random shapes, including shapes large
// enough to trigger the parallel path.
func TestMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := [][3]int{{1, 1, 1}, {2, 5, 3}, {7, 4, 9}, {64, 33, 50}, {130, 40, 60}}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := New(m, k)
		a.FillRandn(rng, 1)
		b := New(k, n)
		b.FillRandn(rng, 1)
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		if !ApproxEqual(got, want, 1e-9) {
			t.Fatalf("MatMul mismatch at %v", sh)
		}
		// Transposed variants.
		gotATB := MatMulATB(Transpose(a), b)
		if !ApproxEqual(gotATB, want, 1e-9) {
			t.Fatalf("MatMulATB mismatch at %v", sh)
		}
		gotABT := MatMulABT(a, Transpose(b))
		if !ApproxEqual(gotABT, want, 1e-9) {
			t.Fatalf("MatMulABT mismatch at %v", sh)
		}
	}
}

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Rows(), a.Cols(), b.Cols()
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestTranspose(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := Transpose(x)
	if y.Rows() != 3 || y.Cols() != 2 || y.At(2, 1) != 6 || y.At(0, 1) != 4 {
		t.Fatalf("Transpose wrong: %v", y.Data)
	}
}

// Property: (Aᵀ)ᵀ = A.
func TestTransposeInvolution(t *testing.T) {
	f := func(rows uint8, cols uint8, seed int64) bool {
		r := int(rows%8) + 1
		c := int(cols%8) + 1
		x := New(r, c)
		x.FillRandn(rand.New(rand.NewSource(seed)), 1)
		return ApproxEqual(Transpose(Transpose(x)), x, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax rows are probability distributions.
func TestSoftmaxRowsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := New(4, 6)
		x.FillRandn(rng, 3)
		x.SoftmaxRowsInPlace()
		for i := 0; i < 4; i++ {
			var s float64
			for _, v := range x.Row(i) {
				if v < 0 || v > 1 {
					return false
				}
				s += v
			}
			if math.Abs(s-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: normalized rows have unit norm and keep direction.
func TestNormalizeRowsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := New(5, 7)
		x.FillRandn(rng, 2)
		orig := x.Clone()
		norms := x.NormalizeRowsInPlace(nil, 1e-12)
		for i := 0; i < 5; i++ {
			var s float64
			for _, v := range x.Row(i) {
				s += v * v
			}
			if math.Abs(math.Sqrt(s)-1) > 1e-9 {
				return false
			}
			// Direction preserved: x * norm == orig.
			for j, v := range x.Row(i) {
				if math.Abs(v*norms[i]-orig.At(i, j)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeZeroRow(t *testing.T) {
	x := New(1, 4)
	norms := x.NormalizeRowsInPlace(nil, 1e-12)
	if norms[0] != 1e-12 {
		t.Fatalf("zero row should report eps norm, got %v", norms[0])
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("zero row must stay zero")
		}
	}
}

func TestLogSumExpStability(t *testing.T) {
	if v := LogSumExpOf([]float64{1e9, 1e9}); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Fatalf("LSE overflow: %v", v)
	}
	if v := LogSumExpOf([]float64{0, 0}); math.Abs(v-math.Log(2)) > 1e-12 {
		t.Fatalf("LSE(0,0) = %v, want ln 2", v)
	}
}

func TestConcatAndSliceRows(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{5, 6}, 1, 2)
	c := ConcatRows(a, b)
	if c.Rows() != 3 || c.At(2, 1) != 6 {
		t.Fatalf("ConcatRows wrong: %v", c.Data)
	}
	s := c.SliceRows(1, 3)
	if s.Rows() != 2 || s.At(0, 0) != 3 || s.At(1, 1) != 6 {
		t.Fatalf("SliceRows wrong: %v", s.Data)
	}
	// SliceRows must copy.
	s.Data[0] = 99
	if c.At(1, 0) == 99 {
		t.Fatal("SliceRows must copy")
	}
}

func TestArgMaxRow(t *testing.T) {
	x := FromSlice([]float64{1, 5, 5, 2}, 1, 4)
	if got := x.ArgMaxRow(0); got != 1 {
		t.Fatalf("ArgMaxRow tie should pick lowest index, got %d", got)
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{-3, 1, 2}, 3)
	if x.Sum() != 0 {
		t.Fatalf("Sum: %v", x.Sum())
	}
	if x.SumSquares() != 14 {
		t.Fatalf("SumSquares: %v", x.SumSquares())
	}
	if x.MaxAbs() != 3 {
		t.Fatalf("MaxAbs: %v", x.MaxAbs())
	}
}

func TestApproxEqualShapes(t *testing.T) {
	if ApproxEqual(New(2, 3), New(3, 2), 1) {
		t.Fatal("different shapes must not compare equal")
	}
	if !ApproxEqual(New(2, 2), New(2, 2), 0) {
		t.Fatal("equal zeros must compare equal")
	}
}

func TestFillHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := New(100)
	x.FillUniform(rng, 2, 3)
	for _, v := range x.Data {
		if v < 2 || v >= 3 {
			t.Fatalf("FillUniform out of range: %v", v)
		}
	}
	x.Fill(7)
	if x.Data[50] != 7 {
		t.Fatal("Fill failed")
	}
	x.Zero()
	if x.Sum() != 0 {
		t.Fatal("Zero failed")
	}
}

func TestMatMulInto(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(3, 4)
	a.FillRandn(rng, 1)
	b := New(4, 5)
	b.FillRandn(rng, 1)
	out := New(3, 5)
	out.Fill(123) // must be overwritten, not accumulated
	MatMulInto(out, a, b)
	if !ApproxEqual(out, MatMul(a, b), 1e-12) {
		t.Fatal("MatMulInto disagrees with MatMul")
	}
}
