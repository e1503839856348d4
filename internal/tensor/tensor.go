// Package tensor implements dense row-major tensors over float64 or float32
// and the numerical kernels (parallel matrix multiplication, elementwise
// operations, row-wise reductions) that the neural-network layers in
// internal/nn build on. It is deliberately small: only the operations the
// FedClassAvg reproduction needs, implemented with the Go standard library.
//
// # Dtype architecture
//
// Every kernel is written once, generically over the Float constraint
// (float32 | float64), and the non-generic Tensor facade carries the element
// type as a DType field, dispatching each operation to the right
// instantiation. float64 is the golden reference path — its generic
// instantiation performs bit-identical arithmetic to the historical
// float64-only kernels — while float32 halves the working set and doubles
// SIMD width on the GEMM/conv hot paths. Adding a further element type is a
// leaf change: extend DType, the Float constraint and the facade switches.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Tensor is a dense row-major tensor. The zero value is an empty float64
// tensor; use New, NewOf, FromSlice or the fill helpers to create usable
// values. Exactly one backing slice is in use, selected by DT: Data for F64,
// F32 for F32. Code on the golden float64 path may keep addressing Data
// directly; dtype-generic code goes through Of / RowOf.
type Tensor struct {
	Data  []float64 // F64 backing (nil for F32 tensors)
	F32   []float32 // F32 backing (nil for F64 tensors)
	Shape []int
	DT    DType

	arena *Arena // the arena the storage is leased from (Arena.Lease), or nil
	epoch uint64 // the arena's pass the lease belongs to
}

func sizeOf(shape []int) int {
	n := 1
	for _, s := range shape {
		if s < 0 {
			// A plain panic string keeps the shape slice from escaping, so
			// callers passing literal dimensions stay allocation-free.
			panic("tensor: negative dimension in shape")
		}
		n *= s
	}
	return n
}

// New returns a zero-filled float64 tensor with the given shape.
func New(shape ...int) *Tensor {
	n := sizeOf(shape)
	return &Tensor{Data: make([]float64, n), Shape: append([]int(nil), shape...)}
}

// NewOf returns a zero-filled tensor of the given dtype and shape. BF16
// tensors get float32 backing (see DType.Backing) and keep the BF16 tag.
func NewOf(dt DType, shape ...int) *Tensor {
	if dt == F64 {
		return New(shape...)
	}
	n := sizeOf(shape)
	return &Tensor{F32: make([]float32, n), Shape: append([]int(nil), shape...), DT: dt}
}

// FromSlice wraps float64 data in a tensor of the given shape. The slice is
// not copied; it must have exactly the number of elements the shape implies.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return &Tensor{Data: data, Shape: append([]int(nil), shape...)}
}

// Size returns the total number of elements.
func (t *Tensor) Size() int {
	if t.DT.Backing() == F32 {
		return len(t.F32)
	}
	return len(t.Data)
}

// Dim returns the length of axis i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Rank returns the number of axes.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Rows returns the leading dimension of a rank-2 tensor.
func (t *Tensor) Rows() int { return t.Shape[0] }

// Cols returns the trailing dimension of a rank-2 tensor.
func (t *Tensor) Cols() int { return t.Shape[1] }

// at returns flat element i widened to float64, whatever the dtype. It is
// the slow, conversion-tolerant accessor for comparisons and debugging.
func (t *Tensor) at(i int) float64 {
	if t.DT.Backing() == F32 {
		return float64(t.F32[i])
	}
	return t.Data[i]
}

// setAt assigns flat element i from a float64, narrowing as needed (for
// BF16 tensors through float32 and then round-to-nearest-even to bfloat16).
func (t *Tensor) setAt(i int, v float64) {
	switch t.DT {
	case F32:
		t.F32[i] = float32(v)
	case BF16:
		t.F32[i] = RoundBF16(float32(v))
	default:
		t.Data[i] = v
	}
}

// At returns the element of a rank-2 tensor at row i, column j, widened to
// float64 for F32 tensors.
func (t *Tensor) At(i, j int) float64 { return t.at(i*t.Shape[1] + j) }

// Set assigns the element of a rank-2 tensor at row i, column j, narrowing
// to the tensor's dtype.
func (t *Tensor) Set(i, j int, v float64) { t.setAt(i*t.Shape[1]+j, v) }

// Row returns a view (not a copy) of row i of a rank-2 float64 tensor. For
// dtype-generic code use RowOf, which serves both widths.
func (t *Tensor) Row(i int) []float64 {
	if t.DT != F64 {
		panic("tensor: Row on a " + t.DT.String() + " tensor (use tensor.RowOf)")
	}
	c := t.Shape[1]
	return t.Data[i*c : (i+1)*c]
}

// RowTo widens row i of a rank-2 tensor into dst (len must be Cols()),
// the boundary between dtype-bound activations and float64 bookkeeping
// (prototype accumulation, analysis probes).
func (t *Tensor) RowTo(i int, dst []float64) {
	c := t.Shape[1]
	if len(dst) != c {
		panic("tensor: RowTo length mismatch")
	}
	if t.DT.Backing() == F32 {
		for j, v := range t.F32[i*c : (i+1)*c] {
			dst[j] = float64(v)
		}
		return
	}
	copy(dst, t.Data[i*c:(i+1)*c])
}

// Clone returns a deep copy (same dtype).
func (t *Tensor) Clone() *Tensor {
	out := NewOf(t.DT, t.Shape...)
	if t.DT.Backing() == F32 {
		copy(out.F32, t.F32)
	} else {
		copy(out.Data, t.Data)
	}
	return out
}

// ViewInto retargets view at elements [lo, hi) of src's storage with the
// given shape (whose product must be hi-lo), sharing src's dtype and
// backing. It allocates nothing and is the building block for the cached
// view headers of shape-only layers and grouped convolutions.
func ViewInto(view, src *Tensor, lo, hi int, shape ...int) {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != hi-lo {
		// A plain panic string keeps the variadic shape from escaping, so
		// retargeting a cached view header stays allocation-free.
		panic("tensor: view shape does not cover the storage range")
	}
	view.DT = src.DT
	if src.DT.Backing() == F32 {
		view.F32 = src.F32[lo:hi]
		view.Data = nil
	} else {
		view.Data = src.Data[lo:hi]
		view.F32 = nil
	}
	view.Shape = append(view.Shape[:0], shape...)
}

// ConvertInto widens or narrows src into dst elementwise. Sizes must match;
// dtypes may differ (equal dtypes degrade to a copy). It is the single
// crossing point between the two element types — everything else in the
// package refuses mixed-dtype operands.
func ConvertInto(dst, src *Tensor) {
	if dst.Size() != src.Size() {
		panic("tensor: ConvertInto size mismatch")
	}
	switch {
	case dst.DT == src.DT && dst.DT.Backing() == F32:
		copy(dst.F32, src.F32)
	case dst.DT == src.DT:
		copy(dst.Data, src.Data)
	case dst.DT == BF16 && src.DT.Backing() == F32:
		for i, v := range src.F32 {
			dst.F32[i] = RoundBF16(v)
		}
	case dst.DT.Backing() == F32 && src.DT.Backing() == F32:
		// F32 ← BF16: the values are already float32; the tag widens freely.
		copy(dst.F32, src.F32)
	case dst.DT == BF16:
		for i, v := range src.Data {
			dst.F32[i] = RoundBF16(float32(v))
		}
	case dst.DT.Backing() == F32:
		for i, v := range src.Data {
			dst.F32[i] = float32(v)
		}
	default:
		for i, v := range src.F32 {
			dst.Data[i] = float64(v)
		}
	}
}

// AsType returns t itself when it already has dtype dt, and a freshly
// allocated converted copy otherwise.
func (t *Tensor) AsType(dt DType) *Tensor {
	if t.DT == dt {
		return t
	}
	out := NewOf(dt, t.Shape...)
	ConvertInto(out, t)
	return out
}

// AppendFloat64s appends every element, widened to float64, to dst and
// returns the extended slice — the flattening primitive of the federation's
// always-f64 bookkeeping layer (float32 values widen exactly, so the round
// trip through bookkeeping is lossless).
func (t *Tensor) AppendFloat64s(dst []float64) []float64 {
	if t.DT.Backing() == F32 {
		for _, v := range t.F32 {
			dst = append(dst, float64(v))
		}
		return dst
	}
	return append(dst, t.Data...)
}

// SetFromFloat64s overwrites every element from a float64 slice of exactly
// Size() values, narrowing as needed.
func (t *Tensor) SetFromFloat64s(src []float64) {
	if len(src) != t.Size() {
		panic("tensor: SetFromFloat64s size mismatch")
	}
	switch t.DT {
	case F32:
		for i, v := range src {
			t.F32[i] = float32(v)
		}
	case BF16:
		for i, v := range src {
			t.F32[i] = RoundBF16(float32(v))
		}
	default:
		copy(t.Data, src)
	}
}

// WriteFloat64sAt overwrites elements [off, off+len(src)) from a float64
// slice, narrowing as needed — the batch-packing primitive that moves
// dataset examples (always float64) into model-dtype input tensors.
func (t *Tensor) WriteFloat64sAt(off int, src []float64) {
	switch t.DT {
	case F32:
		dst := t.F32[off : off+len(src)]
		for i, v := range src {
			dst[i] = float32(v)
		}
	case BF16:
		dst := t.F32[off : off+len(src)]
		for i, v := range src {
			dst[i] = RoundBF16(float32(v))
		}
	default:
		copy(t.Data[off:off+len(src)], src)
	}
}

// CopySegment copies n elements from src[sOff:] into dst[dOff:]. Both
// tensors must share a dtype; it is the channel-block shuffle primitive of
// the concat/split composite layers.
func CopySegment(dst *Tensor, dOff int, src *Tensor, sOff, n int) {
	if dst.DT != src.DT {
		panic("tensor: CopySegment dtype mismatch")
	}
	if dst.DT.Backing() == F32 {
		copy(dst.F32[dOff:dOff+n], src.F32[sOff:sOff+n])
		return
	}
	copy(dst.Data[dOff:dOff+n], src.Data[sOff:sOff+n])
}

// Zero overwrites every element with 0.
func (t *Tensor) Zero() {
	if t.DT.Backing() == F32 {
		zeroK(t.F32)
		return
	}
	zeroK(t.Data)
}

func zeroK[F Float](d []F) {
	for i := range d {
		d[i] = 0
	}
}

// Fill overwrites every element with v (narrowed to the dtype).
func (t *Tensor) Fill(v float64) {
	if t.DT.Backing() == F32 {
		f := float32(v)
		if t.DT == BF16 {
			f = RoundBF16(f)
		}
		fillK(t.F32, f)
		return
	}
	fillK(t.Data, v)
}

func fillK[F Float](d []F, v F) {
	for i := range d {
		d[i] = v
	}
}

// FillRandn fills with N(0, std²) samples from rng, drawn in float64 and
// narrowed to the tensor's dtype, so the same stream initializes both widths
// to the same (rounded) values.
func (t *Tensor) FillRandn(rng *rand.Rand, std float64) {
	if t.DT.Backing() == F32 {
		for i := range t.F32 {
			t.F32[i] = float32(rng.NormFloat64() * std)
		}
		RoundBF16InPlace(t)
		return
	}
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
}

// FillUniform fills with U(lo, hi) samples from rng.
func (t *Tensor) FillUniform(rng *rand.Rand, lo, hi float64) {
	if t.DT.Backing() == F32 {
		for i := range t.F32 {
			t.F32[i] = float32(lo + rng.Float64()*(hi-lo))
		}
		RoundBF16InPlace(t)
		return
	}
	for i := range t.Data {
		t.Data[i] = lo + rng.Float64()*(hi-lo)
	}
}

// AddInPlace computes t += o elementwise.
func (t *Tensor) AddInPlace(o *Tensor) {
	if t.Size() != o.Size() {
		panic("tensor: AddInPlace size mismatch")
	}
	if t.DT.Backing() == F32 {
		addInPlaceK(t.F32, Of[float32](o))
		return
	}
	addInPlaceK(t.Data, Of[float64](o))
}

func addInPlaceK[F Float](d, o []F) {
	VecAccumulate(d, o)
}

// SubInPlace computes t -= o elementwise.
func (t *Tensor) SubInPlace(o *Tensor) {
	if t.Size() != o.Size() {
		panic("tensor: SubInPlace size mismatch")
	}
	if t.DT.Backing() == F32 {
		subInPlaceK(t.F32, Of[float32](o))
		return
	}
	subInPlaceK(t.Data, Of[float64](o))
}

func subInPlaceK[F Float](d, o []F) {
	for i, v := range o {
		d[i] -= v
	}
}

// ScaleInPlace computes t *= a elementwise.
func (t *Tensor) ScaleInPlace(a float64) {
	if t.DT.Backing() == F32 {
		scaleInPlaceK(t.F32, float32(a))
		return
	}
	scaleInPlaceK(t.Data, a)
}

func scaleInPlaceK[F Float](d []F, a F) {
	for i := range d {
		d[i] *= a
	}
}

// CopyFrom overwrites t's elements with o's (sizes and dtypes must match;
// use ConvertInto to cross dtypes).
func (t *Tensor) CopyFrom(o *Tensor) {
	if t.Size() != o.Size() {
		panic("tensor: CopyFrom size mismatch")
	}
	if t.DT.Backing() == F32 {
		copy(t.F32, Of[float32](o))
		return
	}
	copy(t.Data, Of[float64](o))
}

// AddInto computes dst = a + b elementwise without allocating.
func AddInto(dst, a, b *Tensor) {
	if dst.Size() != a.Size() || a.Size() != b.Size() {
		panic("tensor: AddInto size mismatch")
	}
	if dst.DT.Backing() == F32 {
		addIntoK(dst.F32, Of[float32](a), Of[float32](b))
		return
	}
	addIntoK(dst.Data, Of[float64](a), Of[float64](b))
}

func addIntoK[F Float](dst, a, b []F) {
	for i, v := range a {
		dst[i] = v + b[i]
	}
}

// ColSumsAcc accumulates the column sums of a rank-2 tensor into dst:
// dst[j] += Σ_i t[i,j]. dst must have t.Cols() elements. It is the bias-
// gradient reduction of the dense and convolution layers.
func ColSumsAcc(dst *Tensor, t *Tensor) {
	c := t.Shape[1]
	if dst.Size() != c {
		panic("tensor: ColSumsAcc size mismatch")
	}
	if dst.DT.Backing() == F32 {
		colSumsAccK(dst.F32, Of[float32](t), t.Shape[0], c)
		return
	}
	colSumsAccK(dst.Data, Of[float64](t), t.Shape[0], c)
}

func colSumsAccK[F Float](dd, td []F, rows, c int) {
	for i := 0; i < rows; i++ {
		row := td[i*c : (i+1)*c]
		for j, v := range row {
			dd[j] += v
		}
	}
}

// Add returns a + b.
func Add(a, b *Tensor) *Tensor {
	out := a.Clone()
	out.AddInPlace(b)
	return out
}

// Sub returns a - b.
func Sub(a, b *Tensor) *Tensor {
	out := a.Clone()
	out.SubInPlace(b)
	return out
}

// Scale returns a*t.
func Scale(t *Tensor, a float64) *Tensor {
	out := t.Clone()
	out.ScaleInPlace(a)
	return out
}

// SumSquares returns Σ t_i², accumulated in the tensor's dtype.
func (t *Tensor) SumSquares() float64 {
	if t.DT.Backing() == F32 {
		return float64(sumSquaresK(t.F32))
	}
	return sumSquaresK(t.Data)
}

func sumSquaresK[F Float](d []F) F {
	var s F
	for _, v := range d {
		s += v * v
	}
	return s
}

// Sum returns Σ t_i, accumulated in the tensor's dtype.
func (t *Tensor) Sum() float64 {
	if t.DT.Backing() == F32 {
		return float64(sumK(t.F32))
	}
	return sumK(t.Data)
}

func sumK[F Float](d []F) F {
	var s F
	for _, v := range d {
		s += v
	}
	return s
}

// MaxAbs returns max |t_i|, or 0 for an empty tensor.
func (t *Tensor) MaxAbs() float64 {
	if t.DT.Backing() == F32 {
		return float64(maxAbsK(t.F32))
	}
	return maxAbsK(t.Data)
}

func maxAbsK[F Float](d []F) F {
	var m F
	for _, v := range d {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// ArgMaxRow returns the index of the maximum element of row i of a rank-2
// tensor; ties resolve to the lowest index.
func (t *Tensor) ArgMaxRow(i int) int {
	if t.DT.Backing() == F32 {
		return argMaxRowK(RowOf[float32](t, i))
	}
	return argMaxRowK(RowOf[float64](t, i))
}

func argMaxRowK[F Float](row []F) int {
	best := 0
	for j := 1; j < len(row); j++ {
		if row[j] > row[best] {
			best = j
		}
	}
	return best
}

// Transpose returns the transpose of a rank-2 tensor.
func Transpose(t *Tensor) *Tensor {
	if t.Rank() != 2 {
		panic("tensor: Transpose requires rank 2")
	}
	out := NewOf(t.DT, t.Shape[1], t.Shape[0])
	if t.DT.Backing() == F32 {
		transposeK(Of[float32](out), Of[float32](t), t.Shape[0], t.Shape[1])
	} else {
		transposeK(out.Data, t.Data, t.Shape[0], t.Shape[1])
	}
	return out
}

func transposeK[F Float](out, in []F, r, c int) {
	for i := 0; i < r; i++ {
		row := in[i*c : (i+1)*c]
		for j := 0; j < c; j++ {
			out[j*r+i] = row[j]
		}
	}
}

// ConcatRows stacks rank-2 tensors with equal column counts vertically.
func ConcatRows(parts ...*Tensor) *Tensor {
	if len(parts) == 0 {
		panic("tensor: ConcatRows of nothing")
	}
	cols := parts[0].Shape[1]
	rows := 0
	for _, p := range parts {
		if p.Shape[1] != cols {
			panic("tensor: ConcatRows column mismatch")
		}
		rows += p.Shape[0]
	}
	out := NewOf(parts[0].DT, rows, cols)
	off := 0
	for _, p := range parts {
		CopySegment(out, off, p, 0, p.Size())
		off += p.Size()
	}
	return out
}

// SliceRows returns a copy of rows [lo, hi) of a rank-2 tensor.
func (t *Tensor) SliceRows(lo, hi int) *Tensor {
	c := t.Shape[1]
	out := NewOf(t.DT, hi-lo, c)
	CopySegment(out, 0, t, lo*c, (hi-lo)*c)
	return out
}

// NormalizeRowsInPlace scales each row of a rank-2 tensor to unit L2 norm
// and returns the original norms (rows with norm < eps are left unscaled
// and report norm eps to keep downstream divisions finite), written into
// norms' storage when it has room for one per row. Norms are float64
// bookkeeping regardless of dtype.
func (t *Tensor) NormalizeRowsInPlace(norms []float64, eps float64) []float64 {
	norms = slices.Grow(norms[:0], t.Shape[0])[:t.Shape[0]]
	if t.DT.Backing() == F32 {
		normalizeRowsK(Of[float32](t), norms, t.Shape[1], eps)
	} else {
		normalizeRowsK(t.Data, norms, t.Shape[1], eps)
	}
	return norms
}

func normalizeRowsK[F Float](d []F, norms []float64, c int, eps float64) {
	r := len(norms)
	for i := 0; i < r; i++ {
		row := d[i*c : (i+1)*c]
		var s F
		for _, v := range row {
			s += v * v
		}
		n := math.Sqrt(float64(s))
		if n < eps {
			norms[i] = eps
			continue
		}
		norms[i] = n
		inv := F(1 / n)
		for j := range row {
			row[j] *= inv
		}
	}
}

// LogSumExpOf is the dtype-generic stable log-sum-exp: the max is found in
// the element type, the exponentials are evaluated in float64 (math.Exp) and
// narrowed back, and the partial sums accumulate in the element type.
func LogSumExpOf[F Float](row []F) F {
	m := F(math.Inf(-1))
	for _, v := range row {
		if v > m {
			m = v
		}
	}
	if math.IsInf(float64(m), -1) {
		return m
	}
	var s F
	for _, v := range row {
		s += F(math.Exp(float64(v - m)))
	}
	return m + F(math.Log(float64(s)))
}

// SoftmaxRowsInPlace replaces each row of a rank-2 tensor with its softmax.
func (t *Tensor) SoftmaxRowsInPlace() {
	if t.DT.Backing() == F32 {
		softmaxRowsK(Of[float32](t), t.Shape[0], t.Shape[1])
		return
	}
	softmaxRowsK(t.Data, t.Shape[0], t.Shape[1])
}

func softmaxRowsK[F Float](d []F, r, c int) {
	for i := 0; i < r; i++ {
		row := d[i*c : (i+1)*c]
		lse := LogSumExpOf(row)
		for j := range row {
			row[j] = F(math.Exp(float64(row[j] - lse)))
		}
	}
}

// ApproxEqual reports whether a and b have identical shapes and elementwise
// |a_i - b_i| <= tol. The operands may have different dtypes (elements are
// compared widened to float64), so float32 results can be checked against
// float64 references.
func ApproxEqual(a, b *Tensor, tol float64) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	for i := 0; i < a.Size(); i++ {
		if math.Abs(a.at(i)-b.at(i)) > tol {
			return false
		}
	}
	return true
}

// String formats small tensors for debugging.
func (t *Tensor) String() string {
	if t.Size() > 64 {
		return fmt.Sprintf("Tensor%v(%d %s elems)", t.Shape, t.Size(), t.DT)
	}
	if t.DT.Backing() == F32 {
		return fmt.Sprintf("Tensor%v%v", t.Shape, t.F32)
	}
	return fmt.Sprintf("Tensor%v%v", t.Shape, t.Data)
}
