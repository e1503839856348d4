package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/tensor"
)

// This file holds the variable-size frame families and the allocation-free
// marshal/decode paths. Two frame kinds extend the dense codecs:
//
//	TOPK   [kind u32][TopK<<56|n][inner u8][k uvarint][scale f64 if inner=I8]
//	       [k indices: first absolute, then gaps ≥ 1, uvarint]
//	       [k values at the inner codec]
//	DELTA  [kind u32][Delta<<56|n][tag u64][sub u8][residual body]
//
// A TOPK frame keeps the k = ceil(frac·n) largest-|v| elements (ties broken
// by index order, NaN never kept over a finite value); the receiver decodes
// a dense vector with zeros elsewhere. A DELTA frame carries the payload as
// the difference against the slot's DeltaRef basis, with the residual body
// either dense (sub = F64..BF16) or top-k (sub = TopK, its own body
// following); delta inside delta is rejected. Both kinds are variable-size,
// so ledgers book them by the exact encoded length RoundTripSpec returns.

// deltaOverhead is the DELTA frame's body prefix: basis tag + sub codec.
const deltaOverhead = 8 + 1

// maxSparseLen caps the element count a TOPK or DELTA frame may declare.
// Sparse frames are smaller than their decoded vector by design, so the
// count cannot be bounded by the buffer length the way dense frames are;
// this cap bounds what a hostile header can make the decoder allocate.
const maxSparseLen = 1 << 22

// coder is the pooled scratch a single marshal or decode call borrows:
// selection keys, kept indices, dequantized values, residuals and byte
// staging. Steady state, every slice has grown to working size and the
// codec paths allocate nothing.
type coder struct {
	f64 []float64
	deq []float64
	idx []int
	buf []byte
}

var coderPool = sync.Pool{New: func() any { return new(coder) }}

func (c *coder) floats(n int) []float64 {
	if cap(c.f64) < n {
		c.f64 = make([]float64, n)
	}
	return c.f64[:n]
}

func (c *coder) deqFloats(n int) []float64 {
	if cap(c.deq) < n {
		c.deq = make([]float64, n)
	}
	return c.deq[:n]
}

func (c *coder) ints(n int) []int {
	if cap(c.idx) < n {
		c.idx = make([]int, n)
	}
	return c.idx[:n]
}

// resizeF returns scratch resized to n elements, reallocating only when the
// capacity is short — the decode-side analogue of append-style encoding.
func resizeF(scratch []float64, n int) []float64 {
	if cap(scratch) >= n && (n > 0 || scratch != nil) {
		return scratch[:n]
	}
	return make([]float64, n)
}

// elemBytes is the per-element payload cost of a dense codec, excluding the
// I8 scale prefix (top-k values carry the scale separately).
func elemBytes(c Codec) int {
	switch c {
	case F32:
		return 4
	case I8:
		return 1
	case BF16:
		return 2
	}
	return 8
}

// uvarintLen is the encoded size of x as a uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// appendHeader appends the fixed 12-byte frame header.
func appendHeader(dst []byte, c Codec, kind uint32, n int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, kind)
	return binary.LittleEndian.AppendUint64(dst, uint64(c)<<56|uint64(n))
}

// appendDense appends the dense payload body of v under c.
func appendDense(dst []byte, c Codec, payload []float64) []byte {
	switch c {
	case F32:
		for _, v := range payload {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v)))
		}
	case I8:
		scale := i8Scale(payload)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(scale))
		for _, v := range payload {
			dst = append(dst, byte(quantizeI8(v, scale)))
		}
	case BF16:
		for _, v := range payload {
			dst = binary.LittleEndian.AppendUint16(dst, tensor.BF16FromF32(float32(v)))
		}
	default:
		for _, v := range payload {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// topkCount is the deterministic kept count: ceil(frac·n) clamped to
// [1, n]. Both ends of a connection compute it from the same canonical
// fraction, so the decoder can cross-check k against the header length.
func topkCount(frac float64, n int) int {
	k := int(math.Ceil(frac * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// topkKey is the selection magnitude of x: |x|, with NaN mapped below every
// finite and infinite value so a NaN element is kept only when nothing
// finite is left to keep.
func topkKey(x float64) float64 {
	a := math.Abs(x)
	if math.IsNaN(a) {
		return -1
	}
	return a
}

// kthLargest returns the k-th largest value of s (1-based), partially
// reordering s in place. Median-of-three Hoare partitioning keeps
// equal-heavy inputs — an all-zero residual is the common case — near
// O(n) instead of quadratic.
func kthLargest(s []float64, k int) float64 {
	lo, hi := 0, len(s)-1
	target := len(s) - k
	for lo < hi {
		mid := lo + (hi-lo)/2
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		s[lo], s[mid] = s[mid], s[lo]
		pivot := s[lo]
		i, j := lo-1, hi+1
		for {
			for {
				i++
				if s[i] >= pivot {
					break
				}
			}
			for {
				j--
				if s[j] <= pivot {
					break
				}
			}
			if i >= j {
				break
			}
			s[i], s[j] = s[j], s[i]
		}
		if target <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
	return s[lo]
}

// appendTopK appends a top-k body — [inner u8][k uvarint][scale f64 when
// inner is I8][indices][values] — keeping the k largest-|v| elements with
// ties broken by index order. When rt is non-nil (it may alias v) it
// receives the dense vector a receiver of the body would decode.
func appendTopK(dst []byte, inner Codec, frac float64, v, rt []float64) []byte {
	n := len(v)
	k := topkCount(frac, n)
	c := coderPool.Get().(*coder)
	abs := c.floats(n)
	for i, x := range v {
		abs[i] = topkKey(x)
	}
	t := kthLargest(abs, k)
	// Budget the ties: everything strictly above the threshold is kept, and
	// the remaining slots go to threshold-equal elements in index order.
	m := 0
	for _, x := range v {
		if topkKey(x) > t {
			m++
		}
	}
	idxs := c.ints(k)
	kept, eq := 0, 0
	var keptMax float64
	for i, x := range v {
		a := topkKey(x)
		if a > t || (a == t && eq < k-m) {
			if a == t {
				eq++
			}
			idxs[kept] = i
			kept++
			if a > keptMax && !math.IsInf(a, 1) {
				keptMax = a
			}
		}
	}
	dst = append(dst, byte(inner))
	dst = binary.AppendUvarint(dst, uint64(k))
	scale := keptMax / 127
	if inner == I8 {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(scale))
	}
	prev := 0
	for j, ix := range idxs {
		if j == 0 {
			dst = binary.AppendUvarint(dst, uint64(ix))
		} else {
			dst = binary.AppendUvarint(dst, uint64(ix-prev))
		}
		prev = ix
	}
	deq := c.deqFloats(k)
	switch inner {
	case F32:
		for j, ix := range idxs {
			x := float32(v[ix])
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(x))
			deq[j] = float64(x)
		}
	case I8:
		for j, ix := range idxs {
			q := quantizeI8(v[ix], scale)
			dst = append(dst, byte(q))
			deq[j] = float64(q) * scale
		}
	case BF16:
		for j, ix := range idxs {
			h := tensor.BF16FromF32(float32(v[ix]))
			dst = binary.LittleEndian.AppendUint16(dst, h)
			deq[j] = float64(tensor.BF16ToF32(h))
		}
	default:
		for j, ix := range idxs {
			x := v[ix]
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
			deq[j] = x
		}
	}
	if rt != nil {
		for i := range rt {
			rt[i] = 0
		}
		for j, ix := range idxs {
			rt[ix] = deq[j]
		}
	}
	coderPool.Put(c)
	return dst
}

// MarshalSpecInto encodes one vector under the full spec — dense, top-k,
// or delta against ref — appending the frame to dst. v is never mutated.
// When ref is non-nil the call advances it exactly as the receiver's
// DecodeSpec will: a delta frame folds the decoded residual into the
// basis, any other frame re-establishes the basis at this frame's decoded
// value with tag 1.
func MarshalSpecInto(dst []byte, spec Spec, kind uint32, v []float64, ref *DeltaRef) []byte {
	if !spec.Value.Dense() {
		panic(fmt.Sprintf("comm: MarshalSpecInto wants a dense value codec, got %s", spec.Value))
	}
	n := len(v)
	if spec.Delta && ref != nil && ref.Tag != 0 && len(ref.Base) == n && n > 0 {
		c := coderPool.Get().(*coder)
		r := c.floats(n)
		for i := range v {
			r[i] = v[i] - ref.Base[i]
		}
		dst = appendHeader(dst, Delta, kind, n)
		dst = binary.LittleEndian.AppendUint64(dst, ref.Tag)
		if spec.Sparse() {
			dst = append(dst, byte(TopK))
			dst = appendTopK(dst, spec.Value, spec.Frac, r, r)
		} else {
			dst = append(dst, byte(spec.Value))
			dst = appendDense(dst, spec.Value, r)
			roundTripInPlace(spec.Value, r)
		}
		for i := range r {
			ref.Base[i] += r[i]
		}
		ref.Tag++
		coderPool.Put(c)
		return dst
	}
	if spec.Sparse() && n > 0 {
		dst = appendHeader(dst, TopK, kind, n)
		var rt []float64
		if spec.Delta && ref != nil {
			ref.Base = resizeF(ref.Base, n)
			rt = ref.Base
		}
		dst = appendTopK(dst, spec.Value, spec.Frac, v, rt)
		if rt != nil {
			ref.Tag = 1
		}
		return dst
	}
	dst = appendHeader(dst, spec.Value, kind, n)
	dst = appendDense(dst, spec.Value, v)
	if spec.Delta && ref != nil {
		ref.Base = append(ref.Base[:0], v...)
		roundTripInPlace(spec.Value, ref.Base)
		ref.Tag = 1
	}
	return dst
}

// MarshalSpecBound is an upper bound on MarshalSpecInto's frame size for an
// n-element vector, for sizing a message buffer in one allocation.
func MarshalSpecBound(spec Spec, n int) int {
	if spec.Sparse() && n > 0 {
		// A sparse spec never frames a non-empty vector densely: it is a
		// top-k frame, bare or as a delta residual, so the bound is top-k's.
		k := topkCount(spec.Frac, n)
		return headerSize + deltaOverhead + 1 + binary.MaxVarintLen64 + 8 +
			k*(uvarintLen(uint64(n))+elemBytes(spec.Value))
	}
	bound := int(WireSizeAs(spec.Value, n))
	if spec.Delta {
		bound += deltaOverhead
	}
	return bound
}

// FrameInfo parses just the fixed frame header: the codec family, the kind
// tag and the declared element count, touching no payload bytes. Callers
// use it to look up the right DeltaRef before a full DecodeSpec.
func FrameInfo(b []byte) (c Codec, kind uint32, n int, err error) {
	if len(b) < headerSize {
		return 0, 0, 0, fmt.Errorf("comm: frame of %d bytes is shorter than the %d-byte header", len(b), headerSize)
	}
	kind = binary.LittleEndian.Uint32(b)
	word := binary.LittleEndian.Uint64(b[4:])
	c = Codec(word >> 56)
	if !c.Valid() {
		return 0, 0, 0, fmt.Errorf("comm: unknown codec %d", uint8(c))
	}
	return c, kind, int(word & maxLen), nil
}

// DecodeSpec parses any frame family into a dense float64 vector, reusing
// scratch when its capacity suffices. ref carries the slot's delta basis:
// nil rejects delta frames outright (no negotiated basis), and a non-nil
// ref is advanced on every frame exactly as the sender's MarshalSpecInto
// advanced its own — dense and top-k frames re-establish the basis, delta
// frames verify the tag and fold the residual in.
func DecodeSpec(scratch []float64, b []byte, ref *DeltaRef) (kind uint32, v []float64, err error) {
	c, kind, n, err := FrameInfo(b)
	if err != nil {
		return 0, nil, err
	}
	switch {
	case c.Dense():
		if want := WireSizeAs(c, n); int64(len(b)) != want {
			return 0, nil, fmt.Errorf("comm: %s frame of %d elements wants %d bytes, got %d", c, n, want, len(b))
		}
		v = resizeF(scratch, n)
		if err := decodeDense(v, c, b[headerSize:]); err != nil {
			return 0, nil, err
		}
	case c == TopK:
		if v, err = decodeTopKBody(scratch, b[headerSize:], n); err != nil {
			return 0, nil, err
		}
	default: // Delta
		v, err = decodeDelta(scratch, b[headerSize:], n, ref)
		return kind, v, err
	}
	if ref != nil {
		ref.Base = append(ref.Base[:0], v...)
		ref.Tag = 1
	}
	return kind, v, nil
}

// decodeDense fills payload from a dense body whose length the caller has
// already validated against c.payloadBytes(len(payload)).
func decodeDense(payload []float64, c Codec, body []byte) error {
	switch c {
	case F32:
		for i := range payload {
			payload[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:])))
		}
	case I8:
		scale := math.Float64frombits(binary.LittleEndian.Uint64(body))
		if !validScale(scale) {
			return fmt.Errorf("comm: invalid int8 scale %g", scale)
		}
		q := body[8:]
		for i := range payload {
			payload[i] = float64(int8(q[i])) * scale
		}
	case BF16:
		for i := range payload {
			payload[i] = float64(tensor.BF16ToF32(binary.LittleEndian.Uint16(body[2*i:])))
		}
	default:
		for i := range payload {
			payload[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
		}
	}
	return nil
}

// decodeTopKBody parses a top-k body into a dense n-element vector. Every
// validation — inner codec, k range, index monotonicity and bounds, exact
// body length — happens before the n-proportional output is touched, and
// nothing is allocated in proportion to the declared k beyond the bytes
// the body actually carries.
func decodeTopKBody(scratch []float64, body []byte, n int) ([]float64, error) {
	if n > maxSparseLen {
		return nil, fmt.Errorf("comm: top-k frame declares %d elements, cap is %d", n, maxSparseLen)
	}
	if len(body) < 2 {
		return nil, fmt.Errorf("comm: top-k body of %d bytes is truncated", len(body))
	}
	inner := Codec(body[0])
	if !inner.Dense() {
		return nil, fmt.Errorf("comm: top-k inner codec %d is not a dense codec", body[0])
	}
	k64, sz := binary.Uvarint(body[1:])
	if sz <= 0 {
		return nil, fmt.Errorf("comm: top-k kept count is malformed")
	}
	if k64 == 0 || k64 > uint64(n) {
		return nil, fmt.Errorf("comm: top-k keeps %d of %d elements", k64, n)
	}
	k := int(k64)
	rest := body[1+sz:]
	scaleBytes := 0
	if inner == I8 {
		scaleBytes = 8
	}
	eb := elemBytes(inner)
	// Cheap lower bound before parsing anything k-proportional: k indices
	// cost at least a byte each, plus k values and the scale.
	if len(rest) < scaleBytes+k*(1+eb) {
		return nil, fmt.Errorf("comm: top-k body of %d bytes cannot hold %d entries", len(rest), k)
	}
	var scale float64
	if inner == I8 {
		scale = math.Float64frombits(binary.LittleEndian.Uint64(rest))
		if !validScale(scale) {
			return nil, fmt.Errorf("comm: invalid int8 scale %g", scale)
		}
		rest = rest[8:]
	}
	c := coderPool.Get().(*coder)
	defer coderPool.Put(c)
	idxs := c.ints(k)
	prev := 0
	for j := range idxs {
		g, gsz := binary.Uvarint(rest)
		if gsz <= 0 {
			return nil, fmt.Errorf("comm: top-k index %d is malformed", j)
		}
		rest = rest[gsz:]
		if g >= uint64(n) {
			return nil, fmt.Errorf("comm: top-k index %d out of range", j)
		}
		ix := int(g)
		if j > 0 {
			if g == 0 {
				return nil, fmt.Errorf("comm: top-k index stream is non-monotone at entry %d", j)
			}
			ix = prev + int(g)
			if ix >= n {
				return nil, fmt.Errorf("comm: top-k index %d out of range", j)
			}
		}
		idxs[j] = ix
		prev = ix
	}
	if len(rest) != k*eb {
		return nil, fmt.Errorf("comm: top-k values want %d bytes, got %d", k*eb, len(rest))
	}
	out := resizeF(scratch, n)
	for i := range out {
		out[i] = 0
	}
	switch inner {
	case F32:
		for j, ix := range idxs {
			out[ix] = float64(math.Float32frombits(binary.LittleEndian.Uint32(rest[4*j:])))
		}
	case I8:
		for j, ix := range idxs {
			out[ix] = float64(int8(rest[j])) * scale
		}
	case BF16:
		for j, ix := range idxs {
			out[ix] = float64(tensor.BF16ToF32(binary.LittleEndian.Uint16(rest[2*j:])))
		}
	default:
		for j, ix := range idxs {
			out[ix] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*j:]))
		}
	}
	return out, nil
}

// decodeDelta parses a delta body against the slot's basis and advances it.
func decodeDelta(scratch []float64, body []byte, n int, ref *DeltaRef) ([]float64, error) {
	if n > maxSparseLen {
		return nil, fmt.Errorf("comm: delta frame declares %d elements, cap is %d", n, maxSparseLen)
	}
	if len(body) < deltaOverhead {
		return nil, fmt.Errorf("comm: delta body of %d bytes is truncated", len(body))
	}
	tag := binary.LittleEndian.Uint64(body)
	sub := Codec(body[8])
	body = body[deltaOverhead:]
	if ref == nil {
		return nil, fmt.Errorf("comm: delta frame on a slot with no negotiated basis")
	}
	if ref.Tag == 0 || tag != ref.Tag {
		return nil, fmt.Errorf("comm: delta frame tagged %d against basis tag %d", tag, ref.Tag)
	}
	if len(ref.Base) != n {
		return nil, fmt.Errorf("comm: delta frame of %d elements against a %d-element basis", n, len(ref.Base))
	}
	c := coderPool.Get().(*coder)
	defer coderPool.Put(c)
	var r []float64
	var err error
	switch {
	case sub == TopK:
		r, err = decodeTopKBody(c.floats(n), body, n)
	case sub.Dense():
		if int64(len(body)) != sub.payloadBytes(n) {
			err = fmt.Errorf("comm: %s delta residual of %d elements wants %d bytes, got %d", sub, n, sub.payloadBytes(n), len(body))
		} else {
			r = c.floats(n)
			err = decodeDense(r, sub, body)
		}
	default:
		err = fmt.Errorf("comm: delta residual codec %d is not dense or top-k", uint8(sub))
	}
	if err != nil {
		return nil, err
	}
	out := resizeF(scratch, n)
	for i := range out {
		out[i] = ref.Base[i] + r[i]
	}
	ref.Base = append(ref.Base[:0], out...)
	ref.Tag++
	return out, nil
}

// RoundTripSpec passes v through the spec's full framing loss in place —
// after the call v holds exactly what a receiver of MarshalSpecInto's
// frame would decode — and returns the exact frame size in bytes,
// advancing ref the way the encoder does. It is how the in-process
// simulation models every uplink bit-exactly and prices it to the byte: a
// plain dense spec costs WireSizeAs and touches no scratch.
func RoundTripSpec(spec Spec, v []float64, ref *DeltaRef) int64 {
	if !spec.Value.Dense() {
		panic(fmt.Sprintf("comm: RoundTripSpec wants a dense value codec, got %s", spec.Value))
	}
	n := len(v)
	if spec.Delta && ref != nil && ref.Tag != 0 && len(ref.Base) == n && n > 0 {
		c := coderPool.Get().(*coder)
		defer coderPool.Put(c)
		r := c.floats(n)
		for i := range v {
			r[i] = v[i] - ref.Base[i]
		}
		var body int64
		if spec.Sparse() {
			c.buf = appendTopK(c.buf[:0], spec.Value, spec.Frac, r, r)
			body = int64(len(c.buf))
		} else {
			roundTripInPlace(spec.Value, r)
			body = spec.Value.payloadBytes(n)
		}
		for i := range r {
			ref.Base[i] += r[i]
		}
		copy(v, ref.Base)
		ref.Tag++
		return headerSize + deltaOverhead + body
	}
	size := WireSizeAs(spec.Value, n)
	if spec.Sparse() && n > 0 {
		c := coderPool.Get().(*coder)
		c.buf = appendTopK(c.buf[:0], spec.Value, spec.Frac, v, v)
		size = headerSize + int64(len(c.buf))
		coderPool.Put(c)
	} else {
		roundTripInPlace(spec.Value, v)
	}
	if spec.Delta && ref != nil {
		ref.Base = append(ref.Base[:0], v...)
		ref.Tag = 1
	}
	return size
}
