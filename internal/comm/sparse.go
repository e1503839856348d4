package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"unsafe"

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
// DESIGN §13 has the selection rules the bytes depend on.

// deltaOverhead is the DELTA frame's body prefix: basis tag + sub codec.
const deltaOverhead = 8 + 1

// maxSparseLen caps the element count a TOPK or DELTA frame may declare.
// Sparse frames are smaller than their decoded vector by design, so the
// count cannot be bounded by the buffer length the way dense frames are;
// this cap bounds what a hostile header can make the decoder allocate.
const maxSparseLen = 1 << 22

// radixBits is the digit width of the top-k radix select, and radixTop the
// shift of its first digit: a key has 63 significant bits, so the first
// digit is the exponent and the leading mantissa bit.
const (
	radixBits = 12
	radixTop  = 63 - radixBits
)

// digitHist counts keys by one radix digit. Over a long input the keys are
// counted in four lanes by position and the lanes summed, so that a run of
// equal digits — an all-zero residual is the common case — is four chains of
// dependent increments in flight, not one; a short input would only pay for
// clearing and summing the other three. (32-bit counts: a vector of 2³²
// elements is 32 GiB.)
type digitHist struct {
	lane [4][1 << radixBits]uint32
	mask int // lanes in use, less one
}

// reset clears h for counting n keys and returns the lane mask to add them
// with. The counting loops hold it in a register: h.mask is 64 KiB from the
// first counter, and a load of it after each increment would alias that
// counter's store in the low address bits.
func (h *digitHist) reset(n int) (mask int) {
	if n >= 1<<14 {
		mask = len(h.lane) - 1
	}
	for l := 0; l <= mask; l++ {
		h.lane[l] = [1 << radixBits]uint32{}
	}
	h.mask = mask
	return mask
}

// add counts the key at position i, whose digit is d. (The constant masks
// repeat what mask and the digit's width already bound, for the compiler.)
func (h *digitHist) add(mask, i int, d uint64) { h.lane[i&mask&3][d&(1<<radixBits-1)]++ }

// sum returns the counts per digit.
func (h *digitHist) sum() *[1 << radixBits]uint32 {
	if h.mask != 0 {
		for d := range h.lane[0] {
			h.lane[0][d] += h.lane[1][d] + h.lane[2][d] + h.lane[3][d]
		}
	}
	return &h.lane[0]
}

// count resets h to cand counted by the digit at shift and reports whether
// every key in cand is the same.
func (h *digitHist) count(cand []uint64, shift uint) bool {
	mask := h.reset(len(cand))
	and, or := ^uint64(0), uint64(0)
	for i, key := range cand {
		and, or = and&key, or|key
		h.add(mask, i, key>>(shift&63))
	}
	return and == or
}

// coder is the pooled scratch a single marshal or decode call borrows:
// selection keys and their digit histogram, kept indices and dequantized
// values, dense residuals and byte staging. Steady state, every slice has
// grown to working size and the codec paths allocate nothing.
type coder struct {
	f64  []float64
	keys []uint64
	hist digitHist
	deq  []float64
	idx  []int
	buf  []byte
}

var coderPool = sync.Pool{New: func() any { return new(coder) }}

func (c *coder) floats(n int) []float64 {
	if cap(c.f64) < n {
		c.f64 = make([]float64, n)
	}
	return c.f64[:n]
}

// resize sizes the kept-index and kept-value scratch for k entries.
func (c *coder) resize(k int) {
	if cap(c.idx) < k {
		c.idx = make([]int, k)
		c.deq = make([]float64, k)
	}
	c.idx, c.deq = c.idx[:k], c.deq[:k]
}

// fold advances base by the kept values: base[idx[j]] += deq[j], leaving
// each sum in deq. Sender, receiver and model all advance through this one
// loop, so their bases agree to the bit whatever the operands.
func (c *coder) fold(base []float64) {
	for j, ix := range c.idx {
		s := base[ix] + c.deq[j]
		base[ix], c.deq[j] = s, s
	}
}

// scatter makes out the dense vector a receiver of the kept entries decodes:
// zero everywhere but out[idx[j]] = deq[j].
func (c *coder) scatter(out []float64) {
	clear(out)
	for j, ix := range c.idx {
		out[ix] = c.deq[j]
	}
}

// resizeF returns scratch resized to n elements — the decode-side analogue
// of append-style encoding — or, when its capacity is short, exactly n
// elements of tensor pool storage (tensor.GetStorage), which the caller may
// hand back with tensor.PutStorage. A decode calls it only once the frame's
// declared length has passed its checks, so a count the frame cannot back
// takes no storage.
func resizeF(scratch []float64, n int) []float64 {
	if cap(scratch) >= n && (n > 0 || scratch != nil) {
		return scratch[:n]
	}
	return tensor.GetStorage[float64](n)
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
		if hostLittleEndian {
			return append(dst, f64Bytes(payload)...)
		}
		for _, v := range payload {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// hostLittleEndian is nativeLittleEndian for the dense codec's paths, a
// variable so that a test can take the portable loop on a little-endian
// host: with it set, a dense F64 body is one copy.
var hostLittleEndian = nativeLittleEndian

// f64Bytes views v's memory as bytes. The view goes that way round, never
// bytes as floats, so a frame at any alignment can be its other side.
func f64Bytes(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
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

// infBits is the bit pattern of +Inf, the largest magnitude that is a number.
const infBits = 0x7ff << 52

// magKey is the selection key of x: the bit pattern of |x| plus one, and zero
// for NaN. Integer order on keys is the order of magnitudes with +Inf on top
// and NaN below every number, so a NaN element is kept only when nothing
// else is left to keep.
func magKey(x float64) uint64 {
	b := math.Float64bits(x) &^ (1 << 63)
	if b > infBits {
		return 0
	}
	return b + 1
}

// selectTopK returns the k-th largest selection key of r = v − base (r = v
// when base is nil) and how many elements holding exactly that key are among
// the k largest. It is a radix select: one pass derives every key and counts
// its leading digit, then the bucket holding the k-th key is narrowed one
// digit at a time over its own members only, compacted to the front of the
// key scratch, until they all hold one key. The last digit overlaps the one
// before it; at most six digits cover a key, so the work is linear in n for
// any input.
func (c *coder) selectTopK(v, base []float64, k int) (kth uint64, ties int) {
	if cap(c.keys) < len(v) {
		c.keys = make([]uint64, len(v))
	}
	cand := c.keys[:len(v)]
	mask := c.hist.reset(len(v))
	if base == nil {
		for i, x := range v {
			key := magKey(x)
			cand[i] = key
			c.hist.add(mask, i, key>>radixTop)
		}
	} else {
		base = base[:len(v)]
		for i, x := range v {
			key := magKey(x - base[i])
			cand[i] = key
			c.hist.add(mask, i, key>>radixTop)
		}
	}
	// Candidates share every key bit above the current digit, high; c.hist
	// counts them by that digit, and need of them are among the k largest.
	shift, high, need := uint(radixTop), uint64(0), k
	for {
		hist := c.hist.sum()
		b := len(hist) - 1
		for ; int(hist[b]) < need; b-- {
			need -= int(hist[b])
		}
		prefix := high<<radixBits | uint64(b) // key >> shift across the bucket
		cand = cand[:compactPrefix(cand, shift, prefix)]
		next := shift - min(shift, radixBits)
		if c.hist.count(cand, next) {
			return cand[0], need
		}
		high, shift = prefix>>(next+radixBits-shift), next
	}
}

// compactPrefix moves the keys with key>>shift == prefix to the front of
// cand, in order, and returns how many there are. It writes before it tests
// so the loop carries no branch: a match one time in ten is the worst case
// for a predictor.
func compactPrefix(cand []uint64, shift uint, prefix uint64) int {
	m := 0
	for _, key := range cand {
		cand[m] = key
		if key>>(shift&63) == prefix {
			m++
		}
	}
	return m
}

// keep fills c.idx and c.deq with the k kept indices and their residuals:
// every element whose key is above kth, and the first ties of those holding
// it. An element of base that is not kept is stored as base[i]+0, which is
// what folding a zero residual into it stores: a −0 there becomes +0.
func (c *coder) keep(v, base []float64, k int, kth uint64, ties int) {
	c.resize(k)
	idxs, deq := c.idx, c.deq
	kept := 0
	for i, x := range v {
		var b float64
		if base != nil {
			b = base[i]
			x -= b
		}
		key := magKey(x)
		if key > kth || (key == kth && ties > 0) {
			if key == kth {
				ties--
			}
			idxs[kept], deq[kept] = i, x
			kept++
		} else if s := b + 0; math.Float64bits(s) != math.Float64bits(b) {
			base[i] = s
		}
	}
}

// appendTopK appends the top-k body of r = v − base (r = v when base is nil)
// — [inner u8][k uvarint][scale f64 when inner is I8][indices][values] —
// keeping the k largest-|r| elements with ties broken by index order, and
// leaves the kept indices and the values a receiver decodes for them in
// c.idx and c.deq. Neither v nor the kept entries of base are written.
func (c *coder) appendTopK(dst []byte, inner Codec, frac float64, v, base []float64) []byte {
	k := topkCount(frac, len(v))
	kth, ties := c.selectTopK(v, base, k)
	c.keep(v, base, k, kth, ties)
	deq := c.deq
	dst = append(dst, byte(inner))
	dst = binary.AppendUvarint(dst, uint64(k))
	var scale float64
	if inner == I8 {
		scale = i8Scale(deq)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(scale))
	}
	prev := 0
	for _, ix := range c.idx {
		dst = binary.AppendUvarint(dst, uint64(ix-prev))
		prev = ix
	}
	switch inner {
	case F32:
		for j, r := range deq {
			x := float32(r)
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(x))
			deq[j] = float64(x)
		}
	case I8:
		for j, r := range deq {
			q := quantizeI8(r, scale)
			dst = append(dst, byte(q))
			deq[j] = float64(q) * scale
		}
	case BF16:
		for j, r := range deq {
			h := tensor.BF16FromF32(float32(r))
			dst = binary.LittleEndian.AppendUint16(dst, h)
			deq[j] = float64(tensor.BF16ToF32(h))
		}
	default:
		for _, r := range deq {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r))
		}
	}
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
		dst = appendHeader(dst, Delta, kind, n)
		dst = binary.LittleEndian.AppendUint64(dst, ref.Tag)
		if spec.Sparse() {
			dst = append(dst, byte(TopK))
			dst = c.appendTopK(dst, spec.Value, spec.Frac, v, ref.Base)
			c.fold(ref.Base)
		} else {
			r := c.floats(n)
			for i := range v {
				r[i] = v[i] - ref.Base[i]
			}
			dst = append(dst, byte(spec.Value))
			dst = appendDense(dst, spec.Value, r)
			roundTripInPlace(spec.Value, r)
			for i := range r {
				ref.Base[i] += r[i]
			}
		}
		ref.Tag++
		coderPool.Put(c)
		return dst
	}
	if spec.Sparse() && n > 0 {
		c := coderPool.Get().(*coder)
		dst = appendHeader(dst, TopK, kind, n)
		dst = c.appendTopK(dst, spec.Value, spec.Frac, v, nil)
		if spec.Delta && ref != nil {
			ref.Base = resizeF(ref.Base, n)
			c.scatter(ref.Base)
			ref.Tag = 1
		}
		coderPool.Put(c)
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
// scratch when its capacity suffices and otherwise drawing exact-length
// storage from the tensor pool once the frame's declared length has passed
// its checks. ref carries the slot's delta basis: nil rejects delta frames
// outright (no negotiated basis), and a non-nil ref is advanced on every
// frame exactly as the sender's MarshalSpecInto advanced its own — dense
// and top-k frames re-establish the basis, delta frames verify the tag and
// fold the residual in.
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
		cd := coderPool.Get().(*coder)
		defer coderPool.Put(cd)
		if err := cd.parseTopK(b[headerSize:], n); err != nil {
			return 0, nil, err
		}
		v = resizeF(scratch, n)
		cd.scatter(v)
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
	return decodeDenseAt(payload, c, body, 0)
}

// decodeDenseAt fills payload with elements [off, off+len(payload)) of a
// dense body validated as decodeDense's.
func decodeDenseAt(payload []float64, c Codec, body []byte, off int) error {
	switch c {
	case F32:
		body = body[4*off:]
		for i := range payload {
			payload[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:])))
		}
	case I8:
		scale := math.Float64frombits(binary.LittleEndian.Uint64(body))
		if !validScale(scale) {
			return fmt.Errorf("comm: invalid int8 scale %g", scale)
		}
		q := body[8+off:]
		for i := range payload {
			payload[i] = float64(int8(q[i])) * scale
		}
	case BF16:
		body = body[2*off:]
		for i := range payload {
			payload[i] = float64(tensor.BF16ToF32(binary.LittleEndian.Uint16(body[2*i:])))
		}
	default:
		body = body[8*off:]
		if hostLittleEndian {
			copy(f64Bytes(payload), body)
			break
		}
		for i := range payload {
			payload[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
		}
	}
	return nil
}

// parseTopK parses the top-k body of an n-element vector into c.idx and
// c.deq, the kept indices and their decoded values. Every validation — inner
// codec, k range, index monotonicity and bounds, exact body length — happens
// here, before the caller touches its n-proportional output, and nothing is
// allocated in proportion to the declared k beyond the bytes the body
// actually carries.
func (c *coder) parseTopK(body []byte, n int) error {
	if n > maxSparseLen {
		return fmt.Errorf("comm: top-k frame declares %d elements, cap is %d", n, maxSparseLen)
	}
	if len(body) < 2 {
		return fmt.Errorf("comm: top-k body of %d bytes is truncated", len(body))
	}
	inner := Codec(body[0])
	if !inner.Dense() {
		return fmt.Errorf("comm: top-k inner codec %d is not a dense codec", body[0])
	}
	k64, sz := binary.Uvarint(body[1:])
	if sz <= 0 {
		return fmt.Errorf("comm: top-k kept count is malformed")
	}
	if k64 == 0 || k64 > uint64(n) {
		return fmt.Errorf("comm: top-k keeps %d of %d elements", k64, n)
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
		return fmt.Errorf("comm: top-k body of %d bytes cannot hold %d entries", len(rest), k)
	}
	var scale float64
	if inner == I8 {
		scale = math.Float64frombits(binary.LittleEndian.Uint64(rest))
		if !validScale(scale) {
			return fmt.Errorf("comm: invalid int8 scale %g", scale)
		}
		rest = rest[8:]
	}
	c.resize(k)
	idxs, deq := c.idx, c.deq
	prev := 0
	for j := range idxs {
		g, gsz := binary.Uvarint(rest)
		if gsz <= 0 {
			return fmt.Errorf("comm: top-k index %d is malformed", j)
		}
		rest = rest[gsz:]
		if g >= uint64(n) {
			return fmt.Errorf("comm: top-k index %d out of range", j)
		}
		ix := int(g)
		if j > 0 {
			if g == 0 {
				return fmt.Errorf("comm: top-k index stream is non-monotone at entry %d", j)
			}
			ix = prev + int(g)
			if ix >= n {
				return fmt.Errorf("comm: top-k index %d out of range", j)
			}
		}
		idxs[j] = ix
		prev = ix
	}
	if len(rest) != k*eb {
		return fmt.Errorf("comm: top-k values want %d bytes, got %d", k*eb, len(rest))
	}
	switch inner {
	case F32:
		for j := range deq {
			deq[j] = float64(math.Float32frombits(binary.LittleEndian.Uint32(rest[4*j:])))
		}
	case I8:
		for j := range deq {
			deq[j] = float64(int8(rest[j])) * scale
		}
	case BF16:
		for j := range deq {
			deq[j] = float64(tensor.BF16ToF32(binary.LittleEndian.Uint16(rest[2*j:])))
		}
	default:
		for j := range deq {
			deq[j] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*j:]))
		}
	}
	return nil
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
	switch {
	case sub == TopK:
		if err := c.parseTopK(body, n); err != nil {
			return nil, err
		}
		// A zero residual still folds in: every element is stored as
		// base[i]+0, the kept ones as the sums fold made of them before.
		base, out := ref.Base, resizeF(scratch, n)
		c.fold(base)
		for i, b := range base {
			s := b + 0
			out[i] = s
			if math.Float64bits(s) != math.Float64bits(b) {
				base[i] = s
			}
		}
		for j, ix := range c.idx {
			base[ix], out[ix] = c.deq[j], c.deq[j]
		}
		ref.Tag++
		return out, nil
	case sub.Dense():
		if int64(len(body)) != sub.payloadBytes(n) {
			return nil, fmt.Errorf("comm: %s delta residual of %d elements wants %d bytes, got %d", sub, n, sub.payloadBytes(n), len(body))
		}
		r := c.floats(n)
		if err := decodeDense(r, sub, body); err != nil {
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
	return nil, fmt.Errorf("comm: delta residual codec %d is not dense or top-k", uint8(sub))
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
		var body int64
		if spec.Sparse() {
			c.buf = c.appendTopK(c.buf[:0], spec.Value, spec.Frac, v, ref.Base)
			c.fold(ref.Base)
			body = int64(len(c.buf))
		} else {
			r := c.floats(n)
			for i := range v {
				r[i] = v[i] - ref.Base[i]
			}
			roundTripInPlace(spec.Value, r)
			for i := range r {
				ref.Base[i] += r[i]
			}
			body = spec.Value.payloadBytes(n)
		}
		copy(v, ref.Base)
		ref.Tag++
		return headerSize + deltaOverhead + body
	}
	size := WireSizeAs(spec.Value, n)
	if spec.Sparse() && n > 0 {
		c := coderPool.Get().(*coder)
		c.buf = c.appendTopK(c.buf[:0], spec.Value, spec.Frac, v, nil)
		c.scatter(v)
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
