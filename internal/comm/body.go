package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"repro/internal/tensor"
)

// Body is one payload vector as a frame carries it: n elements of a dense
// value codec, laid out as that codec's frame body lays them out (an I8 body
// leads with its scale). It is the one form a payload vector takes on either
// side of the wire: a received dense frame's body is read where it lies, a
// decoded top-k or delta frame is the F64 body over the storage it was
// decoded into, and an in-process vector is the F64 body over its own
// memory (AsF64Body). The zero Body is an absent vector.
type Body struct {
	codec Codec
	n     int
	bytes []byte
}

// AsF64Body returns v as an F64 body: v's own memory on a little-endian
// host, an encoded copy on a big-endian one. A nil v is the absent body.
func AsF64Body(v []float64) Body {
	if !nativeLittleEndian && v != nil {
		return Body{codec: F64, n: len(v), bytes: appendDense(nil, F64, v)}
	}
	return Body{codec: F64, n: len(v), bytes: f64Bytes(v)}
}

// SetFrame makes b the body of frame, read where it lies, when frame is a
// dense frame exactly as long as its declared count says (an I8 frame with a
// valid scale), and reports whether it is. Any other frame — top-k, delta,
// malformed — leaves b as it was: DecodeSpec decodes it or names its fault.
func (b *Body) SetFrame(frame []byte) bool {
	c, _, n, err := FrameInfo(frame)
	if err != nil || !c.Dense() || int64(len(frame)) != WireSizeAs(c, n) {
		return false
	}
	body := frame[headerSize:]
	if c == I8 && !validScale(math.Float64frombits(binary.LittleEndian.Uint64(body))) {
		return false
	}
	*b = Body{codec: c, n: n, bytes: body}
	return true
}

// Nil reports whether b is the absent vector.
func (b Body) Nil() bool { return b.bytes == nil }

// Codec is b's element codec.
func (b Body) Codec() Codec { return b.codec }

// Len is b's element count.
func (b Body) Len() int { return b.n }

// Bytes are b's encoded elements. A fold reads an F64 body's at any
// alignment.
func (b Body) Bytes() []byte { return b.bytes }

// Floats returns b's elements in b's own memory — an F64 body 8-byte
// aligned on a little-endian host, as a decoded or in-process vector's is —
// or nil when b's bytes are not float64s as they lie.
func (b Body) Floats() []float64 {
	if b.codec != F64 || b.n == 0 || !nativeLittleEndian || uintptr(unsafe.Pointer(&b.bytes[0]))%8 != 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b.bytes[0])), b.n)
}

// Decode decodes b into scratch resized to b.Len(), or, when its capacity
// is short, into exactly that much tensor pool storage (resizeF).
func (b Body) Decode(scratch []float64) []float64 {
	v := resizeF(scratch, b.n)
	decodeDenseAt(v, b.codec, b.bytes, 0) // a body's scale was checked when it was made
	return v
}

// DecodeInto decodes b straight into dst, which holds b.Len() elements,
// each value narrowed to dst's dtype as tensor.WriteFloat64sAt narrows it:
// the bits Decode and SetFromFloat64s would leave, with no vector in
// between. An F64 body into F64 storage is one copy.
func (b Body) DecodeInto(dst *tensor.Tensor) error {
	if b.n != dst.Size() {
		return fmt.Errorf("comm: body of %d elements decoded into %d", b.n, dst.Size())
	}
	if b.codec == F64 && dst.DT == tensor.F64 && hostLittleEndian {
		copy(f64Bytes(dst.Data), b.bytes)
		return nil
	}
	var chunk [256]float64
	for off := 0; off < b.n; off += len(chunk) {
		part := chunk[:min(len(chunk), b.n-off)]
		decodeDenseAt(part, b.codec, b.bytes, off)
		dst.WriteFloat64sAt(off, part)
	}
	return nil
}

// AppendFrame appends b as a length-prefixed frame under spec, tagged kind,
// as the package's AppendFrame appends a vector: b's own bytes when spec
// frames it densely at b's codec, otherwise encoded from its elements (ref
// as there), which a body not readable as float64s where it lies is decoded
// into pool scratch for.
func (b Body) AppendFrame(dst []byte, spec Spec, kind uint32, ref *DeltaRef) []byte {
	if spec.Plain() && spec.Value == b.codec {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(headerSize+len(b.bytes)))
		return append(appendHeader(dst, b.codec, kind, b.n), b.bytes...)
	}
	v, scratch := b.Floats(), []float64(nil)
	if v == nil {
		scratch = b.Decode(nil)
		v = scratch
	}
	dst = AppendFrame(dst, spec, kind, v, ref)
	tensor.PutStorage(scratch)
	return dst
}
