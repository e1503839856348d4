package comm

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file is the one cursor every byte format above the frame decodes
// through — the node-mode wire message, the checkpoint body and the client
// record — and the one writer of the length-prefixed frames they carry.
//
// # Bounding rule
//
// A decoded length is never trusted past the bytes that could back it:
// Count(elemBytes) rejects a count of more elements than the bytes left
// hold at elemBytes each, and a frame's element count is checked against
// its byte length before anything is decoded into (DenseFrame, DecodeSpec).
// A caller that allocates from a count therefore passes the element's
// smallest encoded size — 8 for a word, 1 for a presence byte — or, where
// the decoded element is larger than that (a vector slot: one byte on the
// wire, a 24-byte slice header decoded), grows its table with the elements
// actually parsed. Either way a hostile count fails cleanly, and what a
// decoder allocates is proportional to the bytes it parsed.

// AppendFrame appends v as a length-prefixed frame, [len u64][frame], the
// frame encoded under spec exactly as MarshalSpecInto encodes it (ref as
// there). It is how every vector of a wire message, a checkpoint and a
// client record is written; a Reader reads it back with Frame.
func AppendFrame(dst []byte, spec Spec, kind uint32, v []float64, ref *DeltaRef) []byte {
	at := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, 0) // patched once the frame is written
	dst = MarshalSpecInto(dst, spec, kind, v, ref)
	binary.LittleEndian.PutUint64(dst[at:], uint64(len(dst)-at-8))
	return dst
}

// Reader walks one encoded message in little-endian order. It latches the
// first error: after a failure every read returns a zero value and Err
// reports the failure, so a decoder reads its layout straight through and
// checks once. Every error it makes names the message by the prefix it was
// built with.
type Reader struct {
	b      []byte
	off    int
	prefix string
	err    error
}

// NewReader returns a Reader over b whose errors begin with prefix.
func NewReader(b []byte, prefix string) Reader { return Reader{b: b, prefix: prefix} }

// Err is the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Failf latches a failure, unless one is latched already.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(r.prefix+": "+format, args...)
	}
}

// Len is the number of bytes not yet read.
func (r *Reader) Len() int { return len(r.b) - r.off }

// End returns the first failure or, when there is none, an error if any
// bytes are left unread.
func (r *Reader) End() error {
	if r.Len() > 0 {
		r.Failf("%d trailing bytes", r.Len())
	}
	return r.err
}

// Take returns the next n bytes, aliasing the input, or nil when fewer are
// left.
func (r *Reader) Take(n int) []byte { return r.take(uint64(n)) }

func (r *Reader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Len()) {
		r.err = fmt.Errorf("%s is truncated at byte %d (want %d more)", r.prefix, r.off, n)
		return nil
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

func (r *Reader) U8() byte {
	if b := r.Take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *Reader) Bool() bool { return r.U8() != 0 }

func (r *Reader) U32() uint32 {
	if b := r.Take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if b := r.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *Reader) I64() int64   { return int64(r.U64()) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Count reads a collection length of elements that encode in at least
// elemBytes bytes each, and fails on one the bytes left cannot hold.
func (r *Reader) Count(elemBytes int) int {
	v := r.U64()
	if v > uint64(r.Len()/elemBytes) {
		r.Failf("count %d exceeds the %d remaining bytes", v, r.Len())
		return 0
	}
	return int(v)
}

// Frame reads one length-prefixed frame, [len u64][frame], aliasing the
// input.
func (r *Reader) Frame() []byte { return r.take(r.U64()) }

// DenseFrame reads one length-prefixed frame that must carry the given kind
// tag, be dense and be exactly as long as its element count says — so the
// count bounds what decoding it allocates — and returns its body, the zero
// Body after a failure.
func (r *Reader) DenseFrame(kind uint32) (b Body) {
	fr := r.Frame()
	if r.err != nil {
		return Body{}
	}
	c, k, n, err := FrameInfo(fr)
	switch {
	case err != nil:
		r.Failf("%v", err)
	case k != kind:
		r.Failf("frame of kind %d where %d belongs", k, kind)
	case !c.Dense():
		r.Failf("%s frame of kind %d where dense frames only belong", c, k)
	case int64(len(fr)) != WireSizeAs(c, n):
		r.Failf("%s frame of %d bytes claiming %d values", c, len(fr), n)
	case !b.SetFrame(fr):
		r.Failf("invalid int8 scale")
	}
	return b
}
