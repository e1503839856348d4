package comm

import (
	"fmt"
	"math"
)

// This file is the frame-selection layer above the raw codecs: a Spec
// describes how one vector crosses the wire (dense element codec, optional
// top-k sparsification, optional delta framing against the last committed
// vector), packs into the 32-bit handshake word the FEDWIRE hello carries,
// and a Selector resolves a per-connection Spec into a per-vector one by
// message kind and size — prototype and soft-prediction payloads stay
// lossless while weight uploads sparsify.

// numValueCodecs bounds the dense element codecs (F64..BF16) — the codecs a
// payload element can be stored at, as opposed to the structural frame
// families (TopK, Delta) that wrap them.
const numValueCodecs = 4

// Dense reports whether c is a dense element codec, valid as the inner
// value encoding of a sparse or delta frame.
func (c Codec) Dense() bool { return c < numValueCodecs }

// fracUnit is the fixed-point denominator top-k fractions are carried at in
// the packed handshake word (16 bits), and the grid NewSpec canonicalizes
// to so both ends of a connection compute identical k for every length.
const fracUnit = 1 << 16

// Spec describes how a vector is framed on the wire. The zero value is
// plain dense float64 — the legacy format byte for byte.
type Spec struct {
	// Value is the dense element codec: the storage of dense payloads,
	// top-k kept values and delta residuals alike.
	Value Codec
	// Frac, in (0, 1), keeps only the ceil(Frac·n) largest-|v| elements in
	// a TOPK frame. Outside (0, 1) the payload stays dense.
	Frac float64
	// Delta frames payloads as the difference against the last vector the
	// receiver decoded on the same slot (DeltaRef), falling back to a
	// dense or top-k basis frame whenever no basis is negotiated.
	Delta bool
}

// NewSpec builds a canonical Spec: frac snaps to the 1/65536 grid the
// handshake word carries (so Pack∘Unpack is the identity and both ends
// derive the same k), and fractions outside (0, 1) select dense framing.
func NewSpec(value Codec, frac float64, delta bool) Spec {
	s := Spec{Value: value, Delta: delta}
	if f := packFrac(frac); f > 0 {
		s.Frac = float64(f) / fracUnit
	}
	return s
}

// packFrac quantizes a fraction to the 16-bit handshake grid: 0 for dense,
// otherwise a value in [1, fracUnit-1].
func packFrac(frac float64) uint32 {
	if !(frac > 0) || frac >= 1 {
		return 0
	}
	f := uint32(math.Round(frac * fracUnit))
	if f < 1 {
		f = 1
	}
	if f > fracUnit-1 {
		f = fracUnit - 1
	}
	return f
}

// Sparse reports whether the spec frames payloads as TOPK.
func (s Spec) Sparse() bool { return s.Frac > 0 && s.Frac < 1 }

// Plain reports whether the spec is pure dense framing — the legacy wire
// path, with WireSizeAs-priced fixed-size frames.
func (s Spec) Plain() bool { return !s.Sparse() && !s.Delta }

// Valid reports whether the spec is canonical and encodable in a handshake
// word: a dense value codec and an on-grid fraction.
func (s Spec) Valid() bool {
	return s.Value.Dense() && s == NewSpec(s.Value, s.Frac, s.Delta)
}

// String names the spec the way the fedsim/fedserver flags spell it.
func (s Spec) String() string {
	out := s.Value.String()
	if s.Sparse() {
		out = fmt.Sprintf("topk%.4g/%s", s.Frac, s.Value)
	}
	if s.Delta {
		out += "+delta"
	}
	return out
}

// Pack encodes the spec into the 32-bit slot the FEDWIRE hello reserves
// for the codec: bits 0–7 the value codec, bit 8 the delta flag, bits
// 16–31 the top-k fraction in 1/65536 units. A plain dense spec packs to
// the bare codec value, so dense handshakes are unchanged from FEDWIRE3.
func (s Spec) Pack() uint32 {
	w := uint32(s.Value) & 0xff
	if s.Delta {
		w |= 1 << 8
	}
	w |= packFrac(s.Frac) << 16
	return w
}

// UnpackSpec decodes a handshake word, rejecting unknown codecs and
// reserved bits so a malformed hello fails the handshake instead of
// negotiating garbage.
func UnpackSpec(w uint32) (Spec, error) {
	value := Codec(w & 0xff)
	if !value.Dense() {
		return Spec{}, fmt.Errorf("comm: handshake word %#x carries unknown value codec %d", w, w&0xff)
	}
	if w&0xfe00 != 0 {
		return Spec{}, fmt.Errorf("comm: handshake word %#x sets reserved bits", w)
	}
	s := Spec{Value: value, Delta: w&(1<<8) != 0, Frac: float64(w>>16) / fracUnit}
	return s, nil
}

// ParseSpec maps the -codec/-topk/-delta flag triple to a canonical Spec.
// The codec name "topk" is shorthand for float32 values at the default 5%
// density; -topk composes with any dense codec name.
func ParseSpec(codec string, topk float64, delta bool) (Spec, error) {
	if topk < 0 || topk >= 1 {
		return Spec{}, fmt.Errorf("comm: top-k fraction %v outside (0, 1) (0 = dense)", topk)
	}
	if codec == "topk" {
		if topk == 0 {
			topk = 0.05
		}
		return NewSpec(F32, topk, delta), nil
	}
	value, err := ParseCodec(codec)
	if err != nil {
		return Spec{}, err
	}
	return NewSpec(value, topk, delta), nil
}

// DeltaRef is one slot's delta-framing basis: the last vector both ends
// agree the receiver decoded, and a tag counting the frames that built it.
// Tag zero means no basis — the next frame establishes one densely (or as
// a top-k basis frame). Every frame on a tracked slot advances the ref on
// both ends symmetrically; a reconnect or churn discards the refs with the
// connection, which is exactly the dense fallback.
type DeltaRef struct {
	Tag  uint64
	Base []float64
}

// DefaultMinSparse is the smallest vector Selector considers for sparse or
// delta framing: below it, index overhead eats the savings and structural
// payloads (per-class prototype rows) must stay exact.
const DefaultMinSparse = 64

// Selector resolves a connection-level Spec into a per-vector Spec by
// message kind and payload size: a vector of at least DefaultMinSparse
// elements whose kind Kinds admits is framed sparse and delta as Spec says;
// every other vector crosses dense at Spec's value codec. A nil Kinds
// admits every kind; fl installs one that admits weight uploads only.
type Selector struct {
	Spec  Spec
	Kinds func(kind uint32) bool
}

// For returns the spec one vector of n elements crosses the wire under.
func (s *Selector) For(kind uint32, n int) Spec {
	out := Spec{Value: s.Spec.Value}
	if n >= DefaultMinSparse && (s.Kinds == nil || s.Kinds(kind)) {
		out.Delta = s.Spec.Delta
		if s.Spec.Sparse() {
			out.Frac = s.Spec.Frac
		}
	}
	return out
}
