// Package comm simulates the communication fabric of the federated
// deployment (the paper uses MPI across 15 GPU nodes). Payloads are
// serialized with a small binary codec so byte counts are real, and a
// thread-safe ledger records per-round, per-client traffic — the data
// behind the paper's Table 5 communication-cost comparison.
//
// # Wire format
//
// Every frame is
//
//	[kind uint32][word uint64][payload]
//
// in little-endian byte order, where word packs the codec in its top byte
// and the element count n in the low 56 bits. Codec F64 stores payloads as
// raw float64s — such frames are byte-identical to the pre-codec format,
// whose word was a plain count (top byte zero). Codec F32 stores float32s.
// Codec I8 stores one float64 per-tensor scale followed by n int8 values
// quantized as round(v/scale) with scale = maxAbs/127, so the payload costs
// one byte per element instead of eight. Codec BF16 stores bfloat16 values
// (round-to-nearest-even narrowing), two bytes per element — the native wire
// format of bf16-storage fleets.
//
// Above the dense codecs sit two structural frame families (see sparse.go):
// TopK frames carry only the largest-|v| fraction of a vector as
// index/value pairs, and Delta frames carry the difference against the last
// vector committed on the same slot. Both store their elements at one of
// the dense codecs and decode to dense float64 through DecodeSpec; a Spec
// (spec.go) names the full framing of a connection and packs into the
// FEDWIRE handshake.
package comm

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/tensor"
)

// headerSize is the fixed per-message framing overhead: kind tag (4 bytes)
// plus the codec/length word (8 bytes).
const headerSize = 12

// Codec selects the payload element encoding of a frame.
type Codec uint8

// The wire codecs. F64 is the zero value and matches the legacy format.
// F64..BF16 are dense element codecs; TopK and Delta are structural frame
// families that store their elements at one of the dense codecs.
const (
	F64   Codec = iota // 8 bytes/elem, lossless
	F32                // 4 bytes/elem, rounds to nearest float32
	I8                 // 1 byte/elem + 8-byte per-tensor scale
	BF16               // 2 bytes/elem, rounds to nearest bfloat16 (RNE)
	TopK               // sparse index/value frame at an inner dense codec
	Delta              // difference vs the slot's committed basis vector
)

// numCodecs bounds the valid codec range for frame validation.
const numCodecs = 6

// Valid reports whether c is a defined wire codec, for validating codec
// values read off the wire (handshakes, frame headers).
func (c Codec) Valid() bool { return c < numCodecs }

// String names the codec for flags and reports.
func (c Codec) String() string {
	switch c {
	case F64:
		return "f64"
	case F32:
		return "f32"
	case I8:
		return "i8"
	case BF16:
		return "bf16"
	case TopK:
		return "topk"
	case Delta:
		return "delta"
	}
	return fmt.Sprintf("codec(%d)", uint8(c))
}

// ParseCodec maps a flag value ("f64" | "f32" | "i8" | "bf16") to a Codec.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "f64", "float64", "":
		return F64, nil
	case "f32", "float32":
		return F32, nil
	case "i8", "int8":
		return I8, nil
	case "bf16", "bfloat16":
		return BF16, nil
	}
	return F64, fmt.Errorf("comm: unknown codec %q (want f64 | f32 | i8 | bf16)", s)
}

// payloadBytes returns the payload size in bytes for n elements.
func (c Codec) payloadBytes(n int) int64 {
	switch c {
	case F32:
		return 4 * int64(n)
	case I8:
		return 8 + int64(n)
	case BF16:
		return 2 * int64(n)
	default:
		return 8 * int64(n)
	}
}

// WireSizeAs returns the serialized size in bytes of an n-element payload
// under the given codec.
func WireSizeAs(c Codec, n int) int64 { return headerSize + c.payloadBytes(n) }

// maxLen caps the element count encodable in the 56-bit length field.
const maxLen = 1<<56 - 1

// i8Scale returns the per-tensor quantization step maxAbs/127 over the
// finite elements (0 for an empty, all-zero or all-non-finite payload). A
// single overflowed weight must not stretch the grid to infinity and
// NaN-poison every other element.
func i8Scale(payload []float64) float64 {
	var maxAbs float64
	for _, v := range payload {
		if a := math.Abs(v); a > maxAbs && !math.IsInf(a, 1) {
			maxAbs = a
		}
	}
	return maxAbs / 127
}

// quantizeI8 rounds v to the nearest step of scale, clamped to [-127, 127].
// Non-finite values degrade gracefully: NaN encodes as 0, ±Inf saturates.
func quantizeI8(v, scale float64) int8 {
	if scale == 0 || math.IsNaN(v) {
		return 0
	}
	q := math.Round(v / scale)
	if q > 127 {
		q = 127
	} else if q < -127 {
		q = -127
	}
	return int8(q)
}

// validScale rejects scales that would dequantize to non-finite values or
// negative steps, which no MarshalSpecInto-produced frame contains.
func validScale(scale float64) bool {
	return scale >= 0 && !math.IsInf(scale, 0) && !math.IsNaN(scale)
}

// roundTripInPlace passes v through the dense codec's quantization without
// building a frame: after the call, v holds exactly the values a receiver
// would decode. F64 is a no-op; F32 and BF16 round every element to the
// narrower type; I8 snaps every element to its per-tensor int8 grid. It
// allocates nothing, so lossy uplinks can be simulated on the training hot
// path (RoundTripSpec).
func roundTripInPlace(c Codec, v []float64) {
	switch c {
	case F32:
		for i, x := range v {
			v[i] = float64(float32(x))
		}
	case I8:
		scale := i8Scale(v)
		for i, x := range v {
			v[i] = float64(quantizeI8(x, scale)) * scale
		}
	case BF16:
		for i, x := range v {
			v[i] = float64(tensor.BF16ToF32(tensor.BF16FromF32(float32(x))))
		}
	}
}

// RoundTraffic aggregates bytes moved during one communication round.
type RoundTraffic struct {
	Round     int
	UpBytes   int64 // client → server
	DownBytes int64 // server → client
	Messages  int
}

// Ledger is a thread-safe traffic recorder. Bytes are its only currency:
// callers book what crossed (or would cross) the wire — a frame size from
// RoundTripSpec or WireSizeAs in the simulation, the socket's own count in
// node mode — and the ledger never prices anything itself.
type Ledger struct {
	mu      sync.Mutex
	current RoundTraffic
	rounds  []RoundTraffic
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// AddUp logs one client → server message of the given wire size.
func (l *Ledger) AddUp(bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.current.UpBytes += bytes
	l.current.Messages++
}

// AddDown logs one server → client message of the given wire size.
func (l *Ledger) AddDown(bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.current.DownBytes += bytes
	l.current.Messages++
}

// EndRound finalizes the current round's traffic and starts a new one.
func (l *Ledger) EndRound(round int) RoundTraffic {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.current
	t.Round = round
	l.rounds = append(l.rounds, t)
	l.current = RoundTraffic{}
	return t
}

// Rounds returns a copy of the per-round history.
func (l *Ledger) Rounds() []RoundTraffic {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]RoundTraffic(nil), l.rounds...)
}

// TotalUp returns the cumulative client → server bytes (including any
// traffic in the not-yet-finalized round).
func (l *Ledger) TotalUp() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.current.UpBytes
	for _, r := range l.rounds {
		s += r.UpBytes
	}
	return s
}

// TotalDown returns the cumulative server → client bytes.
func (l *Ledger) TotalDown() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.current.DownBytes
	for _, r := range l.rounds {
		s += r.DownBytes
	}
	return s
}

// LedgerState is a serializable snapshot of a Ledger, so checkpointed runs
// resume with continuous traffic accounting.
type LedgerState struct {
	Current RoundTraffic
	Rounds  []RoundTraffic
}

// Snapshot captures the ledger's full state.
func (l *Ledger) Snapshot() LedgerState {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LedgerState{
		Current: l.current,
		Rounds:  append([]RoundTraffic(nil), l.rounds...),
	}
}

// Restore overwrites the ledger with a snapshot captured by Snapshot.
func (l *Ledger) Restore(st LedgerState) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.current = st.Current
	l.rounds = append(l.rounds[:0], st.Rounds...)
}
