package comm

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestMarshalRoundTrip(t *testing.T) {
	payload := []float64{1.5, -2.25, 0, 1e300}
	b := MarshalSpecInto(nil, Spec{}, 7, payload, nil)
	kind, got, err := DecodeSpec(nil, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if kind != 7 {
		t.Fatalf("kind %d", kind)
	}
	if len(got) != len(payload) {
		t.Fatalf("len %d", len(got))
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("payload[%d] = %v, want %v", i, got[i], payload[i])
		}
	}
}

// Property: round trip preserves arbitrary payloads and the wire size
// matches WireSizeAs exactly.
func TestMarshalProperty(t *testing.T) {
	f := func(kind uint32, seed int64, nRaw uint16) bool {
		n := int(nRaw % 512)
		rng := rand.New(rand.NewSource(seed))
		payload := make([]float64, n)
		for i := range payload {
			payload[i] = rng.NormFloat64()
		}
		b := MarshalSpecInto(nil, Spec{}, kind, payload, nil)
		if int64(len(b)) != WireSizeAs(F64, n) {
			return false
		}
		k2, p2, err := DecodeSpec(nil, b, nil)
		if err != nil || k2 != kind || len(p2) != n {
			return false
		}
		for i := range payload {
			if p2[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	if _, _, err := DecodeSpec(nil, []byte{1, 2}, nil); err == nil {
		t.Fatal("short header must error")
	}
	b := MarshalSpecInto(nil, Spec{}, 1, []float64{1, 2, 3}, nil)
	if _, _, err := DecodeSpec(nil, b[:len(b)-4], nil); err == nil {
		t.Fatal("truncated payload must error")
	}
	if _, _, err := DecodeSpec(nil, append(b, 0), nil); err == nil {
		t.Fatal("trailing bytes must error")
	}
}

func TestLedgerAccounting(t *testing.T) {
	l := NewLedger()
	l.AddUp(100)
	l.AddUp(50)
	l.AddDown(10)
	tr := l.EndRound(1)
	if tr.Round != 1 || tr.Messages != 3 {
		t.Fatalf("round traffic %+v", tr)
	}
	if tr.UpBytes != 150 {
		t.Fatalf("up bytes %d", tr.UpBytes)
	}
	if tr.DownBytes != 10 {
		t.Fatalf("down bytes %d", tr.DownBytes)
	}
	// Second round starts clean.
	l.AddUp(1)
	tr2 := l.EndRound(2)
	if tr2.UpBytes != 1 {
		t.Fatalf("round 2 up bytes %d", tr2.UpBytes)
	}
	if got := len(l.Rounds()); got != 2 {
		t.Fatalf("rounds %d", got)
	}
	// The totals count the open round too.
	l.AddUp(7)
	l.AddDown(3)
	if l.TotalUp() != 158 {
		t.Fatalf("total up %d", l.TotalUp())
	}
	if l.TotalDown() != 13 {
		t.Fatalf("total down %d", l.TotalDown())
	}
	// Snapshot/Restore carries the round history and the open round.
	l2 := NewLedger()
	l2.Restore(l.Snapshot())
	if l2.TotalUp() != 158 || l2.TotalDown() != 13 || len(l2.Rounds()) != 2 {
		t.Fatalf("restored ledger %+v", l2.Snapshot())
	}
	if tr3 := l2.EndRound(3); tr3.UpBytes != 7 || tr3.DownBytes != 3 || tr3.Messages != 2 {
		t.Fatalf("restored open round %+v", tr3)
	}
}

func TestLedgerConcurrentSafety(t *testing.T) {
	l := NewLedger()
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func() {
			for i := 0; i < 100; i++ {
				l.AddUp(10)
				l.AddDown(5)
			}
			done <- struct{}{}
		}()
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	tr := l.EndRound(1)
	if tr.Messages != 1600 {
		t.Fatalf("messages %d, want 1600", tr.Messages)
	}
	if tr.UpBytes != 800*10 {
		t.Fatalf("up bytes %d", tr.UpBytes)
	}
}

// Quantized frames must carry their codec, cost the advertised bytes, and
// dequantize within the codec's error bound.
func TestQuantizedCodecs(t *testing.T) {
	payload := []float64{0, 1.5, -2.25, 0.015625, -127, 126.5, 3.0000001}
	for _, c := range []Codec{F64, F32, I8, BF16} {
		b := MarshalSpecInto(nil, Spec{Value: c}, 9, payload, nil)
		if int64(len(b)) != WireSizeAs(c, len(payload)) {
			t.Fatalf("%s frame is %d bytes, want %d", c, len(b), WireSizeAs(c, len(payload)))
		}
		gotC, _, _, err := FrameInfo(b)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		kind, got, err := DecodeSpec(nil, b, nil)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		if gotC != c || kind != 9 || len(got) != len(payload) {
			t.Fatalf("%s decoded codec %s kind %d len %d", c, gotC, kind, len(got))
		}
		// Error bound: f64 exact, f32/bf16 relative rounding, i8 half a step.
		var maxAbs float64
		for _, v := range payload {
			maxAbs = math.Max(maxAbs, math.Abs(v))
		}
		for i, v := range payload {
			var tol float64
			switch c {
			case F32:
				tol = math.Abs(v) * 1e-7
			case BF16:
				tol = math.Abs(v) / 256
			case I8:
				tol = maxAbs / 127 / 2
			}
			if math.Abs(got[i]-v) > tol {
				t.Fatalf("%s payload[%d] = %v, want %v ± %g", c, i, got[i], v, tol)
			}
		}
	}
}

// The legacy format and the F64 codec must be byte-identical so seed byte
// counts and any stored frames stay valid.
func TestF64MatchesLegacyLayout(t *testing.T) {
	payload := []float64{1, -2, 3.5}
	b := MarshalSpecInto(nil, Spec{}, 7, payload, nil)
	if len(b) != 12+3*8 {
		t.Fatalf("frame %d bytes, want %d", len(b), 12+3*8)
	}
	// Header: kind u32 LE, then count u64 LE with a zero codec byte.
	want := []byte{7, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0}
	for i, v := range want {
		if b[i] != v {
			t.Fatalf("header byte %d = %#x, want %#x", i, b[i], v)
		}
	}
	if got := math.Float64frombits(binary.LittleEndian.Uint64(b[12:])); got != 1 {
		t.Fatalf("first element %v", got)
	}
}

// A dense F64 body is one copy on a little-endian host and a loop of
// LittleEndian words elsewhere: both write the same bytes and read them
// back bit for bit, from a body at an odd address too.
func TestDenseF64CopyMatchesLoop(t *testing.T) {
	payload := []float64{1, -2, 3.5, math.Copysign(0, -1), math.Inf(1), 0x1p-1074, math.NaN()}
	host := hostLittleEndian
	defer func() { hostLittleEndian = host }()
	var frames [2][]byte
	var got [2][]float64
	for i, le := range []bool{false, host} {
		hostLittleEndian = le
		// One byte of lead-in puts the body off the 8-byte grid.
		frames[i] = appendDense([]byte{0xee}, F64, payload)[1:]
		got[i] = make([]float64, len(payload))
		if err := decodeDense(got[i], F64, frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(frames[0], frames[1]) {
		t.Fatalf("copy wrote % x, loop % x", frames[1], frames[0])
	}
	for i, v := range payload {
		for _, g := range got {
			if math.Float64bits(g[i]) != math.Float64bits(v) {
				t.Fatalf("element %d read back as %x, wrote %x", i, math.Float64bits(g[i]), math.Float64bits(v))
			}
		}
	}
}

// Round-tripping a plain dense spec through RoundTripSpec must agree
// exactly with what a receiver of the marshalled frame would decode, and
// price it at the frame's size.
func TestRoundTripMatchesWire(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []Codec{F64, F32, I8, BF16} {
		payload := make([]float64, 64)
		for i := range payload {
			payload[i] = rng.NormFloat64() * 10
		}
		frame := MarshalSpecInto(nil, Spec{Value: c}, 1, payload, nil)
		_, wire, err := DecodeSpec(nil, frame, nil)
		if err != nil {
			t.Fatal(err)
		}
		if size := RoundTripSpec(Spec{Value: c}, payload, nil); size != int64(len(frame)) {
			t.Fatalf("%s priced at %d bytes, frame is %d", c, size, len(frame))
		}
		for i := range payload {
			if payload[i] != wire[i] {
				t.Fatalf("%s elem %d: in-place %v vs wire %v", c, i, payload[i], wire[i])
			}
		}
	}
}

func TestI8CompressionRatio(t *testing.T) {
	n := 330 // classifier payload of the Small scale: 32·10 + 10
	ratio := float64(WireSizeAs(F64, n)) / float64(WireSizeAs(I8, n))
	if ratio < 7 {
		t.Fatalf("int8 compresses %d floats only %.2fx, want >= 7x", n, ratio)
	}
}

// A non-finite element must not poison the rest of an int8 payload: the
// scale comes from the finite elements, NaN encodes as 0 and ±Inf saturate.
func TestI8NonFiniteSafety(t *testing.T) {
	payload := []float64{1, -2, math.Inf(1), math.NaN(), math.Inf(-1), 0.5}
	_, got, err := DecodeSpec(nil, MarshalSpecInto(nil, Spec{Value: I8}, 1, payload, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	scale := 2.0 / 127
	want := []float64{1, -2, 127 * scale, 0, -127 * scale, 0.5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > scale/2+1e-12 {
			t.Fatalf("elem %d = %v, want ~%v", i, got[i], want[i])
		}
		if math.IsNaN(got[i]) {
			t.Fatalf("elem %d decoded as NaN", i)
		}
	}
	inPlace := append([]float64(nil), payload...)
	RoundTripSpec(Spec{Value: I8}, inPlace, nil)
	for i, v := range inPlace {
		if math.IsNaN(v) {
			t.Fatalf("RoundTripSpec left NaN at %d", i)
		}
		if v != got[i] {
			t.Fatalf("in-place %v differs from wire %v at %d", v, got[i], i)
		}
	}
}

func TestDecodeRejectsCorruptQuantized(t *testing.T) {
	b := MarshalSpecInto(nil, Spec{Value: I8}, 2, []float64{1, -1, 0.5}, nil)
	if _, _, err := DecodeSpec(nil, b[:len(b)-1], nil); err == nil {
		t.Fatal("truncated int8 payload must error")
	}
	// Unknown codec byte.
	bad := append([]byte(nil), b...)
	bad[11] = 0x7f
	if _, _, err := DecodeSpec(nil, bad, nil); err == nil {
		t.Fatal("unknown codec must error")
	}
	// Non-finite scale.
	nan := append([]byte(nil), b...)
	binary.LittleEndian.PutUint64(nan[12:], math.Float64bits(math.NaN()))
	if _, _, err := DecodeSpec(nil, nan, nil); err == nil {
		t.Fatal("NaN scale must error")
	}
}

func TestParseCodec(t *testing.T) {
	for s, want := range map[string]Codec{"f64": F64, "f32": F32, "i8": I8, "": F64} {
		got, err := ParseCodec(s)
		if err != nil || got != want {
			t.Fatalf("ParseCodec(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseCodec("f16"); err == nil {
		t.Fatal("unknown codec string must error")
	}
}

// TestDecodeIntoMatchesDecodeThenSet: decoding a dense frame straight into
// model-dtype storage leaves the bits DecodeSpec followed by
// SetFromFloat64s leaves, for every dense codec into every dtype, across
// the decoder's chunk boundaries; a frame of another length or family is
// refused.
func TestDecodeIntoMatchesDecodeThenSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := make([]float64, 700)
	for i := range v {
		v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
	}
	for _, c := range []Codec{F64, F32, I8, BF16} {
		frame := MarshalSpecInto(nil, Spec{Value: c}, 9, v, nil)
		_, dec, err := DecodeSpec(nil, frame, nil)
		if err != nil {
			t.Fatal(err)
		}
		var b Body
		if !b.SetFrame(frame) {
			t.Fatalf("%s: a dense frame is no body", c)
		}
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32, tensor.BF16} {
			want, got := tensor.NewOf(dt, len(v)), tensor.NewOf(dt, len(v))
			want.SetFromFloat64s(dec)
			if err := b.DecodeInto(got); err != nil {
				t.Fatalf("%s into %s: %v", c, dt, err)
			}
			w, g := want.AppendFloat64s(nil), got.AppendFloat64s(nil)
			for i := range w {
				if math.Float64bits(w[i]) != math.Float64bits(g[i]) {
					t.Fatalf("%s into %s: element %d is %v, want %v", c, dt, i, g[i], w[i])
				}
			}
			if err := b.DecodeInto(tensor.NewOf(dt, len(v)-1)); err == nil {
				t.Fatalf("%s into %s: a frame of another length was decoded", c, dt)
			}
		}
	}
	sparse := MarshalSpecInto(nil, NewSpec(F32, 0.05, false), 9, v, nil)
	if b := (Body{}); b.SetFrame(sparse) {
		t.Fatal("a top-k frame was decoded as dense")
	}
}
