package comm

import (
	"math"
	"math/rand"
	"testing"
)

func specVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestSpecPackUnpack(t *testing.T) {
	specs := []Spec{
		{},
		NewSpec(F32, 0, false),
		NewSpec(I8, 0, true),
		NewSpec(F32, 0.05, false),
		NewSpec(I8, 0.25, true),
		NewSpec(BF16, 0.5, false),
		NewSpec(F64, 1.0/fracUnit, true),
	}
	for _, s := range specs {
		if !s.Valid() {
			t.Fatalf("spec %v not canonical", s)
		}
		u, err := UnpackSpec(s.Pack())
		if err != nil {
			t.Fatalf("unpack %v: %v", s, err)
		}
		if u != s {
			t.Fatalf("pack/unpack %v -> %v", s, u)
		}
	}
	// Plain dense specs pack to the bare codec value — dense handshakes are
	// unchanged from the previous wire version.
	if w := NewSpec(I8, 0, false).Pack(); w != uint32(I8) {
		t.Fatalf("plain i8 packs to %#x", w)
	}
	for _, w := range []uint32{uint32(TopK), uint32(Delta), 0xff, 1 << 9, 1 << 15} {
		if _, err := UnpackSpec(w); err == nil {
			t.Fatalf("handshake word %#x must be rejected", w)
		}
	}
}

func TestParseSpec(t *testing.T) {
	if s, err := ParseSpec("topk", 0, false); err != nil || s != NewSpec(F32, 0.05, false) {
		t.Fatalf("topk default: %v, %v", s, err)
	}
	if s, err := ParseSpec("topk", 0.1, true); err != nil || s != NewSpec(F32, 0.1, true) {
		t.Fatalf("topk 0.1 delta: %v, %v", s, err)
	}
	if s, err := ParseSpec("i8", 0, true); err != nil || s != NewSpec(I8, 0, true) {
		t.Fatalf("i8 delta: %v, %v", s, err)
	}
	if s, err := ParseSpec("f64", 0.5, false); err != nil || s != NewSpec(F64, 0.5, false) {
		t.Fatalf("sparse f64: %v, %v", s, err)
	}
	for _, bad := range []struct {
		codec string
		topk  float64
	}{{"nope", 0}, {"f64", 1}, {"f64", -0.5}, {"f64", 2}} {
		if _, err := ParseSpec(bad.codec, bad.topk, false); err == nil {
			t.Fatalf("ParseSpec(%q, %v) must error", bad.codec, bad.topk)
		}
	}
}

func TestSelectorPolicy(t *testing.T) {
	upd := uint32(101)
	sel := &Selector{
		Spec:  NewSpec(F32, 0.05, true),
		Kinds: func(k uint32) bool { return k == upd },
	}
	if got := sel.For(upd, 1000); got != NewSpec(F32, 0.05, true) {
		t.Fatalf("update vector got %v", got)
	}
	// Other kinds (dispatches, prototypes) stay dense at the value codec.
	if got := sel.For(7, 1000); got != NewSpec(F32, 0, false) {
		t.Fatalf("non-update kind got %v", got)
	}
	// Small vectors stay dense whatever the kind.
	if got := sel.For(upd, DefaultMinSparse-1); got != NewSpec(F32, 0, false) {
		t.Fatalf("small vector got %v", got)
	}
	// Nil predicates admit every kind.
	all := &Selector{Spec: NewSpec(I8, 0.5, false)}
	if got := all.For(7, 1000); got != NewSpec(I8, 0.5, false) {
		t.Fatalf("nil-predicate selector got %v", got)
	}
}

// Core property: for every inner codec and fraction, DecodeSpec(encode(v))
// matches RoundTripSpec bit for bit and the reported size is the frame size.
func TestTopKRoundTripMatchesSpec(t *testing.T) {
	for _, inner := range []Codec{F64, F32, I8, BF16} {
		for _, frac := range []float64{0.01, 0.1, 0.5} {
			spec := NewSpec(inner, frac, false)
			v := specVec(257, int64(inner)*100+int64(frac*1000))
			orig := append([]float64(nil), v...)
			b := MarshalSpecInto(nil, spec, 9, v, nil)
			for i := range v {
				if v[i] != orig[i] {
					t.Fatalf("%v: MarshalSpecInto mutated input at %d", spec, i)
				}
			}
			if c, _, n, err := FrameInfo(b); err != nil || c != TopK || n != len(v) {
				t.Fatalf("%v: frame info %v %v %d", spec, err, c, n)
			}
			kind, got, err := DecodeSpec(nil, b, nil)
			if err != nil {
				t.Fatalf("%v: %v", spec, err)
			}
			if kind != 9 || len(got) != len(v) {
				t.Fatalf("%v: kind %d len %d", spec, kind, len(got))
			}
			rt := append([]float64(nil), v...)
			size := RoundTripSpec(spec, rt, nil)
			if size != int64(len(b)) {
				t.Fatalf("%v: RoundTripSpec says %d bytes, frame is %d", spec, size, len(b))
			}
			k := topkCount(spec.Frac, len(v))
			nz := 0
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(rt[i]) {
					t.Fatalf("%v elem %d: decode %v vs round-trip %v", spec, i, got[i], rt[i])
				}
				if got[i] != 0 {
					nz++
				}
			}
			if nz > k {
				t.Fatalf("%v: %d nonzero elements, keeps only %d", spec, nz, k)
			}
			if int64(len(b)) >= WireSizeAs(inner, len(v)) && frac < 0.5 {
				t.Fatalf("%v: sparse frame (%d bytes) not smaller than dense (%d)", spec, len(b), WireSizeAs(inner, len(v)))
			}
		}
	}
}

// The kept set is exactly the k largest magnitudes, ties broken by index.
func TestTopKKeepsLargest(t *testing.T) {
	v := []float64{0, 5, -3, 0.5, 4, -4, 1, -1, 2, 0.25}
	spec := NewSpec(F64, 0.25, false) // k = ceil(0.25*10) = 3
	b := MarshalSpecInto(nil, spec, 1, v, nil)
	_, got, err := DecodeSpec(nil, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 5, 0, 0, 4, -4, 0, 0, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("elem %d = %v, want %v (decoded %v)", i, got[i], want[i], got)
		}
	}
}

// An all-equal vector (ties everywhere) must keep exactly k elements, in
// index order, without the selection degenerating.
func TestTopKAllEqual(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = 1
	}
	spec := NewSpec(F64, 0.01, false)
	_, got, err := DecodeSpec(nil, MarshalSpecInto(nil, spec, 1, v, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		want := 0.0
		if i < 10 {
			want = 1
		}
		if got[i] != want {
			t.Fatalf("elem %d = %v, want %v", i, got[i], want)
		}
	}
}

// A dense-f64 delta stream reproduces every round's vector to within the
// rounding of one subtract-and-add, and the in-process model
// (RoundTripSpec) tracks frame sizes and values bit for bit.
func TestDeltaStreamDenseF64(t *testing.T) {
	spec := NewSpec(F64, 0, true)
	enc, dec, sim := &DeltaRef{}, &DeltaRef{}, &DeltaRef{}
	for round := 0; round < 5; round++ {
		v := specVec(129, int64(round))
		b := MarshalSpecInto(nil, spec, 2, v, enc)
		c, _, _, err := FrameInfo(b)
		if err != nil {
			t.Fatal(err)
		}
		wantC := Delta
		if round == 0 {
			wantC = F64
		}
		if c != wantC {
			t.Fatalf("round %d frame codec %v, want %v", round, c, wantC)
		}
		_, got, err := DecodeSpec(nil, b, dec)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		rt := append([]float64(nil), v...)
		if size := RoundTripSpec(spec, rt, sim); size != int64(len(b)) {
			t.Fatalf("round %d: model %d bytes, wire %d", round, size, len(b))
		}
		for i := range v {
			if math.Abs(got[i]-v[i]) > 1e-9 {
				t.Fatalf("round %d elem %d: %v != %v", round, i, got[i], v[i])
			}
			if math.Float64bits(rt[i]) != math.Float64bits(got[i]) {
				t.Fatalf("round %d elem %d: model %v vs wire %v", round, i, rt[i], got[i])
			}
		}
	}
}

// Lossy delta (top-k residuals at i8) stays bit-exact between the wire
// decode and the in-process model, round after round.
func TestDeltaTopKStreamMatchesModel(t *testing.T) {
	spec := NewSpec(I8, 0.1, true)
	enc, dec, sim := &DeltaRef{}, &DeltaRef{}, &DeltaRef{}
	base := specVec(500, 42)
	for round := 0; round < 6; round++ {
		v := append([]float64(nil), base...)
		noise := specVec(500, int64(100+round))
		for i := range v {
			v[i] += 0.01 * noise[i]
		}
		b := MarshalSpecInto(nil, spec, 3, v, enc)
		_, got, err := DecodeSpec(nil, b, dec)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		rt := append([]float64(nil), v...)
		if size := RoundTripSpec(spec, rt, sim); size != int64(len(b)) {
			t.Fatalf("round %d: model %d bytes, wire %d", round, size, len(b))
		}
		for i := range rt {
			if math.Float64bits(rt[i]) != math.Float64bits(got[i]) {
				t.Fatalf("round %d elem %d: model %v vs wire %v", round, i, rt[i], got[i])
			}
		}
	}
}

// Reconnect fallback: when the encoder loses its basis (fresh ref), it
// re-establishes with a non-delta frame; a decoder still holding the old
// basis resyncs to it and the stream continues equivalently to dense.
func TestDeltaDenseResync(t *testing.T) {
	spec := NewSpec(F64, 0, true)
	enc, dec := &DeltaRef{}, &DeltaRef{}
	v1 := specVec(64, 1)
	if _, _, err := DecodeSpec(nil, MarshalSpecInto(nil, spec, 2, v1, enc), dec); err != nil {
		t.Fatal(err)
	}
	v2 := specVec(64, 2)
	if _, _, err := DecodeSpec(nil, MarshalSpecInto(nil, spec, 2, v2, enc), dec); err != nil {
		t.Fatal(err)
	}
	// Encoder reconnects: fresh ref, old decoder state.
	enc2 := &DeltaRef{}
	v3 := specVec(64, 3)
	b := MarshalSpecInto(nil, spec, 2, v3, enc2)
	if c, _, _, _ := FrameInfo(b); c != F64 {
		t.Fatalf("post-reconnect frame codec %v, want dense", c)
	}
	_, got, err := DecodeSpec(nil, b, dec)
	if err != nil {
		t.Fatalf("dense resync: %v", err)
	}
	if dec.Tag != 1 || enc2.Tag != 1 {
		t.Fatalf("resync tags enc=%d dec=%d, want 1", enc2.Tag, dec.Tag)
	}
	// And delta framing resumes on the new shared basis.
	v4 := specVec(64, 4)
	b4 := MarshalSpecInto(nil, spec, 2, v4, enc2)
	if c, _, _, _ := FrameInfo(b4); c != Delta {
		t.Fatalf("post-resync frame codec %v, want delta", c)
	}
	_, got, err = DecodeSpec(got[:0], b4, dec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v4 {
		if math.Abs(got[i]-v4[i]) > 1e-9 {
			t.Fatalf("elem %d: %v != %v", i, got[i], v4[i])
		}
	}
}

func TestDecodeSpecRejections(t *testing.T) {
	mk := func(n int, body ...byte) []byte {
		return append(appendHeader(nil, TopK, 1, n), body...)
	}
	f64val := make([]byte, 8)
	cases := map[string][]byte{
		"k zero":          mk(4, byte(F64), 0),
		"k over n":        mk(4, byte(F64), 10),
		"empty body":      mk(4),
		"bad inner":       mk(4, byte(TopK), 1),
		"index range":     append(mk(4, byte(F64), 1, 7), f64val...),
		"gap zero":        append(mk(4, byte(F64), 2, 1, 0), append(f64val, f64val...)...),
		"gap overflow":    append(mk(4, byte(F64), 2, 3, 3), append(f64val, f64val...)...),
		"huge n":          mk(maxSparseLen+1, byte(F64), 1, 0),
		"delta in delta":  append(appendHeader(nil, Delta, 1, 4), 1, 0, 0, 0, 0, 0, 0, 0, byte(Delta)),
		"delta truncated": append(appendHeader(nil, Delta, 1, 4), 1, 0),
	}
	good := MarshalSpecInto(nil, NewSpec(F32, 0.25, false), 1, specVec(16, 9), nil)
	cases["truncated values"] = good[:len(good)-1]
	cases["trailing bytes"] = append(append([]byte(nil), good...), 0)
	for name, b := range cases {
		ref := &DeltaRef{Tag: 1, Base: make([]float64, 4)}
		if _, _, err := DecodeSpec(nil, b, ref); err == nil {
			t.Fatalf("%s: frame must be rejected", name)
		}
	}
	// Delta frames need a negotiated basis: nil ref, tag mismatch, and a
	// basis of the wrong length are all protocol errors.
	spec := NewSpec(F64, 0, true)
	enc := &DeltaRef{}
	v := specVec(16, 1)
	MarshalSpecInto(nil, spec, 2, v, enc)
	d := MarshalSpecInto(nil, spec, 2, specVec(16, 2), enc)
	if c, _, _, _ := FrameInfo(d); c != Delta {
		t.Fatalf("second frame codec %v", c)
	}
	if _, _, err := DecodeSpec(nil, d, nil); err == nil {
		t.Fatal("delta without a basis must be rejected")
	}
	if _, _, err := DecodeSpec(nil, d, &DeltaRef{Tag: 7, Base: make([]float64, 16)}); err == nil {
		t.Fatal("delta with a mismatched tag must be rejected")
	}
	if _, _, err := DecodeSpec(nil, d, &DeltaRef{Tag: 1, Base: make([]float64, 8)}); err == nil {
		t.Fatal("delta against a wrong-length basis must be rejected")
	}
	// A duplicated delta frame (replay on the same connection) is a tag
	// mismatch on the second decode, never a silent double-apply.
	enc2, dec := &DeltaRef{}, &DeltaRef{}
	if _, _, err := DecodeSpec(nil, MarshalSpecInto(nil, spec, 2, v, enc2), dec); err != nil {
		t.Fatal(err)
	}
	d2 := MarshalSpecInto(nil, spec, 2, specVec(16, 3), enc2)
	if _, _, err := DecodeSpec(nil, d2, dec); err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeSpec(nil, d2, dec); err == nil {
		t.Fatal("replayed delta frame must be rejected")
	}
}

// A hostile header declaring a huge k must be rejected from the byte-length
// bound alone, before anything k-proportional is allocated.
func TestDecodeSpecHugeKCheap(t *testing.T) {
	b := appendHeader(nil, TopK, 1, maxSparseLen)
	b = append(b, byte(I8))
	b = append(b, 0xff, 0xff, 0xff, 0x01) // k ≈ 4M as uvarint
	b = append(b, make([]byte, 64)...)    // far fewer bytes than k needs
	avg := testing.AllocsPerRun(10, func() {
		if _, _, err := DecodeSpec(nil, b, nil); err == nil {
			t.Fatal("undersized huge-k frame must be rejected")
		}
	})
	limit := 4.0
	if raceEnabled { // the race runtime drops sync.Pool puts, adding re-allocs
		limit = 8
	}
	if avg > limit {
		t.Fatalf("rejecting a huge-k frame allocates %.1f objects/op", avg)
	}
}

// The append-style path composes frames into one caller buffer.
func TestMarshalSpecIntoAppends(t *testing.T) {
	v := specVec(33, 4)
	buf := MarshalSpecInto(nil, Spec{}, 1, v, nil)
	one := len(buf)
	buf = MarshalSpecInto(buf, Spec{Value: I8}, 2, v, nil)
	if _, _, err := DecodeSpec(nil, buf[:one], nil); err != nil {
		t.Fatalf("first frame in shared buffer: %v", err)
	}
	if _, _, err := DecodeSpec(nil, buf[one:], nil); err != nil {
		t.Fatalf("second frame in shared buffer: %v", err)
	}
}

// MarshalSpecBound dominates the real frame size for a spread of shapes.
func TestMarshalSpecBound(t *testing.T) {
	for _, spec := range []Spec{
		{},
		NewSpec(I8, 0, false),
		NewSpec(F32, 0.05, false),
		NewSpec(I8, 0.05, true),
		NewSpec(F64, 0.9, true),
		NewSpec(BF16, 0.33, false),
	} {
		ref := &DeltaRef{}
		for _, n := range []int{0, 1, 7, 64, 257, 4096} {
			v := specVec(n, int64(n))
			b := MarshalSpecInto(nil, spec, 1, v, ref)
			if bound := MarshalSpecBound(spec, n); len(b) > bound {
				t.Fatalf("%v n=%d: frame %d bytes exceeds bound %d", spec, n, len(b), bound)
			}
		}
	}
}
