package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// denseFrame is a plain dense frame of v under c.
func denseFrame(c Codec, kind uint32, v []float64) []byte {
	return MarshalSpecInto(nil, Spec{Value: c}, kind, v, nil)
}

// FuzzUnmarshal drives DecodeSpec with arbitrary frames. Invariants:
//
//   - DecodeSpec never panics, never accepts a vector of the wrong length,
//     and never allocates a dense payload longer than the input could hold
//     (sparse and delta frames are bounded by maxSparseLen instead).
//   - An accepted frame re-encodes losslessly under F64 and byte-identically
//     re-decodes (decoded values are exact wire values for every codec).
//   - An accepted dense frame re-encodes under its own codec into a frame
//     that is accepted too.
//
// The delta basis, when the frame wants one, is synthesized from the header
// so the tag-match path is exercised too.
func FuzzUnmarshal(f *testing.F) {
	// Seed corpus: a well-formed frame per codec, edge payloads, and
	// corruptions of each failure class DecodeSpec must reject.
	seeds := [][]byte{
		denseFrame(F64, 7, []float64{1.5, -2.25, 0, 1e300}),
		denseFrame(F32, 1, []float64{0.5, -0.5, 3.0000001}),
		denseFrame(I8, 2, []float64{1, -1, 0.25, 126.9}),
		denseFrame(F64, 0, nil),
		denseFrame(I8, 9, []float64{0, 0, 0}),
		denseFrame(F32, 3, []float64{math.Inf(1), math.NaN()}),
		{1, 2},             // short header
		make([]byte, 12),   // empty f64 frame
		make([]byte, 1024), // zeroed: declares 0 elements but trails 1012 bytes
	}
	truncated := denseFrame(I8, 4, []float64{3, -3})
	seeds = append(seeds, truncated[:len(truncated)-1])
	badCodec := denseFrame(F64, 5, []float64{1})
	badCodec[11] = 0x42
	seeds = append(seeds, badCodec)
	seeds = append(seeds, sparseSeeds()...)
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		readerAgrees(t, b)
		var ref *DeltaRef
		if len(b) >= headerSize+deltaOverhead {
			word := binary.LittleEndian.Uint64(b[4:])
			if n := int(word & maxLen); Codec(word>>56) == Delta && n <= maxSparseLen {
				ref = &DeltaRef{Tag: binary.LittleEndian.Uint64(b[headerSize:]), Base: make([]float64, n)}
			}
		}
		kind, v, err := DecodeSpec(nil, b, ref)
		if err != nil {
			return
		}
		c, _, n, _ := FrameInfo(b)
		if len(v) != n {
			t.Fatalf("accepted frame decoded %d elements, header declares %d", len(v), n)
		}
		if v == nil {
			t.Fatal("accepted frame decoded a nil vector")
		}
		if c.Dense() && int64(len(b)) != WireSizeAs(c, n) {
			t.Fatalf("accepted %d-byte frame but %s/%d elements costs %d", len(b), c, n, WireSizeAs(c, n))
		}
		// Decoded values are exact wire values: re-encoding losslessly must
		// round-trip bit for bit (NaNs compare by bit pattern).
		kind2, v2, err := DecodeSpec(nil, denseFrame(F64, kind, v), nil)
		if err != nil || kind2 != kind || len(v2) != n {
			t.Fatalf("f64 re-encode failed: %v (kind %d len %d)", err, kind2, len(v2))
		}
		for i := range v {
			if math.Float64bits(v2[i]) != math.Float64bits(v[i]) {
				t.Fatalf("elem %d: %v != %v", i, v2[i], v[i])
			}
		}
		// Re-encoding under the original codec must be accepted too (values
		// may re-quantize, but the frame itself stays well formed).
		if c.Dense() {
			if _, _, err := DecodeSpec(nil, denseFrame(c, kind, v), nil); err != nil {
				t.Fatalf("%s re-encode rejected: %v", c, err)
			}
		}
	})
}

// readerAgrees checks the Reader's dense path against DecodeSpec on one
// frame: read back behind its length, the frame passes DenseFrame and
// Decode exactly when it is a dense frame DecodeSpec accepts, decodes to
// the same bits, and leaves nothing unread.
func readerAgrees(t *testing.T, b []byte) {
	var kind uint32
	if len(b) >= 4 {
		kind = binary.LittleEndian.Uint32(b)
	}
	r := NewReader(append(binary.LittleEndian.AppendUint64(nil, uint64(len(b))), b...), "fuzz")
	got := r.DenseFrame(kind).Decode(nil)
	c, _, _, _ := FrameInfo(b)
	_, want, err := DecodeSpec(nil, b, nil)
	if accepted := r.End() == nil; accepted != (err == nil && c.Dense()) {
		t.Fatalf("reader accepted %v, DecodeSpec error %v on a %s frame", accepted, err, c)
	} else if !accepted {
		return
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("reader decoded elem %d as %v, DecodeSpec as %v", i, got[i], want[i])
		}
	}
}

// sparseSeeds builds well-formed and corrupt TOPK/DELTA frames for the fuzz
// corpus: a frame per inner codec, a short delta stream, and one specimen
// of each rejection class the decoder enforces.
func sparseSeeds() [][]byte {
	vec := make([]float64, 96)
	for i := range vec {
		vec[i] = math.Sin(float64(i)) * float64(i%7)
	}
	var seeds [][]byte
	for _, inner := range []Codec{F64, F32, I8, BF16} {
		seeds = append(seeds, MarshalSpecInto(nil, NewSpec(inner, 0.1, false), 3, vec, nil))
	}
	ref := &DeltaRef{}
	for round := 0; round < 3; round++ {
		seeds = append(seeds, MarshalSpecInto(nil, NewSpec(I8, 0.25, true), 4, vec, ref))
	}
	seeds = append(seeds, MarshalSpecInto(nil, NewSpec(F64, 0, true), 5, vec[:8], &DeltaRef{}))
	val := make([]byte, 8)
	corrupt := [][]byte{
		append(appendHeader(nil, TopK, 1, 4), byte(F64), 10),                         // k > n
		append(appendHeader(nil, TopK, 1, 4), byte(F64), 0),                          // k = 0
		append(append(appendHeader(nil, TopK, 1, 4), byte(F64), 1, 7), val...),       // index out of range
		append(append(appendHeader(nil, TopK, 1, 4), byte(F64), 2, 1, 0), val...),    // non-monotone
		append(appendHeader(nil, TopK, 1, maxSparseLen+1), byte(F64), 1, 0),          // n over cap
		append(appendHeader(nil, Delta, 1, 4), 1, 0, 0, 0, 0, 0, 0, 0, byte(Delta)),  // delta in delta
		append(appendHeader(nil, Delta, 1, 8), 9, 0, 0, 0, 0, 0, 0, 0, byte(F64)),    // delta, no basis
		appendHeader(nil, TopK, 1, 16)[:headerSize],                                  // empty top-k body
		append(appendHeader(nil, TopK, 1, maxSparseLen), byte(I8), 0xff, 0xff, 0x7f), // huge k, tiny body
	}
	return append(seeds, corrupt...)
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus for the new
// frame families. Run with REGEN_FUZZ_CORPUS=1 after changing the grammar.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_CORPUS") == "" {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz seeds")
	}
	names := []string{
		"topk-f64", "topk-f32", "topk-i8", "topk-bf16",
		"delta-basis", "delta-1", "delta-2", "delta-dense",
		"topk-k-over-n", "topk-k-zero", "topk-idx-range", "topk-nonmonotone",
		"topk-n-cap", "delta-in-delta", "delta-no-basis", "topk-empty", "topk-huge-k",
	}
	seeds := sparseSeeds()
	if len(seeds) != len(names) {
		t.Fatalf("%d seeds, %d names", len(seeds), len(names))
	}
	for i, s := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(s)))
		if err := os.WriteFile("testdata/fuzz/FuzzUnmarshal/"+names[i], []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The encoder's target: a seed per input class, the value codec rotating.
	for class, c := range topkClasses {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\nuint16(6554)\nuint8(%d)\n", strconv.Quote(string(fuzzSeed(class))), class)
		name := strings.ReplaceAll(c.name, " ", "-")
		if err := os.WriteFile("testdata/fuzz/FuzzTopKEncode/"+name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
