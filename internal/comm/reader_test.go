package comm

import (
	"encoding/binary"
	"strings"
	"testing"
)

// A layout written with AppendFrame and words reads back through the
// Reader, and every rejection the Reader makes names its caller's prefix
// and latches: reads after it return zero values and keep the first error.
func TestReader(t *testing.T) {
	b := binary.LittleEndian.AppendUint64(nil, 2) // a count of two words
	b = binary.LittleEndian.AppendUint64(b, 7)
	b = binary.LittleEndian.AppendUint64(b, 1<<63)
	b = AppendFrame(b, Spec{Value: I8}, 3, []float64{1, -0.5}, nil)
	r := NewReader(b, "test")
	if n := r.Count(8); n != 2 || r.U64() != 7 || r.I64() != -1<<63 {
		t.Fatalf("words read back wrong (count %d, err %v)", n, r.Err())
	}
	fb := r.DenseFrame(3)
	if v, c, n := fb.Decode(nil), fb.Codec(), fb.Len(); c != I8 || n != 2 || len(v) != 2 || v[0] != 1 {
		t.Fatalf("frame read back as %s/%d %v (err %v)", c, n, v, r.Err())
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		read func(r *Reader)
		in   []byte
		want string
	}{
		{"truncated word", func(r *Reader) { r.U64() }, b[:7], "test is truncated at byte 0"},
		{"trailing", func(r *Reader) { r.U32() }, b[:13], "test: 1 trailing bytes"},
		{"count past the bytes", func(r *Reader) { r.Count(8) }, b[:16], "count 2 exceeds the 8 remaining bytes"},
		{"frame past the bytes", func(r *Reader) { r.Frame() }, binary.LittleEndian.AppendUint64(nil, 1<<62), "truncated"},
		{"kind", func(r *Reader) { r.DenseFrame(4) }, b[24:], "frame of kind 3 where 4 belongs"},
		{"sparse", func(r *Reader) { r.DenseFrame(3) },
			AppendFrame(nil, NewSpec(F32, 0.5, false), 3, make([]float64, 96), nil), "dense frames only"},
		{"short dense", func(r *Reader) { r.DenseFrame(3) },
			binary.LittleEndian.AppendUint64(nil, uint64(12)), "truncated"},
		{"no header", func(r *Reader) { r.DenseFrame(3) },
			append(binary.LittleEndian.AppendUint64(nil, 2), 3, 0), "shorter than the 12-byte header"},
	} {
		r := NewReader(tc.in, "test")
		tc.read(&r)
		r.U64() // reads after a failure return zero and keep the first error
		if err := r.End(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}

	// A dense frame whose header claims more values than it carries is
	// rejected before Decode would size a vector from the claim.
	huge := AppendFrame(nil, Spec{}, 3, []float64{1}, nil)
	binary.LittleEndian.PutUint64(huge[8+4:], uint64(F64)<<56|1<<40)
	r = NewReader(huge, "test")
	if fb = r.DenseFrame(3); !fb.Nil() || r.Err() == nil || !strings.Contains(r.Err().Error(), "claiming 1099511627776 values") {
		t.Fatalf("forged dense frame decoded %d values (err %v)", fb.Len(), r.Err())
	}
}
