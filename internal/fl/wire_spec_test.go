package fl

import (
	"bytes"
	"testing"

	"repro/internal/comm"
)

// specVec builds a deterministic test vector with a wide magnitude spread
// so top-k selection is unambiguous.
func specVec(n int, seed float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = seed * float64((i*7919)%101-50) / 37.0
	}
	return v
}

// TestWireSparseUploadRoundTrip checks that a top-k spec'd connection
// frames msgUpdate vectors exactly as comm.RoundTripSpec models: the
// decoded vector is the sparsified reconstruction, bit for bit.
func TestWireSparseUploadRoundTrip(t *testing.T) {
	spec := comm.NewSpec(comm.F32, 0.25, false)
	enc := newWireCodec(spec, true)
	dec := newWireCodec(spec, true)
	v := specVec(128, 1.5)
	m := &wireMsg{kind: msgUpdate, a: 3, vecs: bodiesOf([][]float64{append([]float64(nil), v...)})}
	got, err := decodeMsg(appendMsg(nil, m, enc), dec)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), v...)
	comm.RoundTripSpec(spec, want, nil)
	zeros := 0
	for i := range want {
		if floatsOf(got.vecs)[0][i] != want[i] {
			t.Fatalf("value[%d] = %v, want sparsified %v", i, floatsOf(got.vecs)[0][i], want[i])
		}
		if want[i] == 0 {
			zeros++
		}
	}
	if zeros < len(want)/2 {
		t.Fatalf("top-k 25%% kept too much: only %d/%d zeros", zeros, len(want))
	}
}

// TestWireSparseOnlyUploadsSparsify pins the framing policy: on a sparse
// spec'd connection, dispatch frames and small update vectors stay dense
// (value codec only) — byte-identical to the plain dense encoding.
func TestWireSparseOnlyUploadsSparsify(t *testing.T) {
	spec := comm.NewSpec(comm.F32, 0.25, true)
	wc := newWireCodec(spec, true)
	dense := plainWire(comm.F32)

	disp := &wireMsg{kind: msgDispatch, vecs: bodiesOf([][]float64{specVec(128, 0.7)})}
	if !bytes.Equal(appendMsg(nil, disp, wc), appendMsg(nil, disp, dense)) {
		t.Fatal("dispatch frame sparsified — only msgUpdate may")
	}
	small := &wireMsg{kind: msgUpdate, vecs: bodiesOf([][]float64{specVec(8, 0.7)})}
	if !bytes.Equal(appendMsg(nil, small, wc), appendMsg(nil, small, dense)) {
		t.Fatal("sub-MinSparse update vector sparsified")
	}
	// A non-lossy algorithm's wireCodec drops sparsity entirely, keeping
	// only the value codec, so prototype uploads stay exact.
	strict := newWireCodec(spec, false)
	up := &wireMsg{kind: msgUpdate, vecs: bodiesOf([][]float64{specVec(128, 0.7)})}
	if !bytes.Equal(appendMsg(nil, up, strict), appendMsg(nil, up, dense)) {
		t.Fatal("non-lossy algorithm's upload was sparsified")
	}
}

// TestWireDeltaLockstepAndResync drives three rounds of delta-framed
// uploads through one connection's encoder/decoder pair, checking each
// decode against the comm.RoundTripSpec model, then simulates a reconnect
// (fresh wireCodecs on both ends, the protocol's dense fallback) and
// checks the new connection re-establishes a basis cleanly.
func TestWireDeltaLockstepAndResync(t *testing.T) {
	spec := comm.NewSpec(comm.I8, 0, true)
	enc := newWireCodec(spec, true)
	dec := newWireCodec(spec, true)
	ref := &comm.DeltaRef{}

	var deltaFrame []byte
	for round := 1; round <= 3; round++ {
		v := specVec(96, float64(round))
		m := &wireMsg{kind: msgUpdate, a: uint64(round), vecs: bodiesOf([][]float64{append([]float64(nil), v...)})}
		frame := appendMsg(nil, m, enc)
		if round == 2 {
			deltaFrame = append([]byte(nil), frame...)
		}
		got, err := decodeMsg(frame, dec)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want := append([]float64(nil), v...)
		comm.RoundTripSpec(spec, want, ref)
		for i := range want {
			if floatsOf(got.vecs)[0][i] != want[i] {
				t.Fatalf("round %d value[%d] = %v, want %v", round, i, floatsOf(got.vecs)[0][i], want[i])
			}
		}
	}

	// A delta frame landing on a connection without its basis (e.g. a
	// stale replay onto a fresh connection) must fail the decode, not
	// silently fold into the wrong basis.
	if _, err := decodeMsg(deltaFrame, newWireCodec(spec, true)); err == nil {
		t.Fatal("delta frame decoded without its basis")
	}
	// And a nil wireCodec (pre-spec decoder) must reject it too.
	if _, err := decodeMsg(deltaFrame, nil); err == nil {
		t.Fatal("delta frame decoded by the plain dense decoder")
	}

	// Reconnect: both ends build fresh codec state; the first frame of the
	// new connection establishes a new basis densely.
	enc2, dec2 := newWireCodec(spec, true), newWireCodec(spec, true)
	ref2 := &comm.DeltaRef{}
	for round := 4; round <= 5; round++ {
		v := specVec(96, float64(round))
		m := &wireMsg{kind: msgUpdate, a: uint64(round), vecs: bodiesOf([][]float64{append([]float64(nil), v...)})}
		got, err := decodeMsg(appendMsg(nil, m, enc2), dec2)
		if err != nil {
			t.Fatalf("post-reconnect round %d: %v", round, err)
		}
		want := append([]float64(nil), v...)
		comm.RoundTripSpec(spec, want, ref2)
		for i := range want {
			if floatsOf(got.vecs)[0][i] != want[i] {
				t.Fatalf("post-reconnect round %d value[%d] = %v, want %v", round, i, floatsOf(got.vecs)[0][i], want[i])
			}
		}
	}
}
