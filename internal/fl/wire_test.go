package fl

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"repro/internal/comm"
)

// TestWireMessageRoundTrip pushes a fully loaded message through
// encode/decode and checks every field, including nil vector entries.
func TestWireMessageRoundTrip(t *testing.T) {
	m := &wireMsg{
		kind:   msgUpdate,
		a:      7,
		b:      math.Float64bits(42.5),
		name:   "FedClassAvg",
		ints:   []int64{1, -2, 3},
		counts: []int{0, 9, 0, 4},
		vecs:   bodiesOf([][]float64{{1, 2, 3}, nil, {-0.5}}),
	}
	got, err := decodeMsg(appendMsg(nil, m, plainWire(comm.F64)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.kind != m.kind || got.a != m.a || math.Float64frombits(got.b) != 42.5 || got.name != m.name {
		t.Fatalf("header fields corrupted: %+v", got)
	}
	if len(got.ints) != 3 || got.ints[1] != -2 {
		t.Fatalf("ints corrupted: %v", got.ints)
	}
	if len(got.counts) != 4 || got.counts[1] != 9 || got.counts[3] != 4 {
		t.Fatalf("counts corrupted: %v", got.counts)
	}
	if len(got.vecs) != 3 || !got.vecs[1].Nil() {
		t.Fatalf("vec shape corrupted: %v", got.vecs)
	}
	for i, v := range floatsOf(m.vecs)[0] {
		if floatsOf(got.vecs)[0][i] != v {
			t.Fatalf("vec[0][%d] = %v, want %v", i, floatsOf(got.vecs)[0][i], v)
		}
	}
	if floatsOf(got.vecs)[2][0] != -0.5 {
		t.Fatalf("vec[2] = %v", got.vecs[2])
	}
}

// TestWireMessageQuantizes checks that a lossy codec quantizes payload
// vectors exactly as comm.RoundTripSpec models — the wire IS the codec.
func TestWireMessageQuantizes(t *testing.T) {
	v := []float64{0.123456789, -1.75, 3.0}
	m := &wireMsg{kind: msgDispatch, vecs: bodiesOf([][]float64{append([]float64(nil), v...)})}
	got, err := decodeMsg(appendMsg(nil, m, plainWire(comm.F32)), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), v...)
	comm.RoundTripSpec(comm.Spec{Value: comm.F32}, want, nil)
	for i := range want {
		if floatsOf(got.vecs)[0][i] != want[i] {
			t.Fatalf("f32 wire value[%d] = %v, want quantized %v", i, floatsOf(got.vecs)[0][i], want[i])
		}
	}
}

// TestWireMessageEmpty round-trips the minimal control message.
func TestWireMessageEmpty(t *testing.T) {
	got, err := decodeMsg(appendMsg(nil, &wireMsg{kind: msgStop}, plainWire(comm.F64)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.kind != msgStop || got.name != "" || got.ints != nil || got.vecs != nil {
		t.Fatalf("stop message round trip: %+v", got)
	}
}

// TestWireMessageRejectsCorruption checks truncation, tag mismatches,
// hostile counts and trailing bytes all fail cleanly.
func TestWireMessageRejectsCorruption(t *testing.T) {
	good := appendMsg(nil, &wireMsg{kind: msgUpdate, b: math.Float64bits(1), vecs: bodiesOf([][]float64{{1, 2}})}, plainWire(comm.F64))
	if _, err := decodeMsg(good, nil); err != nil {
		t.Fatal(err)
	}
	// Truncations at every prefix length must error, never panic.
	for cut := 0; cut < len(good); cut++ {
		if _, err := decodeMsg(good[:cut], nil); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", cut)
		}
	}
	// Trailing garbage.
	if _, err := decodeMsg(append(append([]byte(nil), good...), 0xFF), nil); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing bytes: %v", err)
	}
	// A vector tagged with a different message kind (decoder desync).
	evil := &wireMsg{kind: msgDispatch, vecs: bodiesOf([][]float64{{1}})}
	frame := appendMsg(nil, evil, plainWire(comm.F64))
	// Rewrite the outer kind without re-tagging the vec frame.
	frame[0], frame[1] = byte(msgUpdate&0xFF), byte(msgUpdate>>8)
	if _, err := decodeMsg(frame, nil); err == nil || !strings.Contains(err.Error(), "tagged") {
		t.Fatalf("tag mismatch: %v", err)
	}
	// A hostile count field larger than the buffer.
	hostile := appendMsg(nil, &wireMsg{kind: msgJoin}, plainWire(comm.F64))
	for i := 0; i < 8; i++ {
		hostile[4+16+i] = 0xFF // nameLen u64 → absurd
	}
	if _, err := decodeMsg(hostile, nil); err == nil {
		t.Fatal("hostile count must fail")
	}
}

// TestSampleCohortMatchesSimulation checks the extracted sampler consumes
// the simulation's RNG stream identically — the node scheduler's parity
// foundation.
func TestSampleCohortMatchesSimulation(t *testing.T) {
	sim := NewSimulation(bareClients(7), Config{Rounds: 1, SampleRate: 0.5, Seed: 11})
	var fromSim [][]int
	for i := 0; i < 5; i++ {
		fromSim = append(fromSim, append([]int(nil), sim.sampleParticipants()...))
	}
	sim2 := NewSimulation(bareClients(7), Config{Rounds: 1, SampleRate: 0.5, Seed: 11})
	for i := 0; i < 5; i++ {
		got := SampleCohort(sim2.Rng, 7, 0.5)
		if len(got) != len(fromSim[i]) {
			t.Fatalf("draw %d: %v vs %v", i, got, fromSim[i])
		}
		for j := range got {
			if got[j] != fromSim[i][j] {
				t.Fatalf("draw %d: %v vs %v", i, got, fromSim[i])
			}
		}
		for j := 1; j < len(got); j++ {
			if got[j] <= got[j-1] {
				t.Fatalf("cohort not sorted: %v", got)
			}
		}
	}
	if n := len(SampleCohort(sim.Rng, 5, 1)); n != 5 {
		t.Fatalf("full-rate cohort has %d of 5", n)
	}
}

// TestScaleBits checks the float64 bit-pattern slots carry negatives and
// the extremes through a message, NaN payloads aside.
func TestScaleBits(t *testing.T) {
	for _, v := range []float64{0, 1, -3.5, math.MaxFloat64, -math.SmallestNonzeroFloat64} {
		got, err := decodeMsg(appendMsg(nil, &wireMsg{kind: msgEvalRes, b: math.Float64bits(v)}, nil), nil)
		if err != nil || math.Float64frombits(got.b) != v {
			t.Fatalf("bits round trip lost %v (err %v)", v, err)
		}
	}
}

// TestWireMessageBytesPinned pins the bytes of the message envelope: one
// SHA-256 over appendMsg's output for a join, a dispatch, an update and the
// three tree messages under five specs, every set encoded twice through one
// codec so that the second pass frames delta residuals against the first.
// The literal was recorded before the message, checkpoint and client-record
// decoders were merged into one reader; the ledger pins check frame sizes
// only, so this is what says no byte of a message moved.
func TestWireMessageBytesPinned(t *testing.T) {
	specs := []comm.Spec{
		{},
		{Value: comm.I8},
		{Value: comm.BF16},
		comm.NewSpec(comm.F32, 0.05, false),
		comm.NewSpec(comm.I8, 0, true),
	}
	h := sha256.New()
	var buf []byte
	for _, spec := range specs {
		wc := newWireCodec(spec, true)
		for pass := 1; pass <= 2; pass++ {
			s := float64(pass)
			shared := []float64{0.25 * s, -1, 3}
			for _, m := range []*wireMsg{
				{kind: msgJoin, name: "FedClassAvg", ints: []int64{3, 120, 16, 10, 1234, 170},
					counts: []int{2, 0, 7}, vecs: bodiesOf([][]float64{specVec(170, s), nil, {0.5, -1}})},
				{kind: msgDispatch, a: 4, vecs: bodiesOf([][]float64{specVec(200, s), nil})},
				{kind: msgUpdate, a: 4, b: math.Float64bits(0.25 * s), counts: []int{5, 0, 2},
					vecs: bodiesOf([][]float64{specVec(256, 0.5*s), specVec(8, s), nil})},
				treeDispatchMsg(5, []int{2, 3}, payloadsOf([][][]float64{{specVec(96, s)}, {specVec(96, -s), nil}})),
				treeDispatchMsg(5, []int{2, 3, 4}, payloadsOf([][][]float64{{shared}, {shared}, {shared}})),
				treeUpdateMsg(5, []*Update{
					{Client: 2, Scale: 1.5, Vecs: bodiesOf([][]float64{specVec(128, s)}), Counts: []int{1}},
					{Client: 3, Scale: 0.5 * s, Vecs: bodiesOf([][]float64{specVec(128, -s), nil})},
				}),
				aggUpdateMsg(5, &AggUpdate{Children: 2, Weight: 2 * s, Vecs: bodiesOf([][]float64{specVec(128, 2*s), nil}),
					VecWeights: []float64{1.5, 0}, Counts: []int{3}}),
			} {
				buf = appendMsg(buf[:0], m, wc)
				h.Write(buf)
			}
		}
	}
	const want = "5a928eb671f7d36d4e393a699e1842554ab30a57248f2426d221c2a164f998b7"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("message bytes hash to %s, pinned %s", got, want)
	}
}
