package fl

import (
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
		b:      f64bits(42.5),
		name:   "FedClassAvg",
		ints:   []int64{1, -2, 3},
		counts: []int{0, 9, 0, 4},
		vecs:   [][]float64{{1, 2, 3}, nil, {-0.5}},
	}
	got, err := decodeMsg(encodeMsg(m, plainWire(comm.F64)))
	if err != nil {
		t.Fatal(err)
	}
	if got.kind != m.kind || got.a != m.a || bitsF64(got.b) != 42.5 || got.name != m.name {
		t.Fatalf("header fields corrupted: %+v", got)
	}
	if len(got.ints) != 3 || got.ints[1] != -2 {
		t.Fatalf("ints corrupted: %v", got.ints)
	}
	if len(got.counts) != 4 || got.counts[1] != 9 || got.counts[3] != 4 {
		t.Fatalf("counts corrupted: %v", got.counts)
	}
	if len(got.vecs) != 3 || got.vecs[1] != nil {
		t.Fatalf("vec shape corrupted: %v", got.vecs)
	}
	for i, v := range m.vecs[0] {
		if got.vecs[0][i] != v {
			t.Fatalf("vec[0][%d] = %v, want %v", i, got.vecs[0][i], v)
		}
	}
	if got.vecs[2][0] != -0.5 {
		t.Fatalf("vec[2] = %v", got.vecs[2])
	}
}

// TestWireMessageQuantizes checks that a lossy codec quantizes payload
// vectors exactly as comm.RoundTripSpec models — the wire IS the codec.
func TestWireMessageQuantizes(t *testing.T) {
	v := []float64{0.123456789, -1.75, 3.0}
	m := &wireMsg{kind: msgDispatch, vecs: [][]float64{append([]float64(nil), v...)}}
	got, err := decodeMsg(encodeMsg(m, plainWire(comm.F32)))
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), v...)
	comm.RoundTripSpec(comm.Spec{Value: comm.F32}, want, nil)
	for i := range want {
		if got.vecs[0][i] != want[i] {
			t.Fatalf("f32 wire value[%d] = %v, want quantized %v", i, got.vecs[0][i], want[i])
		}
	}
}

// TestWireMessageEmpty round-trips the minimal control message.
func TestWireMessageEmpty(t *testing.T) {
	got, err := decodeMsg(encodeMsg(&wireMsg{kind: msgStop}, plainWire(comm.F64)))
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
	good := encodeMsg(&wireMsg{kind: msgUpdate, b: f64bits(1), vecs: [][]float64{{1, 2}}}, plainWire(comm.F64))
	if _, err := decodeMsg(good); err != nil {
		t.Fatal(err)
	}
	// Truncations at every prefix length must error, never panic.
	for cut := 0; cut < len(good); cut++ {
		if _, err := decodeMsg(good[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", cut)
		}
	}
	// Trailing garbage.
	if _, err := decodeMsg(append(append([]byte(nil), good...), 0xFF)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing bytes: %v", err)
	}
	// A vector tagged with a different message kind (decoder desync).
	evil := &wireMsg{kind: msgDispatch, vecs: [][]float64{{1}}}
	frame := encodeMsg(evil, plainWire(comm.F64))
	// Rewrite the outer kind without re-tagging the vec frame.
	frame[0], frame[1] = byte(msgUpdate&0xFF), byte(msgUpdate>>8)
	if _, err := decodeMsg(frame); err == nil || !strings.Contains(err.Error(), "tagged") {
		t.Fatalf("tag mismatch: %v", err)
	}
	// A hostile count field larger than the buffer.
	hostile := encodeMsg(&wireMsg{kind: msgJoin}, plainWire(comm.F64))
	for i := 0; i < 8; i++ {
		hostile[4+16+i] = 0xFF // nameLen u64 → absurd
	}
	if _, err := decodeMsg(hostile); err == nil {
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

// TestScaleBits checks the float64 bit-pattern slots carry negatives, NaN
// payloads aside.
func TestScaleBits(t *testing.T) {
	for _, v := range []float64{0, 1, -3.5, math.MaxFloat64} {
		if bitsF64(f64bits(v)) != v {
			t.Fatalf("bits round trip lost %v", v)
		}
	}
}
