package fl

import (
	"math"
	"testing"

	"repro/internal/comm"
)

// corpusMsgs are well-formed envelopes of every message kind the protocol
// speaks — including the fault-tolerance kinds (heartbeat, resume,
// token-carrying welcome) — used both as fuzz seeds and by the checked-in
// corpus under testdata/fuzz/FuzzDecodeMsg.
func corpusMsgs() []*wireMsg {
	return []*wireMsg{
		{kind: msgJoin, ints: []int64{2, 1200, 64, 10, 5000, 650}, vecs: [][]float64{{0.5, -0.25, 1}}},
		{kind: msgWelcome, ints: []int64{4, 10, 32, 1, int64(-0x7fff3f0011ffffff), 1000, 5000}},
		{kind: msgDispatch, a: 3, vecs: [][]float64{{1, 2, 3}, nil, {-0.125}}},
		{kind: msgUpdate, a: 3, b: math.Float64bits(0.25), counts: []int{7, 0, 2}, vecs: [][]float64{{0.5}, {}}},
		{kind: msgEvalReq, a: 4},
		{kind: msgEvalRes, a: 4, b: math.Float64bits(0.8125)},
		{kind: msgStop},
		{kind: msgErr, name: "client 2: local training diverged"},
		{kind: msgHeartbeat, a: 9},
		{kind: msgResume, a: 6, name: "welcome-back", ints: []int64{4, 10, 32, 1, int64(-0x7fff3f0011ffffff), 1000, 5000}},
		{kind: msgStopAck},
		// Tree-topology kinds: an aggregator joining on behalf of children
		// [2, 4), a batched subtree dispatch in both layouts (a payload per
		// member, one payload shared by every member), a pre-reduced
		// aggregate with per-vector weights, and a passthrough bundle of raw
		// updates.
		{kind: msgTreeJoin, a: 1, name: "FedAvg", ints: []int64{2, 4,
			2, 1200, 64, 10, 5000, 650,
			3, 900, 64, 10, 5000, 650},
			counts: []int{1, 1}, vecs: [][]float64{{0.5, -0.25}, {1, 0}}},
		{kind: msgTreeDispatch, a: 3, ints: []int64{2, 3}, counts: []int{2, 1},
			vecs: [][]float64{{1, 2}, nil, {-0.125}}},
		{kind: msgTreeDispatch, a: 3, b: treeShared, ints: []int64{2, 3, 5}, counts: []int{2},
			vecs: [][]float64{{1, 2}, nil}},
		{kind: msgAggUpdate, a: 3, b: math.Float64bits(2.5),
			ints:   []int64{2, int64(math.Float64bits(1.5)), int64(math.Float64bits(1))},
			counts: []int{7, 2}, vecs: [][]float64{{0.5}, {0.25, -1}}},
		{kind: msgTreeUpdate, a: 3,
			ints:   []int64{2, int64(math.Float64bits(0.5)), 1, 2, 3, int64(math.Float64bits(0.25)), 1, 0},
			counts: []int{7, 1}, vecs: [][]float64{{0.5}, {-0.125}}},
	}
}

// FuzzDecodeMsg hardens the envelope decoder: arbitrary bytes must never
// panic or over-allocate, and any frame that decodes must survive an
// encode/decode round trip unchanged (no silent coercion of hostile
// input into a different message). A frame of a tree kind then goes through
// that kind's own decoder, which must refuse what it cannot parse, not
// panic on it.
func FuzzDecodeMsg(f *testing.F) {
	for _, m := range corpusMsgs() {
		f.Add(appendMsg(nil, m, plainWire(comm.F64)))
		f.Add(appendMsg(nil, m, plainWire(comm.I8)))
	}
	// Sparse and delta framed updates: a top-k upload, a delta basis frame
	// and the delta residual that follows it. The harness decodes with a
	// plain codec, so the delta frames drive the basis-rejection path.
	sparse := newWireCodec(comm.NewSpec(comm.F32, 0.25, false), true)
	deltaEnc := newWireCodec(comm.NewSpec(comm.I8, 0, true), true)
	bigUpdate := func(seed float64) *wireMsg {
		v := make([]float64, 96)
		for i := range v {
			v[i] = seed * float64((i*7919)%101-50) / 37.0
		}
		return &wireMsg{kind: msgUpdate, a: 3, vecs: [][]float64{v}}
	}
	f.Add(appendMsg(nil, bigUpdate(1), sparse))
	f.Add(appendMsg(nil, bigUpdate(1), deltaEnc))
	f.Add(appendMsg(nil, bigUpdate(2), deltaEnc))
	// Malformed seeds steer the fuzzer at the error paths: truncation,
	// trailing bytes, hostile counts.
	f.Add([]byte{})
	f.Add(appendMsg(nil, &wireMsg{kind: msgHeartbeat, a: 1}, plainWire(comm.F64))[:8])
	f.Add(append(appendMsg(nil, &wireMsg{kind: msgStop}, plainWire(comm.F64)), 0xff))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeMsg(data, nil)
		if err != nil {
			return
		}
		switch m.kind {
		case msgTreeJoin:
			decodeTreeJoin(m)
		case msgTreeDispatch:
			decodeTreeDispatch(m)
		case msgAggUpdate:
			decodeAggUpdate(m)
		case msgTreeUpdate:
			decodeTreeUpdate(m)
		}
		// A decoded message re-encodes canonically (f64 frames are exact)
		// and decodes back to the same message.
		re, err := decodeMsg(appendMsg(nil, m, plainWire(comm.F64)), nil)
		if err != nil {
			t.Fatalf("re-decoding a decoded message: %v", err)
		}
		if re.kind != m.kind || re.a != m.a || re.b != m.b || re.name != m.name {
			t.Fatalf("round trip changed the envelope: %+v vs %+v", m, re)
		}
		if len(re.ints) != len(m.ints) || len(re.counts) != len(m.counts) || len(re.vecs) != len(m.vecs) {
			t.Fatalf("round trip changed collection sizes: %+v vs %+v", m, re)
		}
		for i := range m.ints {
			if re.ints[i] != m.ints[i] {
				t.Fatalf("int %d: %d vs %d", i, m.ints[i], re.ints[i])
			}
		}
		for i := range m.counts {
			if re.counts[i] != m.counts[i] {
				t.Fatalf("count %d: %d vs %d", i, m.counts[i], re.counts[i])
			}
		}
		for i := range m.vecs {
			if (m.vecs[i] == nil) != (re.vecs[i] == nil) || len(m.vecs[i]) != len(re.vecs[i]) {
				t.Fatalf("vector %d shape changed: %v vs %v", i, m.vecs[i], re.vecs[i])
			}
			for j := range m.vecs[i] {
				if math.Float64bits(m.vecs[i][j]) != math.Float64bits(re.vecs[i][j]) {
					t.Fatalf("vector %d[%d]: %v vs %v", i, j, m.vecs[i][j], re.vecs[i][j])
				}
			}
		}
	})
}
