package fl

import (
	"bytes"
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
		{kind: msgJoin, ints: []int64{2, 1200, 64, 10, 5000, 650}, vecs: bodiesOf([][]float64{{0.5, -0.25, 1}})},
		{kind: msgWelcome, ints: []int64{4, 10, 32, 1, int64(-0x7fff3f0011ffffff), 1000, 5000}},
		{kind: msgDispatch, a: 3, vecs: bodiesOf([][]float64{{1, 2, 3}, nil, {-0.125}})},
		{kind: msgUpdate, a: 3, b: math.Float64bits(0.25), counts: []int{7, 0, 2}, vecs: bodiesOf([][]float64{{0.5}, {}})},
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
			counts: []int{1, 1}, vecs: bodiesOf([][]float64{{0.5, -0.25}, {1, 0}})},
		{kind: msgTreeDispatch, a: 3, ints: []int64{2, 3}, counts: []int{2, 1},
			vecs: bodiesOf([][]float64{{1, 2}, nil, {-0.125}})},
		{kind: msgTreeDispatch, a: 3, b: treeShared, ints: []int64{2, 3, 5}, counts: []int{2},
			vecs: bodiesOf([][]float64{{1, 2}, nil})},
		{kind: msgAggUpdate, a: 3, b: math.Float64bits(2.5),
			ints:   []int64{2, int64(math.Float64bits(1.5)), int64(math.Float64bits(1))},
			counts: []int{7, 2}, vecs: bodiesOf([][]float64{{0.5}, {0.25, -1}})},
		{kind: msgTreeUpdate, a: 3,
			ints:   []int64{2, int64(math.Float64bits(0.5)), 1, 2, 3, int64(math.Float64bits(0.25)), 1, 0},
			counts: []int{7, 1}, vecs: bodiesOf([][]float64{{0.5}, {-0.125}})},
	}
}

// FuzzDecodeMsg hardens the envelope decoder: arbitrary bytes must never
// panic or over-allocate, and any frame that decodes must survive an
// encode/decode round trip unchanged (no silent coercion of hostile
// input into a different message). Every vector is a body whose codec and
// count are its frame header's — a dense frame's own, F64 for a decoded
// top-k one — and which re-encodes at its codec to the same bytes. A frame
// of a tree kind then goes through that kind's own decoder, which must
// refuse what it cannot parse, not panic on it.
func FuzzDecodeMsg(f *testing.F) {
	for _, m := range corpusMsgs() {
		for _, c := range []comm.Codec{comm.F64, comm.F32, comm.BF16, comm.I8} {
			f.Add(appendMsg(nil, m, plainWire(c)))
		}
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
		return &wireMsg{kind: msgUpdate, a: 3, vecs: bodiesOf([][]float64{v})}
	}
	f.Add(appendMsg(nil, bigUpdate(1), sparse))
	f.Add(appendMsg(nil, bigUpdate(1), deltaEnc))
	f.Add(appendMsg(nil, bigUpdate(2), deltaEnc))
	// Dense and top-k slots in one upload: a vector under the sparse
	// minimum crosses dense beside a top-k one.
	mixed := bigUpdate(3)
	mixed.vecs = append(mixed.vecs, bodiesOf([][]float64{{0.5, -2, 7}, nil})...)
	f.Add(appendMsg(nil, mixed, sparse))
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
		checkBodies(t, data, m)
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
			if (m.vecs[i].Nil()) != (re.vecs[i].Nil()) || m.vecs[i].Len() != re.vecs[i].Len() {
				t.Fatalf("vector %d shape changed: %v vs %v", i, m.vecs[i], re.vecs[i])
			}
			for j := range floatsOf(m.vecs)[i] {
				if math.Float64bits(floatsOf(m.vecs)[i][j]) != math.Float64bits(floatsOf(re.vecs)[i][j]) {
					t.Fatalf("vector %d[%d]: %v vs %v", i, j, floatsOf(m.vecs)[i][j], floatsOf(re.vecs)[i][j])
				}
			}
		}
	})
}

// checkBodies walks a decoded message's frame again and fails unless every
// vector slot's body has its frame header's codec and count (F64 for a frame
// that decodeMsg decoded) and re-encodes at its own codec to its own bytes.
func checkBodies(t *testing.T, data []byte, m *wireMsg) {
	r := comm.NewReader(data, "")
	r.U32()
	r.U64()
	r.U64()
	r.Take(r.Count(1))
	for i := r.Count(8); i > 0; i-- {
		r.I64()
	}
	for i := r.Count(8); i > 0; i-- {
		r.I64()
	}
	for i := range r.Count(1) {
		b := m.vecs[i]
		if !r.Bool() {
			if !b.Nil() {
				t.Fatalf("vector %d: a body for an absent slot", i)
			}
			continue
		}
		c, _, n, _ := comm.FrameInfo(r.Frame())
		if !c.Dense() {
			c = comm.F64
		}
		if b.Codec() != c || b.Len() != n {
			t.Fatalf("vector %d: %s body of %d, frame header says %s of %d", i, b.Codec(), b.Len(), c, n)
		}
		var back comm.Body
		fr := b.AppendFrame(nil, comm.Spec{Value: c}, m.kind, nil)
		if !back.SetFrame(fr[8:]) || back.Codec() != c || back.Len() != n || !bytes.Equal(back.Bytes(), b.Bytes()) {
			t.Fatalf("vector %d: re-encoding the %s body gives other bytes", i, c)
		}
	}
	if r.Err() != nil {
		t.Fatalf("walking a decoded message: %v", r.Err())
	}
}
