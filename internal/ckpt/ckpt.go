// Package ckpt serializes fl.Snapshot federation checkpoints to a
// versioned binary format and back, so long sweeps survive process death:
// run-to-round-R, kill, resume is byte-identical in metrics and scheduler
// trace to an uninterrupted run at the same seed (under the lossless f64
// codec).
//
// # File format (version 8)
//
// A checkpoint file is
//
//	[8]  magic "FEDCKPT1"
//	[4]  format version (uint32, little-endian)
//	[4]  bulk payload codec (uint32: comm.F64 | comm.F32 | comm.I8 | comm.BF16)
//	[4]  model dtype (uint32: tensor.F64 | tensor.F32) — version 2
//	[..] body
//
// The model dtype records the element type the run trained in; resuming
// into a fleet of a different dtype is rejected cleanly at restore (the
// flat vectors themselves are dtype-agnostic float64 bookkeeping, but the
// continued trajectory would not match the checkpointed one). Version 1
// files (without the dtype word) predate the dtype-generic numeric core
// and are no longer readable; the version check fails with a clear error.
//
// The body is a fixed traversal of the snapshot. Scalars are little-endian
// 64-bit words (float64 as IEEE bits); booleans are single bytes. Every
// float vector is stored as one internal/comm wire frame — the same
// [kind][codec|n][payload] framing the federation's uplinks use — preceded
// by a presence byte (nil vectors are first-class: FedProto prototypes) and
// the frame's byte length. Bulk state (model parameters, optimizer moments,
// in-flight payloads, algorithm vectors) is framed with the codec from the
// header, so checkpoints can be quantized to float32, bfloat16 or int8 for a
// 2-8× size cut; bookkeeping vectors (virtual clock state, metrics history,
// ledger) always use the lossless f64 codec. Quantized checkpoints restore
// and continue fine but forfeit the byte-identical replay contract, exactly
// as a quantized uplink forfeits lossless aggregation.
//
// The client section is [#clients u64], then per client [id u64][record
// length u64][fl.ClientRecord at the bulk codec], whose fields fl reads.
//
// The body decodes through comm.Reader, as wire messages and client records
// do; its bounding rule (internal/comm reader.go, DESIGN §8 "One reader")
// makes a corrupt or hostile count an error, never an allocation of the
// size it claims.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/fl"
	"repro/internal/tensor"
)

// magic guards against feeding arbitrary files to Unmarshal; the trailing
// byte is the format generation.
const magic = "FEDCKPT1"

// Version is the current checkpoint format version. Version 2 added the
// model-dtype header word; version 3 the node-mode session table and join
// declarations (a ServerNode checkpoint has no client states — client
// models live in other processes — but must preserve the identities it
// issued and the fleet geometry it built its state from); version 4 the
// evaluation RNG stream, the explicit fleet size (a lazy-fleet checkpoint
// holds only the clients that were ever materialized — the builder
// reproduces the untouched rest) and the per-round evaluation sample ids;
// version 5 stores an in-flight update's exact upload frame bytes where
// version 4 stored an element count (which re-priced sparse uploads densely
// on resume) and drops the ledger's codec word — the ledger books bytes and
// has no codec; version 6 stores each client as its client-store record;
// version 7 drops the server accumulators from the algorithm section — a
// checkpoint is taken at a commit boundary, where they are empty, and their
// per-shard weights made the file depend on the worker count; version 8
// drops the ledger's per-client byte totals — the ledger keeps only its
// round history, whose sums are the run's totals.
const Version = 8

// frame tags label the comm frames inside a checkpoint, one per field, so
// a decoder desync surfaces as a tag mismatch instead of silent garbage.
const (
	tagNodeFree uint32 = iota + 1
	tagAway
	tagFlightVec
	tagPerClient
	tagAlgoVec
	tagJoinInit
)

// Marshal serializes a snapshot, framing bulk payloads with the given
// dense codec.
func Marshal(snap *fl.Snapshot, codec comm.Codec) ([]byte, error) {
	if !codec.Dense() {
		return nil, fmt.Errorf("ckpt: bulk codec %s is not a dense codec (want f64 | f32 | i8 | bf16)", codec)
	}
	e := &encoder{codec: codec}
	e.buf = append(e.buf, magic...)
	e.u32(Version)
	e.u32(uint32(codec))
	e.u32(uint32(snap.DType))

	e.u64(uint64(snap.Kind))
	e.u64(uint64(snap.Round))
	e.f64(snap.Now)
	e.u64(uint64(snap.Seq))
	e.u64(uint64(snap.Applied))
	e.u64(snap.Rng)
	e.u64(snap.EvalRng)
	e.u64(uint64(snap.FleetSize))
	e.vec(tagNodeFree, comm.AsF64Body(snap.NodeFree), true)
	e.u64(uint64(len(snap.Idle)))
	for _, ok := range snap.Idle {
		e.bool(ok)
	}
	e.vec(tagAway, comm.AsF64Body(snap.Away), true)

	e.u64(uint64(len(snap.Flights)))
	for i := range snap.Flights {
		f := &snap.Flights[i]
		if f.Update == nil {
			return nil, fmt.Errorf("ckpt: flight %d has no update", i)
		}
		e.u64(uint64(f.Client))
		e.u64(uint64(f.Version))
		e.u64(uint64(f.Seq))
		e.f64(f.VTime)
		u := f.Update
		e.f64(u.Scale)
		e.i64(u.UpBytes)
		e.bool(u.Vecs != nil)
		if u.Vecs != nil {
			e.u64(uint64(len(u.Vecs)))
			for _, v := range u.Vecs {
				e.vec(tagFlightVec, v, false)
			}
		}
		e.bool(u.Counts != nil)
		if u.Counts != nil {
			e.u64(uint64(len(u.Counts)))
			for _, c := range u.Counts {
				e.i64(int64(c))
			}
		}
	}

	e.u64(uint64(len(snap.History)))
	for i := range snap.History {
		m := &snap.History[i]
		e.u64(uint64(m.Round))
		e.u64(uint64(m.LocalEpochs))
		e.f64(m.MeanAcc)
		e.f64(m.StdAcc)
		e.f64(m.SimTime)
		e.i64(m.UpBytes)
		e.i64(m.DownBytes)
		e.vec(tagPerClient, comm.AsF64Body(m.PerClient), true)
		e.bool(m.EvalIDs != nil)
		if m.EvalIDs != nil {
			e.u64(uint64(len(m.EvalIDs)))
			for _, id := range m.EvalIDs {
				e.i64(int64(id))
			}
		}
	}

	e.u64(uint64(len(snap.Trace)))
	for _, ev := range snap.Trace {
		e.buf = append(e.buf, byte(ev.Kind))
		e.i64(int64(ev.Client))
		e.u64(uint64(ev.Version))
		e.f64(ev.Time)
	}

	e.traffic(snap.Ledger.Current)
	e.u64(uint64(len(snap.Ledger.Rounds)))
	for _, r := range snap.Ledger.Rounds {
		e.traffic(r)
	}

	e.u64(uint64(len(snap.Clients)))
	for _, c := range snap.Clients {
		e.u64(uint64(c.ID))
		at := len(e.buf)
		e.u64(0) // the record's length, known once it is written
		var err error
		if e.buf, err = fl.AppendRecord(e.buf, c.Rec, codec); err != nil {
			return nil, fmt.Errorf("ckpt: client %d: %w", c.ID, err)
		}
		binary.LittleEndian.PutUint64(e.buf[at:], uint64(len(e.buf)-at-8))
	}

	e.bool(snap.Algo != nil)
	if snap.Algo != nil {
		e.u64(uint64(len(snap.Algo.Ints)))
		for _, v := range snap.Algo.Ints {
			e.i64(v)
		}
		e.u64(uint64(len(snap.Algo.Vecs)))
		for _, v := range snap.Algo.Vecs {
			e.vec(tagAlgoVec, comm.AsF64Body(v), false)
		}
	}

	e.u64(uint64(len(snap.Sessions)))
	for i := range snap.Sessions {
		ss := &snap.Sessions[i]
		e.u64(uint64(ss.ID))
		e.u64(ss.Token)
		e.bool(ss.Churned)
	}
	e.u64(uint64(len(snap.Joins)))
	for i := range snap.Joins {
		j := &snap.Joins[i]
		for _, v := range j.AppendInts(nil) {
			e.i64(v)
		}
		e.bool(j.Init != nil)
		if j.Init != nil {
			e.u64(uint64(len(j.Init)))
			for _, v := range j.Init {
				e.vec(tagJoinInit, comm.AsF64Body(v), false)
			}
		}
	}
	return e.buf, nil
}

// Unmarshal parses a checkpoint produced by Marshal (any codec).
func Unmarshal(b []byte) (*fl.Snapshot, error) {
	if len(b) < len(magic)+12 {
		return nil, fmt.Errorf("ckpt: %d bytes is shorter than the header", len(b))
	}
	d := comm.NewReader(b, "ckpt")
	if m := d.Take(len(magic)); string(m) != magic {
		return nil, fmt.Errorf("ckpt: bad magic %q", m)
	}
	if v := d.U32(); v != Version {
		return nil, fmt.Errorf("ckpt: format version %d, this build reads %d", v, Version)
	}
	if codec := d.U32(); codec > math.MaxUint8 || !comm.Codec(codec).Dense() {
		return nil, fmt.Errorf("ckpt: unknown bulk codec %d", codec)
	}
	dtype := tensor.DType(d.U32())
	if !dtype.Valid() {
		return nil, fmt.Errorf("ckpt: unknown model dtype %d", uint8(dtype))
	}

	snap := &fl.Snapshot{DType: dtype}
	snap.Kind = fl.SchedulerKind(d.U64())
	snap.Round = int(d.U64())
	snap.Now = d.F64()
	snap.Seq = int(d.U64())
	snap.Applied = int(d.U64())
	snap.Rng = d.U64()
	snap.EvalRng = d.U64()
	snap.FleetSize = int(d.U64())
	snap.NodeFree = vec(&d, tagNodeFree)
	snap.Idle = make([]bool, d.Count(1))
	for i := range snap.Idle {
		snap.Idle[i] = d.Bool()
	}
	snap.Away = vec(&d, tagAway)

	for i := d.Count(1); i > 0 && d.Err() == nil; i-- {
		fs := fl.FlightState{
			Client:  int(d.U64()),
			Version: int(d.U64()),
			Seq:     int(d.U64()),
			VTime:   d.F64(),
		}
		u := &fl.Update{Client: fs.Client, Scale: d.F64(), UpBytes: d.I64()}
		if vecs := vecTable(&d, tagFlightVec); vecs != nil {
			u.Vecs = make([]comm.Body, len(vecs))
			for j, v := range vecs {
				u.Vecs[j] = comm.AsF64Body(v)
			}
		}
		if d.Bool() {
			u.Counts = make([]int, d.Count(8))
			for j := range u.Counts {
				u.Counts[j] = int(d.I64())
			}
		}
		fs.Update = u
		snap.Flights = append(snap.Flights, fs)
	}

	for i := d.Count(1); i > 0 && d.Err() == nil; i-- {
		m := fl.RoundMetrics{
			Round:       int(d.U64()),
			LocalEpochs: int(d.U64()),
			MeanAcc:     d.F64(),
			StdAcc:      d.F64(),
			SimTime:     d.F64(),
			UpBytes:     d.I64(),
			DownBytes:   d.I64(),
		}
		m.PerClient = vec(&d, tagPerClient)
		if d.Bool() {
			m.EvalIDs = make([]int, d.Count(8))
			for j := range m.EvalIDs {
				m.EvalIDs[j] = int(d.I64())
			}
		}
		snap.History = append(snap.History, m)
	}

	for i := d.Count(1); i > 0 && d.Err() == nil; i-- {
		snap.Trace = append(snap.Trace, fl.TraceEvent{
			Kind:    fl.TraceEventKind(d.U8()),
			Client:  int(d.I64()),
			Version: int(d.U64()),
			Time:    d.F64(),
		})
	}

	snap.Ledger.Current = traffic(&d)
	for i := d.Count(1); i > 0 && d.Err() == nil; i-- {
		snap.Ledger.Rounds = append(snap.Ledger.Rounds, traffic(&d))
	}

	for i := d.Count(1); i > 0 && d.Err() == nil; i-- {
		snap.Clients = append(snap.Clients, fl.ClientRecord{ID: int(d.U64()), Rec: append([]byte(nil), d.Frame()...)})
	}
	if err := fl.CheckRecords(snap.Clients); err != nil {
		d.Failf("%v", err)
	}

	if d.Bool() {
		st := &fl.AlgoState{}
		if n := d.Count(8); n > 0 {
			st.Ints = make([]int64, n)
			for j := range st.Ints {
				st.Ints[j] = d.I64()
			}
		}
		for j := d.Count(1); j > 0 && d.Err() == nil; j-- {
			st.Vecs = append(st.Vecs, vec(&d, tagAlgoVec))
		}
		snap.Algo = st
	}

	for i := d.Count(1); i > 0 && d.Err() == nil; i-- {
		snap.Sessions = append(snap.Sessions, fl.SessionState{
			ID:      int(d.U64()),
			Token:   d.U64(),
			Churned: d.Bool(),
		})
	}
	for i := d.Count(1); i > 0 && d.Err() == nil; i-- {
		var ints [fl.JoinInts]int64
		for k := range ints {
			ints[k] = d.I64()
		}
		j, err := fl.ParseJoin(ints[:])
		if err != nil {
			d.Failf("join record %d: %v", len(snap.Joins), err)
		}
		j.Init = vecTable(&d, tagJoinInit)
		snap.Joins = append(snap.Joins, j)
	}

	if err := d.End(); err != nil {
		return nil, err
	}
	return snap, nil
}

// vec reads a vector slot: a presence byte and, when it is set, one dense
// frame with the expected tag. A top-k or delta frame here is a corrupt or
// foreign file, not something to decode leniently.
func vec(d *comm.Reader, tag uint32) []float64 {
	if !d.Bool() {
		return nil
	}
	if b := d.DenseFrame(tag); d.Err() == nil {
		return b.Decode(nil)
	}
	return nil
}

// vecTable reads a presence byte and, when it is set, a count of vector
// slots. The table grows with the slots actually parsed: a slot is one byte
// on disk but a 24-byte slice header decoded.
func vecTable(d *comm.Reader, tag uint32) [][]float64 {
	if !d.Bool() {
		return nil
	}
	vs := [][]float64{}
	for i := d.Count(1); i > 0 && d.Err() == nil; i-- {
		vs = append(vs, vec(d, tag))
	}
	return vs
}

func traffic(d *comm.Reader) comm.RoundTraffic {
	return comm.RoundTraffic{
		Round:     int(d.I64()),
		UpBytes:   d.I64(),
		DownBytes: d.I64(),
		Messages:  int(d.I64()),
	}
}

// encoder appends the body to buf.
type encoder struct {
	buf   []byte
	codec comm.Codec
}

func (e *encoder) u32(v uint32)  { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *encoder) bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// vec writes a presence byte and, when present, a comm frame encoded
// straight into the buffer behind its byte length. Bookkeeping vectors pass
// lossless=true to pin the f64 codec.
func (e *encoder) vec(tag uint32, v comm.Body, lossless bool) {
	if v.Nil() {
		e.buf = append(e.buf, 0)
		return
	}
	codec := e.codec
	if lossless {
		codec = comm.F64
	}
	e.buf = v.AppendFrame(append(e.buf, 1), comm.Spec{Value: codec}, tag, nil)
}

func (e *encoder) traffic(t comm.RoundTraffic) {
	e.i64(int64(t.Round))
	e.i64(t.UpBytes)
	e.i64(t.DownBytes)
	e.i64(int64(t.Messages))
}
