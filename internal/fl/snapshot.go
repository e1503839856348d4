package fl

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/comm"
	"repro/internal/tensor"
)

// This file is the checkpoint side of the federation engine: a Snapshot is
// the complete, serializable state of a run at a commit boundary — enough
// that a process killed immediately afterwards can be restarted and replay
// the remaining rounds byte-identically (metrics and scheduler trace) to an
// uninterrupted run at the same seed.
//
// What a boundary snapshot holds, and why it suffices:
//
//   - The scheduler: committed round, virtual clock, dispatch sequence
//     number, per-node busy times, idle/away flags, and every in-flight
//     update. In-flight local training is quiesced first, so each flight is
//     stored with its *computed* result; recomputation is never needed and
//     the result equals what the uninterrupted run would have delivered,
//     because AsyncLocalGroup consumes only its clients' local state and
//     dispatch-time snapshots.
//   - The RNG streams: the simulation's sampling stream plus every
//     client's private stream (augmentation, batch shuffling), captured
//     through the serializable xrand sources.
//   - Every touched client — every client of an eager fleet — as its
//     ClientRecord.
//   - The algorithm's server state, via CheckpointableAlgorithm.
//   - The traffic ledger, metrics history and trace so far.
//
// Per-client dispatch snapshots held by algorithms (proximal references,
// staged KT-pFL transfers) are deliberately NOT captured: after the
// quiesce, every dispatched local update has already consumed them, and the
// next dispatch overwrites them before their next read.

// ClientRecord is one client's checkpointed state: Rec is the record the
// client store spills it as (store.go), whose fields only this package reads.
type ClientRecord struct {
	ID  int
	Rec []byte
}

// FlightState is one quiesced in-flight update: the dispatch bookkeeping
// plus the computed result awaiting virtual-time delivery.
type FlightState struct {
	Client  int
	Version int
	Seq     int
	VTime   float64
	Update  *Update
}

// AlgoState is the generic serializable container for algorithm server
// state. Each algorithm documents its own layout; nil entries of Vecs are
// preserved (FedProto uses them for never-reported classes).
type AlgoState struct {
	Ints []int64
	Vecs [][]float64
}

// CheckpointableAlgorithm is implemented by algorithms whose server state
// can be captured into a Snapshot and restored into a freshly constructed
// (Setup/AsyncSetup-completed) instance.
type CheckpointableAlgorithm interface {
	Algorithm
	// AlgoSnapshot captures the algorithm's server state. It runs on the
	// engine goroutine at a commit boundary, after in-flight local updates
	// have quiesced.
	AlgoSnapshot() (*AlgoState, error)
	// AlgoRestore overwrites the algorithm's server state from a snapshot.
	// Setup (and AsyncSetup, under async schedulers) has already run.
	AlgoRestore(st *AlgoState) error
}

// SessionState is one wire client's checkpointed session: the identity
// the server will honor across its own restart. Tokens are stable across
// a resume, so a client that outlives a crashed server reconnects with
// the token it already holds.
type SessionState struct {
	ID      int
	Token   uint64
	Churned bool
}

// Snapshot is the full federation state at a commit boundary.
type Snapshot struct {
	Kind    SchedulerKind
	Round   int     // committed rounds so far
	Now     float64 // virtual clock
	Seq     int     // dispatch sequence counter (async)
	Applied int     // applies since the last commit (async)
	Rng     uint64  // simulation sampling stream position
	EvalRng uint64  // sampled-evaluation stream position
	// FleetSize is the fleet size. Clients holds only the touched
	// (ever-materialized) clients — every client of an eager fleet, a
	// subset of a lazy one — so the resume-time size check needs the fleet
	// size recorded independently.
	FleetSize int
	// DType is the model element type the run trained in. Flat vectors in a
	// snapshot are always float64 bookkeeping (f32 values widen exactly),
	// but restoring into a fleet of a different dtype would silently change
	// the numerics, so resume rejects mismatches.
	DType tensor.DType

	NodeFree []float64 // virtual node busy times (async)
	Idle     []bool    // per-client idle flags (async)
	Away     []float64 // per-client churn rejoin times

	Flights []FlightState // quiesced in-flight updates, in dispatch order

	History []RoundMetrics
	Trace   []TraceEvent
	Ledger  comm.LedgerState
	Clients []ClientRecord
	Algo    *AlgoState

	// Node-mode (ServerNode) state. A server checkpoint has no client
	// records — client models live in other processes — but must preserve the
	// session table and the join-time declarations so a restarted server
	// can rebuild its algorithm state via WireSetup and honor reconnecting
	// clients' tokens.
	Sessions []SessionState
	Joins    []WireJoin
}

// cloneJoins deep-copies join declarations, each init payload into vectors
// of its own: Init's cloned, a received payload decoded out of the frame it
// lies in.
func cloneJoins(joins []WireJoin) []WireJoin {
	out := append([]WireJoin(nil), joins...)
	for i, j := range joins {
		out[i].payload = nil
		if j.Init == nil && j.payload == nil {
			continue
		}
		init := j.initBodies()
		out[i].Init = make([][]float64, len(init))
		for k, b := range init {
			if b.Len() > 0 { // CloneVec's rule: an empty vector is nil
				out[i].Init[k] = b.Decode(make([]float64, b.Len()))
			}
		}
	}
	return out
}

// CloneVec returns a nil-preserving copy of a float vector; algorithms use
// it to build and unpack AlgoState layouts.
func CloneVec(v []float64) []float64 {
	if v == nil {
		return nil
	}
	return append([]float64(nil), v...)
}

// clone deep-copies an update so a snapshot cannot alias live engine state.
func (u *Update) clone() *Update {
	c := *u
	if u.Vecs != nil {
		c.Vecs = make([]comm.Body, len(u.Vecs))
		for i, v := range u.Vecs {
			if !v.Nil() {
				c.Vecs[i] = comm.AsF64Body(v.Decode(make([]float64, v.Len())))
			}
		}
	}
	if u.Counts != nil {
		c.Counts = append([]int(nil), u.Counts...)
	}
	return &c
}

func cloneHistory(hist []RoundMetrics) []RoundMetrics {
	out := append([]RoundMetrics(nil), hist...)
	for i := range out {
		out[i].PerClient = append([]float64(nil), hist[i].PerClient...)
		if hist[i].EvalIDs != nil {
			out[i].EvalIDs = append([]int(nil), hist[i].EvalIDs...)
		}
	}
	return out
}

// captureFleet fills an engine snapshot around the round record's half: the
// fleet's size and dtype, every touched client, and the trace so far.
func (s *Simulation) captureFleet(snap *Snapshot, algo Algorithm, sched *SchedulerConfig) error {
	if err := s.capture(snap, algo); err != nil {
		return err
	}
	snap.FleetSize = s.NumClients()
	// A fleet trains at one dtype; client 0 speaks for it, read through the
	// clean accessor so asking does not put it into the checkpoint.
	if snap.FleetSize > 0 {
		if c := s.store.getClean(0); c.Model != nil {
			snap.DType = c.Model.DType()
		}
	}
	if sched.Trace != nil {
		snap.Trace = append([]TraceEvent(nil), sched.Trace.Events...)
	}
	// Only the touched clients carry state — on an eager simulation, every
	// client; everyone else is reproduced exactly by the builder.
	var err error
	snap.Clients, err = s.store.CaptureTouched()
	return err
}

// restoreFleet is captureFleet's inverse for the fleet: the touched clients
// and the trace. The store checks every record before it replaces anything,
// so a rejected checkpoint leaves the fleet as it was.
func (s *Simulation) restoreFleet(snap *Snapshot, sched *SchedulerConfig) error {
	if err := s.store.RestoreTouched(snap.Clients, snap.DType); err != nil {
		return err
	}
	if sched.Trace != nil {
		sched.Trace.Events = append(sched.Trace.Events[:0], snap.Trace...)
	}
	return nil
}

// Snapshot captures the full engine state at the current commit boundary.
// It quiesces in-flight local updates (forcing their eager computation,
// which never changes results — each consumes only client-local state fixed
// at dispatch) and stores them with their computed payloads.
func (e *Engine) Snapshot() (*Snapshot, error) {
	e.quiesce()
	snap := &Snapshot{
		Kind:     e.sched.Kind,
		Round:    e.version,
		Now:      e.now,
		Seq:      e.seq,
		Applied:  e.applied,
		NodeFree: append([]float64(nil), e.nodeFree...),
		Idle:     append([]bool(nil), e.idle...),
		Away:     append([]float64(nil), e.away...),
	}
	flights := append(flightHeap(nil), e.heap...)
	sort.Slice(flights, func(a, b int) bool { return flights[a].seq < flights[b].seq })
	for _, f := range flights {
		if f.res == nil {
			return nil, fmt.Errorf("fl: checkpoint: client %d still in flight after quiesce", f.client)
		}
		if f.res.err != nil {
			return nil, fmt.Errorf("fl: checkpoint: client %d failed: %w", f.client, f.res.err)
		}
		snap.Flights = append(snap.Flights, FlightState{
			Client:  f.client,
			Version: f.version,
			Seq:     f.seq,
			VTime:   f.vtime,
			Update:  f.res.u.clone(),
		})
	}
	if err := e.sim.captureFleet(snap, e.algo, e.sched); err != nil {
		return nil, err
	}
	return snap, nil
}

// Restore overwrites the engine with a snapshot taken at a commit boundary
// under the same scheduler configuration; the run then continues exactly
// where the checkpointed one stopped.
func (e *Engine) Restore(snap *Snapshot) error {
	k := len(e.idle)
	if err := e.sim.resume(snap, e.sched.Kind, k, e.algo, func() error {
		switch {
		case len(snap.Idle) != k:
			return fmt.Errorf("fl: checkpoint has %d clients' scheduler flags, simulation has %d", len(snap.Idle), k)
		case len(snap.NodeFree) != len(e.nodeFree):
			return fmt.Errorf("fl: checkpoint has %d virtual nodes, scheduler has %d (resume with the same workers setting)",
				len(snap.NodeFree), len(e.nodeFree))
		case len(snap.Away) != k:
			return fmt.Errorf("fl: checkpoint has %d clients' churn state, simulation has %d", len(snap.Away), k)
		}
		return e.sim.restoreFleet(snap, e.sched)
	}); err != nil {
		return err
	}
	e.version = snap.Round
	e.now = snap.Now
	e.seq = snap.Seq
	e.applied = snap.Applied
	copy(e.nodeFree, snap.NodeFree)
	copy(e.idle, snap.Idle)
	copy(e.away, snap.Away)
	e.ready.rebuild(e.idle, e.away, e.now)
	e.heap = e.heap[:0]
	for i := range snap.Flights {
		fs := &snap.Flights[i]
		if fs.Client < 0 || fs.Client >= k {
			return fmt.Errorf("fl: checkpoint flight references client %d of %d", fs.Client, k)
		}
		if fs.Update == nil {
			return fmt.Errorf("fl: checkpoint flight for client %d has no result", fs.Client)
		}
		heap.Push(&e.heap, &flight{
			client:  fs.Client,
			version: fs.Version,
			vtime:   fs.VTime,
			seq:     fs.Seq,
			res:     &asyncResult{client: fs.Client, u: fs.Update.clone()},
		})
	}
	return nil
}
