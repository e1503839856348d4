package fl

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/comm"
	"repro/internal/tensor"
)

// This file is the event-driven federation engine. The paper runs its
// federation synchronously over MPI across 15 GPU nodes, where every round
// waits for the slowest node; the engine generalizes the round loop into a
// discrete-event simulation of that cluster with three schedulers:
//
//   - SchedSync: the classic barrier. Executes exactly the legacy Run loop,
//     bit-identical to previous releases, and additionally books the
//     virtual makespan of each round.
//   - SchedAsyncBounded: FedBuff-style bounded-staleness async. Clients are
//     redispatched the moment they deliver; the server buffers
//     staleness-weighted updates in sharded accumulators and commits every
//     ⌈K·rate⌉ applied updates. Updates staler than MaxStaleness are
//     dropped.
//   - SchedSemiSync: K-of-N semi-synchronous rounds. A cohort is sampled
//     per round; the round commits after Quorum applied updates, and
//     straggler deliveries land in the next round with staleness weight.
//
// Time is virtual: every client has a cost (one local update's duration in
// arbitrary units) and the engine orders dispatches, deliveries and commits
// on a virtual clock over a fixed number of virtual worker nodes — the
// honest way to measure straggler effects on a host with any core count.
// Local training still executes eagerly and concurrently on the shared
// tensor worker pool; only the *ordering* of server-side state transitions
// follows the virtual clock, and every AsyncLocalGroup consumes nothing but
// its clients' dispatch-time snapshots. The engine is therefore
// deterministic for a fixed seed and cost vector regardless of real
// goroutine scheduling, while wall-clock time still scales with cores.

// SchedulerKind selects the federation schedule.
type SchedulerKind int

// The schedulers.
const (
	SchedSync SchedulerKind = iota
	SchedAsyncBounded
	SchedSemiSync
)

// String names the scheduler for flags and reports.
func (k SchedulerKind) String() string {
	switch k {
	case SchedSync:
		return "sync"
	case SchedAsyncBounded:
		return "async"
	case SchedSemiSync:
		return "semisync"
	}
	return fmt.Sprintf("scheduler(%d)", int(k))
}

// ParseScheduler maps a flag value ("sync" | "async" | "semisync") to a
// SchedulerKind.
func ParseScheduler(s string) (SchedulerKind, error) {
	switch s {
	case "sync", "":
		return SchedSync, nil
	case "async", "async-bounded":
		return SchedAsyncBounded, nil
	case "semisync", "semi-sync", "k-of-n":
		return SchedSemiSync, nil
	}
	return SchedSync, fmt.Errorf("fl: unknown scheduler %q (want sync | async | semisync)", s)
}

// SchedulerConfig controls RunScheduled. The zero value is the sync
// scheduler with uniform client costs.
type SchedulerConfig struct {
	Kind SchedulerKind
	// Workers is the number of virtual server nodes executing client
	// updates concurrently (default: one node per client, the paper's MPI
	// layout; one per cohort member on a lazy simulation, where per-client
	// scheduler arrays would be O(fleet)).
	Workers int
	// MaxStaleness bounds async staleness: an update whose dispatch-time
	// model version is more than MaxStaleness commits old is dropped
	// (default 8).
	MaxStaleness int
	// Decay is the staleness decay α: an update that is s commits stale
	// aggregates with weight 1/(1+α·s). 0 disables decay.
	Decay float64
	// MixRate is the commit mixing λ: committed ← (1-λ)·committed +
	// λ·aggregate (default 1, which reproduces one-shot averaging).
	MixRate float64
	// Quorum is the semi-sync K: commit after K applied updates (default
	// ⌈participants/2⌉).
	Quorum int
	// Costs[i] is the virtual duration of one local update on client i
	// (nil or missing entries = 1). Stragglers get costs > 1.
	Costs []float64
	// Trace, when non-nil, records every dispatch/delivery/drop/commit so
	// runs can be compared event by event.
	Trace *Trace
	// LeaveProb injects client churn: each time the scheduler would engage
	// a client, the client has instead left the federation with this
	// probability, rejoining RejoinAfter virtual time units later. 0
	// disables churn (and consumes no RNG draws, preserving legacy runs).
	LeaveProb float64
	// RejoinAfter is how long, on the virtual clock, a departed client
	// stays away (default 2 — two uniform update durations).
	RejoinAfter float64
	// Checkpoint, when non-nil, receives a full engine snapshot at every
	// CheckpointEvery-th commit boundary (and, under the sync scheduler,
	// completed round). Taking a snapshot quiesces in-flight local updates
	// but never perturbs the schedule: a checkpointed run emits exactly
	// the metrics and trace of an unobserved one.
	Checkpoint func(*Snapshot) error
	// CheckpointEvery is the commit cadence of Checkpoint (default 1).
	CheckpointEvery int
	// Resume, when non-nil, restores engine, client, algorithm, ledger and
	// RNG state from a snapshot before the first scheduling decision, so
	// the run continues a checkpointed one byte-identically.
	Resume *Snapshot
}

// withDefaults fills structural zero fields.
func (c SchedulerConfig) withDefaults(sim *Simulation) SchedulerConfig {
	if c.Workers <= 0 {
		c.Workers = sim.workers
	}
	if c.MaxStaleness <= 0 {
		c.MaxStaleness = 8
	}
	if c.MixRate <= 0 || c.MixRate > 1 {
		c.MixRate = 1
	}
	if c.RejoinAfter <= 0 {
		c.RejoinAfter = 2
	}
	// A client that always leaves can never be dispatched, which would
	// spin the rejoin clock forever; certainty of departure is clamped
	// just below it.
	if c.LeaveProb < 0 {
		c.LeaveProb = 0
	}
	if c.LeaveProb >= 1 {
		c.LeaveProb = 0.99
	}
	return c
}

// cost returns client i's virtual update duration.
func (c *SchedulerConfig) cost(i int) float64 {
	if i < len(c.Costs) && c.Costs[i] > 0 {
		return c.Costs[i]
	}
	return 1
}

// StalenessWeight returns the decay factor 1/(1+α·s) applied to an update
// that is s commits stale.
func (c *SchedulerConfig) StalenessWeight(staleness int) float64 {
	return stalenessWeight(c.Decay, staleness)
}

func stalenessWeight(decay float64, staleness int) float64 {
	if staleness <= 0 || decay <= 0 {
		return 1
	}
	return 1 / (1 + decay*float64(staleness))
}

// cohortPolicy is the one statement of how many updates make a round: the
// cohort is ⌈k·rate⌉ clamped to [1, k], and a commit lands every cohort
// applies — under semisync at the quorum instead (default the cohort's
// majority, capped at the cohort).
func cohortPolicy(k int, rate float64, kind SchedulerKind, quorum int) (cohort, commitEvery int) {
	cohort = int(math.Ceil(float64(k) * rate))
	if cohort > k {
		cohort = k
	}
	if cohort < 1 {
		cohort = 1
	}
	commitEvery = cohort
	if kind == SchedSemiSync {
		commitEvery = quorum
		if commitEvery <= 0 {
			commitEvery = (cohort + 1) / 2
		}
		if commitEvery > cohort {
			commitEvery = cohort
		}
	}
	return cohort, commitEvery
}

// Update is one client's contribution, delivered to the server through the
// event queue.
type Update struct {
	Client int
	// Version is the committed model version the client trained against
	// (stamped at dispatch).
	Version int
	// Staleness is commits-at-apply minus Version (stamped at apply).
	Staleness int
	// Scale is the algorithm-set data weight (typically |D_k|).
	Scale float64
	// Weight is the final aggregation weight Scale·StalenessWeight,
	// stamped by the engine before AsyncApply.
	Weight float64
	// Vecs carries the algorithm's payload vectors (flat weights,
	// per-class prototypes, soft predictions, ...) as bodies: an
	// in-process vector's F64 body over its own memory, a received one's as
	// its frame carries it. A nil Vecs with zero Scale marks a
	// communication-free update (the local-only baseline): it advances the
	// virtual round without touching server state.
	Vecs []comm.Body
	// Counts carries optional per-vector sample counts (FedProto).
	Counts []int
	// UpBytes is the exact upload frame size, as returned by
	// Simulation.QuantizeUplink (0 for a communication-free update). The
	// engine books it on the ledger when the update is delivered in virtual
	// time — worker goroutines must not touch the ledger's round
	// attribution themselves, or per-round byte counts would depend on real
	// scheduling.
	UpBytes int64
}

// DataScale is the |D_k| aggregation weight of a client with trainSize
// examples, which algorithms attach to its update: 1 for an empty client, so
// its update still counts.
func DataScale(trainSize int) float64 {
	if trainSize == 0 {
		return 1
	}
	return float64(trainSize)
}

// AsyncAlgorithm is implemented by algorithms that can run under the async
// and semi-sync schedulers: the broadcast/train/aggregate round is split
// into dispatch, local, apply and commit steps.
type AsyncAlgorithm interface {
	Algorithm
	// AsyncSetup prepares sharded server state. Runs once, after Setup.
	AsyncSetup(sim *Simulation, sched *SchedulerConfig) error
	// AsyncDispatch snapshots server state down to one client (the
	// broadcast half of a round). Runs on the engine goroutine, strictly
	// ordered with commits, so the snapshot is consistent.
	AsyncDispatch(sim *Simulation, client int) error
	// AsyncLocalGroup runs the local training of clients dispatched in one
	// refill that share a model configuration — one GroupCohort group, often
	// a single client — and returns one non-nil update per client, in order.
	// Runs concurrently with other groups (and with server-side applies and
	// commits) on the shared worker pool: it must touch only the clients'
	// local state and the snapshots taken by AsyncDispatch.
	AsyncLocalGroup(sim *Simulation, clients []int) ([]*Update, error)
	// AsyncApply folds one staleness-weighted update into the server's
	// sharded accumulators (u.Weight is final). Engine goroutine.
	AsyncApply(sim *Simulation, u *Update) error
	// AsyncCommit merges the accumulators into committed server state
	// and completes one virtual round. Engine goroutine.
	AsyncCommit(sim *Simulation) error
}

// TraceEventKind labels entries of a Trace.
type TraceEventKind uint8

// The trace event kinds.
const (
	TraceDispatch TraceEventKind = iota
	TraceDeliver
	TraceDrop
	TraceCommit
	TraceLeave
)

// String names the event kind for trace files.
func (k TraceEventKind) String() string {
	switch k {
	case TraceDispatch:
		return "dispatch"
	case TraceDeliver:
		return "deliver"
	case TraceDrop:
		return "drop"
	case TraceCommit:
		return "commit"
	case TraceLeave:
		return "leave"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// TraceEvent is one scheduling decision of the engine.
type TraceEvent struct {
	Kind    TraceEventKind
	Client  int
	Version int     // committed version at the event
	Time    float64 // virtual time of the event
}

// Trace records the engine's event sequence for reproducibility checks.
type Trace struct {
	Events []TraceEvent
}

func (t *Trace) add(k TraceEventKind, client, version int, vtime float64) {
	if t != nil {
		t.Events = append(t.Events, TraceEvent{Kind: k, Client: client, Version: version, Time: vtime})
	}
}

// asyncResult is what a client worker pushes onto the event queue.
type asyncResult struct {
	client int
	u      *Update
	err    error
}

// resultQueue carries finished local updates from pool workers to the
// engine. A push never blocks — a worker holds a pool token while it
// delivers, and the engine may itself wait on a token to dispatch, so a
// worker waiting on delivery could deadlock it — and the queue holds only
// the results the engine has not taken yet, at most one per open flight:
// its storage follows the flights open at once, not the fleet. Results come
// out in no particular order; the engine files them by client.
type resultQueue struct {
	mu      sync.Mutex
	arrived sync.Cond
	rs      []asyncResult
}

func newResultQueue() *resultQueue {
	q := &resultQueue{}
	q.arrived.L = &q.mu
	return q
}

func (q *resultQueue) push(r asyncResult) {
	q.mu.Lock()
	q.rs = append(q.rs, r)
	q.mu.Unlock()
	q.arrived.Signal()
}

// pop blocks until a result is queued and takes one.
func (q *resultQueue) pop() asyncResult {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.rs) == 0 {
		q.arrived.Wait()
	}
	n := len(q.rs) - 1
	r := q.rs[n]
	q.rs[n] = asyncResult{}
	q.rs = q.rs[:n]
	return r
}

// flight is one in-flight client update: dispatched at a version, due at a
// virtual completion time, resolved through the shared event queue.
type flight struct {
	client  int
	version int
	vtime   float64 // virtual completion time
	seq     int     // dispatch order, breaks virtual-time ties
	res     *asyncResult
}

// flightHeap orders in-flight updates by (virtual time, dispatch order).
type flightHeap []*flight

func (h flightHeap) Len() int { return len(h) }
func (h flightHeap) Less(i, j int) bool {
	if h[i].vtime != h[j].vtime {
		return h[i].vtime < h[j].vtime
	}
	return h[i].seq < h[j].seq
}
func (h flightHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *flightHeap) Push(x any)   { *h = append(*h, x.(*flight)) }
func (h *flightHeap) Pop() any {
	old := *h
	n := len(old)
	f := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return f
}

// RunScheduled executes the algorithm under the given scheduler and returns
// the metrics history. SchedSync runs the legacy barrier loop (bit-identical
// metrics to Run in previous releases); the other schedulers require algo to
// implement AsyncAlgorithm.
func (s *Simulation) RunScheduled(algo Algorithm, sched SchedulerConfig) ([]RoundMetrics, error) {
	return s.RunScheduledContext(context.Background(), algo, sched)
}

// RunScheduledContext is RunScheduled under a context: cancellation stops
// the engine at the next scheduling decision and returns ctx.Err(). Local
// updates already dispatched to the worker pool are quiesced first (pool
// tasks are not preemptible), so no pool task or engine goroutine outlives
// the call — cancellation leaks nothing.
func (s *Simulation) RunScheduledContext(ctx context.Context, algo Algorithm, sched SchedulerConfig) ([]RoundMetrics, error) {
	sched = sched.withDefaults(s)
	s.up = newWireCodec(s.Cfg.WireSpec(), lossyUploads(algo))
	s.checkpointTo(sched.Checkpoint, sched.CheckpointEvery)
	switch sched.Kind {
	case SchedSync:
		return s.runSync(ctx, algo, &sched)
	case SchedAsyncBounded, SchedSemiSync:
		aa, ok := algo.(AsyncAlgorithm)
		if !ok {
			return nil, fmt.Errorf("fl: %s does not support the %s scheduler (implement fl.AsyncAlgorithm)",
				algo.Name(), sched.Kind)
		}
		return s.runAsync(ctx, aa, &sched)
	}
	return nil, fmt.Errorf("fl: unknown scheduler %v", sched.Kind)
}

// runSync is the legacy lock-step loop plus virtual-time accounting: each
// round's virtual duration is the makespan of the participants' costs
// greedily packed onto the virtual worker nodes. With zero churn and no
// checkpointing it is byte-identical to previous releases.
func (s *Simulation) runSync(ctx context.Context, algo Algorithm, sched *SchedulerConfig) ([]RoundMetrics, error) {
	if err := algo.Setup(s); err != nil {
		return nil, fmt.Errorf("fl: %s setup: %w", algo.Name(), err)
	}
	var vtime float64
	start := 1
	away := make([]float64, s.NumClients())
	if snap := sched.Resume; snap != nil {
		if err := s.resume(snap, SchedSync, len(away), algo, func() error {
			if len(snap.Away) != len(away) {
				return fmt.Errorf("fl: checkpoint has %d clients' churn state, simulation has %d", len(snap.Away), len(away))
			}
			return s.restoreFleet(snap, sched)
		}); err != nil {
			return nil, err
		}
		vtime = snap.Now
		copy(away, snap.Away)
		start = snap.Round + 1
	}
	for t := start; t <= s.Cfg.Rounds; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		participants := s.sampleParticipants()
		if sched.LeaveProb > 0 {
			participants = s.churnParticipants(participants, away, vtime, t-1, sched)
		}
		if err := algo.Round(s, t, participants); err != nil {
			return nil, fmt.Errorf("fl: %s round %d: %w", algo.Name(), t, err)
		}
		vtime += syncMakespan(participants, sched)
		var m *RoundMetrics
		if s.evaluates(t) {
			ev := s.evaluateWith(away, vtime)
			m = &ev
		}
		if err := s.closeRound(t, algo.EpochsPerRound(), vtime, m, func() (*Snapshot, error) {
			snap := &Snapshot{Kind: SchedSync, Round: t, Now: vtime, Away: append([]float64(nil), away...)}
			return snap, s.captureFleet(snap, algo, sched)
		}); err != nil {
			return nil, err
		}
		// Round boundary is a safe point: nothing is in flight, so any
		// resident client beyond the budget can spill.
		if err := s.store.EvictToBudget(nil); err != nil {
			return nil, fmt.Errorf("fl: evicting after round %d: %w", t, err)
		}
	}
	return s.History, nil
}

// churnParticipants filters a sampled cohort through the churn model:
// clients still away are skipped silently, and each present client leaves
// with probability LeaveProb, rejoining RejoinAfter virtual time later.
func (s *Simulation) churnParticipants(participants []int, away []float64, vtime float64, version int, sched *SchedulerConfig) []int {
	kept := participants[:0]
	for _, id := range participants {
		if away[id] > vtime {
			continue
		}
		if s.Rng.Float64() < sched.LeaveProb {
			away[id] = vtime + sched.RejoinAfter
			sched.Trace.add(TraceLeave, id, version, vtime)
			continue
		}
		kept = append(kept, id)
	}
	return kept
}

// syncMakespan is the virtual duration of one barrier round: participants'
// costs packed greedily (in id order) onto Workers nodes; the round ends
// when the most loaded node finishes.
func syncMakespan(participants []int, sched *SchedulerConfig) float64 {
	if len(participants) == 0 {
		return 0
	}
	w := sched.Workers
	if w > len(participants) {
		w = len(participants)
	}
	loads := make([]float64, w)
	for _, id := range participants {
		min := 0
		for i := 1; i < w; i++ {
			if loads[i] < loads[min] {
				min = i
			}
		}
		loads[min] += sched.cost(id)
	}
	max := loads[0]
	for _, l := range loads[1:] {
		if l > max {
			max = l
		}
	}
	return max
}

// runAsync is the event-driven engine shared by the async-bounded and
// semi-sync schedulers.
func (s *Simulation) runAsync(ctx context.Context, algo AsyncAlgorithm, sched *SchedulerConfig) ([]RoundMetrics, error) {
	if s.NumClients() == 0 {
		return nil, fmt.Errorf("fl: no clients")
	}
	if err := algo.Setup(s); err != nil {
		return nil, fmt.Errorf("fl: %s setup: %w", algo.Name(), err)
	}
	if err := algo.AsyncSetup(s, sched); err != nil {
		return nil, fmt.Errorf("fl: %s async setup: %w", algo.Name(), err)
	}
	k := s.NumClients()
	// One virtual round's worth of updates: async commits every
	// ⌈K·rate⌉ applies, semi-sync at its quorum.
	cohortSize, commitEvery := cohortPolicy(k, s.Cfg.SampleRate, sched.Kind, sched.Quorum)

	e := &Engine{
		sim:      s,
		algo:     algo,
		sched:    sched,
		queue:    newResultQueue(),
		arrived:  make(map[int]*asyncResult, sched.Workers),
		idle:     make([]bool, k),
		away:     make([]float64, k),
		nodeFree: make([]float64, sched.Workers),
	}
	for i := range e.idle {
		e.idle[i] = true
	}
	e.ready.rebuild(e.idle, e.away, e.now)
	defer e.quiesce() // never leave a pool worker running on any exit path

	if sched.Resume != nil {
		if err := e.Restore(sched.Resume); err != nil {
			return nil, err
		}
	}
	if e.version < s.Cfg.Rounds {
		// The opening dispatch of a fresh run — and, after a restore, the
		// exact refill the uninterrupted run performed right after the
		// snapshot's commit boundary.
		e.refill(cohortSize)
	}
	for e.version < s.Cfg.Rounds {
		// Cancellation point: the deferred quiesce drains every in-flight
		// local update before the engine returns, so cancelling mid-run
		// leaves no pool task behind.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if e.heap.Len() == 0 {
			// Staleness drops can exhaust a semi-sync cohort below its
			// quorum; reopen the round rather than stall.
			e.refill(cohortSize)
			// Churn can have sent every live client away — and the one
			// client due back can churn out again on its rejoin roll, so
			// keep jumping the virtual clock to the next rejoin until a
			// dispatch sticks or nobody is ever coming back.
			for e.heap.Len() == 0 && e.advanceToRejoin() {
				e.refill(cohortSize)
			}
			if e.heap.Len() == 0 {
				break
			}
		}
		ft := heap.Pop(&e.heap).(*flight)
		e.setNow(ft.vtime)
		res := e.resolve(ft)
		e.markIdle(ft.client)
		if res.err != nil {
			return nil, fmt.Errorf("fl: %s client %d: %w", algo.Name(), ft.client, res.err)
		}
		u := res.u
		// The upload reaches the server now (virtual delivery time); it
		// costs wire bytes even if the server then drops it.
		if u.UpBytes > 0 {
			s.Ledger.AddUp(u.UpBytes)
		}
		u.Staleness = e.version - ft.version
		if u.Staleness > sched.MaxStaleness {
			sched.Trace.add(TraceDrop, ft.client, e.version, e.now)
		} else {
			u.Weight = u.Scale * sched.StalenessWeight(u.Staleness)
			sched.Trace.add(TraceDeliver, ft.client, e.version, e.now)
			if u.Vecs != nil {
				if err := algo.AsyncApply(s, u); err != nil {
					return nil, fmt.Errorf("fl: %s apply from client %d: %w", algo.Name(), ft.client, err)
				}
			}
			e.applied++
		}
		if e.applied >= commitEvery {
			e.applied = 0
			if err := algo.AsyncCommit(s); err != nil {
				return nil, fmt.Errorf("fl: %s commit: %w", algo.Name(), err)
			}
			e.version++
			sched.Trace.add(TraceCommit, -1, e.version, e.now)
			var m *RoundMetrics
			if s.evaluates(e.version) {
				e.quiesce()
				ev := s.evaluateWith(e.away, e.now)
				m = &ev
			}
			if err := s.closeRound(e.version, algo.EpochsPerRound(), e.now, m, e.Snapshot); err != nil {
				return nil, err
			}
			if sched.Kind == SchedSemiSync && e.version < s.Cfg.Rounds {
				e.refill(cohortSize)
			}
		}
		if sched.Kind == SchedAsyncBounded && e.version < s.Cfg.Rounds {
			e.refill(cohortSize)
		}
		// Safe point: every client whose flight is still in the heap may have
		// local training running on the pool, so it stays pinned; anyone else
		// beyond the budget can spill.
		if err := s.store.EvictToBudget(e.pinned); err != nil {
			return nil, fmt.Errorf("fl: evicting at version %d: %w", e.version, err)
		}
	}
	return s.History, nil
}

// Engine holds the event-driven scheduler state. All fields are owned by
// the engine goroutine; client workers communicate only through the
// event queue. Snapshot and Restore freeze and resume the full
// engine state at commit boundaries.
type Engine struct {
	sim   *Simulation
	algo  AsyncAlgorithm
	sched *SchedulerConfig

	now     float64
	seq     int
	version int
	applied int
	heap    flightHeap
	queue   *resultQueue
	arrived map[int]*asyncResult
	idle    []bool
	// away[id] is the virtual time until which a churned-out client stays
	// departed; a client is schedulable when idle and away <= now.
	away []float64
	// ready indexes the schedulable clients; see readySet.
	ready readySet
	// nodeFree[n] is when virtual node n finishes its queued work; a
	// dispatch starts on the earliest-free node, so a cohort larger than
	// Workers serializes on the virtual cluster exactly like runSync's
	// makespan packing.
	nodeFree []float64
	// pending buffers the clients dispatched in the current refill until
	// launchPending partitions and launches them; it is always drained
	// before the engine blocks or snapshots.
	pending []int
}

// pinned is the eviction guard: it reports whether id's flight is still in
// the heap — its local training may be running on the pool, so its state
// must not be captured until the flight resolves. EvictToBudget asks only
// about eviction candidates, so an unbounded store never asks.
func (e *Engine) pinned(id int) bool {
	for _, f := range e.heap {
		if f.client == id {
			return true
		}
	}
	return false
}

// refill tops the virtual nodes back up: the async scheduler keeps every
// node busy with a randomly drawn present idle client; semi-sync opens a
// round by sampling a fresh cohort. The refill boundary is the cohort
// grouping safe point: every client dispatched in this refill is buffered
// and launched — partitioned into same-configuration lockstep groups — once
// the scheduling decisions are complete, so grouping never perturbs the
// dispatch order or the RNG stream.
func (e *Engine) refill(cohortSize int) {
	if e.sched.Kind == SchedSemiSync {
		e.dispatchCohort(cohortSize)
	} else {
		for e.heap.Len() < e.sched.Workers && e.dispatchRandomIdle() {
		}
	}
	e.launchPending()
}

// setNow moves the virtual clock forward and readmits the departed clients
// that are due back.
func (e *Engine) setNow(t float64) {
	e.now = t
	e.ready.advance(t, e.idle)
}

// markIdle returns a client whose flight has landed to the schedulable set.
func (e *Engine) markIdle(id int) {
	e.idle[id] = true
	if e.away[id] <= e.now {
		e.ready.add(id, 1)
	}
}

// leaves rolls the churn die for a client about to be engaged; on a leave
// it books the departure and reports true.
func (e *Engine) leaves(id int) bool {
	if e.sched.LeaveProb <= 0 || e.sim.Rng.Float64() >= e.sched.LeaveProb {
		return false
	}
	e.away[id] = e.now + e.sched.RejoinAfter
	e.ready.leave(id, e.away[id])
	e.sched.Trace.add(TraceLeave, id, e.version, e.now)
	return true
}

// advanceToRejoin jumps the virtual clock to the earliest rejoin time of a
// departed idle client; reports false when nobody is due back.
func (e *Engine) advanceToRejoin() bool {
	if len(e.ready.rejoin) == 0 {
		return false
	}
	e.setNow(e.ready.rejoin[0].at)
	return true
}

// dispatchRandomIdle sends one uniformly drawn schedulable client into
// local training; reports false when none remains. Clients that churn out
// on the roll are skipped and another candidate is drawn.
func (e *Engine) dispatchRandomIdle() bool {
	for e.ready.n > 0 {
		chosen := e.ready.kth(e.sim.Rng.Intn(e.ready.n))
		if e.leaves(chosen) {
			continue
		}
		e.dispatch(chosen)
		return true
	}
	return false
}

// dispatchCohort samples up to n schedulable clients without replacement
// and dispatches them in client-id order — the semi-sync round opening.
// Sampled clients may still churn out, shrinking the round's cohort.
func (e *Engine) dispatchCohort(n int) {
	if n > e.ready.n {
		n = e.ready.n
	}
	if n == 0 {
		return
	}
	picked := SamplePrefix(e.sim.Rng, e.ready.n, n)
	for i, p := range picked {
		picked[i] = e.ready.kth(p)
	}
	sort.Ints(picked)
	for _, id := range picked {
		if e.leaves(id) {
			continue
		}
		e.dispatch(id)
	}
}

// dispatch snapshots server state down to the client and queues its local
// update for the refill's launch (launchPending). The result is delivered
// through the event queue and consumed when the update's virtual
// completion time is reached.
func (e *Engine) dispatch(id int) {
	e.idle[id] = false
	e.ready.add(id, -1)
	e.sched.Trace.add(TraceDispatch, id, e.version, e.now)
	// Start on the earliest-free virtual node, no sooner than now.
	node := 0
	for n := 1; n < len(e.nodeFree); n++ {
		if e.nodeFree[n] < e.nodeFree[node] {
			node = n
		}
	}
	start := e.now
	if e.nodeFree[node] > start {
		start = e.nodeFree[node]
	}
	ft := &flight{client: id, version: e.version, vtime: start + e.sched.cost(id), seq: e.seq}
	e.nodeFree[node] = ft.vtime
	e.seq++
	heap.Push(&e.heap, ft)
	if err := e.algo.AsyncDispatch(e.sim, id); err != nil {
		ft.res = &asyncResult{client: id, err: err}
		return
	}
	e.pending = append(e.pending, id)
}

// launchPending partitions the clients dispatched since the last launch into
// same-configuration groups and starts one AsyncLocalGroup task per group. A
// failing group task pushes a result for every member, so the engine's
// virtual-time resolution never deadlocks.
func (e *Engine) launchPending() {
	ids := e.pending
	e.pending = nil
	for _, pos := range GroupCohort(e.sim, ids) {
		grp := make([]int, len(pos))
		for i, p := range pos {
			grp[i] = ids[p]
		}
		sim, algo, queue := e.sim, e.algo, e.queue
		tensor.Spawn(func() {
			us, err := algo.AsyncLocalGroup(sim, grp)
			if err == nil && len(us) != len(grp) {
				err = fmt.Errorf("AsyncLocalGroup returned %d updates for %d clients", len(us), len(grp))
			}
			for i, id := range grp {
				if err != nil {
					queue.push(asyncResult{client: id, err: err})
					continue
				}
				u := us[i]
				var uerr error
				if u == nil {
					uerr = fmt.Errorf("AsyncLocalGroup returned a nil update")
				}
				queue.push(asyncResult{client: id, u: u, err: uerr})
			}
		})
	}
}

// resolve blocks until the flight's result has arrived on the event queue.
// Results arrive in real completion order; the engine files them by client
// and consumes them in virtual-time order.
func (e *Engine) resolve(f *flight) *asyncResult {
	for f.res == nil {
		if r, ok := e.arrived[f.client]; ok {
			delete(e.arrived, f.client)
			f.res = r
			break
		}
		r := e.queue.pop()
		e.arrived[r.client] = &r
	}
	return f.res
}

// quiesce waits for every in-flight local update to finish computing (filing
// results for later virtual-time delivery, without applying them) so client
// models can be read: evaluation and engine shutdown both pass through here.
func (e *Engine) quiesce() {
	for _, f := range e.heap {
		if f.res == nil {
			e.resolve(f)
		}
	}
}
