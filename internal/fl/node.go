package fl

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// This file is the server half of the node runtime: a ServerNode that owns
// aggregation state, the scheduling policy, the traffic ledger and
// evaluation collection, speaking the wire protocol of wire.go over any
// transport.Listener — in-memory channels for deterministic single-process
// federations, real TCP sockets for `fedserver` plus N `fedclient`
// processes. Everything a listener decides about the peers below it —
// admission, adoption, triage, the round and evaluation barriers, liveness,
// the stop drain — is the PeerTable's (peertable.go), shared with the edge
// AggregatorNode (node_agg.go); this file is what only the root does:
// scheduling, tree joins, commit, evaluation aggregation, checkpoints. The
// client half lives in node_client.go.
//
// The runtime is a single-goroutine event loop. Reader goroutines (one per
// live connection) and the accept loop deliver decoded messages and
// handshaken connections into channels; the loop serializes every state
// transition — scheduling, aggregation, session management, heartbeats,
// checkpoints — so there is no locking discipline to get wrong. The three
// schedulers mirror the in-process engine's semantics:
//
//   - sync: the classic barrier. Each round samples a cohort from the same
//     RNG stream the simulation's sync scheduler uses, so a node federation
//     at seed S visits exactly the cohorts the in-process run at seed S
//     does, and full-precision runs land within floating-point parity.
//   - async: FedBuff-style bounded staleness. Idle clients are redispatched
//     immediately; an update more than MaxStaleness commits old is dropped,
//     a fresher one aggregates with weight Scale·1/(1+Decay·staleness); the
//     server commits every cohort-size applies.
//   - semisync: K-of-N quorum. A cohort is dispatched, the server commits
//     after Quorum applies; stragglers from earlier cohorts still count.
//
// The wire schedulers are parity-tested against the inproc engine at a
// tolerance, not byte-identically: real processes have no virtual clock —
// see DESIGN.md §8 for the determinism boundary and §9 for the wire
// fault-tolerance contract this file implements.
//
// Fault tolerance: a client whose connection dies enters a bounded
// reconnect window. It keeps its identity — the server-issued session token
// presented in the re-dial's transport hello names the session — and on
// adoption the server resends whatever the client still owes (a dispatch,
// an evaluation request). A client that stays gone past the window degrades
// to churn semantics: subsequent cohorts skip it, pending barriers stop
// waiting for it, its PerClient slot reads NaN. Churn never aborts the run;
// only an algorithm error reported by a client does (that is a bug, not
// churn). The server's own crash is survivable too: at every commit
// boundary it can snapshot its full state — committed round, algorithm
// server half, ledger, history, RNG position, session table and join
// declarations — through cfg.Checkpoint, and cfg.Resume rebuilds a server
// mid-run whose still-held tokens remain valid.
//
// Tree topology: with cfg.Aggregators > 0 the server becomes the root of a
// 2-level tree whose downstream peers are AggregatorNodes, each fronting a
// contiguous range of the client-id space (TreeSplit). A flat root is the
// same tree with one client behind every session, so one round opening,
// one completion and one evaluation start serve both: the root samples
// cohorts from the same RNG stream, calls WireDispatch once per cohort
// member — payloads travel batched per subtree, a shared global as one
// copy — and folds the answers in session order, so the model arithmetic
// is flat fan-in regrouped, not a different algorithm. Only the frames
// differ between the topologies. A
// dead aggregator churns its whole subtree after the reconnect window;
// checkpoints remain root-only (and are currently mutually exclusive with
// the tree, see Serve). See DESIGN.md §11.

// DefaultHeartbeat is the server's liveness-probe cadence when the config
// sets none.
const DefaultHeartbeat = time.Second

// DefaultReconnectWindow is how long a disconnected client keeps its
// session before degrading to churn, when the config sets none.
const DefaultReconnectWindow = 10 * time.Second

// joinTimeout bounds how long an accepted connection may sit silent before
// its join frame arrives; a peer that handshakes and stalls cannot pin an
// accept slot forever.
const joinTimeout = 30 * time.Second

// NodeConfig configures a ServerNode federation: the federation's Config —
// shared with the in-process engine, so a node run at the same Config
// samples the cohorts and evaluation samples the in-process run samples —
// plus what only a server node has. Config.Seed also seeds the session
// tokens, Config.BatchSize is broadcast in the welcome, and the framing
// fields must match the transport's negotiated spec (Config.WireSpec).
type NodeConfig struct {
	Config
	// Clients is the fleet size; the server waits for exactly this many
	// joins before round 1.
	Clients int
	// Aggregators, when positive, runs the server as the root of a 2-level
	// tree: it accepts that many AggregatorNode joins (each presenting a
	// contiguous child range from TreeSplit) instead of individual clients.
	// 0 is the flat topology. Tree mode requires the sync scheduler and is
	// mutually exclusive with Checkpoint/Resume.
	Aggregators int
	// Sched selects the scheduling policy (default SchedSync).
	Sched SchedulerKind
	// MaxStaleness bounds async staleness: an update whose dispatch-time
	// model version is more than MaxStaleness commits old is dropped
	// (default 8).
	MaxStaleness int
	// Decay is the staleness decay α: an update s commits stale aggregates
	// with weight Scale·1/(1+α·s). 0 disables decay.
	Decay float64
	// Quorum is the semisync K: commit after K applied updates (default
	// ⌈cohort/2⌉, capped at the cohort size).
	Quorum int
	// DType is the fleet's model element type, recorded in checkpoints so a
	// resume at a different dtype is rejected instead of silently changing
	// the numerics.
	DType tensor.DType
	// Heartbeat is the liveness-probe cadence (default DefaultHeartbeat).
	// The server sends a heartbeat to every connected client each interval;
	// clients echo it. Traffic, not progress, is the liveness signal.
	Heartbeat time.Duration
	// DeadAfter is how long a connection may sit silent before the server
	// declares it hung and tears it down (default 5×Heartbeat). The client
	// applies the same bound to the server, learned from the welcome.
	DeadAfter time.Duration
	// ReconnectWindow is how long a disconnected client keeps its session
	// before degrading to churn (default DefaultReconnectWindow).
	ReconnectWindow time.Duration
	// Checkpoint, when non-nil, receives a full server snapshot at every
	// CheckpointEvery-th commit boundary, after the round's metrics and
	// traffic are accounted. A checkpoint error aborts the run — a server
	// that silently stops persisting is worse than one that stops.
	Checkpoint func(*Snapshot) error
	// CheckpointEvery is the commit cadence of Checkpoint (default 1).
	CheckpointEvery int
	// Resume, when non-nil, restores server state from a snapshot before
	// accepting connections: the federation continues at the checkpointed
	// round, and the session tokens clients already hold remain valid.
	Resume *Snapshot
	// OnRound, when non-nil, receives every evaluation point the moment it
	// commits — fedserver streams its CSV rows through it so orchestration
	// (and the churn smoke test) can observe round progress live.
	OnRound func(RoundMetrics)
}

func (c NodeConfig) withDefaults() NodeConfig {
	c.Config = c.Config.withDefaults()
	if c.MaxStaleness <= 0 {
		c.MaxStaleness = 8
	}
	defaultLiveness(&c.Heartbeat, &c.DeadAfter, &c.ReconnectWindow)
	return c
}

// NodeStats counts the failure-path events of one Serve call, for
// operator-facing summaries and tests. Read it after Serve returns.
type NodeStats struct {
	// Reconnects counts adopted re-dials (session resumed).
	Reconnects int
	// Disconnects counts connection losses, including hung peers torn down
	// by the dead-interval check.
	Disconnects int
	// Churned counts sessions that exhausted the reconnect window.
	Churned int
	// Drops counts async updates discarded for excess staleness.
	Drops int
	// Ignored counts tolerated protocol noise: duplicate or stale messages
	// discarded by the dedup rules.
	Ignored int
	// Resends counts owed dispatch/eval frames replayed on adoption.
	Resends int
	// Commits counts committed rounds (equals the round count the run
	// reached).
	Commits int
}

// ServerNode runs the server half of a federation over a transport. Like a
// Simulation it holds the round record (rounds.go): Cfg, the sampling
// stream Rng, the metrics History, and the Ledger, which records what
// actually crosses the wire — message frames with their transport framing,
// plus per-connection handshake bytes, heartbeats and re-handshakes
// included.
type ServerNode struct {
	rounds
	cfg  NodeConfig
	algo WireAlgorithm
	// Stats summarizes the run's failure-path events once Serve returns.
	Stats NodeStats
}

// NewServerNode builds a server node.
func NewServerNode(algo WireAlgorithm, cfg NodeConfig) *ServerNode {
	cfg = cfg.withDefaults()
	n := &ServerNode{rounds: newRounds(cfg.Config), cfg: cfg, algo: algo}
	n.checkpointTo(cfg.Checkpoint, cfg.CheckpointEvery)
	return n
}

// serverRun is the single-goroutine event loop driving one Serve call.
type serverRun struct {
	n    *ServerNode
	cfg  NodeConfig
	algo WireAlgorithm
	k    int

	// pt is the fan-in (clients in flat mode, aggregators in tree mode):
	// sessions, joins, the round and evaluation barriers, the stop drain.
	// sessions aliases pt's table for direct indexing.
	pt       *PeerTable
	sessions []*peerSession

	// bounds is the TreeSplit partition of the client-id space over the
	// sessions: session i fronts the clients [bounds[i], bounds[i+1]). A flat
	// root is the tree whose every session fronts one client — TreeSplit(k, k)
	// is the identity — so rounds and evaluations group clients by owner the
	// same way in both topologies, and tree picks only the frames they speak:
	// the join, the dispatch, the evaluation request and reply, the answers
	// handleInbound accepts. all lists every client id, a full sweep's want
	// list; red is the algorithm's edge reduction, nil when it has none.
	tree   bool
	bounds []int
	all    []int
	red    ReducibleWireAlgorithm

	version     int // committed rounds so far
	applied     int // applies since the last commit (async/semisync)
	cohortSize  int
	commitEvery int
	semiOpen    bool // a semisync cohort is outstanding
	start       time.Time

	// Sync-barrier state for the round pt.round awaits: owners lists the
	// sessions it was dispatched to, ascending, and slots[i] what session i
	// fronts in it and answered. payloads is the dispatch's scratch.
	owners   []int
	slots    []rootSlot
	payloads [][][]float64
	// Evaluation state for the evaluation pt.eval awaits: the accuracies
	// in RoundMetrics.PerClient's layout, and the sampled ids when
	// cfg.EvalSample is in effect (nil on a full sweep).
	evalPer []float64
	evalIDs []int
	// holdback queues async/semisync updates that arrive mid-evaluation, so
	// an evaluation observes one consistent committed model.
	holdback []*Update

	fatal error
	done  bool
}

// rootSlot is one session's part of the open sync round: the cohort members
// it fronts — a run of the ascending cohort, one client in a flat federation
// — and its answer, either their updates in member order (nil where a member
// sent none) or one pre-reduced aggregate of them.
type rootSlot struct {
	members []int
	ups     []*Update
	agg     *AggUpdate
}

// Serve accepts cfg.Clients joins on the listener (cfg.Aggregators tree
// joins in tree mode), then drives the configured schedule to completion
// and returns the metrics history. The listener is closed on return.
// Cancelling ctx tears the federation down and returns ctx.Err().
func (n *ServerNode) Serve(ctx context.Context, ln transport.Listener) ([]RoundMetrics, error) {
	defer ln.Close()
	if n.cfg.Clients <= 0 {
		return nil, fmt.Errorf("fl: server node needs a positive client count")
	}
	if n.cfg.Aggregators > 0 {
		if n.cfg.Aggregators > n.cfg.Clients {
			return nil, fmt.Errorf("fl: %d aggregators cannot front %d clients (need aggregators <= clients)",
				n.cfg.Aggregators, n.cfg.Clients)
		}
		if n.cfg.Sched != SchedSync {
			return nil, fmt.Errorf("fl: tree topology requires the sync scheduler")
		}
		if n.cfg.Checkpoint != nil || n.cfg.Resume != nil {
			return nil, fmt.Errorf("fl: tree topology does not support checkpoint/resume")
		}
	}
	r := newServerRun(n)
	defer r.pt.shutdown()
	if n.cfg.Resume != nil {
		if err := r.restore(n.cfg.Resume); err != nil {
			return nil, err
		}
	}
	go r.pt.acceptLoop(ln)
	return r.loop(ctx)
}

func newServerRun(n *ServerNode) *serverRun {
	cfg := n.cfg
	k := cfg.Clients
	r := &serverRun{n: n, cfg: cfg, algo: n.algo, k: k}
	r.red, _ = n.algo.(ReducibleWireAlgorithm)
	noun, sessionCount, readJoin := "client", k, readClientJoin
	if cfg.Aggregators > 0 {
		r.tree = true
		noun, sessionCount, readJoin = "aggregator", cfg.Aggregators, r.readTreeJoin
	}
	r.bounds = TreeSplit(k, sessionCount)
	r.slots = make([]rootSlot, sessionCount)
	r.all = make([]int, k)
	for i := range r.all {
		r.all[i] = i
	}
	r.pt = newPeerTable(noun, sessionCount, 0, k, n.algo, cfg.WireSpec(), cfg.Heartbeat, cfg.DeadAfter, cfg.ReconnectWindow,
		cfg.Seed, n.Ledger, &n.Stats, readJoin)
	r.pt.fed = [welToken]int64{int64(k), int64(cfg.Rounds), int64(cfg.BatchSize), int64(cfg.EvalEvery)}
	r.pt.round.done, r.pt.eval.done = r.completeRound, r.completeEval
	r.sessions = r.pt.sessions
	r.cohortSize, r.commitEvery = cohortPolicy(k, cfg.SampleRate, cfg.Sched, cfg.Quorum)
	return r
}

// loop is the event loop: every state transition happens here.
func (r *serverRun) loop(ctx context.Context) ([]RoundMetrics, error) {
	ticker := time.NewTicker(r.pt.tickInterval())
	defer ticker.Stop()
	r.pt.lastBeat = time.Now()
	// SimTime is cumulative serving time: a resumed server's clock continues
	// from the restored history's last point.
	r.start = r.pt.lastBeat
	if h := r.n.History; len(h) > 0 {
		r.start = r.start.Add(-time.Duration(h[len(h)-1].SimTime * float64(time.Second)))
	}
	for {
		if r.pt.assembled && r.fatal == nil {
			r.advance()
		}
		if r.done || r.fatal != nil {
			break
		}
		if err := r.step(ctx, ticker); err != nil {
			return nil, err
		}
	}
	// Graceful shutdown: the stop phase holds every unchurned session open
	// until its peer acknowledged the goodbye — adopt hands it to a session
	// that was disconnected at the finish — or its window degrades it to
	// churn; when everyone acks at once, the drain is a few frames long.
	if r.fatal == nil {
		r.pt.beginStop()
	}
	for r.fatal == nil && r.pt.pendingStops() {
		if err := r.step(ctx, ticker); err != nil {
			return nil, err
		}
	}
	if r.fatal != nil {
		return nil, r.fatal
	}
	return r.n.History, nil
}

// step serves one event of the fan-in; the error is ctx's.
func (r *serverRun) step(ctx context.Context, ticker *time.Ticker) error {
	select {
	case ev := <-r.pt.events:
		r.handleInbound(ev)
	case ac := <-r.pt.conns:
		if err := r.pt.admit(ac, uint64(r.version)); err != nil {
			r.fatal = fmt.Errorf("fl: server %w", err)
		} else if r.pt.full() {
			// The fleet is complete: build the algorithm's server state from
			// its joins and welcome everyone; advance() then opens round 1.
			if err := r.algo.WireSetup(r.pt.joins, tensor.Workers()); err != nil {
				r.fatal = fmt.Errorf("fl: %s wire setup: %w", r.algo.Name(), err)
			} else {
				r.pt.assemble()
			}
		}
	case <-ticker.C:
		r.pt.tick(uint64(r.version))
	case <-ctx.Done():
		return ctx.Err()
	}
	return nil
}

// readTreeJoin is the tree root's readJoin: an aggregator's join carries its
// whole child range's declarations in one frame, validated against the
// server's own TreeSplit so both sides agree on who fronts whom. (The table
// refuses an index outside [0, aggs) itself.)
func (r *serverRun) readTreeJoin(m *wireMsg) (int, []WireJoin, error) {
	if m.kind != msgTreeJoin || len(m.ints) < 2 {
		return 0, nil, errNotJoin
	}
	agg, lo, hi, joins, err := decodeTreeJoin(m)
	if err != nil {
		return 0, nil, fmt.Errorf("malformed tree join: %s", err)
	}
	if agg >= 0 && agg < len(r.sessions) && (lo != r.bounds[agg] || hi != r.bounds[agg+1]) {
		return 0, nil, fmt.Errorf("aggregator %d claims range [%d, %d), server assigns [%d, %d)",
			agg, lo, hi, r.bounds[agg], r.bounds[agg+1])
	}
	return agg, joins, nil
}

func (r *serverRun) aliveCount() int {
	alive := 0
	for _, s := range r.sessions {
		if !s.churned {
			alive++
		}
	}
	return alive
}

// outstanding counts dispatched-but-unanswered sessions.
func (r *serverRun) outstanding() int {
	busy := 0
	for _, s := range r.sessions {
		if s.busy && !s.churned {
			busy++
		}
	}
	return busy
}

// handleInbound interprets what the table's triage left to the role: the
// answers to the root's dispatches and evaluation requests, in whichever
// shape the topology delivers them.
//
// The three update handlers report whether the round now holds the
// message's vectors (a barrier waits on them, or they are held back behind
// an evaluation); everything else — folded already, noise, or consumed by
// the triage — is released here, the one place a dropped message's vectors
// go back to the free list.
func (r *serverRun) handleInbound(ev inbound) {
	sess, m, err := r.pt.triage(ev)
	kept := false
	switch {
	case err != nil:
		r.fatal = fmt.Errorf("fl: %w", err)
	case m == nil:
	case m.kind == msgUpdate && !r.tree:
		kept = r.handleUpdate(sess, m)
	case m.kind == msgAggUpdate && r.tree:
		kept = r.handleAggUpdate(sess, m)
	case m.kind == msgTreeUpdate && r.tree:
		kept = r.handleTreeUpdate(sess, m)
	case m.kind == msgEvalRes:
		r.handleEvalRes(sess, m)
	default:
		// Duplicate joins, replayed frames after a chaos duplication, and
		// unknown kinds are tolerated noise, not protocol violations: the
		// reconnect machinery makes duplicates a normal occurrence.
		r.n.Stats.Ignored++
	}
	if !kept {
		r.pt.vecs.release(ev.msg)
	}
}

// handleUpdate folds one upload into the scheduler.
func (r *serverRun) handleUpdate(sess *peerSession, m *wireMsg) (kept bool) {
	if !r.pt.answered(sess, m.a) {
		return false
	}
	scale := math.Float64frombits(m.b)
	if !weightSum(scale) {
		r.fatal = fmt.Errorf("fl: client %d sent update weight %v", sess.id, scale)
		return false
	}
	u := &Update{
		Client:  sess.id,
		Version: int(m.a),
		Scale:   scale,
		Vecs:    m.vecs,
		Counts:  m.counts,
		msg:     m,
	}
	if r.pt.eval.active() && r.cfg.Sched != SchedSync {
		r.holdback = append(r.holdback, u)
		return true
	}
	return r.processUpdate(u)
}

// handleAggUpdate collects one aggregator's pre-reduced contribution. An
// aggregator pre-reduces exactly the reducible algorithms, so an aggregate
// of a non-reducible one means the aggregator runs another method than the
// root: a protocol violation by a trusted peer, fatal, not noise.
func (r *serverRun) handleAggUpdate(sess *peerSession, m *wireMsg) (kept bool) {
	if !r.pt.answered(sess, m.a) || !r.pt.expects(&r.pt.round, sess) {
		return false
	}
	if r.red == nil {
		r.fatal = fmt.Errorf("fl: aggregator %d pre-reduced %s, which has no sound reduction (the aggregator must run the root's method)",
			sess.id, r.algo.Name())
		return false
	}
	au, err := decodeAggUpdate(m)
	if err != nil {
		r.fatal = fmt.Errorf("fl: aggregator %d sent a malformed aggregate: %w", sess.id, err)
		return false
	}
	au.Agg = sess.id
	return r.collect(sess, au)
}

// handleTreeUpdate collects one aggregator's passthrough bundle: its
// children's raw updates, unreduced, for algorithms with no sound
// pre-reduction.
func (r *serverRun) handleTreeUpdate(sess *peerSession, m *wireMsg) (kept bool) {
	if !r.pt.answered(sess, m.a) || !r.pt.expects(&r.pt.round, sess) {
		return false
	}
	ups, err := decodeTreeUpdate(m)
	if err != nil {
		r.fatal = fmt.Errorf("fl: aggregator %d sent a malformed update bundle: %w", sess.id, err)
		return false
	}
	return r.collect(sess, nil, ups...)
}

// processUpdate routes an accepted update through the configured schedule
// and reports whether the sync barrier now holds it: the async schedules
// fold or drop it on the spot, and its vectors are the caller's to release.
func (r *serverRun) processUpdate(u *Update) (kept bool) {
	if r.cfg.Sched == SchedSync {
		sess := r.sessions[u.Client]
		if !r.pt.expects(&r.pt.round, sess) {
			return false
		}
		u.Weight = u.Scale
		return r.collect(sess, nil, u)
	}
	if r.version >= r.cfg.Rounds {
		// The federation has committed its full horizon; a straggler's
		// late update (often released from the final-eval holdback) must
		// not commit a round beyond Rounds.
		r.n.Stats.Ignored++
		return false
	}
	u.Staleness = r.version - u.Version
	if u.Staleness > r.cfg.MaxStaleness {
		r.n.Stats.Drops++
		return false
	}
	u.Weight = u.Scale * stalenessWeight(r.cfg.Decay, u.Staleness)
	if err := r.algo.WireApply(u); err != nil {
		r.fatal = fmt.Errorf("fl: %s apply from client %d: %w", r.algo.Name(), u.Client, err)
		return false
	}
	r.applied++
	if r.applied >= r.commitEvery {
		r.commit()
	}
	return false
}

// collect files a session's answer to the open round — its members'
// updates, or one aggregate of them — and stops waiting for it. An answer
// naming a client the session was not dispatched this round, naming one
// twice, or folding more children than it was dispatched is a protocol
// violation by a trusted peer: fatal, as a malformed frame is.
func (r *serverRun) collect(sess *peerSession, au *AggUpdate, ups ...*Update) (kept bool) {
	slot := &r.slots[sess.id]
	if au != nil && au.Children > len(slot.members) {
		r.fatal = fmt.Errorf("fl: %s %d folded %d children into its aggregate of round %d, it was dispatched %d",
			r.pt.noun, sess.id, au.Children, r.version+1, len(slot.members))
		return false
	}
	if len(ups) > 0 {
		slot.ups = slices.Grow(slot.ups[:0], len(slot.members))[:len(slot.members)]
	}
	for _, u := range ups {
		i, ok := slices.BinarySearch(slot.members, u.Client)
		if !ok || slot.ups[i] != nil {
			why := "which it was not dispatched"
			if ok {
				why = "twice"
			}
			r.fatal = fmt.Errorf("fl: %s %d answered round %d with an update for client %d, %s",
				r.pt.noun, sess.id, r.version+1, u.Client, why)
			clear(slot.ups)
			return false
		}
		slot.ups[i] = u
	}
	slot.agg = au
	r.pt.round.resolve(sess.id)
	return true
}

// completeRound folds the answers the completed barrier collected, session
// by session in ascending order: an aggregate through WireApplyAggregate,
// updates member by member. Sessions front contiguous ranges and members
// ascend, so updates apply in sorted client-id order in either topology —
// flat fan-in's order, which a tree's passthrough reproduces exactly.
func (r *serverRun) completeRound() {
	for _, a := range r.owners {
		slot := &r.slots[a]
		if au := slot.agg; au != nil && au.Children > 0 {
			if err := r.red.WireApplyAggregate(au); err != nil {
				r.fatal = fmt.Errorf("fl: %s aggregate from aggregator %d: %w", r.algo.Name(), a, err)
				return
			}
		}
		for _, u := range slot.ups {
			if u == nil {
				continue
			}
			if err := r.algo.WireApply(u); err != nil {
				r.fatal = fmt.Errorf("fl: %s apply from client %d: %w", r.algo.Name(), u.Client, err)
				return
			}
		}
	}
	r.releaseRound()
	r.commit()
}

// releaseRound closes the sync barrier's collections: every update and
// aggregate has been folded (WireApply keeps nothing of u.Vecs), so the
// messages they were read from are released — their vectors back to the
// fan-in's free list for the next round's decodes, the frames they were
// folded from back to their connections. A passthrough bundle's updates
// share one message, which the first release returns whole.
func (r *serverRun) releaseRound() {
	for _, a := range r.owners {
		slot := &r.slots[a]
		for _, u := range slot.ups {
			if u != nil {
				r.pt.vecs.release(u.msg)
			}
		}
		if slot.agg != nil {
			r.pt.vecs.release(slot.agg.msg)
		}
		clear(slot.ups)
		*slot = rootSlot{ups: slot.ups[:0]}
	}
	r.owners = r.owners[:0]
}

// commit completes one round: merge accumulators, advance the version,
// then evaluate or account the round directly.
func (r *serverRun) commit() {
	if err := r.algo.WireCommit(); err != nil {
		r.fatal = fmt.Errorf("fl: %s commit: %w", r.algo.Name(), err)
		return
	}
	r.version++
	r.applied = 0
	r.semiOpen = false
	r.n.Stats.Commits++
	if r.n.evaluates(r.version) {
		r.startEval()
	} else {
		r.finishRound(nil)
	}
}

// finishRound closes the committed round through the round record — its
// traffic, the evaluation m when one ran, the checkpoint — and then
// announces it. The checkpoint lands before the OnRound announcement: a
// round an observer has seen is durably recoverable, even if the process
// dies on the next instruction.
func (r *serverRun) finishRound(m *RoundMetrics) {
	if err := r.n.closeRound(r.version, r.algo.EpochsPerRound(), time.Since(r.start).Seconds(), m, r.snapshot); err != nil {
		r.fatal = err
		return
	}
	if m != nil && r.cfg.OnRound != nil {
		r.cfg.OnRound(*m)
	}
}

// startEval asks every unchurned client of the round record's evaluation
// sample — the whole fleet, or under cfg.EvalSample the sample the
// in-process run draws — for its personalized accuracy, one request per
// live session for the wanted clients it fronts (in a tree the request
// lists them). Disconnected sessions owe theirs on adoption; a client whose
// session churns mid-evaluation (or is churned at the start) keeps its NaN,
// excluded from the mean by the NaN-excluding MeanStd.
func (r *serverRun) startEval() {
	r.pt.eval.open()
	r.evalIDs = r.n.evalSample(r.k)
	want := r.evalIDs
	if want == nil {
		want = r.all
	}
	r.evalPer = make([]float64, len(want))
	for i := range r.evalPer {
		r.evalPer[i] = math.NaN()
	}
	req := &wireMsg{kind: msgEvalReq, a: uint64(r.version)}
	r.byOwner(want, func(a int, ids []int) {
		if s := r.sessions[a]; !s.churned {
			if r.tree {
				req.ints = req.ints[:0]
				for _, id := range ids {
					req.ints = append(req.ints, int64(id))
				}
			}
			r.pt.ask(s, req)
		}
	})
	r.pt.eval.settle()
}

func (r *serverRun) handleEvalRes(sess *peerSession, m *wireMsg) {
	if !r.pt.expects(&r.pt.eval, sess) {
		return
	}
	if r.tree {
		accs, err := parseAggEvalInts(m.ints)
		if err != nil {
			r.fatal = fmt.Errorf("fl: aggregator %d sent a malformed evaluation reply: %w", sess.id, err)
			return
		}
		lo, hi := r.bounds[sess.id], r.bounds[sess.id+1]
		for id, acc := range accs {
			if id < lo || id >= hi {
				r.fatal = fmt.Errorf("fl: aggregator %d reported accuracy for client %d outside its range [%d, %d)",
					sess.id, id, lo, hi)
				return
			}
			i, ok := r.evalSlot(id)
			if !ok {
				r.fatal = fmt.Errorf("fl: aggregator %d reported accuracy for client %d, which was not sampled", sess.id, id)
				return
			}
			r.evalPer[i] = acc
		}
	} else if i, ok := r.evalSlot(sess.id); ok {
		r.evalPer[i] = math.Float64frombits(m.b)
	}
	sess.pendingEval = nil
	r.pt.eval.resolve(sess.id)
}

// evalSlot is client id's PerClient index in the open evaluation: its
// place in the sample, or the id itself on a full sweep.
func (r *serverRun) evalSlot(id int) (int, bool) {
	if r.evalIDs == nil {
		return id, true
	}
	return slices.BinarySearch(r.evalIDs, id)
}

// completeEval aggregates the collected accuracies (churned clients stay
// NaN — MeanStd excludes them count-wise, summing the finite entries in
// index order), closes the round, then releases any updates held back
// during the evaluation.
func (r *serverRun) completeEval() {
	mean, std := MeanStd(r.evalPer)
	m := RoundMetrics{MeanAcc: mean, StdAcc: std, PerClient: r.evalPer, EvalIDs: r.evalIDs}
	r.evalPer = nil
	r.evalIDs = nil
	r.finishRound(&m)
	for len(r.holdback) > 0 && !r.pt.eval.active() && r.fatal == nil {
		u := r.holdback[0]
		r.holdback = r.holdback[1:]
		if !r.processUpdate(u) {
			r.pt.vecs.release(u.msg)
		}
	}
}

// snapshot captures the server's full state at a commit boundary — the
// accumulator is clean between a commit and the next dispatch decision:
// enough that a process killed immediately afterwards can be restarted with
// cfg.Resume and continue the run, honoring the session tokens clients
// still hold.
func (r *serverRun) snapshot() (*Snapshot, error) {
	snap := &Snapshot{Kind: r.cfg.Sched, Round: r.version, FleetSize: r.k, DType: r.cfg.DType, Joins: cloneJoins(r.pt.joins)}
	if err := r.n.capture(snap, r.algo); err != nil {
		return nil, err
	}
	snap.Sessions = make([]SessionState, r.k)
	for i, s := range r.sessions {
		snap.Sessions[i] = SessionState{ID: s.id, Token: s.token, Churned: s.churned}
	}
	return snap, nil
}

// restore rebuilds the server from a snapshot the round record admits,
// before any connection is accepted: algorithm state via WireSetup +
// AlgoRestore, the session table with its original tokens, and both
// streams. Every session starts disconnected with the reconnect-window
// clock running — surviving clients re-dial with the tokens they hold.
func (r *serverRun) restore(snap *Snapshot) error {
	if err := r.n.resume(snap, r.cfg.Sched, r.k, r.algo, func() error {
		switch {
		case len(snap.Sessions) != r.k:
			return fmt.Errorf("fl: checkpoint has %d sessions, server is configured for %d clients", len(snap.Sessions), r.k)
		case len(snap.Joins) != r.k:
			return fmt.Errorf("fl: checkpoint has %d join records, server is configured for %d clients", len(snap.Joins), r.k)
		case snap.DType != r.cfg.DType:
			return fmt.Errorf("fl: checkpoint was taken at dtype %s, server is %s (resume with the same -dtype)",
				snap.DType, r.cfg.DType)
		}
		for i, ss := range snap.Sessions {
			if ss.ID != i {
				return fmt.Errorf("fl: checkpoint session %d has id %d", i, ss.ID)
			}
		}
		r.pt.joins = cloneJoins(snap.Joins)
		if err := r.algo.WireSetup(r.pt.joins, tensor.Workers()); err != nil {
			return fmt.Errorf("fl: %s wire setup: %w", r.algo.Name(), err)
		}
		return nil
	}); err != nil {
		return err
	}
	now := time.Now()
	for i, s := range r.sessions {
		s.token = snap.Sessions[i].Token
		s.churned = snap.Sessions[i].Churned
		s.joined = true
		s.downAt = now
	}
	r.pt.joined = r.k
	r.version = snap.Round
	r.pt.assembled = true
	return nil
}

// advance makes every scheduling decision that is currently possible. It
// loops so that a round completed without any wire traffic (an all-churned
// cohort) rolls directly into the next instead of waiting for a tick.
func (r *serverRun) advance() {
	for r.fatal == nil && !r.done {
		if r.aliveCount() == 0 {
			r.fatal = fmt.Errorf("fl: round %d: every client has left the federation", r.version+1)
			return
		}
		if r.pt.eval.active() {
			return
		}
		if r.version >= r.cfg.Rounds {
			r.done = true
			return
		}
		switch r.cfg.Sched {
		case SchedAsyncBounded:
			r.dispatchIdle()
			return
		case SchedSemiSync:
			if r.semiOpen && r.outstanding() > 0 {
				return
			}
			r.openSemiCohort()
			return
		default: // SchedSync
			if r.pt.round.active() {
				return
			}
			r.openRound()
			if r.pt.round.active() {
				return
			}
			// The whole cohort was churned: the round committed empty;
			// loop to open the next one.
		}
	}
}

// openRound samples the round's cohort from the shared RNG stream — the
// cohorts the in-process sync scheduler visits at the same seed; churned
// sessions are filtered after the draw, so the surviving schedule stays
// deterministic — groups the members by owning session and dispatches one
// frame to every live owner, ascending.
func (r *serverRun) openRound() {
	cohort := SampleCohort(r.n.Rng, r.k, r.cfg.SampleRate)
	r.pt.round.open()
	r.byOwner(cohort, func(a int, members []int) {
		if !r.sessions[a].churned {
			r.slots[a].members = members
			r.owners = append(r.owners, a)
			r.pt.round.ids[a] = true
		}
	})
	for _, a := range r.owners {
		r.dispatch(r.sessions[a], r.slots[a].members...)
		if r.fatal != nil {
			return
		}
	}
	r.pt.round.settle()
}

// byOwner calls fn once per session fronting any of ids (ascending), in
// session order, with the run of ids it fronts: sessions front contiguous
// ranges, so each run is a sub-slice of ids.
func (r *serverRun) byOwner(ids []int, fn func(a int, run []int)) {
	for i := 0; i < len(ids); {
		a := r.ownerOf(ids[i])
		j := i + 1
		for j < len(ids) && ids[j] < r.bounds[a+1] {
			j++
		}
		fn(a, ids[i:j])
		i = j
	}
}

// ownerOf maps a global client id to the session fronting it.
func (r *serverRun) ownerOf(id int) int {
	return sort.Search(len(r.sessions), func(a int) bool { return r.bounds[a+1] > id })
}

// dispatchIdle keeps the async pipeline full: idle, unchurned sessions are
// dispatched in id order until cohortSize updates are in flight —
// mirroring the engine's bounded concurrency.
func (r *serverRun) dispatchIdle() {
	inFlight := r.outstanding()
	for _, s := range r.sessions {
		if inFlight >= r.cohortSize {
			return
		}
		if s.churned || s.busy {
			continue
		}
		r.dispatch(s, s.id)
		if r.fatal != nil {
			return
		}
		inFlight++
	}
}

// openSemiCohort dispatches a fresh semisync cohort. Stragglers from an
// earlier cohort keep their outstanding dispatches — their late updates
// still count toward the quorum, exactly as in the engine.
func (r *serverRun) openSemiCohort() {
	avail := make([]int, 0, r.k)
	for _, s := range r.sessions {
		if !s.churned && !s.busy {
			avail = append(avail, s.id)
		}
	}
	n := r.cohortSize
	if n > len(avail) {
		n = len(avail)
	}
	if n == 0 {
		return
	}
	idx := SamplePrefix(r.n.Rng, len(avail), n)
	ids := make([]int, n)
	for i, p := range idx {
		ids[i] = avail[p]
	}
	sort.Ints(ids)
	for _, id := range ids {
		r.dispatch(r.sessions[id], id)
		if r.fatal != nil {
			return
		}
	}
	r.semiOpen = true
}

// dispatch sends session s its broadcast for the clients it fronts:
// WireDispatch once per member, ascending — the calls a flat federation
// makes, in its order — then one frame. A client gets a broadcast: an
// algorithm that broadcasts one global (FedAvg, FedProx, FedClassAvg)
// returns the identical vectors to every client, so from the second client
// on the table encodes them once per committed version; a personalized
// broadcast (KT-pFL's staged transfer, FedProto's table copy) never repeats
// and gets the session's own frame. An aggregator gets its members'
// payloads batched into one frame it fans out — one copy for the whole
// subtree when every member got the same vectors (treeDispatchMsg decides),
// one per member otherwise.
func (r *serverRun) dispatch(s *peerSession, members ...int) {
	payloads := r.payloads[:0]
	for _, id := range members {
		vecs, err := r.algo.WireDispatch(id)
		if err != nil {
			r.fatal = fmt.Errorf("fl: %s dispatch to client %d: %w", r.algo.Name(), id, err)
			return
		}
		payloads = append(payloads, vecs)
	}
	if r.tree {
		r.pt.dispatchMsg(s, treeDispatchMsg(uint64(r.version), members, payloads))
	} else {
		r.pt.broadcast(uint64(r.version), payloads[0], nil, s)
	}
	clear(payloads)
	r.payloads = payloads
}
