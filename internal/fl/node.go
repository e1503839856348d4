package fl

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/comm"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// This file is the server half of the node runtime: a ServerNode that owns
// aggregation state, the scheduling policy, the traffic ledger and
// evaluation collection, speaking the wire protocol of wire.go over any
// transport.Listener — in-memory channels for deterministic single-process
// federations, real TCP sockets for `fedserver` plus N `fedclient`
// processes. The client half lives in node_client.go.
//
// One run serves the root and the edge AggregatorNode (node_agg.go): a
// serverRun, a single-goroutine event loop. Reader goroutines (one per live
// connection) and the accept loop deliver decoded messages and handshaken
// connections into channels; the loop serializes every state transition,
// so there is no locking discipline to get wrong. Admission, adoption,
// triage, the barriers, liveness and the stop drain are the PeerTable's
// (peertable.go); update intake, collection and evaluation fan-out are the
// run's. What opens and closes a round or an evaluation is the run's clock:
// an edge's uplink, or the root's schedule, whose three schedulers mirror
// the in-process engine's semantics:
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
// They are parity-tested against the inproc engine at a tolerance, not
// byte-identically: real processes have no virtual clock (DESIGN.md §8).
//
// Fault tolerance (DESIGN.md §9): a client whose connection dies keeps its
// session for a reconnect window — its re-dial presents the session token —
// and is resent on adoption whatever it still owes; one that stays gone
// churns: cohorts skip it, barriers stop waiting for it, its PerClient slot
// reads NaN. Churn never aborts the run; an error a client reports does.
// At every commit boundary the root can snapshot its state (cfg.Checkpoint)
// for cfg.Resume to rebuild mid-run, the tokens clients hold still valid.
//
// Tree topology (DESIGN.md §11): with cfg.Aggregators > 0 the root's
// sessions are AggregatorNodes, each fronting a contiguous client range
// (TreeSplit). A flat root is the same tree with one client behind every
// session, so rounds and evaluations are the same code: the root calls
// WireDispatch once per cohort member — payloads travel batched per
// subtree, a shared global as one copy — and folds the answers in session
// order, flat fan-in regrouped. Only the frames differ. A dead aggregator
// churns its whole subtree after the reconnect window; checkpoints remain
// root-only (see Serve).

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

// clock opens and closes a serverRun's rounds and evaluations: the root's
// is its schedule (rootClock: the sampler opens a round, a commit closes
// it), an edge's its uplink (edgeClock, node_agg.go: the root's requests
// open them, an answer upstream closes them). Each embeds the run it drives.
type clock interface {
	full()                                  // every seat is taken before the welcome
	advance()                               // before every event: open what is due, end the run when its stop completes
	take(u *Update, m *wireMsg) (kept bool) // route an accepted upload, read from m
	closeRound()                            // the round barrier completed
	closeEval()                             // the evaluation barrier completed
	fromUp(f upFrame)                       // an uplink delivery (an edge's; nil channels at the root)
	redial(d upDial)
	failed(cause error) error // a fatal cause, in the role's words (an edge also reports it up)
}

// serverRun is the single-goroutine event loop driving one Serve call or
// one aggregator's Run.
type serverRun struct {
	clock clock
	algo  WireAlgorithm
	// pt is the fan-in (clients, a tree root's aggregators, an edge's child
	// range); sessions aliases its table, indexed by id less pt.base.
	pt       *PeerTable
	sessions []*peerSession
	// Session a fronts the clients [bounds[a], bounds[a+1]): one each at a
	// flat root and an edge, a subtree each at a tree root, where tree picks
	// the frames spoken (join, dispatch, evaluation request and reply, the
	// answers handleInbound accepts). red is the edge reduction, or nil.
	tree   bool
	bounds []int
	red    ReducibleWireAlgorithm
	// version stamps dispatches, heartbeats and resumes: the root's
	// committed rounds, an edge's last dispatch from the root.
	version int
	// The open round: the sessions dispatched, ascending, and what each
	// fronts and answered. The open evaluation: the accuracies of the
	// clients in evalIDs (nil on the root's full sweep), NaN until answered.
	owners  []int
	slots   []roundSlot
	evalPer []float64
	evalIDs []int
	// frames and dials are an edge's uplink deliveries (nil at the root).
	frames <-chan upFrame
	dials  <-chan upDial
	fatal  error
	done   bool
}

// roundSlot is one session's part of the open sync round: the run of the
// ascending cohort it fronts and its answer, their updates in member order
// (nil where a member sent none) or one pre-reduced aggregate of them, and
// the messages the answer was read from, which the slot releases.
type roundSlot struct {
	members []int
	ups     []*Update
	agg     *AggUpdate
	msgs    []*wireMsg
}

// newRun builds the run clock c drives over table pt, whose sessions front
// the clients bounds partitions.
func newRun(c clock, algo WireAlgorithm, pt *PeerTable, bounds []int) *serverRun {
	r := &serverRun{clock: c, algo: algo, pt: pt, sessions: pt.sessions, bounds: bounds, slots: make([]roundSlot, len(pt.sessions))}
	r.red, _ = algo.(ReducibleWireAlgorithm)
	pt.round.done, pt.eval.done = c.closeRound, c.closeEval
	return r
}

// loop is the event loop: every state transition happens here. Before each
// event the clock advances; the run ends when it is done, on a fatal error,
// or when ctx is cancelled (ctx's error).
func (r *serverRun) loop(ctx context.Context) error {
	ticker := time.NewTicker(r.pt.tickInterval())
	defer ticker.Stop()
	r.pt.lastBeat = time.Now()
	for {
		if r.fatal == nil {
			r.clock.advance()
		}
		if r.done || r.fatal != nil {
			return r.fatal
		}
		select {
		case ev := <-r.pt.events:
			r.handleInbound(ev)
		case ac := <-r.pt.conns:
			if err := r.pt.admit(ac, uint64(r.version)); err != nil {
				r.failf("%w", err)
			} else if r.pt.full() {
				r.clock.full()
			}
		case f := <-r.frames:
			r.clock.fromUp(f)
		case d := <-r.dials:
			r.clock.redial(d)
		case <-ticker.C:
			r.pt.tick(uint64(r.version))
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// failf ends the run with a fatal cause.
func (r *serverRun) failf(format string, args ...any) {
	r.fatal = r.clock.failed(fmt.Errorf(format, args...))
}

// handleInbound interprets what the table's triage left to the run: the
// answers to its dispatches and evaluation requests, in whichever shape the
// topology delivers them. The update handlers report whether the run now
// holds the message (a barrier waits on it, or it is held back behind an
// evaluation); any other is released here: a dropped message's vectors go
// to the collector, and an applied one's are back in the pool already.
func (r *serverRun) handleInbound(ev inbound) {
	sess, m, err := r.pt.triage(ev)
	kept := false
	switch {
	case err != nil:
		r.failf("%w", err)
	case m == nil:
	case m.kind == msgUpdate && !r.tree:
		kept = r.handleUpdate(sess, m)
	case (m.kind == msgAggUpdate || m.kind == msgTreeUpdate) && r.tree:
		kept = r.handleSubtree(sess, m)
	case m.kind == msgEvalRes:
		r.handleEvalRes(sess, m)
	default:
		// Duplicate joins, replayed frames after a chaos duplication, and
		// unknown kinds are tolerated noise, not protocol violations: the
		// reconnect machinery makes duplicates a normal occurrence.
		r.pt.stats.Ignored++
	}
	if !kept {
		ev.msg.release()
	}
}

// handleUpdate takes one client upload in and hands it to the clock.
func (r *serverRun) handleUpdate(sess *peerSession, m *wireMsg) (kept bool) {
	if !r.pt.answered(sess, m.a) {
		return false
	}
	scale := math.Float64frombits(m.b)
	if !weightSum(scale) {
		r.failf("client %d sent update weight %v", sess.id, scale)
		return false
	}
	return r.clock.take(&Update{Client: sess.id, Version: int(m.a), Scale: scale, Vecs: m.vecs, Counts: m.counts}, m)
}

// handleSubtree collects one aggregator's answer: its children's updates
// bundled unreduced (the passthrough) or one pre-reduced aggregate. An
// aggregate of a method with no sound reduction means the aggregator runs
// another method than the root: a protocol violation, fatal, not noise.
func (r *serverRun) handleSubtree(sess *peerSession, m *wireMsg) (kept bool) {
	if !r.pt.answered(sess, m.a) || !r.pt.expects(&r.pt.round, sess) {
		return false
	}
	if m.kind == msgTreeUpdate {
		ups, err := decodeTreeUpdate(m)
		if err != nil {
			r.failf("aggregator %d sent a malformed update bundle: %w", sess.id, err)
			return false
		}
		return r.collect(sess, m, nil, ups...)
	}
	if r.red == nil {
		r.failf("aggregator %d pre-reduced %s, which has no sound reduction (the aggregator must run the root's method)",
			sess.id, r.algo.Name())
		return false
	}
	au, err := decodeAggUpdate(m)
	if err != nil {
		r.failf("aggregator %d sent a malformed aggregate: %w", sess.id, err)
		return false
	}
	au.Agg = sess.id
	return r.collect(sess, m, au)
}

// collectUpdate files a sync upload, read from m, into the open round. The
// barrier's weight IS the scale: the root folds by it, an edge pre-reduces
// by it.
func (r *serverRun) collectUpdate(u *Update, m *wireMsg) (kept bool) {
	sess := r.pt.sessionByID(u.Client)
	if !r.pt.expects(&r.pt.round, sess) {
		return false
	}
	u.Weight = u.Scale
	return r.collect(sess, m, nil, u)
}

// collect files a session's answer to the open round — its members'
// updates, or one aggregate of them, read from m — and stops waiting for it.
// An answer
// naming a client the session was not dispatched this round, naming one
// twice, or folding more children than it was dispatched is a protocol
// violation by a trusted peer: fatal, as a malformed frame is.
func (r *serverRun) collect(sess *peerSession, m *wireMsg, au *AggUpdate, ups ...*Update) (kept bool) {
	slot := &r.slots[sess.id-r.pt.base]
	if au != nil && au.Children > len(slot.members) {
		r.failf("%s %d folded %d children into its aggregate of round %d, it was dispatched %d",
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
			r.failf("%s %d answered round %d with an update for client %d, %s",
				r.pt.noun, sess.id, r.version+1, u.Client, why)
			clear(slot.ups)
			return false
		}
		slot.ups[i] = u
	}
	slot.agg = au
	slot.msgs = append(slot.msgs, m)
	r.pt.round.resolve(sess.id)
	return true
}

// releaseRound recycles the messages the closed round's answers were read
// from, once folded or answered (WireApply and PreReduce keep nothing of
// u.Vecs): the vectors they decoded go back to the pool, their frames to
// their connections.
func (r *serverRun) releaseRound() {
	for _, a := range r.owners {
		slot := &r.slots[a]
		for _, m := range slot.msgs {
			m.recycle()
		}
		clear(slot.ups)
		clear(slot.msgs)
		*slot = roundSlot{ups: slot.ups[:0], msgs: slot.msgs[:0]}
	}
	r.owners = r.owners[:0]
}

// beginRound opens the sync barrier on the live sessions fronting cohort
// (ascending ids). Churned sessions are filtered after the draw, so the
// surviving schedule stays deterministic.
func (r *serverRun) beginRound(cohort []int) {
	r.pt.round.open()
	r.byOwner(cohort, func(a int, members []int) {
		if s := r.sessions[a]; !s.churned {
			r.slots[a].members = members
			r.owners = append(r.owners, a)
			r.pt.round.ids[s.id] = true
		}
	})
}

// askEval opens the evaluation barrier at version: every live session
// fronting one of want (ascending ids) is asked for their accuracies (a
// tree request lists them), each NaN until answered — for good when its
// session churns; a disconnected one owes its request on adoption.
func (r *serverRun) askEval(version uint64, want []int) {
	r.pt.eval.open()
	r.evalPer = make([]float64, len(want))
	for i := range r.evalPer {
		r.evalPer[i] = math.NaN()
	}
	req := &wireMsg{kind: msgEvalReq, a: version}
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
		// [id, accuracy bits] pairs (aggEvalInts).
		if len(m.ints)%2 != 0 {
			r.failf("aggregator %d sent a malformed evaluation reply: odd int count %d", sess.id, len(m.ints))
			return
		}
		lo, hi := r.bounds[sess.id], r.bounds[sess.id+1]
		for p := 0; p < len(m.ints); p += 2 {
			id := int(m.ints[p])
			switch i, ok := r.evalSlot(id); {
			case id < lo || id >= hi:
				r.failf("aggregator %d reported accuracy for client %d outside its range [%d, %d)", sess.id, id, lo, hi)
			case !ok:
				r.failf("aggregator %d reported accuracy for client %d, which was not sampled", sess.id, id)
			default:
				r.evalPer[i] = math.Float64frombits(uint64(m.ints[p+1]))
				continue
			}
			return
		}
	} else if i, ok := r.evalSlot(sess.id); ok {
		r.evalPer[i] = math.Float64frombits(m.b)
	}
	sess.pendingEval = nil
	r.pt.eval.resolve(sess.id)
}

// evalSlot is client id's index in the open evaluation: its place in
// evalIDs, or the id itself on the root's full sweep.
func (r *serverRun) evalSlot(id int) (int, bool) {
	if r.evalIDs == nil {
		return id, true
	}
	return slices.BinarySearch(r.evalIDs, id)
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

// ownerOf maps a client id to the index of the session fronting it.
func (r *serverRun) ownerOf(id int) int {
	return sort.Search(len(r.sessions), func(a int) bool { return r.bounds[a+1] > id })
}

// rootClock is the root's clock, its schedule: rounds are sampled (sync),
// kept full (async) or drawn as cohorts (semisync) and committed into the
// round record; evaluations open at its cadence and close into its metrics.
type rootClock struct {
	*serverRun
	n   *ServerNode
	cfg NodeConfig
	k   int
	all []int // every client id, a full sweep's want list

	applied     int // applies since the last commit (async/semisync)
	cohortSize  int
	commitEvery int
	semiOpen    bool // a semisync cohort is outstanding
	start       time.Time
	payloads    [][]comm.Body // the dispatch's scratch
	avail       []int         // idle's scratch
	// holdback queues async/semisync updates that arrive mid-evaluation, so
	// an evaluation observes one consistent committed model.
	holdback []heldUpdate
}

// heldUpdate is an update held back, and the message it was read from.
type heldUpdate struct {
	u *Update
	m *wireMsg
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
	// SimTime is cumulative serving time: a resumed server's clock continues
	// from the restored history's last point.
	r.start = time.Now()
	if h := n.History; len(h) > 0 {
		r.start = r.start.Add(-time.Duration(h[len(h)-1].SimTime * float64(time.Second)))
	}
	if err := r.loop(ctx); err != nil {
		return nil, err
	}
	return n.History, nil
}

func newServerRun(n *ServerNode) *rootClock {
	cfg := n.cfg
	k := cfg.Clients
	r := &rootClock{n: n, cfg: cfg, k: k, all: make([]int, k)}
	for i := range r.all {
		r.all[i] = i
	}
	noun, sessionCount, readJoin := "client", k, readClientJoin
	if cfg.Aggregators > 0 {
		noun, sessionCount, readJoin = "aggregator", cfg.Aggregators, r.readTreeJoin
	}
	pt := newPeerTable(noun, sessionCount, 0, k, n.algo, cfg.WireSpec(), cfg.Heartbeat, cfg.DeadAfter, cfg.ReconnectWindow,
		cfg.Seed, n.Ledger, &n.Stats, readJoin)
	pt.fed = [welToken]int64{int64(k), int64(cfg.Rounds), int64(cfg.BatchSize), int64(cfg.EvalEvery)}
	r.serverRun = newRun(r, n.algo, pt, TreeSplit(k, sessionCount))
	r.tree = cfg.Aggregators > 0
	r.cohortSize, r.commitEvery = cohortPolicy(k, cfg.SampleRate, cfg.Sched, cfg.Quorum)
	return r
}

// full builds the algorithm's server state from the complete fleet's joins
// and welcomes everyone; advance then opens round 1. The joins' init
// payloads, read where they lie in their frames, are kept only for a run
// whose checkpoints carry them (releaseJoins).
func (r *rootClock) full() {
	if err := r.algo.WireSetup(r.pt.joins, tensor.Workers()); err != nil {
		r.failf("%s wire setup: %w", r.algo.Name(), err)
		return
	}
	r.releaseJoins()
	r.pt.assemble()
}

// releaseJoins drops the joins' init payloads, and hands their frames back,
// once the server state is built, unless a checkpoint will read them: a
// tree root never checkpoints, and WireSetup is their only other reader.
func (r *rootClock) releaseJoins() {
	if r.cfg.Checkpoint == nil {
		r.pt.dropJoins()
	}
}

func (r *rootClock) fromUp(upFrame)           {} // the root has no uplink
func (r *rootClock) redial(upDial)            {}
func (r *rootClock) failed(cause error) error { return fmt.Errorf("fl: %w", cause) }

// readTreeJoin is the tree root's readJoin: an aggregator's join carries its
// whole child range's declarations in one frame, validated against the
// server's own TreeSplit so both sides agree on who fronts whom. (The table
// refuses an index outside [0, aggs) itself.)
func (r *rootClock) readTreeJoin(m *wireMsg) (int, []WireJoin, error) {
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

// take routes an accepted update through the configured schedule and
// reports whether the run now holds it: the sync barrier collects it, the
// async schedules hold it back while an evaluation is open and otherwise
// fold or drop it on the spot, leaving its message the caller's to release.
func (r *rootClock) take(u *Update, m *wireMsg) (kept bool) {
	switch {
	case r.cfg.Sched == SchedSync:
		return r.collectUpdate(u, m)
	case r.pt.eval.active():
		r.holdback = append(r.holdback, heldUpdate{u, m})
		return true
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
		r.failf("%s apply from client %d: %w", r.algo.Name(), u.Client, err)
		return false
	}
	m.recycle()
	r.applied++
	if r.applied >= r.commitEvery {
		r.commit()
	}
	return false
}

// closeRound folds the collected answers session by session, ascending: an
// aggregate through WireApplyAggregate, updates member by member — sorted
// client-id order in either topology, as flat fan-in applies them.
func (r *rootClock) closeRound() {
	for _, a := range r.owners {
		slot := &r.slots[a]
		if au := slot.agg; au != nil && au.Children > 0 {
			if err := r.red.WireApplyAggregate(au); err != nil {
				r.failf("%s aggregate from aggregator %d: %w", r.algo.Name(), a, err)
				return
			}
		}
		for _, u := range slot.ups {
			if u == nil {
				continue
			}
			if err := r.algo.WireApply(u); err != nil {
				r.failf("%s apply from client %d: %w", r.algo.Name(), u.Client, err)
				return
			}
		}
	}
	r.releaseRound()
	r.commit()
}

// commit completes one round: merge accumulators, advance the version,
// then evaluate or account the round directly.
func (r *rootClock) commit() {
	if err := r.algo.WireCommit(); err != nil {
		r.failf("%s commit: %w", r.algo.Name(), err)
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
// announces it: a round an observer has seen is durably recoverable.
func (r *rootClock) finishRound(m *RoundMetrics) {
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
// in-process run draws — for its personalized accuracy.
func (r *rootClock) startEval() {
	r.evalIDs = r.n.evalSample(r.k)
	want := r.evalIDs
	if want == nil {
		want = r.all
	}
	r.askEval(uint64(r.version), want)
}

// closeEval closes the round with the collected accuracies' MeanStd (NaN
// excluded), then releases the updates held back during the evaluation.
func (r *rootClock) closeEval() {
	mean, std := MeanStd(r.evalPer)
	m := RoundMetrics{MeanAcc: mean, StdAcc: std, PerClient: r.evalPer, EvalIDs: r.evalIDs}
	r.evalPer, r.evalIDs = nil, nil
	r.finishRound(&m)
	for len(r.holdback) > 0 && !r.pt.eval.active() && r.fatal == nil {
		h := r.holdback[0]
		r.holdback = r.holdback[1:]
		if !r.take(h.u, h.m) {
			h.m.release()
		}
	}
}

// snapshot captures the server's full state at a commit boundary, where the
// accumulator is clean: enough that a process killed immediately afterwards
// can be restarted with cfg.Resume, honoring the tokens clients still hold.
func (r *rootClock) snapshot() (*Snapshot, error) {
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
// before any connection is accepted: algorithm state, both streams and the
// session table with its tokens, every session disconnected with its
// reconnect window running.
func (r *rootClock) restore(snap *Snapshot) error {
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
		r.releaseJoins()
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
// cohort) rolls directly into the next instead of waiting for a tick. Once
// the horizon is committed it opens the stop phase, which holds every
// unchurned session open until its peer acknowledged the goodbye — adopt
// hands it to a session that was disconnected at the finish — or its
// window degrades it to churn; the run is done when the stop is.
func (r *rootClock) advance() {
	r.done = r.pt.stopping && !r.pt.pendingStops()
	for r.pt.assembled && !r.pt.stopping && r.fatal == nil {
		if !slices.ContainsFunc(r.sessions, func(s *peerSession) bool { return !s.churned }) {
			r.failf("round %d: every client has left the federation", r.version+1)
			return
		}
		if r.pt.eval.active() {
			return
		}
		if r.version >= r.cfg.Rounds {
			r.pt.beginStop()
			return
		}
		switch r.cfg.Sched {
		case SchedAsyncBounded:
			r.dispatchIdle()
			return
		case SchedSemiSync:
			if _, busy := r.idle(); r.semiOpen && busy > 0 {
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

// openRound samples the cohort the in-process sync scheduler draws at the
// same seed and dispatches one frame to every live owner, ascending.
func (r *rootClock) openRound() {
	r.beginRound(SampleCohort(r.n.Rng, r.k, r.cfg.SampleRate))
	for _, a := range r.owners {
		r.dispatch(r.sessions[a], r.slots[a].members...)
		if r.fatal != nil {
			return
		}
	}
	r.pt.round.settle()
}

// idle lists the live sessions with no dispatch outstanding, in id order,
// and counts those with one.
func (r *rootClock) idle() (ids []int, busy int) {
	r.avail = r.avail[:0]
	for _, s := range r.sessions {
		switch {
		case s.churned:
		case s.busy:
			busy++
		default:
			r.avail = append(r.avail, s.id)
		}
	}
	return r.avail, busy
}

// dispatchIdle keeps the async pipeline full: idle sessions are dispatched
// in id order until cohortSize updates are in flight — mirroring the
// engine's bounded concurrency.
func (r *rootClock) dispatchIdle() {
	idle, busy := r.idle()
	r.dispatchEach(idle[:min(len(idle), max(r.cohortSize-busy, 0))])
}

// openSemiCohort dispatches a fresh semisync cohort. Stragglers from an
// earlier cohort keep their outstanding dispatches — their late updates
// still count toward the quorum, exactly as in the engine.
func (r *rootClock) openSemiCohort() {
	avail, _ := r.idle()
	n := min(r.cohortSize, len(avail))
	if n == 0 {
		return
	}
	ids := make([]int, n)
	for i, p := range SamplePrefix(r.n.Rng, len(avail), n) {
		ids[i] = avail[p]
	}
	sort.Ints(ids)
	r.dispatchEach(ids)
	r.semiOpen = true
}

// dispatchEach dispatches to each client of ids, a session each.
func (r *rootClock) dispatchEach(ids []int) {
	for _, id := range ids {
		r.dispatch(r.sessions[id], id)
		if r.fatal != nil {
			return
		}
	}
}

// dispatch sends session s its broadcast for the clients it fronts:
// WireDispatch once per member, ascending — the calls a flat federation
// makes, in its order — then one frame. A client gets a broadcast, which the
// table encodes once per committed version for a global that every client
// gets (FedAvg, FedProx, FedClassAvg) and into the session's own frame for a
// personalized one (KT-pFL, FedProto). An aggregator gets its members'
// payloads batched into one frame it fans out: one copy for the subtree
// when every member got the same vectors (treeDispatchMsg), one per member
// otherwise.
func (r *rootClock) dispatch(s *peerSession, members ...int) {
	payloads := r.payloads[:0]
	for _, id := range members {
		vecs, err := r.algo.WireDispatch(id)
		if err != nil {
			r.failf("%s dispatch to client %d: %w", r.algo.Name(), id, err)
			return
		}
		payloads = append(payloads, f64Bodies(nil, vecs))
	}
	if r.tree {
		r.pt.dispatchMsg(s, treeDispatchMsg(uint64(r.version), members, payloads))
	} else {
		r.pt.broadcast(uint64(r.version), payloads[0], s)
	}
	clear(payloads)
	r.payloads = payloads
}
