package fl

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/comm"
	"repro/internal/transport"
)

// This file is the edge-aggregator role of the tree topology. An
// AggregatorNode is composed, not restated: facing its contiguous range of
// clients it runs the PeerTable — the same fan-in, admission to stop drain,
// the root runs — and facing the root it keeps the uplink a ClientNode
// keeps, so it joins (on behalf of its whole child range, msgTreeJoin),
// echoes heartbeats and re-dials with its session token exactly as a client
// does. What is written here is only what an aggregator does that neither
// of them does: relay the root's welcome to its children, fan a batched
// dispatch out (a shared payload as one cached frame, through the table's
// broadcast) and answer it with either a pre-reduced aggregate
// (ReducibleWireAlgorithm + ExactAccumulator, exact regrouping of flat
// fan-in) or the children's raw updates bundled unreduced (the passthrough
// for non-associative algorithms like KT-pFL), relay evaluations, and
// acknowledge the root's stop once every child acknowledged its own.
//
// The aggregator holds no round state worth checkpointing: every frame it
// owes upstream is cached and replayed when the root re-dispatches after an
// adoption, and if the process dies outright the root churns its whole
// subtree after the reconnect window — restart-from-scratch semantics,
// documented in DESIGN.md §11.
//
// Ledger accounting: the aggregator's ledger prices its downstream side
// (child joins, dispatch fan-out, uploads, heartbeats). Its upstream
// traffic is priced by the root's ledger — the uplink-reduction claim is
// verified there, where the bytes actually land.

// AggregatorConfig configures one edge aggregator.
type AggregatorConfig struct {
	// Index is this aggregator's position in [0, Aggregators); with
	// Clients it determines the child range via TreeSplit.
	Index int
	// Aggregators is the tree's total aggregator count (the root's
	// NodeConfig.Aggregators).
	Aggregators int
	// Clients is the full fleet size (the root's NodeConfig.Clients).
	Clients int
	// Codec frames payload vectors; it must match both transports' codec.
	Codec comm.Codec
	// TopK and Delta mirror NodeConfig's fields: they shape the child
	// uploads this aggregator decodes (the aggregator's own upstream
	// frames stay dense — pre-reduced aggregates are cached for replay,
	// which stateful framing could not survive). They must match both
	// transports' negotiated spec.
	TopK  float64
	Delta bool
	// Seed drives this aggregator's child session-token issuance. Give
	// each aggregator a distinct seed.
	Seed int64
	// Heartbeat/DeadAfter/ReconnectWindow are the downstream failure
	// discipline, defaulted exactly as NodeConfig defaults them. The
	// upstream discipline is learned from the root's welcome.
	Heartbeat       time.Duration
	DeadAfter       time.Duration
	ReconnectWindow time.Duration
	// Dialer establishes (and re-establishes) the upstream connection,
	// presenting the session token (transport.DialRetry with
	// RetryOptions.Token is the expected implementation).
	Dialer func(ctx context.Context, token uint64) (transport.Conn, error)
}

func (c AggregatorConfig) withDefaults() AggregatorConfig {
	defaultLiveness(&c.Heartbeat, &c.DeadAfter, &c.ReconnectWindow)
	return c
}

// WireSpec is the connection-level framing spec the config describes.
func (c AggregatorConfig) WireSpec() comm.Spec { return comm.NewSpec(c.Codec, c.TopK, c.Delta) }

// AggregatorNode runs one edge aggregator of a 2-level tree.
type AggregatorNode struct {
	cfg  AggregatorConfig
	algo WireAlgorithm
	// Ledger prices the aggregator's downstream traffic (see the file
	// comment for the accounting split).
	Ledger *comm.Ledger
	// Stats summarizes the downstream failure-path events once Run returns.
	Stats NodeStats
}

// NewAggregatorNode builds an edge aggregator.
func NewAggregatorNode(algo WireAlgorithm, cfg AggregatorConfig) *AggregatorNode {
	return &AggregatorNode{cfg: cfg.withDefaults(), algo: algo, Ledger: comm.NewLedger()}
}

// aggRun is the single-goroutine event loop driving one Run call.
type aggRun struct {
	n      *AggregatorNode
	cfg    AggregatorConfig
	algo   WireAlgorithm
	lo, hi int

	pt *PeerTable
	up *uplink
	// joinFrame is the tree join, encoded once every child has joined.
	joinFrame []byte

	// The root's two requests: rounds relays the dispatch (pt.round is its
	// barrier) and updates collects its children's answers; evals relays
	// the evaluation request (pt.eval) and evalAcc/evalIDs collect.
	rounds, evals relay
	updates       map[int]*Update
	evalAcc       map[int]uint64
	evalIDs       []int

	fatal error
	done  bool
}

// relay is the aggregator's memory of one kind of root request: the version
// it is collecting or last answered, and that answer's frame, its own and
// cached for replay — an answer the root lost is resent, not recollected.
type relay struct {
	await    *awaitSet
	version  uint64
	answered bool
	frame    []byte
}

// opens reports whether the root's request at version opens a new
// collection. A duplicate of the request being collected is already in
// hand; a duplicate of the one answered last means the root lost the
// answer, which goes out again.
func (g *aggRun) opens(rl *relay, version uint64) bool {
	switch {
	case rl.await.active() && version == rl.version:
		g.n.Stats.Ignored++
		return false
	case !rl.await.active() && rl.answered && version == rl.version:
		g.n.Stats.Resends++
		g.up.send(rl.frame)
		return false
	}
	rl.version, rl.answered = version, false
	return true
}

// answer encodes the collected answer into the relay's frame and sends it
// upstream.
func (g *aggRun) answer(rl *relay, m *wireMsg) {
	rl.frame = appendMsg(rl.frame[:0], m, g.pt.wc)
	rl.answered = true
	g.up.send(rl.frame)
}

// Run accepts the child range's joins on the listener, joins the root on
// their behalf, and relays rounds until the root's stop has been relayed,
// acknowledged below and acknowledged above (nil) or a fatal error.
// Cancelling ctx tears everything down and returns ctx.Err().
func (n *AggregatorNode) Run(ctx context.Context, ln transport.Listener) error {
	defer ln.Close()
	cfg := n.cfg
	if cfg.Aggregators <= 0 || cfg.Aggregators > cfg.Clients {
		return fmt.Errorf("fl: %d aggregators cannot front %d clients (need 1 <= aggregators <= clients)",
			cfg.Aggregators, cfg.Clients)
	}
	if cfg.Index < 0 || cfg.Index >= cfg.Aggregators {
		return fmt.Errorf("fl: aggregator index %d out of range [0, %d)", cfg.Index, cfg.Aggregators)
	}
	if cfg.Dialer == nil {
		return fmt.Errorf("fl: aggregator %d needs an upstream dialer", cfg.Index)
	}
	g := newAggRun(ctx, n)
	defer g.pt.shutdown()
	defer g.up.close()
	go g.pt.acceptLoop(ln)

	ticker := time.NewTicker(g.pt.tickInterval())
	defer ticker.Stop()
	g.pt.lastBeat = time.Now()
	for g.fatal == nil && g.up.err == nil && !g.done {
		select {
		case ev := <-g.pt.events:
			g.handleChild(ev)
		case ac := <-g.pt.conns:
			if err := g.pt.admit(ac, g.rounds.version); err != nil {
				g.fail(err)
			} else if g.pt.full() && g.up.conn == nil && !g.up.dialing {
				// The subtree is complete: join the root on its behalf.
				g.up.dial(nil)
			}
		case d := <-g.up.dials:
			if g.up.dialed(d) {
				if g.joinFrame == nil {
					g.joinFrame = encodeTreeJoin(cfg.Index, g.lo, g.hi, g.pt.joins, g.algo.Name(), g.pt.wc)
				}
				g.up.send(g.joinFrame)
			}
		case f := <-g.up.frames:
			if m := g.up.receive(f); m != nil {
				g.handleUp(m)
				g.up.release(m) // nothing of a root message outlives its handler
			}
		case <-ticker.C:
			g.pt.tick(g.rounds.version)
		case <-ctx.Done():
			return ctx.Err()
		}
		if g.pt.stopping && !g.pt.pendingStops() && g.fatal == nil {
			// Every child is stopped or churned: acknowledge the root's stop.
			// If the link is down the re-dial is already under way, and the
			// ack goes out the moment it lands.
			g.done = g.up.sendMsg(&wireMsg{kind: msgStopAck})
		}
	}
	if g.fatal != nil {
		return g.fatal
	}
	return g.up.err
}

// newAggRun builds the event loop's state for a validated config: the
// child-facing table over the aggregator's range and the uplink, not yet
// dialed.
func newAggRun(ctx context.Context, n *AggregatorNode) *aggRun {
	cfg := n.cfg
	bounds := TreeSplit(cfg.Clients, cfg.Aggregators)
	lo, hi := bounds[cfg.Index], bounds[cfg.Index+1]
	g := &aggRun{n: n, cfg: cfg, algo: n.algo, lo: lo, hi: hi}
	g.pt = newPeerTable("client", hi-lo, lo, hi-lo, n.algo, cfg.WireSpec(), cfg.Heartbeat, cfg.DeadAfter, cfg.ReconnectWindow,
		cfg.Seed, n.Ledger, &n.Stats, readClientJoin)
	g.pt.round.done, g.pt.eval.done = g.finishRound, g.finishEval
	g.rounds.await, g.evals.await = &g.pt.round, &g.pt.eval
	// One free list for both readers: the root's batched dispatch is re-encoded
	// and released before the children's uploads come in, so the uploads
	// decode into the vectors the dispatch just vacated and those the last
	// round's uploads left behind.
	g.up = newUplink(ctx, fmt.Sprintf("aggregator %d", cfg.Index), n.algo, 0, &g.pt.vecs, cfg.Dialer, nil)
	return g
}

// fail reports a downstream failure upstream (so the root aborts the run
// with the cause) and ends this aggregator.
func (g *aggRun) fail(err error) {
	g.up.sendMsg(&wireMsg{kind: msgErr, name: err.Error()})
	g.fatal = fmt.Errorf("fl: aggregator %d: %w", g.cfg.Index, err)
}

// handleUp processes one root message the uplink passed through.
func (g *aggRun) handleUp(m *wireMsg) {
	switch m.kind {
	case msgWelcome, msgResume:
		if !g.pt.assembled {
			// Relay the root's federation parameters downstream; the table
			// substitutes its own token grants and liveness discipline.
			copy(g.pt.fed[:], m.ints)
			g.pt.assemble()
		}
	case msgTreeDispatch:
		g.handleTreeDispatch(m)
	case msgEvalReq:
		g.handleUpEvalReq(m)
	case msgStop:
		// Relay the goodbye; the loop acknowledges upstream once every
		// child session resolves.
		g.pt.beginStop()
	default:
		g.n.Stats.Ignored++
	}
}

// handleTreeDispatch fans one batched broadcast out to the subtree; a
// duplicate is the relay's (a lost answer is resent rather than the subtree
// retrained). Live members that share one payload — every member, when the
// root sent the shared layout — go out as one broadcast: one child frame,
// the same bytes to each.
func (g *aggRun) handleTreeDispatch(m *wireMsg) {
	if !g.opens(&g.rounds, m.a) {
		return
	}
	ids, payloads, err := decodeTreeDispatch(m)
	if err != nil {
		g.fatal = fmt.Errorf("fl: aggregator %d: %w", g.cfg.Index, err)
		return
	}
	live := make([]*peerSession, 0, len(ids))
	vecs := make([][][]float64, 0, len(ids))
	for i, id := range ids {
		if id < g.lo || id >= g.hi {
			g.fatal = fmt.Errorf("fl: aggregator %d: dispatch for client %d outside range [%d, %d)",
				g.cfg.Index, id, g.lo, g.hi)
			return
		}
		if s := g.pt.sessionByID(id); !s.churned {
			live, vecs = append(live, s), append(vecs, payloads[i])
		}
	}
	g.updates = make(map[int]*Update, len(live))
	g.pt.round.open()
	for _, s := range live {
		g.pt.round.ids[s.id] = true
	}
	for i := 0; i < len(live); {
		j := i + 1
		for j < len(live) && sameVecs(vecs[j], vecs[i]) {
			j++
		}
		g.pt.broadcast(m.a, vecs[i], live[i:j]...)
		i = j
	}
	g.pt.round.settle()
}

// finishRound answers the completed round: pre-reduce the collected updates
// when the policy and the algorithm allow it, bundle them raw otherwise.
// Once the answer is encoded — into the round relay's frame, where it stays
// cached so an upstream loss replays it — the children's vectors go back to
// the free list.
func (g *aggRun) finishRound() {
	ids := make([]int, 0, len(g.updates))
	for id := range g.updates {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	ups := make([]*Update, len(ids))
	for i, id := range ids {
		ups[i] = g.updates[id]
	}
	g.updates = nil
	var answer *wireMsg
	if red, ok := g.algo.(ReducibleWireAlgorithm); ok {
		au, err := red.PreReduce(ups)
		if err != nil {
			g.fail(fmt.Errorf("%s pre-reduce: %s", g.algo.Name(), err))
			return
		}
		au.Agg = g.cfg.Index
		answer = aggUpdateMsg(g.rounds.version, au)
	} else {
		answer = treeUpdateMsg(g.rounds.version, ups)
	}
	g.answer(&g.rounds, answer)
	for _, u := range ups {
		g.pt.vecs.put(u.Vecs...)
	}
}

// handleUpEvalReq fans an evaluation request out to the requested, live
// children; a duplicate is the relay's.
func (g *aggRun) handleUpEvalReq(m *wireMsg) {
	if !g.opens(&g.evals, m.a) {
		return
	}
	g.evalAcc = make(map[int]uint64, len(m.ints))
	g.evalIDs = g.evalIDs[:0]
	g.pt.eval.open()
	req := &wireMsg{kind: msgEvalReq, a: m.a}
	for _, iv := range m.ints {
		id := int(iv)
		if id < g.lo || id >= g.hi {
			g.fatal = fmt.Errorf("fl: aggregator %d: evaluation request for client %d outside range [%d, %d)",
				g.cfg.Index, id, g.lo, g.hi)
			return
		}
		if s := g.pt.sessionByID(id); !s.churned {
			g.evalIDs = append(g.evalIDs, id)
			g.pt.ask(s, req)
		}
	}
	g.pt.eval.settle()
}

// finishEval relays the collected accuracies upstream as [id, bits] pairs
// — through the ints slot, never the vecs slot, so a lossy codec cannot
// quantize a metric. Children that churned mid-evaluation are simply
// absent; their root-side slots stay NaN.
func (g *aggRun) finishEval() {
	ids := make([]int, 0, len(g.evalAcc))
	for _, id := range g.evalIDs {
		if _, ok := g.evalAcc[id]; ok {
			ids = append(ids, id)
		}
	}
	g.answer(&g.evals, &wireMsg{kind: msgEvalRes, a: g.evals.version, ints: aggEvalInts(ids, g.evalAcc)})
	g.evalAcc = nil
	g.evalIDs = nil
}

// handleChild interprets what the table's triage left to the role: a
// child's upload into the open round, a child's accuracy into the open
// evaluation.
func (g *aggRun) handleChild(ev inbound) {
	s, m, err := g.pt.triage(ev)
	switch {
	case err != nil:
		g.fail(err)
	case m == nil:
	case m.kind == msgUpdate:
		if !g.pt.answered(s, m.a) || !g.pt.expects(&g.pt.round, s) {
			break
		}
		scale := math.Float64frombits(m.b)
		if !weightSum(scale) {
			g.fail(fmt.Errorf("client %d sent update weight %v", s.id, scale))
			break
		}
		g.updates[s.id] = &Update{
			Client:  s.id,
			Version: int(m.a),
			Scale:   scale,
			// The sync barrier's final weight IS the scale (the root applies
			// the same rule on its flat path); pre-reduction folds by Weight.
			Weight: scale,
			Vecs:   m.vecs,
			Counts: m.counts,
		}
		// The open round holds the vectors now; finishRound releases them.
		g.pt.round.resolve(s.id)
		return
	case m.kind == msgEvalRes:
		if !g.pt.expects(&g.pt.eval, s) {
			break
		}
		// Relayed upstream bit for bit: the float64 pattern never leaves
		// the integer slots.
		g.evalAcc[s.id] = m.b
		s.pendingEval = nil
		g.pt.eval.resolve(s.id)
	default:
		g.n.Stats.Ignored++
	}
	g.pt.vecs.release(ev.msg)
}
