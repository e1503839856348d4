package fl

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/comm"
	"repro/internal/transport"
)

// This file is the edge-aggregator role of the tree topology. An
// AggregatorNode drives the root's serverRun (node.go) over a flat table of
// its contiguous client range, and keeps a client's uplink to the root: it
// joins on behalf of the whole range (msgTreeJoin), echoes heartbeats and
// re-dials with its session token as a client does. The uplink is the run's
// clock (edgeClock): the root's tree dispatch opens a round and its
// evaluation request an evaluation, and each closes by answering upstream —
// a pre-reduced aggregate (ReducibleWireAlgorithm + ExactAccumulator, exact
// regrouping of flat fan-in) or the children's updates bundled unreduced
// (the passthrough for KT-pFL), and the children's accuracies. What is
// written here is only what an edge does that a root does not: the relay's
// rule for a duplicate request, the tree dispatch's fan-out, the upstream
// join, and relaying the root's welcome and stop.
//
// The aggregator holds no round state worth checkpointing: every frame it
// owes upstream is cached and replayed when the root re-dispatches after an
// adoption, and if the process dies outright the root churns its whole
// subtree after the reconnect window (DESIGN.md §11). Its ledger prices its
// downstream side (child joins, dispatch fan-out, uploads, heartbeats); the
// root's prices the upstream, where those bytes land.

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
	// Ledger prices the aggregator's downstream traffic (the root's prices
	// its upstream).
	Ledger *comm.Ledger
	// Stats summarizes the downstream failure-path events once Run returns.
	Stats NodeStats
}

// NewAggregatorNode builds an edge aggregator.
func NewAggregatorNode(algo WireAlgorithm, cfg AggregatorConfig) *AggregatorNode {
	return &AggregatorNode{cfg: cfg.withDefaults(), algo: algo, Ledger: comm.NewLedger()}
}

// edgeClock is an edge aggregator's clock, its uplink.
type edgeClock struct {
	*serverRun
	cfg    AggregatorConfig
	lo, hi int
	up     *uplink
	// joinFrame is the tree join, encoded once every child has joined; a
	// re-dial before the welcome resends it, and the welcome drops it.
	joinFrame []byte
	// The root's two requests: rounds relays the dispatch (pt.round is its
	// barrier), evals the evaluation request (pt.eval).
	rounds, evals relay
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
func (e *edgeClock) opens(rl *relay, version uint64) bool {
	switch {
	case rl.await.active() && version == rl.version:
		e.pt.stats.Ignored++
		return false
	case !rl.await.active() && rl.answered && version == rl.version:
		e.pt.stats.Resends++
		e.up.send(rl.frame)
		return false
	}
	rl.version, rl.answered = version, false
	return true
}

// answer encodes the collected answer into the relay's frame and sends it
// upstream.
func (e *edgeClock) answer(rl *relay, m *wireMsg) {
	rl.frame = lendMsg(rl.frame, m, e.pt.wc)
	rl.answered = true
	e.up.send(rl.frame)
}

// Run accepts the child range's joins on the listener, joins the root on
// their behalf, and relays rounds until the root's stop has been relayed,
// acknowledged below and acknowledged above (nil) or a fatal error.
// Cancelling ctx tears everything down and returns ctx.Err().
func (n *AggregatorNode) Run(ctx context.Context, ln transport.Listener) error {
	defer ln.Close()
	switch cfg := n.cfg; {
	case cfg.Aggregators <= 0 || cfg.Aggregators > cfg.Clients:
		return fmt.Errorf("fl: %d aggregators cannot front %d clients (need 1 <= aggregators <= clients)",
			cfg.Aggregators, cfg.Clients)
	case cfg.Index < 0 || cfg.Index >= cfg.Aggregators:
		return fmt.Errorf("fl: aggregator index %d out of range [0, %d)", cfg.Index, cfg.Aggregators)
	case cfg.Dialer == nil:
		return fmt.Errorf("fl: aggregator %d needs an upstream dialer", cfg.Index)
	}
	e := newEdgeRun(ctx, n)
	defer e.pt.shutdown()
	defer e.up.close()
	go e.pt.acceptLoop(ln)
	return e.loop(ctx)
}

// newEdgeRun builds the run for a validated config: a flat table over the
// child range (one client per session, base lo) and the uplink, undialed.
func newEdgeRun(ctx context.Context, n *AggregatorNode) *edgeClock {
	cfg := n.cfg
	bounds := TreeSplit(cfg.Clients, cfg.Aggregators)
	lo, hi := bounds[cfg.Index], bounds[cfg.Index+1]
	e := &edgeClock{cfg: cfg, lo: lo, hi: hi}
	pt := newPeerTable("client", hi-lo, lo, hi-lo, n.algo, cfg.WireSpec(), cfg.Heartbeat, cfg.DeadAfter, cfg.ReconnectWindow,
		cfg.Seed, n.Ledger, &n.Stats, readClientJoin)
	children := make([]int, hi-lo+1)
	for i := range children {
		children[i] = lo + i
	}
	e.serverRun = newRun(e, n.algo, pt, children)
	e.rounds.await, e.evals.await = &pt.round, &pt.eval
	e.up = newUplink(ctx, fmt.Sprintf("aggregator %d", cfg.Index), n.algo, 0, cfg.Dialer, nil)
	e.frames, e.dials = e.up.frames, e.up.dials
	return e
}

// full joins the root on behalf of the complete subtree.
func (e *edgeClock) full() {
	if e.up.conn == nil && !e.up.dialing {
		e.up.dial(nil)
	}
}

// redial takes a dial delivery; a link that resumes no session joins.
func (e *edgeClock) redial(d upDial) {
	if e.up.dialed(d) {
		e.sendJoin()
	}
}

// sendJoin joins the root on the subtree's behalf over a fresh link. The
// frame is encoded once, the children's init payloads copied into it as
// they lie in their join frames, and is from then on the only copy of them:
// the table drops the payloads and hands the children's frames back.
func (e *edgeClock) sendJoin() {
	if e.joinFrame == nil {
		e.joinFrame = transport.Lend(encodeTreeJoin(e.cfg.Index, e.lo, e.hi, e.pt.joins, e.algo.Name(), e.pt.wc))
		e.pt.dropJoins()
	}
	e.up.send(e.joinFrame)
}

// failed reports a fatal cause upstream (so the root aborts the run with
// it) and names this aggregator in the run's error.
func (e *edgeClock) failed(cause error) error {
	e.up.sendMsg(&wireMsg{kind: msgErr, name: cause.Error()})
	return fmt.Errorf("fl: aggregator %d: %w", e.cfg.Index, cause)
}

// advance ends the run on the uplink's terminal error, or acknowledges the
// root's stop once every child is stopped or churned — the moment the link
// is up, if a re-dial is under way.
func (e *edgeClock) advance() {
	switch {
	case e.up.err != nil:
		e.fatal = e.up.err
	case e.pt.stopping && !e.pt.pendingStops():
		e.done = e.up.sendMsg(&wireMsg{kind: msgStopAck})
	}
}

// fromUp handles and recycles the message an uplink delivery passes
// through: nothing of a root message outlives its handler, which has
// encoded its payloads into the children's dispatch frames.
func (e *edgeClock) fromUp(f upFrame) {
	if m := e.up.receive(f); m != nil {
		e.handleUp(m)
		m.recycle()
	}
}

// handleUp processes one root message.
func (e *edgeClock) handleUp(m *wireMsg) {
	switch m.kind {
	case msgWelcome, msgResume:
		// The welcome granted a token, so no join is due again: the link
		// resumes its session from now on.
		e.joinFrame = nil
		if !e.pt.assembled {
			// Relay the root's federation parameters downstream; the table
			// substitutes its own token grants and liveness discipline.
			copy(e.pt.fed[:], m.ints)
			e.pt.assemble()
		}
	case msgTreeDispatch:
		e.relayRound(m)
	case msgEvalReq:
		e.relayEval(m)
	case msgStop:
		// Relay the goodbye; advance acknowledges upstream once every child
		// session resolves.
		e.pt.beginStop()
	default:
		e.pt.stats.Ignored++
	}
}

// inRange reports whether every id of a root request is a child's; one
// that is not is fatal.
func (e *edgeClock) inRange(what string, ids []int) bool {
	for _, id := range ids {
		if id < e.lo || id >= e.hi {
			e.failf("%s for client %d outside range [%d, %d)", what, id, e.lo, e.hi)
			return false
		}
	}
	return true
}

// relayRound opens the round a tree dispatch names and fans its payloads
// out as they lie in the root's frame, a shared payload as one broadcast
// (one child frame, the same bytes to each); a duplicate is the relay's.
func (e *edgeClock) relayRound(m *wireMsg) {
	if !e.opens(&e.rounds, m.a) {
		return
	}
	ids, payloads, err := decodeTreeDispatch(m)
	if err != nil {
		e.failf("%w", err)
		return
	}
	if !e.inRange("dispatch", ids) {
		return
	}
	e.version = int(m.a)
	e.beginRound(ids)
	var shared []*peerSession
	for i, id := range ids {
		switch s := e.pt.sessionByID(id); {
		case !e.pt.round.ids[id]:
		case m.b == treeShared:
			shared = append(shared, s)
		default:
			e.pt.broadcast(m.a, payloads[i], s)
		}
	}
	if len(shared) > 0 {
		e.pt.broadcast(m.a, m.vecs, shared...)
	}
	e.pt.round.settle()
}

// take files a child's upload into the open round.
func (e *edgeClock) take(u *Update, m *wireMsg) (kept bool) { return e.collectUpdate(u, m) }

// closeRound answers the completed round — the collected updates
// pre-reduced when the algorithm allows it, bundled raw otherwise — and,
// the answer encoded into the relay's frame, releases them.
func (e *edgeClock) closeRound() {
	var ups []*Update
	for _, a := range e.owners {
		ups = append(ups, e.slots[a].ups...)
	}
	ups = slices.DeleteFunc(ups, func(u *Update) bool { return u == nil })
	if e.red == nil {
		e.answer(&e.rounds, treeUpdateMsg(e.rounds.version, ups))
	} else {
		au, err := e.red.PreReduce(ups)
		if err != nil {
			e.failf("%s pre-reduce: %s", e.algo.Name(), err)
			return
		}
		e.answer(&e.rounds, aggUpdateMsg(e.rounds.version, au))
	}
	e.releaseRound()
}

// relayEval asks the requested, live children for their accuracies; a
// duplicate is the relay's.
func (e *edgeClock) relayEval(m *wireMsg) {
	if !e.opens(&e.evals, m.a) {
		return
	}
	ids := make([]int, len(m.ints))
	for i, id := range m.ints {
		ids[i] = int(id)
	}
	if !e.inRange("evaluation request", ids) {
		return
	}
	slices.Sort(ids)
	e.evalIDs = ids
	e.askEval(m.a, ids)
}

// closeEval relays the collected accuracies upstream (aggEvalInts).
func (e *edgeClock) closeEval() {
	e.answer(&e.evals, &wireMsg{kind: msgEvalRes, a: e.evals.version, ints: aggEvalInts(e.evalIDs, e.evalPer)})
	e.evalPer, e.evalIDs = nil, nil
}
