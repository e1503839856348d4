package fl

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/transport"
)

// This file is the edge-aggregator role of the tree topology: an
// AggregatorNode faces a contiguous range of clients downstream — through
// the same PeerTable the root uses, so joins, heartbeats, reconnect
// windows and churn behave identically one level down — and is itself a
// client upstream: it dials the root, joins on behalf of its whole child
// range (msgTreeJoin), echoes heartbeats, re-dials with its session token
// after a connection loss, and answers each batched dispatch with either a
// pre-reduced aggregate (ReducibleWireAlgorithm + ExactAccumulator, exact
// regrouping of flat fan-in) or its children's raw updates bundled
// unreduced (the passthrough for non-associative algorithms like KT-pFL).
//
// The aggregator holds no round state worth checkpointing: every frame it
// owes upstream is cached and replayed on adoption, and if the process
// dies outright the root churns its whole subtree after the reconnect
// window — restart-from-scratch semantics, documented in DESIGN.md §11.
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
	// PreReduce selects the reduction policy (auto reduces when the
	// algorithm supports it; force refuses to start without a sound
	// reduction; off always passes through).
	PreReduce PreReduceMode
	// Dialer establishes (and re-establishes) the upstream connection,
	// presenting the session token (transport.DialRetry with
	// RetryOptions.Token is the expected implementation).
	Dialer func(ctx context.Context, token uint64) (transport.Conn, error)
}

func (c AggregatorConfig) withDefaults() AggregatorConfig {
	if c.Heartbeat <= 0 {
		c.Heartbeat = DefaultHeartbeat
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 5 * c.Heartbeat
	}
	if c.ReconnectWindow <= 0 {
		c.ReconnectWindow = DefaultReconnectWindow
	}
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

// dialResult is one upstream-dial delivery.
type dialResult struct {
	conn transport.Conn
	err  error
}

// upEvent is one upstream-reader delivery; gen stamps the connection
// incarnation like the PeerTable's inbound events.
type upEvent struct {
	gen   int
	frame []byte
	err   error
}

// aggRun is the single-goroutine event loop driving one Run call.
type aggRun struct {
	n   *AggregatorNode
	cfg AggregatorConfig
	ctx context.Context

	algo   WireAlgorithm
	lo, hi int
	// wc frames the aggregator's own encodes (downstream dispatch fan-out,
	// upstream aggregates) — all dense kinds, so cached replay frames stay
	// valid. Child upload decoding runs through each reader's
	// per-connection wireCodec in the PeerTable.
	wc *wireCodec

	pt    *PeerTable
	joins []WireJoin

	joined    int
	assembled bool

	// Upstream connection state. upDeadMs is the root-announced dead
	// interval, read by the upstream reader to bound each Recv (atomic:
	// the event loop stores it when the welcome arrives).
	up        transport.Conn
	upGen     int
	upToken   uint64
	upDialing bool
	upDeadMs  atomic.Int64
	upEvents  chan upEvent
	upDials   chan dialResult
	upWelcome []int64
	joinFrame []byte

	// Round state: the open dispatch being collected, and the cached
	// answer frame of the last finished round (a re-dispatched round the
	// root lost the answer to is resent, not recollected).
	version     uint64
	collecting  bool
	awaiting    map[int]bool
	updates     map[int]*Update
	haveLast    bool
	lastVersion uint64
	lastFrame   []byte

	// Evaluation state, with the same resend cache.
	evalVersion  uint64
	evalWait     map[int]bool
	evalAcc      map[int]uint64
	evalIDs      []int
	haveLastEval bool
	lastEvalVer  uint64
	lastEvalFrm  []byte

	stopping  bool
	stopFrame []byte

	fatal error
	done  bool
}

// Run accepts the child range's joins on the listener, joins the root on
// their behalf, and relays rounds until the root's stop (nil) or a fatal
// error. Cancelling ctx tears everything down and returns ctx.Err().
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
	if err := CheckPreReduce(n.algo, cfg.PreReduce); err != nil {
		return err
	}
	bounds := TreeSplit(cfg.Clients, cfg.Aggregators)
	lo, hi := bounds[cfg.Index], bounds[cfg.Index+1]
	g := &aggRun{
		n:        n,
		cfg:      cfg,
		ctx:      ctx,
		algo:     n.algo,
		lo:       lo,
		hi:       hi,
		wc:       newWireCodec(cfg.WireSpec(), lossyUploads(n.algo)),
		joins:    make([]WireJoin, hi-lo),
		upEvents: make(chan upEvent, 8),
		upDials:  make(chan dialResult, 1),
	}
	g.pt = newPeerTable(hi-lo, lo, cfg.WireSpec(), lossyUploads(n.algo), cfg.Heartbeat, cfg.DeadAfter, cfg.ReconnectWindow,
		cfg.Seed, n.Ledger, &n.Stats, func(m *wireMsg) bool {
			return m.kind == msgJoin && len(m.ints) == joinIntCount
		})
	defer g.pt.shutdown()
	defer g.closeUp()
	go g.pt.acceptLoop(ln)
	return g.loop(ctx)
}

func (g *aggRun) closeUp() {
	if g.up != nil {
		g.up.Close()
		g.up = nil
	}
}

// loop is the event loop: every state transition happens here.
func (g *aggRun) loop(ctx context.Context) error {
	interval := g.cfg.Heartbeat
	if g.cfg.DeadAfter < interval {
		interval = g.cfg.DeadAfter
	}
	if g.cfg.ReconnectWindow < interval {
		interval = g.cfg.ReconnectWindow
	}
	if interval /= 2; interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	g.pt.lastBeat = time.Now()
	for g.fatal == nil && !g.done {
		select {
		case ev := <-g.pt.events:
			g.handleChildInbound(ev)
		case ac := <-g.pt.conns:
			g.handleChildConn(ac)
		case dr := <-g.upDials:
			g.handleDialResult(dr)
		case ue := <-g.upEvents:
			g.handleUpEvent(ue)
		case <-ticker.C:
			g.handleTick()
		case <-ctx.Done():
			return ctx.Err()
		}
		if g.stopping && g.fatal == nil && !g.done && !g.pt.pendingStops() {
			// Every child is stopped or churned: acknowledge the root's stop
			// (best-effort if the upstream link is down — the root's reconnect
			// window resolves the session either way) and finish.
			g.sendUp(encodeMsg(&wireMsg{kind: msgStopAck}, g.wc))
			g.done = true
		}
	}
	return g.fatal
}

// fail reports a downstream failure upstream (so the root aborts the run
// with the cause) and ends this aggregator.
func (g *aggRun) fail(format string, args ...any) {
	err := fmt.Errorf(format, args...)
	g.sendUp(encodeMsg(&wireMsg{kind: msgErr, name: err.Error()}, g.wc))
	g.fatal = fmt.Errorf("fl: aggregator %d: %w", g.cfg.Index, err)
}

// ---- upstream side ----

// dialUpstream starts one asynchronous dial attempt, presenting whatever
// session token the aggregator holds.
func (g *aggRun) dialUpstream() {
	g.upDialing = true
	token := g.upToken
	go func() {
		conn, err := g.cfg.Dialer(g.ctx, token)
		select {
		case g.upDials <- dialResult{conn: conn, err: err}:
		case <-g.pt.stop:
			if conn != nil {
				conn.Close()
			}
		}
	}()
}

func (g *aggRun) handleDialResult(dr dialResult) {
	g.upDialing = false
	if dr.err != nil {
		if g.ctx.Err() != nil {
			g.fatal = g.ctx.Err()
			return
		}
		g.fatal = fmt.Errorf("fl: aggregator %d: upstream dial: %w", g.cfg.Index, dr.err)
		return
	}
	g.up = dr.conn
	g.upGen++
	go g.upReader(g.upGen, dr.conn)
	if g.upToken == 0 {
		// No session yet (first dial, or the join-phase connection died
		// before the welcome): a fresh tree join is idempotent pre-assembly
		// on the root, exactly like a client's re-join.
		if g.joinFrame == nil {
			g.joinFrame = encodeTreeJoin(g.cfg.Index, g.lo, g.hi, g.joins, g.algo.Name(), g.wc)
		}
		g.sendUp(g.joinFrame)
	}
}

// upReader pumps upstream frames into the event loop until the connection
// dies, bounding each read by the root-announced dead interval.
func (g *aggRun) upReader(gen int, conn transport.Conn) {
	deliver := func(ev upEvent) bool {
		select {
		case g.upEvents <- ev:
			return true
		case <-g.pt.stop:
			return false
		}
	}
	for {
		if d := g.upDeadMs.Load(); d > 0 {
			conn.SetReadDeadline(time.Now().Add(time.Duration(d) * time.Millisecond))
		}
		b, _, err := conn.Recv()
		if err != nil {
			deliver(upEvent{gen: gen, err: err})
			return
		}
		if !deliver(upEvent{gen: gen, frame: b}) {
			return
		}
	}
}

// sendUp writes one frame upstream, tearing the connection down (and
// triggering a re-dial) on failure. The frame stays owed: every upstream
// send is either re-derivable or cached for replay.
func (g *aggRun) sendUp(frame []byte) bool {
	if g.up == nil {
		return false
	}
	d := time.Duration(g.upDeadMs.Load()) * time.Millisecond
	if d <= 0 {
		d = g.cfg.DeadAfter
	}
	g.up.SetWriteDeadline(time.Now().Add(d))
	if _, err := g.up.Send(frame); err != nil {
		g.upLost()
		return false
	}
	g.up.SetWriteDeadline(time.Time{})
	return true
}

// upLost tears down the upstream connection and re-dials (unless the run
// is stopping — then the drain finishes and the root's reconnect window
// resolves the session).
func (g *aggRun) upLost() {
	if g.up != nil {
		g.up.Close()
		g.up = nil
	}
	g.upGen++
	if !g.stopping && !g.upDialing && g.fatal == nil {
		g.dialUpstream()
	}
}

func (g *aggRun) handleUpEvent(ue upEvent) {
	if ue.gen != g.upGen {
		return
	}
	if ue.err != nil {
		if g.ctx.Err() != nil {
			g.fatal = g.ctx.Err()
			return
		}
		g.upLost()
		return
	}
	m, err := decodeMsg(ue.frame)
	if err != nil {
		g.fatal = fmt.Errorf("fl: aggregator %d: upstream frame: %w", g.cfg.Index, err)
		return
	}
	g.handleUp(m)
}

// handleUp processes one root message.
func (g *aggRun) handleUp(m *wireMsg) {
	switch m.kind {
	case msgWelcome, msgResume:
		if len(m.ints) != welIntCount {
			g.fatal = fmt.Errorf("fl: aggregator %d: malformed welcome", g.cfg.Index)
			return
		}
		if m.name != g.algo.Name() {
			g.fatal = fmt.Errorf("fl: aggregator %d runs %q, server runs %q", g.cfg.Index, g.algo.Name(), m.name)
			return
		}
		g.upDeadMs.Store(m.ints[welDeadMs])
		if tok := uint64(m.ints[welToken]); tok != 0 {
			g.upToken = tok
		}
		g.upWelcome = m.ints
		if !g.assembled {
			g.welcomeChildren()
		}
	case msgHeartbeat:
		// Echo verbatim, like any client: traffic is the liveness signal.
		g.sendUp(encodeMsg(&wireMsg{kind: msgHeartbeat, a: m.a}, g.wc))
	case msgTreeDispatch:
		g.handleTreeDispatch(m)
	case msgEvalReq:
		g.handleUpEvalReq(m)
	case msgStop:
		g.beginStop()
	case msgErr:
		g.fatal = fmt.Errorf("fl: aggregator %d refused by server: %s", g.cfg.Index, m.name)
	default:
		g.n.Stats.Ignored++
	}
}

// welcomeChildren issues child tokens and relays the root's federation
// parameters downstream, substituting this aggregator's own token grants
// and liveness discipline — each tree edge has its own failure clocks.
func (g *aggRun) welcomeChildren() {
	g.pt.issueTokens()
	g.assembled = true
	for _, s := range g.pt.sessions {
		welcome := &wireMsg{kind: msgWelcome, name: g.algo.Name(), ints: g.childWelcomeInts(s)}
		if !g.pt.send(s, encodeMsg(welcome, g.wc)) {
			continue // the reconnect window (or churn) picks it up
		}
	}
}

func (g *aggRun) childWelcomeInts(s *peerSession) []int64 {
	return []int64{
		g.upWelcome[welClients], g.upWelcome[welRounds], g.upWelcome[welBatch], g.upWelcome[welEvalEvery],
		int64(s.token), g.cfg.Heartbeat.Milliseconds(), g.cfg.DeadAfter.Milliseconds(),
	}
}

// handleTreeDispatch fans one batched broadcast out to the subtree. A
// duplicate of the round being collected is already in hand; a duplicate
// of a finished round means the root lost the answer — resend the cached
// frame rather than retraining the subtree.
func (g *aggRun) handleTreeDispatch(m *wireMsg) {
	if g.collecting && m.a == g.version {
		g.n.Stats.Ignored++
		return
	}
	if !g.collecting && g.haveLast && m.a == g.lastVersion {
		g.n.Stats.Resends++
		g.sendUp(g.lastFrame)
		return
	}
	ids, payloads, err := decodeTreeDispatch(m)
	if err != nil {
		g.fatal = fmt.Errorf("fl: aggregator %d: %w", g.cfg.Index, err)
		return
	}
	g.version = m.a
	g.collecting = true
	g.awaiting = make(map[int]bool, len(ids))
	g.updates = make(map[int]*Update, len(ids))
	for i, id := range ids {
		if id < g.lo || id >= g.hi {
			g.fatal = fmt.Errorf("fl: aggregator %d: dispatch for client %d outside range [%d, %d)",
				g.cfg.Index, id, g.lo, g.hi)
			return
		}
		s := g.pt.sessionByID(id)
		if s.churned {
			continue
		}
		frame := encodeMsg(&wireMsg{kind: msgDispatch, a: m.a, vecs: payloads[i]}, g.wc)
		s.busy = true
		s.dispVersion = m.a
		s.pendingDispatch = frame
		g.awaiting[id] = true
		g.pt.send(s, frame) // a failed send leaves the dispatch owed on adoption
	}
	if len(g.awaiting) == 0 {
		g.finishRound()
	}
}

// finishRound answers the open round: pre-reduce the collected updates
// when the policy and the algorithm allow it, bundle them raw otherwise.
// The frame is cached before the send so an upstream loss replays it.
func (g *aggRun) finishRound() {
	g.collecting = false
	ids := make([]int, 0, len(g.updates))
	for id := range g.updates {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	ups := make([]*Update, len(ids))
	for i, id := range ids {
		ups[i] = g.updates[id]
	}
	var frame []byte
	if red, ok := g.algo.(ReducibleWireAlgorithm); ok && g.cfg.PreReduce != PreReduceOff {
		au, err := red.PreReduce(ups)
		if err != nil {
			g.fail("%s pre-reduce: %s", g.algo.Name(), err)
			return
		}
		au.Agg = g.cfg.Index
		frame = encodeAggUpdate(g.version, au, g.wc)
	} else {
		frame = encodeTreeUpdate(g.version, ups, g.wc)
	}
	g.lastFrame, g.lastVersion, g.haveLast = frame, g.version, true
	g.awaiting = nil
	g.updates = nil
	g.sendUp(frame)
}

// handleUpEvalReq fans an evaluation request out to the requested, live
// children, caching the per-child frame for replay on adoption.
func (g *aggRun) handleUpEvalReq(m *wireMsg) {
	if g.evalWait != nil && m.a == g.evalVersion {
		g.n.Stats.Ignored++
		return
	}
	if g.evalWait == nil && g.haveLastEval && m.a == g.lastEvalVer {
		g.n.Stats.Resends++
		g.sendUp(g.lastEvalFrm)
		return
	}
	g.evalVersion = m.a
	g.evalWait = make(map[int]bool, len(m.ints))
	g.evalAcc = make(map[int]uint64, len(m.ints))
	g.evalIDs = g.evalIDs[:0]
	frame := encodeMsg(&wireMsg{kind: msgEvalReq, a: m.a}, g.wc)
	for _, iv := range m.ints {
		id := int(iv)
		if id < g.lo || id >= g.hi {
			g.fatal = fmt.Errorf("fl: aggregator %d: evaluation request for client %d outside range [%d, %d)",
				g.cfg.Index, id, g.lo, g.hi)
			return
		}
		s := g.pt.sessionByID(id)
		if s.churned {
			continue
		}
		g.evalIDs = append(g.evalIDs, id)
		g.evalWait[id] = true
		s.pendingEval = frame
		g.pt.send(s, frame) // a failed send leaves the request owed on adoption
	}
	if len(g.evalWait) == 0 {
		g.finishEval()
	}
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
	frame := encodeMsg(&wireMsg{kind: msgEvalRes, a: g.evalVersion, ints: aggEvalInts(ids, g.evalAcc)}, g.wc)
	g.lastEvalFrm, g.lastEvalVer, g.haveLastEval = frame, g.evalVersion, true
	g.evalWait = nil
	g.evalAcc = nil
	g.evalIDs = nil
	g.sendUp(frame)
}

// beginStop relays the root's goodbye downstream; the loop's drain
// condition acknowledges upstream once every child session resolves.
func (g *aggRun) beginStop() {
	if g.stopping {
		return
	}
	g.stopping = true
	g.stopFrame = encodeMsg(&wireMsg{kind: msgStop}, g.wc)
	for _, s := range g.pt.sessions {
		if s.conn != nil && !s.churned {
			g.pt.send(s, g.stopFrame)
		}
	}
}

// ---- downstream side ----

// handleChildConn admits one accepted child connection, mirroring the
// root's flat join flow one level down.
func (g *aggRun) handleChildConn(ac acceptedConn) {
	if ac.err != nil {
		if g.joined < len(g.pt.sessions) {
			g.fail("listener closed with %d of %d clients joined: %s", g.joined, len(g.pt.sessions), ac.err)
		}
		return
	}
	g.pt.forgetEmbryo(ac.conn)
	if ac.token != 0 {
		sess := g.pt.findToken(ac.token)
		if sess == nil {
			g.pt.refuse(ac.conn, fmt.Sprintf("unknown session token %#x", ac.token))
			return
		}
		if sess.churned {
			g.pt.refuse(ac.conn, fmt.Sprintf("client %d session expired (reconnect window elapsed)", sess.id))
			return
		}
		if sess.conn != nil {
			g.pt.markDisconnected(sess)
		}
		g.adoptChild(sess, ac.conn, 0)
		return
	}
	m := ac.join
	id := int(m.ints[joinID])
	if id < g.lo || id >= g.hi {
		g.pt.refuse(ac.conn, fmt.Sprintf("client id %d outside this aggregator's range [%d, %d)", id, g.lo, g.hi))
		return
	}
	if m.name != g.algo.Name() {
		g.pt.refuse(ac.conn, fmt.Sprintf("client runs %q, aggregator runs %q", m.name, g.algo.Name()))
		return
	}
	sess := g.pt.sessionByID(id)
	if g.assembled {
		if sess.churned {
			g.pt.refuse(ac.conn, fmt.Sprintf("client %d session expired (reconnect window elapsed)", id))
			return
		}
		if sess.conn != nil {
			g.pt.markDisconnected(sess)
		}
		g.adoptChild(sess, ac.conn, ac.wire)
		return
	}
	if sess.conn != nil {
		g.pt.markDisconnected(sess)
	}
	g.joins[id-g.lo] = WireJoin{
		ID:            id,
		TrainSize:     int(m.ints[joinTrainSize]),
		FeatDim:       int(m.ints[joinFeatDim]),
		NumClasses:    int(m.ints[joinNumClasses]),
		NumParams:     int(m.ints[joinNumParams]),
		NumClassifier: int(m.ints[joinNumClassifier]),
		Init:          m.vecs,
	}
	g.pt.attach(sess, ac.conn, ac.wire)
	if !sess.joined {
		sess.joined = true
		g.joined++
	}
	if g.joined == len(g.pt.sessions) && g.up == nil && !g.upDialing {
		g.dialUpstream()
	}
}

// adoptChild attaches a reconnecting child and replays what it is owed.
func (g *aggRun) adoptChild(sess *peerSession, conn transport.Conn, joinWire int64) {
	sess.downAt = time.Time{}
	g.n.Stats.Reconnects++
	g.pt.attach(sess, conn, joinWire)
	resume := &wireMsg{kind: msgResume, a: g.version, name: g.algo.Name(), ints: g.childWelcomeInts(sess)}
	if !g.pt.send(sess, encodeMsg(resume, g.wc)) {
		return
	}
	if sess.busy && sess.pendingDispatch != nil {
		g.n.Stats.Resends++
		if !g.pt.send(sess, sess.pendingDispatch) {
			return
		}
	}
	if g.evalWait != nil && g.evalWait[sess.id] && sess.pendingEval != nil {
		g.n.Stats.Resends++
		if !g.pt.send(sess, sess.pendingEval) {
			return
		}
	}
	if g.stopping {
		g.pt.send(sess, g.stopFrame)
	}
}

// churnChild retires a child permanently; open barriers stop waiting for
// it (the round or evaluation completes without its contribution, exactly
// as the root completes without a churned flat client's).
func (g *aggRun) churnChild(s *peerSession) {
	if !g.pt.churnSession(s) {
		return
	}
	if g.awaiting != nil && g.awaiting[s.id] {
		delete(g.awaiting, s.id)
		if len(g.awaiting) == 0 && g.collecting {
			g.finishRound()
		}
	}
	if g.evalWait != nil && g.evalWait[s.id] {
		delete(g.evalWait, s.id)
		if len(g.evalWait) == 0 {
			g.finishEval()
		}
	}
}

// handleChildInbound processes one child reader delivery.
func (g *aggRun) handleChildInbound(ev inbound) {
	sess := g.pt.sessionByID(ev.id)
	if ev.err == nil {
		g.n.Ledger.AddUp(ev.id, ev.wire)
	}
	if ev.gen != sess.gen {
		return
	}
	if ev.err != nil {
		if sess.stopped {
			if sess.conn != nil {
				sess.conn.Close()
				sess.conn = nil
				sess.gen++
			}
			return
		}
		g.pt.markDisconnected(sess)
		return
	}
	sess.lastSeen = time.Now()
	m := ev.msg
	switch m.kind {
	case msgHeartbeat:
		// The arrival already refreshed lastSeen.
	case msgUpdate:
		g.handleChildUpdate(sess, m)
	case msgEvalRes:
		g.handleChildEvalRes(sess, m)
	case msgErr:
		g.fail("client %d failed: %s", ev.id, m.name)
	case msgStopAck:
		sess.stopped = true
	default:
		g.n.Stats.Ignored++
	}
}

// handleChildUpdate collects one child upload into the open round, with
// the same dedup rule the root applies: only the answer to the session's
// outstanding dispatch counts.
func (g *aggRun) handleChildUpdate(sess *peerSession, m *wireMsg) {
	if !sess.busy || sess.dispVersion != m.a {
		g.n.Stats.Ignored++
		return
	}
	sess.busy = false
	sess.pendingDispatch = nil
	if g.awaiting == nil || !g.awaiting[sess.id] {
		g.n.Stats.Ignored++
		return
	}
	scale := bitsF64(m.b)
	g.updates[sess.id] = &Update{
		Client:  sess.id,
		Version: int(m.a),
		Scale:   scale,
		// The sync barrier's final weight IS the scale (the root applies
		// the same rule on its flat path); pre-reduction folds by Weight.
		Weight: scale,
		Vecs:   m.vecs,
		Counts: m.counts,
	}
	delete(g.awaiting, sess.id)
	if len(g.awaiting) == 0 && g.collecting {
		g.finishRound()
	}
}

// handleChildEvalRes collects one child accuracy, relayed upstream bit-
// for-bit (the float64 pattern never leaves the integer slots).
func (g *aggRun) handleChildEvalRes(sess *peerSession, m *wireMsg) {
	if g.evalWait == nil || !g.evalWait[sess.id] {
		g.n.Stats.Ignored++
		return
	}
	g.evalAcc[sess.id] = m.b
	sess.pendingEval = nil
	delete(g.evalWait, sess.id)
	if len(g.evalWait) == 0 {
		g.finishEval()
	}
}

// handleTick runs the downstream failure discipline once the children are
// welcomed; expired reconnect windows churn the child (and the open
// barriers complete without it).
func (g *aggRun) handleTick() {
	if !g.assembled {
		return
	}
	g.pt.tick(g.version, g.churnChild)
}
