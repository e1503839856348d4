package fl

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/transport"
)

// PeerTable is the fan-in: everything a listener decides about the peers
// below it, written once for every role that has peers below it — the root
// ServerNode (facing clients, or aggregators in tree mode) and the edge
// AggregatorNode (facing its child range). It owns
//
//   - the plumbing: accept loop, greeter, per-connection readers, ledger
//     booking of every frame, deadline-bounded sends;
//   - admission: a token names its session, a join claims a seat by id
//     (range check, algorithm-name check, a live re-dial replaces a zombie
//     connection, a late token-less re-join is an adoption), the join
//     declarations and the assembly count;
//   - adoption: the resume message, then replay of whatever the peer is
//     owed — its dispatch, its evaluation request, its stop;
//   - inbound triage: generation check, orderly close after a stop-ack,
//     heartbeats, a peer-reported failure;
//   - the dispatch frames: a session's own, cached for replay, and one
//     frame per version for a broadcast that reaches several sessions
//     (broadcast) — the flat root's global and an aggregator's shared
//     fan-out alike;
//   - the two barriers (round, evaluation) that complete when the last
//     awaited session answers or churns, and the busy/dispVersion dedup
//     that decides which answer counts;
//   - liveness: heartbeats out, hung peers torn down, expired reconnect
//     windows churned; and the stop phase that holds every session open
//     until its peer acknowledged the goodbye or its window ran out.
//
// What is left to a role is what actually differs: which frame is a join
// (readJoin), what to do once every seat is taken (full), what a round or
// an evaluation is made of and what completing one means (round.done,
// eval.done). All methods except the accept/greet/reader goroutines must be
// called from the role's single event-loop goroutine.
type PeerTable struct {
	// noun names the peer kind ("client", "aggregator") and algo the
	// algorithm every peer must run, in refusals, errors and welcomes.
	noun string
	algo string
	// spec and lossy rebuild a fresh decode-side wireCodec for every
	// connection incarnation: delta bases live and die with one connection,
	// so a reconnect decodes densely until a new basis is established —
	// mirroring the peer's encoder, which is rebuilt the same way. wc frames
	// what the table and its role send down: never an upload kind, so always
	// dense, and a cached frame stays valid for replay.
	spec  comm.Spec
	lossy bool
	wc    *wireCodec
	// ctl is the frame every uncached send — welcome, resume, heartbeat — is
	// encoded into; it comes into being with the first frame that needs it.
	ctl       []byte
	heartbeat time.Duration
	deadAfter time.Duration
	window    time.Duration
	ledger    *comm.Ledger
	stats     *NodeStats
	// base offsets session ids: session i carries id base+i (an edge
	// aggregator's sessions are its global child-id range).
	base int
	// readJoin parses a fresh connection's first frame into the seat it
	// claims and the client declarations it carries. errNotJoin drops the
	// connection silently, any other error refuses it with the reason. It
	// runs on the greeter goroutine, so it must not touch loop state.
	readJoin func(*wireMsg) (id int, decls []WireJoin, err error)

	sessions []*peerSession
	// joins collects the declarations of every client at or below this
	// table, indexed by client id - base; joined counts taken seats. Their
	// init payloads lie in the join frames the sessions hold (peerSession.
	// join) until dropJoins; dropped marks that they went, so a join admitted
	// later keeps none.
	joins   []WireJoin
	joined  int
	dropped bool
	// assembled flips when the role welcomes the full table: from then on an
	// admitted connection is an adoption, and the liveness tick runs.
	assembled bool
	// fed is the federation's welcome prefix (fleet size, rounds, batch
	// size, evaluation cadence); the table appends each session's token and
	// its own liveness discipline.
	fed [welToken]int64
	// round and eval are the open barriers, keyed by session id.
	round, eval awaitSet
	// stopping marks the stop phase; stopFrame is the goodbye owed to every
	// session that has not acknowledged it.
	stopping  bool
	stopFrame []byte
	// bcast is the table's memory of its last broadcast (see broadcast).
	bcast broadcastFrame

	events   chan inbound
	conns    chan acceptedConn
	stop     chan struct{}
	stopOnce sync.Once

	// embryos tracks accepted connections whose join frame has not arrived
	// yet, so shutdown can unblock their greeter goroutines.
	embryoMu sync.Mutex
	embryos  map[transport.Conn]struct{}

	tokenRng *rand.Rand
	lastBeat time.Time
}

// awaitSet is a barrier over session ids: it completes — done runs, once —
// when the last awaited id is resolved, by an answer or by churn. ids is nil
// while the barrier is closed.
type awaitSet struct {
	ids  map[int]bool
	done func()
}

func (a *awaitSet) open()        { a.ids = make(map[int]bool) }
func (a *awaitSet) active() bool { return a.ids != nil }

// resolve stops waiting for id.
func (a *awaitSet) resolve(id int) {
	if a.ids[id] {
		delete(a.ids, id)
		a.settle()
	}
}

// settle completes an open barrier that waits on nobody (any more).
func (a *awaitSet) settle() {
	if a.ids != nil && len(a.ids) == 0 {
		a.ids = nil
		a.done()
	}
}

// peerSession is one downstream peer's server-side session: the identity
// that survives connection loss. conn is nil while the peer is
// disconnected; gen increments every time the connection changes so stale
// reader events are recognizable.
type peerSession struct {
	id      int
	token   uint64
	conn    transport.Conn
	gen     int
	joined  bool
	churned bool
	// join is the join message the session's declarations were read from:
	// their init payloads lie in its frame, which it holds until the table
	// drops the payloads, a re-join replaces them or the table shuts down.
	join *wireMsg
	// lastSeen is the last time any frame arrived (liveness).
	lastSeen time.Time
	// downAt is when the connection was lost (reconnect-window clock).
	downAt time.Time
	// busy marks an outstanding dispatch; dispVersion is the model version
	// it was stamped with, and pendingDispatch caches the encoded frame for
	// resend on adoption (WireDispatch may consume state — KT-pFL — so the
	// payload cannot be regenerated).
	busy            bool
	dispVersion     uint64
	pendingDispatch []byte
	// pendingEval caches an outstanding evaluation request for resend on
	// adoption (a tree request carries the id list its subtree owes).
	pendingEval []byte
	// dispFrame and evalFrame are the session's own encode buffers behind
	// those two caches: a frame in one is free to be overwritten once its
	// answer arrived or a newer dispatch or request supersedes it.
	dispFrame, evalFrame []byte
	// stopSent marks that the stop frame was written to some connection of
	// this session, stopped that the peer acknowledged it: the session is
	// complete, and a subsequent EOF from the closing peer is an orderly
	// goodbye, not a disconnect to wait out.
	stopSent bool
	stopped  bool
}

// inbound is one reader-goroutine delivery: a decoded message or the error
// that ended the connection. gen stamps which incarnation of the session's
// connection produced it, so events from an abandoned connection are
// discarded instead of corrupting the session that replaced it.
type inbound struct {
	id   int
	gen  int
	msg  *wireMsg
	wire int64
	err  error
}

// acceptedConn is one accept-loop delivery: a handshaken connection with
// either the session token it presented in the transport hello
// (reconnecting peer) or its parsed join frame (fresh peer) — the claimed
// seat, the algorithm name, the declarations and msg, the message whose
// frame their payloads lie in, or bad, the reason to refuse it — or the
// error that ended accepting. Whoever takes the delivery releases msg,
// unless a session keeps it.
type acceptedConn struct {
	conn  transport.Conn
	token uint64
	id    int
	name  string
	decls []WireJoin
	msg   *wireMsg
	bad   error
	wire  int64
	err   error
}

// errNotJoin is readJoin's verdict on a first frame that is not a join at
// all: the greeter drops the connection without a word.
var errNotJoin = errors.New("not a join frame")

// readClientJoin is the readJoin of every table whose peers are ClientNodes:
// the init payload is read where it lies in the join's frame.
func readClientJoin(m *wireMsg) (int, []WireJoin, error) {
	if m.kind != msgJoin || len(m.ints) != JoinInts {
		return 0, nil, errNotJoin
	}
	j, err := ParseJoin(m.ints)
	if err != nil {
		return 0, nil, err
	}
	j.payload = m.vecs
	return j.ID, []WireJoin{j}, nil
}

// defaultLiveness fills the failure discipline NodeConfig and
// AggregatorConfig share.
func defaultLiveness(heartbeat, deadAfter, window *time.Duration) {
	if *heartbeat <= 0 {
		*heartbeat = DefaultHeartbeat
	}
	if *deadAfter <= 0 {
		*deadAfter = 5 * *heartbeat
	}
	if *window <= 0 {
		*window = DefaultReconnectWindow
	}
}

// newPeerTable builds a table of count sessions carrying ids
// base..base+count-1, fronting fleet clients that must all run algo.
func newPeerTable(noun string, count, base, fleet int, algo WireAlgorithm, spec comm.Spec,
	heartbeat, deadAfter, window time.Duration, tokenSeed int64, ledger *comm.Ledger, stats *NodeStats,
	readJoin func(*wireMsg) (int, []WireJoin, error)) *PeerTable {
	pt := &PeerTable{
		noun:      noun,
		algo:      algo.Name(),
		spec:      spec,
		lossy:     lossyUploads(algo),
		heartbeat: heartbeat,
		deadAfter: deadAfter,
		window:    window,
		ledger:    ledger,
		stats:     stats,
		base:      base,
		readJoin:  readJoin,
		sessions:  make([]*peerSession, count),
		joins:     make([]WireJoin, fleet),
		events:    make(chan inbound, 8*count+32),
		conns:     make(chan acceptedConn, count+8),
		stop:      make(chan struct{}),
		embryos:   make(map[transport.Conn]struct{}),
	}
	pt.wc = newWireCodec(spec, pt.lossy)
	for i := range pt.sessions {
		pt.sessions[i] = &peerSession{id: base + i}
	}
	// Tokens come from a stream disjoint from cohort sampling, and the high
	// bit is forced so a token is never zero (zero means "fresh dial").
	pt.tokenRng = rand.New(rand.NewSource(tokenSeed ^ 0x746f6b656e)) // "token"
	return pt
}

// tickInterval is the liveness tick: half the shortest of the three clocks
// it serves, floored so a test-sized discipline does not spin.
func (pt *PeerTable) tickInterval() time.Duration {
	interval := min(pt.heartbeat, pt.deadAfter, pt.window) / 2
	return max(interval, 5*time.Millisecond)
}

// sessionByID maps a global peer id back to its session.
func (pt *PeerTable) sessionByID(id int) *peerSession { return pt.sessions[id-pt.base] }

// shutdown releases everything the event loop owns: the stop channel
// unblocks deliveries, closing embryo and session connections unblocks
// their goroutines' reads, and every join frame still held goes back.
func (pt *PeerTable) shutdown() {
	pt.stopOnce.Do(func() { close(pt.stop) })
	pt.dropJoins()
	for len(pt.conns) > 0 { // the loop's own channel: nobody else receives
		(<-pt.conns).msg.release()
	}
	pt.embryoMu.Lock()
	for c := range pt.embryos {
		c.Close()
	}
	pt.embryos = map[transport.Conn]struct{}{}
	pt.embryoMu.Unlock()
	for _, s := range pt.sessions {
		if s.conn != nil {
			s.conn.Close()
		}
	}
}

func (pt *PeerTable) trackEmbryo(c transport.Conn) {
	pt.embryoMu.Lock()
	pt.embryos[c] = struct{}{}
	pt.embryoMu.Unlock()
}

func (pt *PeerTable) forgetEmbryo(c transport.Conn) {
	pt.embryoMu.Lock()
	delete(pt.embryos, c)
	pt.embryoMu.Unlock()
}

// Accept-failure policy: one bad peer (failed handshake) is routine, but a
// stream of errors means the listener itself is sick — back off between
// failures and give up after a bound rather than spinning forever.
const (
	maxAcceptFailures = 1000
	acceptBackoff     = 10 * time.Millisecond
)

// acceptLoop feeds handshaken connections into the event loop until the
// listener dies.
func (pt *PeerTable) acceptLoop(ln transport.Listener) {
	failures := 0
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, transport.ErrClosed) {
				pt.deliverConn(acceptedConn{err: err})
				return
			}
			failures++
			if failures >= maxAcceptFailures {
				pt.deliverConn(acceptedConn{err: fmt.Errorf("fl: %d consecutive accept failures, last: %w", failures, err)})
				return
			}
			select {
			case <-time.After(acceptBackoff):
			case <-pt.stop:
				return
			}
			continue
		}
		failures = 0
		pt.trackEmbryo(conn)
		go pt.greet(conn)
	}
}

// greet classifies one accepted connection. A nonzero hello token is a
// reconnect claim, forwarded immediately; a fresh connection must produce
// a join frame within joinTimeout or be dropped (a handshaken-but-silent
// peer must not pin the federation). A join's payload is read where it
// lies, so the delivery holds its frame (acceptedConn.msg).
func (pt *PeerTable) greet(conn transport.Conn) {
	if tok := conn.Hello().Token; tok != 0 {
		pt.deliverConn(acceptedConn{conn: conn, token: tok})
		return
	}
	conn.SetReadDeadline(time.Now().Add(joinTimeout))
	frame, wire, err := conn.Recv()
	ac := acceptedConn{conn: conn, wire: wire}
	if err == nil {
		conn.SetReadDeadline(time.Time{})
		if ac.msg, err = readMsg(conn, frame, nil); err == nil {
			ac.name = ac.msg.name
			ac.id, ac.decls, ac.bad = pt.readJoin(ac.msg)
		}
	}
	if err != nil || errors.Is(ac.bad, errNotJoin) {
		ac.msg.release()
		pt.forgetEmbryo(conn)
		conn.Close()
		return
	}
	pt.deliverConn(ac)
}

func (pt *PeerTable) deliverConn(ac acceptedConn) {
	select {
	case pt.conns <- ac:
	case <-pt.stop:
		ac.msg.release()
		if ac.conn != nil {
			pt.forgetEmbryo(ac.conn)
			ac.conn.Close()
		}
	}
}

// reader pumps one connection's messages into the event loop until the
// connection dies. Each reader owns a fresh wireCodec: the delta bases a
// connection's uploads accumulate are discarded with the connection, so an
// adopted reconnect starts dense — exactly as the peer's rebuilt encoder
// does. A frame is released as soon as it is decoded, unless a vector of
// its message lies in it (readMsg); the role releases that message once it
// has read it.
func (pt *PeerTable) reader(id, gen int, conn transport.Conn) {
	wc := newWireCodec(pt.spec, pt.lossy)
	deliver := func(ev inbound) bool {
		select {
		case pt.events <- ev:
			return true
		case <-pt.stop:
			return false
		}
	}
	for {
		frame, wire, err := conn.Recv()
		if err != nil {
			deliver(inbound{id: id, gen: gen, err: err})
			return
		}
		m, err := readMsg(conn, frame, wc)
		if err != nil {
			deliver(inbound{id: id, gen: gen, err: err})
			return
		}
		if !deliver(inbound{id: id, gen: gen, msg: m, wire: wire}) {
			return
		}
	}
}

// attach wires a handshaken connection to a session: connection ownership,
// generation bump, handshake-byte booking, reader spawn. Both the fresh
// join and the adoption path go through here.
func (pt *PeerTable) attach(s *peerSession, conn transport.Conn, joinWire int64) {
	s.conn = conn
	s.gen++
	s.lastSeen = time.Now()
	hsSent, hsRecv := conn.HandshakeBytes()
	pt.ledger.AddUp(joinWire + hsRecv)
	if hsSent > 0 {
		pt.ledger.AddDown(hsSent)
	}
	go pt.reader(s.id, s.gen, conn)
}

func (pt *PeerTable) findToken(token uint64) *peerSession {
	for _, s := range pt.sessions {
		if s.joined && s.token == token {
			return s
		}
	}
	return nil
}

// refuse rejects a connection with an explanatory error message.
func (pt *PeerTable) refuse(conn transport.Conn, format string, args ...any) {
	conn.Send(appendMsg(nil, &wireMsg{kind: msgErr, name: fmt.Sprintf(format, args...)}, nil))
	conn.Close()
}

// full reports that every seat is taken and the role has not welcomed the
// table yet — its cue to do whatever assembly means for it.
func (pt *PeerTable) full() bool { return pt.joined == len(pt.sessions) && !pt.assembled }

// admit seats one accepted connection: a token names its session, a join
// claims the seat of its id. Before assembly a seat is (re)claimed and its
// declarations recorded, the session holding their join frame; after it,
// every admitted connection — token or token-less re-join (a restarted
// process that lost its token file, or one whose join-phase connection died
// before the welcome) — is an adoption. A join frame no session keeps goes
// back at once. The error is the listener dying before the table filled;
// after that a dead listener only forecloses reconnects, and the window
// churns whoever needed one.
func (pt *PeerTable) admit(ac acceptedConn, version uint64) error {
	defer func() { ac.msg.release() }()
	if ac.err != nil {
		if pt.joined < len(pt.sessions) {
			return fmt.Errorf("listener closed with %d of %d %ss joined: %w", pt.joined, len(pt.sessions), pt.noun, ac.err)
		}
		return nil
	}
	pt.forgetEmbryo(ac.conn)
	var s *peerSession
	switch lo, hi := pt.base, pt.base+len(pt.sessions); {
	case ac.token != 0:
		if s = pt.findToken(ac.token); s == nil {
			pt.refuse(ac.conn, "unknown session token %#x", ac.token)
			return nil
		}
	case ac.bad != nil:
		pt.refuse(ac.conn, "%s", ac.bad)
		return nil
	case ac.id < lo || ac.id >= hi:
		pt.refuse(ac.conn, "%s id %d outside the accepted range [%d, %d)", pt.noun, ac.id, lo, hi)
		return nil
	case ac.name != pt.algo:
		pt.refuse(ac.conn, "%s %d runs %q, the federation runs %q", pt.noun, ac.id, ac.name, pt.algo)
		return nil
	default:
		s = pt.sessionByID(ac.id)
	}
	if s.churned {
		pt.refuse(ac.conn, "%s %d session expired (reconnect window elapsed)", pt.noun, s.id)
		return nil
	}
	if s.conn != nil {
		// The old connection is a zombie whose death the dead-interval check
		// or the event queue has not surfaced yet; the live re-dial wins.
		pt.markDisconnected(s)
	}
	if pt.assembled {
		pt.adopt(s, ac.conn, ac.wire, version)
		return nil
	}
	for _, j := range ac.decls {
		if pt.dropped {
			j.payload = nil
		}
		pt.joins[j.ID-pt.base] = j
	}
	if !pt.dropped {
		s.join.release()
		s.join, ac.msg = ac.msg, nil
	}
	pt.attach(s, ac.conn, ac.wire)
	if !s.joined {
		s.joined = true
		pt.joined++
	}
	return nil
}

// dropJoins drops every join's init payload and hands back the frames they
// lay in, each to the connection it came on: a role does so once nothing
// reads the payloads any more — the root once its server state is built and
// no checkpoint will carry them, the edge once its tree join is framed.
func (pt *PeerTable) dropJoins() {
	pt.dropped = true
	for i := range pt.joins {
		pt.joins[i].Init, pt.joins[i].payload = nil, nil
	}
	for _, s := range pt.sessions {
		s.join.release()
		s.join = nil
	}
}

// welcomeInts is the welcome/resume layout for one session: the
// federation's parameters, the session's token, this table's liveness
// discipline (each tree edge has its own failure clocks).
func (pt *PeerTable) welcomeInts(s *peerSession) []int64 {
	return append(pt.fed[:len(pt.fed):len(pt.fed)],
		int64(s.token), pt.heartbeat.Milliseconds(), pt.deadAfter.Milliseconds())
}

// assemble closes the join phase: every session draws its reconnect token
// from the dedicated stream, in session order, and is welcomed with the
// federation's parameters (fed, which the role has set by now). A peer that died since joining is picked up by
// the reconnect window (or churn).
func (pt *PeerTable) assemble() {
	pt.assembled = true
	for _, s := range pt.sessions {
		s.token = pt.tokenRng.Uint64() | 1<<63
	}
	for _, s := range pt.sessions {
		pt.sendMsg(s, &wireMsg{kind: msgWelcome, name: pt.algo, ints: pt.welcomeInts(s)})
	}
}

// adopt attaches a connection to a disconnected session and replays what
// the peer is owed: the resume message (it may be a restarted process that
// never saw its welcome), then any outstanding dispatch or evaluation
// request, then — in the stop phase — the goodbye it re-dialed for.
func (pt *PeerTable) adopt(s *peerSession, conn transport.Conn, joinWire int64, version uint64) {
	s.downAt = time.Time{}
	pt.stats.Reconnects++
	pt.attach(s, conn, joinWire)
	if !pt.sendMsg(s, &wireMsg{kind: msgResume, a: version, name: pt.algo, ints: pt.welcomeInts(s)}) {
		return
	}
	if s.busy && s.pendingDispatch != nil {
		pt.stats.Resends++
		if !pt.send(s, s.pendingDispatch) {
			return
		}
	}
	if pt.eval.ids[s.id] && s.pendingEval != nil {
		pt.stats.Resends++
		if !pt.send(s, s.pendingEval) {
			return
		}
	}
	if pt.stopping {
		s.stopSent = pt.send(s, pt.stopFrame) || s.stopSent
	}
}

// send writes one frame to a session, booking the wire bytes on success
// and downgrading the session to disconnected on failure. A write deadline
// bounds the attempt so a peer with a full socket buffer cannot wedge the
// event loop.
func (pt *PeerTable) send(s *peerSession, frame []byte) bool {
	if s.conn == nil {
		return false
	}
	s.conn.SetWriteDeadline(time.Now().Add(pt.deadAfter))
	wire, err := s.conn.Send(frame)
	if err != nil {
		pt.markDisconnected(s)
		return false
	}
	s.conn.SetWriteDeadline(time.Time{})
	pt.ledger.AddDown(wire)
	return true
}

// sendMsg encodes one uncached message into the table's control frame and
// sends it.
func (pt *PeerTable) sendMsg(s *peerSession, m *wireMsg) bool {
	pt.ctl = appendMsg(pt.ctl[:0], m, pt.wc)
	return pt.send(s, pt.ctl)
}

// dispatch sends a session its round broadcast and marks the answer
// outstanding. The frame is cached for replay on adoption (the payload
// cannot be regenerated: WireDispatch may consume algorithm state), so a
// disconnected session keeps the dispatch owed, and whoever owns the frame
// must leave it alone until the session answered or is dispatched to again.
func (pt *PeerTable) dispatch(s *peerSession, version uint64, frame []byte) {
	s.busy, s.dispVersion, s.pendingDispatch = true, version, frame
	pt.send(s, frame)
}

// owes reports whether some session's outstanding dispatch is cached in
// frame's memory.
func (pt *PeerTable) owes(frame []byte) bool {
	for _, s := range pt.sessions {
		if s.busy && len(frame) > 0 && len(s.pendingDispatch) > 0 && &s.pendingDispatch[0] == &frame[0] {
			return true
		}
	}
	return false
}

// dispatchMsg is dispatch for a broadcast only this session gets, encoded
// into the session's own frame.
func (pt *PeerTable) dispatchMsg(s *peerSession, m *wireMsg) {
	s.dispFrame = lendMsg(s.dispFrame, m, pt.wc)
	pt.dispatch(s, m.a, s.dispFrame)
}

// broadcastFrame is a table's memory of its last broadcast: the vectors it
// carried (by identity, not content) and, once they reached more than one
// session, their encoding at one version.
type broadcastFrame struct {
	last    []comm.Body
	frame   []byte
	version uint64
	valid   bool
}

// sameVecs reports whether two payloads are the same vectors — same codecs,
// lengths, nil entries and memory — not merely equal ones.
func sameVecs(a, b []comm.Body) bool {
	return slices.EqualFunc(a, b, func(x, y comm.Body) bool {
		bx, by := x.Bytes(), y.Bytes()
		return x.Codec() == y.Codec() && len(bx) == len(by) && (bx == nil) == (by == nil) &&
			(len(bx) == 0 || &bx[0] == &by[0])
	})
}

// broadcast dispatches vecs, stamped version, to every session in ss. Vectors
// that reach more than one session — several at once (an aggregator fanning
// out a shared tree dispatch), or the same vectors as the previous broadcast
// (a root handing FedAvg's, FedProx's or FedClassAvg's global to one client
// after another) — are encoded once per version into the table's frame, and
// every session's cache points at it: a dispatch frame is dense and
// stateless (uploadKind gates sparse and delta framing to msgUpdate), so its
// bytes are the same for every session by construction. A broadcast for one
// session that does not repeat the last (KT-pFL's staged transfer, FedProto's
// table copy) is encoded into that session's own frame. A body still in a
// received frame (an aggregator relaying the root's payloads) is copied as
// it lies; the frame is live for the whole relay of one version, so no
// other payload of that version can share its memory.
func (pt *PeerTable) broadcast(version uint64, vecs []comm.Body, ss ...*peerSession) {
	m := &wireMsg{kind: msgDispatch, a: version, vecs: vecs}
	b := &pt.bcast
	same := sameVecs(vecs, b.last)
	b.last = append(b.last[:0], vecs...)
	if !same {
		b.valid = false
		if len(ss) == 1 {
			pt.dispatchMsg(ss[0], m)
			return
		}
	}
	if !b.valid || b.version != version {
		// A straggler of an older version (async) may still owe an answer to
		// the frame's bytes: they are then its to replay, and this version
		// gets a buffer of its own (as it does while a receiver still holds
		// the last one: lendMsg).
		buf := b.frame
		if pt.owes(buf) {
			buf = nil
		}
		b.frame = lendMsg(buf, m, pt.wc)
		b.version, b.valid = version, true
	}
	for _, s := range ss {
		s.dispFrame = nil
		pt.dispatch(s, version, b.frame)
	}
}

// answered deduplicates uploads: only the answer to the session's
// outstanding dispatch counts (and settles it); replays after a reconnect
// resend or a chaos duplication are tolerated noise.
func (pt *PeerTable) answered(s *peerSession, version uint64) bool {
	if !s.busy || s.dispVersion != version {
		pt.stats.Ignored++
		return false
	}
	s.busy, s.pendingDispatch = false, nil
	return true
}

// ask sends a session an evaluation request and awaits the reply; like a
// dispatch, the frame — the session's own — stays owed across a disconnect.
func (pt *PeerTable) ask(s *peerSession, m *wireMsg) {
	pt.eval.ids[s.id] = true
	s.evalFrame = appendMsg(s.evalFrame[:0], m, pt.wc)
	s.pendingEval = s.evalFrame
	pt.send(s, s.pendingEval)
}

// expects reports whether barrier b still waits on s; an answer nobody
// waits for is noise.
func (pt *PeerTable) expects(b *awaitSet, s *peerSession) bool {
	waiting := b.ids[s.id]
	if !waiting {
		pt.stats.Ignored++
	}
	return waiting
}

// triage books one reader delivery and handles what means the same thing
// under every role: a stale generation, a lost connection (orderly after a
// stop-ack, a disconnect to wait out otherwise), a heartbeat echo, the
// stop-ack itself. It returns the message when it is the role's to
// interpret, or the failure a peer reported — that is a bug, not churn,
// and every role aborts on it.
func (pt *PeerTable) triage(ev inbound) (*peerSession, *wireMsg, error) {
	s := pt.sessionByID(ev.id)
	if ev.err == nil {
		// Every frame that crossed the wire is booked — heartbeat echoes
		// and frames racing a disconnect on an abandoned connection
		// included: the ledger prices traffic, not semantics.
		pt.ledger.AddUp(ev.wire)
		if ev.msg.kind == msgStopAck {
			// The goodbye landed; the session is complete and its EOF (the
			// peer exits after acking) is orderly. The ack speaks for the
			// session, not for the connection it came in on: when our own
			// write to the closing connection fails first, the ack arrives
			// under an abandoned generation and is still the last word.
			s.stopped = true
			return s, nil, nil
		}
	}
	if ev.gen != s.gen {
		// A message from a connection this session already abandoned.
		return s, nil, nil
	}
	if ev.err != nil {
		if s.stopped {
			// The peer closed after acknowledging its stop: an orderly
			// goodbye, not a disconnect to wait out.
			if s.conn != nil {
				s.conn.Close()
				s.conn = nil
				s.gen++
			}
			return s, nil, nil
		}
		pt.markDisconnected(s)
		return s, nil, nil
	}
	s.lastSeen = time.Now()
	switch ev.msg.kind {
	case msgHeartbeat:
		// The arrival already refreshed lastSeen; nothing else to do.
		return s, nil, nil
	case msgErr:
		return s, nil, fmt.Errorf("%s %d failed: %s", pt.noun, ev.id, ev.msg.name)
	}
	return s, ev.msg, nil
}

// markDisconnected tears down a session's connection, starting its
// reconnect-window clock. Owed state (pending dispatch, eval slot) is
// preserved for replay on adoption.
func (pt *PeerTable) markDisconnected(s *peerSession) {
	if s.conn == nil {
		return
	}
	s.conn.Close()
	s.conn = nil
	s.gen++
	s.downAt = time.Now()
	pt.stats.Disconnects++
}

// churn permanently retires a session: cohorts skip it, the open barriers
// stop waiting for it (and complete without its contribution if it was the
// last), its evaluation slot stays NaN. Churn never aborts a run.
func (pt *PeerTable) churn(s *peerSession) {
	if s.churned {
		return
	}
	s.churned = true
	pt.stats.Churned++
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
		s.gen++
	}
	s.busy = false
	s.pendingDispatch, s.dispFrame = nil, nil
	s.pendingEval, s.evalFrame = nil, nil
	pt.round.resolve(s.id)
	pt.eval.resolve(s.id)
}

// beginStop opens the stop phase: every connected session gets the goodbye
// now, a disconnected one when adopt seats its re-dial. A send success
// proves nothing about delivery — the peer's msgStopAck marks the session
// stopped, and a peer re-dials until its ack went out — so the role keeps
// serving the table while pendingStops. How long a lost session is waited
// for is tick's decision.
func (pt *PeerTable) beginStop() {
	if pt.stopping {
		return
	}
	pt.stopping = true
	pt.stopFrame = transport.Lend(appendMsg(nil, &wireMsg{kind: msgStop}, pt.wc))
	for _, s := range pt.sessions {
		if !s.churned {
			s.stopSent = pt.send(s, pt.stopFrame)
		}
	}
}

// pendingStops reports whether any live session has yet to acknowledge its
// stop.
func (pt *PeerTable) pendingStops() bool {
	for _, s := range pt.sessions {
		if !s.churned && !s.stopped {
			return true
		}
	}
	return false
}

// tick runs the failure discipline once the table is assembled: heartbeats
// out (stamped with the role's version), hung peers torn down, expired
// reconnect windows churned. A session that never saw its stop keeps, in
// the stop phase, the window it gets mid-run: its peer is re-dialing and
// would otherwise spin against a closed listener, never learning the run is
// over. One whose stop was written and whose connection then broke is
// either gone — the ack died with the connection, and no re-dial will ever
// come — or re-dialing this instant; silence for one dead interval settles
// which, as it does for a connected peer.
func (pt *PeerTable) tick(version uint64) {
	if !pt.assembled {
		return
	}
	now := time.Now()
	beat := now.Sub(pt.lastBeat) >= pt.heartbeat
	if beat {
		pt.lastBeat = now
	}
	var hb []byte
	for _, s := range pt.sessions {
		if s.churned || s.stopped {
			continue
		}
		if s.conn != nil {
			if now.Sub(s.lastSeen) > pt.deadAfter {
				// Silent past the dead interval: hung, not slow — a slow peer
				// would at least be echoing heartbeats.
				pt.markDisconnected(s)
			} else if beat {
				if hb == nil {
					hb = appendMsg(pt.ctl[:0], &wireMsg{kind: msgHeartbeat, a: version}, nil)
					pt.ctl = hb
				}
				pt.send(s, hb)
			}
		}
		wait := pt.window
		if s.stopSent {
			wait = min(wait, pt.deadAfter)
		}
		if s.conn == nil && !s.downAt.IsZero() && now.Sub(s.downAt) > wait {
			pt.churn(s)
		}
	}
}
