package fl

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// The ownership tests of the node wire path, each at the spot where a wrong
// release would silently train or aggregate on someone else's bytes, or
// keep memory nothing asks for. Each plays one side of the protocol by hand
// over an inproc connection.

// testPeer speaks the wire protocol from the test's side of a connection.
type testPeer struct {
	t    *testing.T
	conn transport.Conn
	wire int64 // bytes this peer has sent, framing included
}

func (p *testPeer) send(m *wireMsg) {
	p.t.Helper()
	p.sendFrame(appendMsg(nil, m, nil))
}

// sendFrame sends one encoded message as it is.
func (p *testPeer) sendFrame(frame []byte) {
	p.t.Helper()
	n, err := p.conn.Send(frame)
	if err != nil {
		p.t.Fatalf("send %#x: %v", binary.LittleEndian.Uint32(frame), err)
	}
	p.wire += n
}

// rawVecMsg encodes m, which carries no vectors, with one vector slot
// holding vector frame vb, valid or not, tagged with m's kind.
func rawVecMsg(m *wireMsg, vb []byte) []byte {
	b := appendMsg(nil, m, nil) // ends with the vector count, 0
	binary.LittleEndian.PutUint64(b[len(b)-8:], 1)
	b = binary.LittleEndian.AppendUint64(append(b, 1), uint64(len(vb)))
	b = append(b, vb...)
	binary.LittleEndian.PutUint32(b[len(b)-len(vb):], m.kind)
	return b
}

// expect reads until a message of the wanted kind arrives, skipping
// heartbeats (which it echoes, as a live peer would).
func (p *testPeer) expect(kind uint32) *wireMsg {
	p.t.Helper()
	for {
		b, _, err := p.conn.Recv()
		if err != nil {
			p.t.Fatalf("waiting for %#x: %v", kind, err)
		}
		m, err := decodeMsg(b, nil)
		if err != nil {
			p.t.Fatalf("waiting for %#x: %v", kind, err)
		}
		if m.kind == kind {
			return m
		}
		if m.kind == msgHeartbeat {
			p.send(m)
			continue
		}
		p.t.Fatalf("got message %#x while waiting for %#x", m.kind, kind)
	}
}

func ramp(n int, start float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = start + float64(i)
	}
	return v
}

func bitsSum(v []float64) uint64 {
	var s uint64
	for i, x := range v {
		s = s*1099511628211 + math.Float64bits(x) + uint64(i)
	}
	return s
}

// stubWire is the smallest WireAlgorithm: one broadcast vector, one upload
// vector, and hooks for what each test observes.
type stubWire struct {
	global []float64

	// local, when set, runs inside WireLocal with the decoded dispatch.
	local func(dispatch [][]float64)

	mu      sync.Mutex
	applied map[int][]float64 // WireApply's view of each client's vector, copied
}

func (a *stubWire) Name() string                        { return "stub" }
func (a *stubWire) Setup(*Simulation) error             { return nil }
func (a *stubWire) Round(*Simulation, int, []int) error { return nil }
func (a *stubWire) EpochsPerRound() int                 { return 1 }
func (a *stubWire) WireInit(*Client) ([][]float64, error) {
	return nil, nil
}
func (a *stubWire) WireSetup([]WireJoin, int) error { return nil }
func (a *stubWire) WireDispatch(int) ([][]float64, error) {
	return [][]float64{a.global}, nil
}
func (a *stubWire) WireLocal(c *Client, _ int, dispatch [][]float64) (*Update, error) {
	if a.local != nil {
		a.local(dispatch)
	}
	return &Update{Client: c.ID, Scale: 1, Vecs: bodiesOf([][]float64{{float64(c.ID)}})}, nil
}
func (a *stubWire) WireApply(u *Update) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.applied == nil {
		a.applied = map[int][]float64{}
	}
	a.applied[u.Client] = floatsOf(u.Vecs)[0]
	return nil
}
func (a *stubWire) WireCommit() error { return nil }

func welcomeFor(algo WireAlgorithm, clients int) *wireMsg {
	ints := make([]int64, welIntCount)
	ints[welClients], ints[welRounds], ints[welBatch], ints[welEvalEvery] = int64(clients), 2, 4, 1
	tok := uint64(1)<<63 | 7
	ints[welToken] = int64(tok)
	ints[welHeartbeatMs], ints[welDeadMs] = 1000, 60000
	return &wireMsg{kind: msgWelcome, name: algo.Name(), ints: ints}
}

// TestClientDispatchValidUntilWireLocalReturns: a client is handed the next
// version's dispatch — different bytes, same size — while its worker still
// trains on the current one. The queued dispatch is decoded (the uplink's
// pump decodes before its next Recv) while the first one's vectors are still
// lent out, so they must not be the same memory: WireLocal's view of
// dispatch[0] is bit-identical on entry and on exit, and the queued dispatch
// reaches the second WireLocal intact.
func TestClientDispatchValidUntilWireLocalReturns(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const n = 4096
	first, second := ramp(n, 1), ramp(n, -7e6)

	entered, release := make(chan struct{}), make(chan struct{})
	type view struct{ entry, exit uint64 }
	var views []view
	algo := &stubWire{}
	algo.local = func(dispatch [][]float64) {
		v := view{entry: bitsSum(dispatch[0])}
		if len(views) == 0 {
			close(entered)
			<-release
		}
		v.exit = bitsSum(dispatch[0])
		views = append(views, v)
	}

	tr := transport.NewInproc(transport.Options{})
	ln, err := tr.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := tr.Dial(ctx, "srv")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- (&ClientNode{Client: &Client{ID: 0}, Algo: algo}).Run(ctx, conn) }()
	srvConn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer srvConn.Close()
	srv := &testPeer{t: t, conn: srvConn}

	srv.expect(msgJoin)
	srv.send(welcomeFor(algo, 1))
	srv.send(&wireMsg{kind: msgDispatch, a: 0, vecs: bodiesOf([][]float64{first})})
	<-entered
	// The worker is inside WireLocal. Push the next version through the same
	// uplink; the heartbeat echo proves the client has decoded and queued it.
	srv.send(&wireMsg{kind: msgDispatch, a: 1, vecs: bodiesOf([][]float64{second})})
	srv.send(&wireMsg{kind: msgHeartbeat, a: 99})
	if hb := srv.expect(msgHeartbeat); hb.a != 99 {
		t.Fatalf("heartbeat echo carries %d, want 99", hb.a)
	}
	close(release)
	for v := uint64(0); v < 2; v++ {
		if up := srv.expect(msgUpdate); up.a != v {
			t.Fatalf("update for version %d, want %d", up.a, v)
		}
	}
	srv.send(&wireMsg{kind: msgStop})
	srv.expect(msgStopAck)
	if err := <-done; err != nil {
		t.Fatalf("client run: %v", err)
	}

	if len(views) != 2 {
		t.Fatalf("WireLocal ran %d times, want 2", len(views))
	}
	if want := bitsSum(first); views[0].entry != want || views[0].exit != want {
		t.Fatalf("dispatch[0] changed under WireLocal: entry %#x exit %#x, sent %#x", views[0].entry, views[0].exit, want)
	}
	if want := bitsSum(second); views[1].entry != want || views[1].exit != want {
		t.Fatalf("queued dispatch reached WireLocal as %#x/%#x, sent %#x", views[1].entry, views[1].exit, want)
	}
}

// TestFanInDuplicateUpdateAliasing: client 0's upload waits at the sync
// barrier when a duplicate of it — same version, different bytes, as only a
// buggy peer would send, so that aliasing shows — arrives and is dropped by
// the dedup. Dropping it releases the duplicate's vector, which client 1's
// upload is then decoded into. What WireApply folds for client 0 must be the
// first copy, bit for bit, and client 1's its own.
func TestFanInDuplicateUpdateAliasing(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const n = 4096
	algo := &stubWire{global: ramp(n, 0.5)}
	srv := NewServerNode(algo, NodeConfig{Config: Config{Rounds: 1, Seed: 1}, Clients: 2})
	tr := transport.NewInproc(transport.Options{})
	ln, err := tr.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() {
		_, err := srv.Serve(ctx, ln)
		served <- err
	}()

	peers := make([]*testPeer, 2)
	for id := range peers {
		conn, err := tr.Dial(ctx, "srv")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		peers[id] = &testPeer{t: t, conn: conn}
		join := &wireMsg{kind: msgJoin, name: algo.Name(), ints: make([]int64, JoinInts)}
		join.ints[joinID] = int64(id)
		peers[id].send(join)
	}
	for _, p := range peers {
		p.expect(msgWelcome)
		if d := p.expect(msgDispatch); bitsSum(floatsOf(d.vecs)[0]) != bitsSum(algo.global) {
			t.Fatal("dispatch does not carry the global")
		}
	}

	x0, dup, x1 := ramp(n, 100), ramp(n, -100), ramp(n, 3e9)
	p0, p1 := peers[0], peers[1]
	p0.send(&wireMsg{kind: msgUpdate, a: 0, b: math.Float64bits(1), vecs: bodiesOf([][]float64{x0})})
	p0.send(&wireMsg{kind: msgUpdate, a: 0, b: math.Float64bits(1), vecs: bodiesOf([][]float64{dup})})
	// The event loop books a frame when it starts on it, so the heartbeat
	// being booked means the duplicate before it is fully dealt with.
	p0.send(&wireMsg{kind: msgHeartbeat})
	for srv.Ledger.TotalUp() != p0.wire+p1.wire {
		if ctx.Err() != nil {
			t.Fatalf("server booked %d of the clients' %d bytes", srv.Ledger.TotalUp(), p0.wire+p1.wire)
		}
		time.Sleep(time.Millisecond)
	}
	p1.send(&wireMsg{kind: msgUpdate, a: 0, b: math.Float64bits(1), vecs: bodiesOf([][]float64{x1})})

	for _, p := range peers {
		req := p.expect(msgEvalReq)
		p.send(&wireMsg{kind: msgEvalRes, a: req.a, b: math.Float64bits(0.5)})
	}
	for _, p := range peers {
		p.expect(msgStop)
		p.send(&wireMsg{kind: msgStopAck})
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if srv.Stats.Ignored == 0 {
		t.Fatal("the duplicate update was not dropped by the dedup")
	}
	for id, want := range [][]float64{x0, x1} {
		if got := algo.applied[id]; bitsSum(got) != bitsSum(want) || len(got) != n {
			t.Fatalf("client %d: WireApply folded %#x (%d values), uploaded %#x", id, bitsSum(got), len(got), bitsSum(want))
		}
	}
}

// TestAggregatorDropsChildInits: once every child has joined, an aggregator
// encodes its tree join, which relays each child's init payload body as it
// lay in the child's join frame. From then on that frame is the only copy it
// keeps: its table holds no payload and no child's join frame (each lent
// frame reads transport.Held false), after the join and after assembly, and
// a link lost before the welcome is re-dialed with a byte-identical frame.
// The welcome grants a token, after which no join is ever due, and the
// frame goes too.
func TestAggregatorDropsChildInits(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const clients, n = 2, 4096
	algo := &stubWire{}
	tr := transport.NewInproc(transport.Options{})
	rootLn, err := tr.Listen("root")
	if err != nil {
		t.Fatal(err)
	}
	defer rootLn.Close()
	childLn, err := tr.Listen("children")
	if err != nil {
		t.Fatal(err)
	}
	defer childLn.Close()
	agg := NewAggregatorNode(algo, AggregatorConfig{Aggregators: 1, Clients: clients, Heartbeat: time.Hour,
		Dialer: func(ctx context.Context, _ uint64) (transport.Conn, error) { return tr.Dial(ctx, "root") }})
	g := newEdgeRun(ctx, agg)
	defer g.pt.shutdown()
	defer g.up.close()
	go g.pt.acceptLoop(childLn)

	inits := make([][]float64, clients)
	sent := make([][]byte, clients)
	for id := range inits {
		inits[id] = ramp(n, float64(id*n))
		conn, err := tr.Dial(ctx, "children")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		j := WireJoin{ID: id, TrainSize: 10 + id}
		sent[id] = transport.Lend(appendMsg(nil, &wireMsg{kind: msgJoin, name: algo.Name(), ints: j.AppendInts(nil), vecs: bodiesOf([][]float64{inits[id]})}, nil))
		(&testPeer{t: t, conn: conn}).sendFrame(sent[id])
	}
	for !g.pt.full() {
		if err := g.pt.admit(<-g.pt.conns, 0); err != nil {
			t.Fatal(err)
		}
	}
	for id, frame := range sent {
		if !transport.Held(frame) {
			t.Fatalf("client %d's join frame went back before the tree join was framed", id)
		}
	}
	noInits := func(when string) {
		t.Helper()
		for _, j := range g.pt.joins {
			if j.Init != nil || j.payload != nil {
				t.Fatalf("%s: the table still holds client %d's init payload", when, j.ID)
			}
		}
		for id, frame := range sent {
			if transport.Held(frame) {
				t.Fatalf("%s: the table still holds client %d's join frame", when, id)
			}
		}
	}
	// join takes the dial under way, sends the join over it and returns the
	// root's end with the frame it received.
	join := func() (transport.Conn, []byte) {
		t.Helper()
		conn, err := rootLn.Accept()
		if err != nil {
			t.Fatal(err)
		}
		if !g.up.dialed(<-g.up.dials) {
			t.Fatal("no join due on a link that was never welcomed")
		}
		g.sendJoin()
		b, _, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return conn, append([]byte(nil), b...)
	}
	g.up.dial(nil)
	conn, first := join()
	noInits("after the join")
	m, err := decodeMsg(first, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, joins, err := decodeTreeJoin(m)
	if err != nil {
		t.Fatal(err)
	}
	for id, j := range joins {
		child, err := decodeMsg(sent[id], nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(j.payload) != 1 || !bytes.Equal(j.payload[0].Bytes(), child.vecs[0].Bytes()) {
			t.Fatalf("the tree join carries client %d's init payload body wrong", id)
		}
	}

	conn.Close() // lost before the welcome: the aggregator re-dials and joins again
	if g.up.receive(<-g.up.frames) != nil {
		t.Fatal("the lost link delivered a message")
	}
	conn, again := join()
	defer conn.Close()
	if !bytes.Equal(first, again) {
		t.Fatalf("the re-dialed join differs from the first: %d and %d bytes", len(first), len(again))
	}
	root := &testPeer{t: t, conn: conn}
	root.send(welcomeFor(algo, clients))
	welcome := g.up.receive(<-g.up.frames)
	if welcome == nil || welcome.kind != msgWelcome {
		t.Fatalf("the welcome did not come through: %v", welcome)
	}
	g.handleUp(welcome)
	if !g.pt.assembled || g.fatal != nil {
		t.Fatalf("the subtree did not assemble: %v", g.fatal)
	}
	noInits("after assembly")
	if g.joinFrame != nil {
		t.Fatal("the aggregator keeps its join frame after the welcome")
	}
}

// TestDroppedVectorsStayOutOfThePool: the tensor pool keeps a free list per
// exact length for good, so only a vector its role has used may go back to
// it. Top-k frames claim their length in a header a few bytes long, and a
// server meets them of every length: in joins its greeter refuses — frames
// that fail to decode and valid ones of an id out of range — and in
// uploads an admitted client sends after its round has closed, which
// triage drops. None of those lengths may be left pooled: under
// ScrubFreed(NaN) every hand-back is NaN-filled, so pool storage of a
// length shows as NaN when it is asked for again, and fresh storage as 0.
func TestDroppedVectorsStayOutOfThePool(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer tensor.ScrubFreed(math.NaN())()
	// Lengths nothing else in the package decodes, so no other test's
	// hand-back can stand in the pool for them.
	const lengths, base = 6, 70001
	spec := comm.NewSpec(comm.F64, 1e-4, false)
	topk := func(n int) []byte {
		v := make([]float64, n)
		v[n/2] = 1
		return comm.MarshalSpecInto(nil, spec, msgJoin, v, nil)
	}
	var claimed []int
	algo := &stubWire{global: ramp(8, 0.5)}
	srv := NewServerNode(algo, NodeConfig{Config: Config{Rounds: 1, Seed: 1}, Clients: 1})
	tr := transport.NewInproc(transport.Options{})
	ln, err := tr.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() {
		_, err := srv.Serve(ctx, ln)
		served <- err
	}()
	dial := func() *testPeer {
		t.Helper()
		conn, err := tr.Dial(ctx, "srv")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return &testPeer{t: t, conn: conn}
	}

	// The greeter: each join is refused or its connection closed, which
	// the drained read waits for.
	for i := range lengths {
		n := base + 2*i
		claimed = append(claimed, n)
		vb := topk(n)
		if i%2 == 0 {
			vb = vb[:len(vb)-1] // one value byte short: the decode fails
		}
		j := WireJoin{ID: 5, TrainSize: 10}
		p := dial()
		p.sendFrame(rawVecMsg(&wireMsg{kind: msgJoin, name: algo.Name(), ints: j.AppendInts(nil)}, vb))
		for {
			if _, _, err := p.conn.Recv(); err != nil {
				break
			}
		}
	}

	// A session reader: the client's one upload closes the round, and every
	// later one is a duplicate triage drops.
	p := dial()
	j := WireJoin{ID: 0, TrainSize: 10}
	p.send(&wireMsg{kind: msgJoin, name: algo.Name(), ints: j.AppendInts(nil)})
	p.expect(msgWelcome)
	p.expect(msgDispatch)
	p.send(&wireMsg{kind: msgUpdate, a: 0, b: math.Float64bits(1), vecs: bodiesOf([][]float64{ramp(8, 1)})})
	req := p.expect(msgEvalReq)
	for i := range lengths {
		n := base + 2*(lengths+i)
		claimed = append(claimed, n)
		p.sendFrame(rawVecMsg(&wireMsg{kind: msgUpdate, a: 0, b: math.Float64bits(1)}, topk(n)))
	}
	// The event loop books a frame when it starts on it, so the heartbeat
	// being booked means the duplicates before it are fully dealt with.
	p.send(&wireMsg{kind: msgHeartbeat})
	for srv.Ledger.TotalUp() != p.wire {
		if ctx.Err() != nil {
			t.Fatalf("server booked %d of the client's %d bytes", srv.Ledger.TotalUp(), p.wire)
		}
		time.Sleep(time.Millisecond)
	}
	p.send(&wireMsg{kind: msgEvalRes, a: req.a, b: math.Float64bits(0.5)})
	p.expect(msgStop)
	p.send(&wireMsg{kind: msgStopAck})
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if srv.Stats.Ignored != lengths {
		t.Fatalf("triage dropped %d uploads, want the %d duplicates", srv.Stats.Ignored, lengths)
	}
	for _, n := range claimed {
		if v := tensor.GetStorage[float64](n); math.IsNaN(v[0]) {
			t.Errorf("the pool holds a %d-element vector, a length only dropped frames claimed", n)
		}
	}
}
