package fl

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/transport"
	"repro/internal/xrand"
)

// WeightAvg's PreReduce keeps one accumulator across rounds: a second
// reduction must not see the first one's sums, a changed geometry must get
// fresh cells, and malformed or mismatched uploads are errors, not panics.
// An aggregator runs no setup, so the reduction needs no method.
func TestWeightAvgPreReduce(t *testing.T) {
	up := func(client int, w float64, vecs ...[]float64) *Update {
		return &Update{Client: client, Weight: w, Vecs: bodiesOf(vecs)}
	}
	var r WeightAvg
	for _, tc := range []struct {
		ups     []*Update
		sum     []float64
		w       float64
		wantErr string
	}{
		{ups: []*Update{up(0, 2, []float64{1, 2}), up(1, 3, []float64{10, 20})}, sum: []float64{32, 64}, w: 5},
		{ups: []*Update{up(2, 1, []float64{7, -7})}, sum: []float64{7, -7}, w: 1},
		{ups: []*Update{up(0, 1, []float64{1, 2, 3}), up(1, 1, []float64{1, 1, 1})}, sum: []float64{2, 3, 4}, w: 2},
		{ups: nil},
		{ups: []*Update{up(0, 1, []float64{1}), up(5, 1)}, wantErr: "client 5 uploaded a malformed payload"},
		{ups: []*Update{up(4, 1, nil)}, wantErr: "client 4 uploaded a malformed payload"},
		{ups: []*Update{up(0, 1, []float64{1, 2}), up(3, 1, []float64{1})}, wantErr: "client 3 uploaded 1 weights, subtree peers uploaded 2"},
	} {
		au, err := r.PreReduce(tc.ups)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("PreReduce error = %v, want one containing %q", err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if au.Children != len(tc.ups) || au.Weight != tc.w {
			t.Fatalf("aggregate of %d children at weight %v, want %d at %v", au.Children, au.Weight, len(tc.ups), tc.w)
		}
		if tc.sum == nil {
			if au.Vecs != nil {
				t.Fatalf("empty subtree shipped %v", au.Vecs)
			}
			continue
		}
		if len(au.Vecs) != 1 || au.Vecs[0].Len() != len(tc.sum) {
			t.Fatalf("aggregate vectors %v, want [%v]", au.Vecs, tc.sum)
		}
		for i, v := range tc.sum {
			if floatsOf(au.Vecs)[0][i] != v {
				t.Fatalf("sum[%d] = %v, want %v", i, floatsOf(au.Vecs)[0][i], v)
			}
		}
	}
}

// The tree dispatch ships one copy of a payload every member shares and one
// payload per member otherwise; both layouts survive the wire, and the
// shared one decodes to the same slice for every member.
func TestTreeDispatchLayouts(t *testing.T) {
	global := [][]float64{{1, 2, 3}, nil}
	fresh := func() [][]float64 { return [][]float64{{1, 2, 3}, nil} }
	for _, tc := range []struct {
		name     string
		members  []int
		payloads [][][]float64
		shared   bool
	}{
		{"global", []int{2, 3, 5}, [][][]float64{global, global, global}, true},
		{"per-client copies", []int{2, 3}, [][][]float64{fresh(), fresh()}, false},
		{"one member", []int{4}, [][][]float64{global}, false},
		{"nothing to send", []int{0, 1}, [][][]float64{nil, nil}, false},
		{"nil table", []int{0, 1}, [][][]float64{make([][]float64, 3), make([][]float64, 3)}, false},
		{"one differs", []int{0, 1, 2}, [][][]float64{global, global, fresh()}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := treeDispatchMsg(7, tc.members, payloadsOf(tc.payloads))
			if got := m.b == treeShared; got != tc.shared {
				t.Fatalf("shared layout = %v, want %v", got, tc.shared)
			}
			dm, err := decodeMsg(appendMsg(nil, m, nil), nil)
			if err != nil {
				t.Fatal(err)
			}
			ids, payloads, err := decodeTreeDispatch(dm)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != len(tc.members) {
				t.Fatalf("decoded %d members, want %d", len(ids), len(tc.members))
			}
			for i, id := range ids {
				if id != tc.members[i] {
					t.Fatalf("member %d: id %d, want %d", i, id, tc.members[i])
				}
				if len(payloads[i]) != len(tc.payloads[i]) {
					t.Fatalf("member %d: %d vectors, want %d", i, len(payloads[i]), len(tc.payloads[i]))
				}
				for j, v := range tc.payloads[i] {
					if got := floatsOf(payloads[i])[j]; (got == nil) != (v == nil) || len(got) != len(v) || len(v) > 0 && got[0] != v[0] {
						t.Fatalf("member %d vector %d: %v, want %v", i, j, got, v)
					}
				}
				if tc.shared && !sameVecs(payloads[i], payloads[0]) {
					t.Fatalf("member %d decoded its own copy of the shared payload", i)
				}
			}
		})
	}
}

// A hostile or corrupt tree dispatch is an error, never a panic and never a
// member dispatched twice.
func TestTreeDispatchRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *wireMsg
		want string
	}{
		{"repeated id", &wireMsg{b: treeShared, ints: []int64{2, 2}, counts: []int{1}, vecs: bodiesOf([][]float64{{1}})}, "strictly ascending"},
		{"descending ids", &wireMsg{ints: []int64{3, 2}, counts: []int{0, 0}}, "strictly ascending"},
		{"unknown layout", &wireMsg{b: 2, ints: []int64{1}, counts: []int{0}}, "unknown layout"},
		{"shared, no members", &wireMsg{b: treeShared, counts: []int{0}}, "shared payload"},
		{"shared, two counts", &wireMsg{b: treeShared, ints: []int64{1, 2}, counts: []int{1, 1}, vecs: bodiesOf([][]float64{{1}, {2}})}, "shared payload"},
		{"shared, short", &wireMsg{b: treeShared, ints: []int64{1, 2}, counts: []int{2}, vecs: bodiesOf([][]float64{{1}})}, "shared payload"},
		{"count mismatch", &wireMsg{ints: []int64{1, 2}, counts: []int{1}}, "2 members, 1 payload counts"},
		{"overflowing count", &wireMsg{ints: []int64{1, 2}, counts: []int{1, int(^uint(0) >> 1)}, vecs: bodiesOf([][]float64{{1}})}, "overrun"},
		{"trailing", &wireMsg{ints: []int64{1}, counts: []int{0}, vecs: bodiesOf([][]float64{{1}})}, "trailing"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.m.kind = msgTreeDispatch
			if _, _, err := decodeTreeDispatch(tc.m); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decodeTreeDispatch error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// echoWire hands each client either one shared global or a payload of its
// own, as the round's mode says, and each client uploads the dispatch it was
// handed: the root's WireApply sees exactly what every client received.
type echoWire struct {
	stubWire
	modes  []string // per round: "shared", "own", or "mixed" (even ids share)
	commit int
	sent   map[int][]float64 // this round's WireDispatch results, by client
	bad    []string
}

func (a *echoWire) WireDispatch(id int) ([][]float64, error) {
	v := a.global
	if mode := a.modes[a.commit]; mode == "own" || mode == "mixed" && id%2 == 1 {
		v = ramp(len(a.global), float64(1000*(id+1)+a.commit))
	}
	a.sent[id] = v
	return [][]float64{v}, nil
}

func (a *echoWire) WireLocal(c *Client, _ int, dispatch [][]float64) (*Update, error) {
	return &Update{Client: c.ID, Scale: 1, Vecs: bodiesOf([][]float64{append([]float64(nil), dispatch[0]...)})}, nil
}

func (a *echoWire) WireApply(u *Update) error {
	if want := a.sent[u.Client]; len(u.Vecs) != 1 || bitsSum(floatsOf(u.Vecs)[0]) != bitsSum(want) {
		a.bad = append(a.bad, fmt.Sprintf("round %d client %d received another payload", a.commit+1, u.Client))
	}
	return nil
}

func (a *echoWire) WireCommit() error {
	a.commit++
	for i := range a.global {
		a.global[i] = float64(a.commit) + float64(i)/8
	}
	return nil
}

// TestTreeFanOutDeliversEachPayload runs a two-aggregator tree whose rounds
// alternate a shared global (one copy per subtree, one child frame), a
// payload per client and a mix of the two: every client must be handed
// exactly the vectors WireDispatch returned for it, in every round — the
// aggregator's cached frame may never carry the previous round's global or
// another member's payload.
func TestTreeFanOutDeliversEachPayload(t *testing.T) {
	// A stale frame is answered at the wrong version, which no barrier
	// accepts: that failure is a hang, cut short here.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	const clients, aggs = 6, 2
	modes := []string{"shared", "own", "mixed", "shared", "shared"}
	algo := &echoWire{stubWire: stubWire{global: ramp(512, 0)}, modes: modes, sent: map[int][]float64{}}
	tr := transport.NewInproc(transport.Options{})
	rootLn, err := tr.Listen("root")
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, aggs+clients)
	bounds := TreeSplit(clients, aggs)
	for a := 0; a < aggs; a++ {
		addr := fmt.Sprintf("agg%d", a)
		ln, err := tr.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		agg := NewAggregatorNode(algo, AggregatorConfig{Index: a, Aggregators: aggs, Clients: clients, Seed: int64(a),
			Dialer: func(ctx context.Context, token uint64) (transport.Conn, error) {
				return transport.DialWithToken(ctx, tr, "root", token)
			}})
		go func() { errs <- agg.Run(ctx, ln) }()
		for id := bounds[a]; id < bounds[a+1]; id++ {
			conn, err := tr.Dial(ctx, addr)
			if err != nil {
				t.Fatal(err)
			}
			go func(id int) { errs <- (&ClientNode{Client: &Client{ID: id}, Algo: algo}).Run(ctx, conn) }(id)
		}
	}
	srv := NewServerNode(algo, NodeConfig{Config: Config{Rounds: len(modes), Seed: 1}, Clients: clients, Aggregators: aggs, Heartbeat: time.Hour})
	hist, err := srv.Serve(ctx, rootLn)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < aggs+clients; i++ {
		if err := <-errs; err != nil {
			t.Errorf("node: %v", err)
		}
	}
	if len(hist) != len(modes) {
		t.Fatalf("%d rounds committed, want %d", len(hist), len(modes))
	}
	for _, b := range algo.bad {
		t.Error(b)
	}
	// The layout shows in the root's downlink: a shared round ships one copy
	// per subtree, the other rounds one per client.
	if shared, own := hist[3].DownBytes, hist[1].DownBytes; 2*shared >= own {
		t.Errorf("shared round booked %d bytes down, per-client round %d: not one copy per subtree", shared, own)
	}
}

// reducingStub is stubWire with an edge reduction, so a root running it
// accepts pre-reduced aggregates.
type reducingStub struct{ stubWire }

func (a *reducingStub) PreReduce(ups []*Update) (*AggUpdate, error) {
	return &AggUpdate{Children: len(ups), Weight: float64(len(ups))}, nil
}
func (a *reducingStub) WireApplyAggregate(*AggUpdate) error { return nil }

// TestNodeTreeRootRefusesForeignAnswers opens round 1 of a two-aggregator
// tree over six clients at half participation — every session joined,
// none connected, so the dispatches stay owed — and hands the root one
// aggregator's answer. A bundle may carry only clients that aggregator
// was dispatched this round, each once. An aggregate's weights must be
// finite and non-negative, and it may fold at most the members it was
// dispatched. Anything else is fatal, with a reason naming the aggregator
// (and the client, for a bundle). The well-formed answers close that
// aggregator's part of the barrier.
func TestNodeTreeRootRefusesForeignAnswers(t *testing.T) {
	const clients, aggs, rate, seed = 6, 2, 0.5, 3
	rng, _ := xrand.NewRand(seed)
	bounds := TreeSplit(clients, aggs)
	members := make([][]int, aggs)
	for _, id := range SampleCohort(rng, clients, rate) {
		a := 0
		for id >= bounds[a+1] {
			a++
		}
		members[a] = append(members[a], id)
	}
	// agg fronts some members and some clients it was not dispatched.
	agg := -1
	for a := range members {
		if n := len(members[a]); n > 0 && n < bounds[a+1]-bounds[a] {
			agg = a
			break
		}
	}
	if agg < 0 {
		t.Fatalf("seed %d dispatches no subtree in part: %v", seed, members)
	}
	own := members[agg]
	idle := bounds[agg]
	for slices.Contains(own, idle) {
		idle++
	}
	bundle := func(ids ...int) *wireMsg {
		ups := make([]*Update, len(ids))
		for i, id := range ids {
			ups[i] = &Update{Client: id, Scale: 1, Vecs: bodiesOf([][]float64{{float64(id)}})}
		}
		return treeUpdateMsg(0, ups)
	}
	aggregate := func(children int, w float64, vw ...float64) *wireMsg {
		au := &AggUpdate{Children: children, Weight: w, Vecs: bodiesOf([][]float64{{1}}), VecWeights: vw}
		if len(vw) > 0 {
			au.Vecs = make([]comm.Body, len(vw))
		}
		return aggUpdateMsg(0, au)
	}
	n := len(own)
	cases := []struct {
		name string
		m    *wireMsg
		want string // "" when the answer is well formed
	}{
		{"bundle", bundle(own...), ""},
		{"bundle-undispatched", bundle(append(slices.Clone(own), idle)...), fmt.Sprintf("client %d", idle)},
		{"bundle-twice", bundle(append(slices.Clone(own), own[0])...), fmt.Sprintf("client %d", own[0])},
		{"aggregate", aggregate(n, float64(n)), ""},
		{"aggregate-per-vector", aggregate(n, float64(n), 1, 0), ""},
		{"aggregate-children", aggregate(n+1, float64(n)), "children"},
		{"aggregate-nan", aggregate(n, math.NaN()), "weight"},
		{"aggregate-inf", aggregate(n, math.Inf(1)), "weight"},
		{"aggregate-minus-inf", aggregate(n, math.Inf(-1)), "weight"},
		{"aggregate-negative", aggregate(n, -1), "weight"},
		{"aggregate-vector-nan", aggregate(n, float64(n), 1, math.NaN()), "weight"},
		{"aggregate-vector-inf", aggregate(n, float64(n), math.Inf(1), 1), "weight"},
		{"aggregate-vector-negative", aggregate(n, float64(n), 1, -2), "weight"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newServerRun(NewServerNode(&reducingStub{}, NodeConfig{
				Config: Config{Rounds: 2, SampleRate: rate, Seed: seed}, Clients: clients, Aggregators: aggs, Heartbeat: time.Hour}))
			r.pt.assembled = true
			r.advance()
			if r.fatal != nil || !r.pt.round.ids[agg] {
				t.Fatalf("round 1 did not open on aggregator %d: %v", agg, r.fatal)
			}
			r.handleInbound(inbound{id: agg, msg: tc.m})
			switch {
			case tc.want == "" && r.fatal != nil:
				t.Fatalf("well-formed answer refused: %v", r.fatal)
			case tc.want == "" && r.pt.round.ids[agg]:
				t.Fatalf("the round still awaits aggregator %d", agg)
			case tc.want == "":
			case r.fatal == nil:
				t.Fatal("answer accepted")
			case !strings.Contains(r.fatal.Error(), fmt.Sprintf("aggregator %d", agg)) || !strings.Contains(r.fatal.Error(), tc.want):
				t.Fatalf("refusal %q names neither aggregator %d nor %q", r.fatal, agg, tc.want)
			}
		})
	}
}

// TestNodeRefusesBadUpdateWeights forges a client's update weight at each
// place one comes off the wire: a flat root's upload, an aggregator's child
// upload and a tree root's passthrough bundle. A NaN, an infinite or a
// negative weight would poison an exact pre-reduce or fold at negative
// weight, so each is fatal and names the client; weight 2 is accepted.
func TestNodeRefusesBadUpdateWeights(t *testing.T) {
	check := func(t *testing.T, fatal error, scale float64, who ...string) {
		t.Helper()
		switch {
		case scale == 2 && fatal != nil:
			t.Fatalf("weight 2 refused: %v", fatal)
		case scale == 2:
		case fatal == nil:
			t.Fatalf("weight %v accepted", scale)
		default:
			for _, w := range who {
				if !strings.Contains(fatal.Error(), w) {
					t.Fatalf("refusal %q does not name %s", fatal, w)
				}
			}
		}
	}
	update := func(version uint64, scale float64) *wireMsg {
		return &wireMsg{kind: msgUpdate, a: version, b: math.Float64bits(scale), vecs: bodiesOf([][]float64{{1}})}
	}
	for _, scale := range []float64{math.NaN(), math.Inf(1), -1, 2} {
		t.Run(fmt.Sprint("flat-root/", scale), func(t *testing.T) {
			r := newServerRun(NewServerNode(&stubWire{}, NodeConfig{
				Config: Config{Rounds: 2, Seed: 1}, Clients: 2, Heartbeat: time.Hour}))
			r.pt.assembled = true
			r.advance()
			s := r.pt.sessionByID(1)
			if r.fatal != nil || !s.busy {
				t.Fatalf("round 1 did not dispatch client 1: %v", r.fatal)
			}
			r.handleInbound(inbound{id: 1, gen: s.gen, msg: update(s.dispVersion, scale)})
			check(t, r.fatal, scale, "client 1")
		})
		t.Run(fmt.Sprint("aggregator/", scale), func(t *testing.T) {
			n := NewAggregatorNode(&stubWire{}, AggregatorConfig{Index: 1, Aggregators: 2, Clients: 4, Heartbeat: time.Hour})
			g := newEdgeRun(context.Background(), n)
			defer g.up.close()
			g.relayRound(treeDispatchMsg(3, []int{2, 3}, payloadsOf([][][]float64{{{0}}, {{0}}})))
			s := g.pt.sessionByID(3)
			if g.fatal != nil || !s.busy {
				t.Fatalf("the dispatch did not reach client 3: %v", g.fatal)
			}
			g.handleInbound(inbound{id: 3, gen: s.gen, msg: update(3, scale)})
			check(t, g.fatal, scale, "aggregator 1", "client 3")
		})
		t.Run(fmt.Sprint("tree-root/", scale), func(t *testing.T) {
			r := newServerRun(NewServerNode(&stubWire{}, NodeConfig{
				Config: Config{Rounds: 2, Seed: 1}, Clients: 4, Aggregators: 2, Heartbeat: time.Hour}))
			r.pt.assembled = true
			r.advance()
			if r.fatal != nil || !r.pt.round.ids[1] {
				t.Fatalf("round 1 did not open on aggregator 1: %v", r.fatal)
			}
			ups := []*Update{{Client: 2, Scale: 1, Vecs: bodiesOf([][]float64{{2}})}, {Client: 3, Scale: scale, Vecs: bodiesOf([][]float64{{3}})}}
			r.handleInbound(inbound{id: 1, msg: treeUpdateMsg(0, ups)})
			check(t, r.fatal, scale, "aggregator 1", "client 3")
		})
	}
}

// TestTreeRelayDuplicateDispatch drives one edge aggregator, over inproc
// connections, through a tree dispatch and two duplicates of it, with the
// root and both children played by hand. The duplicate that arrives while
// the children train is already in hand: it is ignored, and no child sees
// a second dispatch. The duplicate that arrives after the answer means the
// root lost that answer: the cached frame goes up again, byte for byte, and
// no child retrains. A heartbeat after the first duplicate orders it: the
// uplink delivers frames in order, so its echo means the duplicate was read.
func TestTreeRelayDuplicateDispatch(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	const clients = 2
	algo := &stubWire{}
	tr := transport.NewInproc(transport.Options{})
	rootLn, err := tr.Listen("root")
	if err != nil {
		t.Fatal(err)
	}
	defer rootLn.Close()
	aggLn, err := tr.Listen("agg")
	if err != nil {
		t.Fatal(err)
	}
	agg := NewAggregatorNode(algo, AggregatorConfig{Aggregators: 1, Clients: clients, Heartbeat: time.Hour,
		Dialer: func(ctx context.Context, token uint64) (transport.Conn, error) {
			return transport.DialWithToken(ctx, tr, "root", token)
		}})
	ran := make(chan error, 1)
	go func() { ran <- agg.Run(ctx, aggLn) }()

	children := make([]*testPeer, clients)
	for id := range children {
		conn, err := tr.Dial(ctx, "agg")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		children[id] = &testPeer{t: t, conn: conn}
		j := WireJoin{ID: id, TrainSize: 10}
		children[id].send(&wireMsg{kind: msgJoin, name: algo.Name(), ints: j.AppendInts(nil)})
	}
	conn, err := rootLn.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	root := &testPeer{t: t, conn: conn}
	root.expect(msgTreeJoin)
	root.send(welcomeFor(algo, clients))
	for _, c := range children {
		c.expect(msgWelcome)
	}
	// answer reads the edge's next frame up, skipping heartbeat echoes, and
	// returns a copy of its bytes.
	answer := func() []byte {
		t.Helper()
		for {
			b, _, err := conn.Recv()
			if err != nil {
				t.Fatal(err)
			}
			m, err := decodeMsg(b, nil)
			if err != nil {
				t.Fatal(err)
			}
			if m.kind != msgHeartbeat {
				if m.kind != msgTreeUpdate {
					t.Fatalf("the edge answered with message %#x, want the passthrough bundle", m.kind)
				}
				return append([]byte(nil), b...)
			}
		}
	}

	dispatch := treeDispatchMsg(0, []int{0, 1}, payloadsOf([][][]float64{{ramp(64, 0)}, {ramp(64, 100)}}))
	root.send(dispatch)
	for _, c := range children {
		c.expect(msgDispatch)
	}
	root.send(dispatch)
	root.send(&wireMsg{kind: msgHeartbeat, a: 0})
	root.expect(msgHeartbeat)
	for id, c := range children {
		c.send(&wireMsg{kind: msgUpdate, a: 0, b: math.Float64bits(1), vecs: bodiesOf([][]float64{{float64(id)}})})
	}
	first := answer()
	root.send(dispatch)
	if again := answer(); string(again) != string(first) {
		t.Fatalf("the resent answer differs from the first: %d and %d bytes", len(again), len(first))
	}

	root.send(&wireMsg{kind: msgStop})
	for _, c := range children {
		c.expect(msgStop) // a second dispatch, from either duplicate, fails here
		c.send(&wireMsg{kind: msgStopAck})
	}
	root.expect(msgStopAck)
	if err := <-ran; err != nil {
		t.Fatal(err)
	}
	if agg.Stats.Ignored != 1 || agg.Stats.Resends != 1 {
		t.Fatalf("Stats.Ignored = %d, Stats.Resends = %d; want 1 and 1", agg.Stats.Ignored, agg.Stats.Resends)
	}
}

// TestTreeRelaysSharedPayloadAsItLies: an aggregator relays a shared tree
// payload to its children as the root framed it. At I8, a child's dispatch
// body is the root's body byte for byte — its scale included, which a
// decode and re-encode at the edge would recompute.
func TestTreeRelaysSharedPayloadAsItLies(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	const clients = 2
	algo := &stubWire{}
	tr := transport.NewInproc(transport.Options{})
	rootLn, err := tr.Listen("root")
	if err != nil {
		t.Fatal(err)
	}
	defer rootLn.Close()
	aggLn, err := tr.Listen("agg")
	if err != nil {
		t.Fatal(err)
	}
	agg := NewAggregatorNode(algo, AggregatorConfig{Aggregators: 1, Clients: clients, Codec: comm.I8, Heartbeat: time.Hour,
		Dialer: func(ctx context.Context, token uint64) (transport.Conn, error) {
			return transport.DialWithToken(ctx, tr, "root", token)
		}})
	go agg.Run(ctx, aggLn)
	children := make([]*testPeer, clients)
	for id := range children {
		conn, err := tr.Dial(ctx, "agg")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		children[id] = &testPeer{t: t, conn: conn}
		j := WireJoin{ID: id, TrainSize: 10}
		children[id].send(&wireMsg{kind: msgJoin, name: algo.Name(), ints: j.AppendInts(nil)})
	}
	conn, err := rootLn.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	root := &testPeer{t: t, conn: conn}
	root.expect(msgTreeJoin)
	root.send(welcomeFor(algo, clients))
	for _, c := range children {
		c.expect(msgWelcome)
	}

	rng := rand.New(rand.NewSource(8))
	for round := range 20 {
		v := make([]float64, 97)
		for i := range v {
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
		dispatch := treeDispatchMsg(uint64(round), []int{0, 1}, payloadsOf([][][]float64{{v}, {v}}))
		if dispatch.b != treeShared {
			t.Fatal("the payload is not shared")
		}
		frame := appendMsg(nil, dispatch, plainWire(comm.I8))
		sent, err := decodeMsg(frame, nil)
		if err != nil {
			t.Fatal(err)
		}
		root.sendFrame(frame)
		for id, c := range children {
			got := c.expect(msgDispatch).vecs
			if len(got) != 1 || got[0].Codec() != comm.I8 || !bytes.Equal(got[0].Bytes(), sent.vecs[0].Bytes()) {
				t.Fatalf("round %d: child %d's dispatch body differs from the root's I8 payload", round, id)
			}
			c.send(&wireMsg{kind: msgUpdate, a: uint64(round), b: math.Float64bits(1), vecs: bodiesOf([][]float64{{float64(id)}})})
		}
		root.expect(msgTreeUpdate)
	}
}

// TestTreeRelaysJoinBodiesAsTheyLie: an aggregator relays each child's join
// payload into its tree join as the child framed it. At I8, the root reads a
// child's init body byte for byte — its scale included, which a decode and
// re-encode at the edge would recompute. (Re-encoding what an I8 encoder
// made gives the same bytes, so each child frames its payload at twice the
// scale its values need, halving every level: a valid body no encoder
// here makes.)
func TestTreeRelaysJoinBodiesAsTheyLie(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	const clients = 3
	algo := &stubWire{}
	tr := transport.NewInproc(transport.Options{})
	rootLn, err := tr.Listen("root")
	if err != nil {
		t.Fatal(err)
	}
	defer rootLn.Close()
	aggLn, err := tr.Listen("agg")
	if err != nil {
		t.Fatal(err)
	}
	agg := NewAggregatorNode(algo, AggregatorConfig{Aggregators: 1, Clients: clients, Codec: comm.I8, Heartbeat: time.Hour,
		Dialer: func(ctx context.Context, token uint64) (transport.Conn, error) {
			return transport.DialWithToken(ctx, tr, "root", token)
		}})
	go agg.Run(ctx, aggLn)
	rng := rand.New(rand.NewSource(9))
	sent := make([]*wireMsg, clients)
	for id := range sent {
		conn, err := tr.Dial(ctx, "agg")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		v := make([]float64, 97+id)
		for i := range v {
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
		j := WireJoin{ID: id, TrainSize: 10}
		frame := appendMsg(nil, &wireMsg{kind: msgJoin, name: algo.Name(), ints: j.AppendInts(nil), vecs: bodiesOf([][]float64{v})}, plainWire(comm.I8))
		if sent[id], err = decodeMsg(frame, nil); err != nil {
			t.Fatal(err)
		}
		body := sent[id].vecs[0].Bytes() // in frame: [scale f64][levels i8...]
		binary.LittleEndian.PutUint64(body, math.Float64bits(2*math.Float64frombits(binary.LittleEndian.Uint64(body))))
		for i := 8; i < len(body); i++ {
			body[i] = byte(int8(body[i]) / 2)
		}
		(&testPeer{t: t, conn: conn}).sendFrame(frame)
	}
	conn, err := rootLn.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, _, _, joins, err := decodeTreeJoin((&testPeer{t: t, conn: conn}).expect(msgTreeJoin))
	if err != nil {
		t.Fatal(err)
	}
	for id, j := range joins {
		want := sent[id].vecs[0]
		if len(j.payload) != 1 || j.payload[0].Codec() != comm.I8 || !bytes.Equal(j.payload[0].Bytes(), want.Bytes()) {
			t.Fatalf("client %d's init body reached the root other than the child framed it", id)
		}
	}
}
