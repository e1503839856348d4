package fl

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestNodeRefusesNegativeJoinSizes: a join's sizes are input. Clients
// declaring TrainSize 8, 8 and −16 would cancel the |D_k| start's weight
// total to zero and hand every client a non-finite classifier, so the root
// (flat or tree) and an aggregator's child table each refuse the forged
// declaration with a msgErr naming the field.
func TestNodeRefusesNegativeJoinSizes(t *testing.T) {
	forged := WireJoin{ID: 2, TrainSize: -16}
	clientJoin := &wireMsg{kind: msgJoin, name: "stub", ints: forged.AppendInts(nil)}
	for _, tc := range []struct {
		name  string
		serve func(ctx context.Context, ln transport.Listener) error
		join  []byte
	}{
		{"flat root", func(ctx context.Context, ln transport.Listener) error {
			_, err := NewServerNode(&stubWire{}, NodeConfig{Config: Config{Rounds: 1, Seed: 1}, Clients: 3}).Serve(ctx, ln)
			return err
		}, appendMsg(nil, clientJoin, nil)},
		{"tree root", func(ctx context.Context, ln transport.Listener) error {
			_, err := NewServerNode(&stubWire{}, NodeConfig{Config: Config{Rounds: 1, Seed: 1}, Clients: 3, Aggregators: 2}).Serve(ctx, ln)
			return err
		}, encodeTreeJoin(1, 1, 3, []WireJoin{{ID: 1, TrainSize: 8}, forged}, "stub", nil)},
		{"aggregator", func(ctx context.Context, ln transport.Listener) error {
			return NewAggregatorNode(&stubWire{}, AggregatorConfig{Index: 1, Aggregators: 2, Clients: 3,
				Dialer: func(ctx context.Context, _ uint64) (transport.Conn, error) {
					<-ctx.Done()
					return nil, ctx.Err()
				}}).Run(ctx, ln)
		}, appendMsg(nil, clientJoin, nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			tr := transport.NewInproc(transport.Options{})
			ln, err := tr.Listen("srv")
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- tc.serve(ctx, ln) }()
			defer func() {
				cancel()
				<-served
			}()
			conn, err := tr.Dial(ctx, "srv")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			p := &testPeer{t: t, conn: conn}
			if _, err := conn.Send(tc.join); err != nil {
				t.Fatal(err)
			}
			if m := p.expect(msgErr); !strings.Contains(m.name, "TrainSize -16") {
				t.Fatalf("refusal %q does not name TrainSize -16", m.name)
			}
		})
	}
}

// joinReader is a stub whose server state is what its WireSetup read of
// each join's init payload, decoded.
type joinReader struct {
	stubWire
	read [][]float64
}

func (a *joinReader) WireSetup(joins []WireJoin, _ int) error {
	a.read = a.read[:0]
	for _, j := range joins {
		var v []float64
		if init := j.initBodies(); len(init) == 1 {
			v = init[0].Decode(nil)
		}
		a.read = append(a.read, v)
	}
	return nil
}
func (a *joinReader) AlgoSnapshot() (*AlgoState, error) { return &AlgoState{}, nil }
func (a *joinReader) AlgoRestore(*AlgoState) error      { return nil }

// TestRootKeepsJoinsOnlyWhileReadable: a root reads every join's init
// payload where it lies in the join's frame, and keeps it only while
// something can read it. Over a flat inproc root, a flat tcp root and a tree
// root, WireSetup reads each client's payload bit for bit. Without a
// Checkpoint no join holds a payload or a frame once setup is done, and
// every lent inproc join frame reads transport.Held false. With one the
// frames stay held, every checkpoint's join records are the clients'
// payloads bit for bit, and a root restored from the checkpoint sets up
// from the same vectors and checkpoints the same records — and drops them
// when it is restored without a Checkpoint of its own.
func TestRootKeepsJoinsOnlyWhileReadable(t *testing.T) {
	const clients, n = 4, 4096
	inits := make([][]float64, clients)
	for id := range inits {
		inits[id] = ramp(n, float64(id*n)+0.25)
	}
	sameJoins := func(t *testing.T, what string, got [][]float64) {
		t.Helper()
		for id, v := range got {
			if !sameBitsF(v, inits[id]) {
				t.Fatalf("%s: client %d's init payload is not the one it sent", what, id)
			}
		}
	}
	for _, tc := range []struct {
		name string
		tcp  bool
		aggs int
		keep bool
	}{
		{name: "flat inproc"},
		{name: "flat tcp", tcp: true},
		{name: "tree inproc", aggs: 2},
		{name: "flat inproc checkpointed", keep: true},
		{name: "flat tcp checkpointed", tcp: true, keep: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			var tr transport.Transport = transport.NewInproc(transport.Options{})
			addr := "srv"
			if tc.tcp {
				tr, addr = transport.NewTCP(transport.Options{}), "127.0.0.1:0"
			}
			ln, err := tr.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			cfg := NodeConfig{Config: Config{Rounds: 1, Seed: 1}, Clients: clients, Aggregators: tc.aggs, Heartbeat: time.Hour}
			if tc.keep {
				cfg.Checkpoint = func(*Snapshot) error { return nil }
			}
			algo := &joinReader{}
			r := newServerRun(NewServerNode(algo, cfg))
			defer r.pt.shutdown()
			go r.pt.acceptLoop(ln)

			// Each peer — a client, or an aggregator for its range — sends
			// one lent join frame.
			var sent [][]byte
			for s := range r.sessions {
				conn, err := tr.Dial(ctx, ln.Addr())
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				var frame []byte
				if tc.aggs == 0 {
					j := WireJoin{ID: s, TrainSize: 10}
					frame = appendMsg(nil, &wireMsg{kind: msgJoin, name: algo.Name(), ints: j.AppendInts(nil), vecs: bodiesOf([][]float64{inits[s]})}, nil)
				} else {
					lo, hi := r.bounds[s], r.bounds[s+1]
					joins := make([]WireJoin, hi-lo)
					for i := range joins {
						joins[i] = WireJoin{ID: lo + i, TrainSize: 10, Init: [][]float64{inits[lo+i]}}
					}
					frame = encodeTreeJoin(s, lo, hi, joins, algo.Name(), nil)
				}
				sent = append(sent, transport.Lend(frame))
				(&testPeer{t: t, conn: conn}).sendFrame(frame)
			}
			for !r.pt.full() {
				if err := r.pt.admit(<-r.pt.conns, 0); err != nil {
					t.Fatal(err)
				}
			}
			held := func(s int) bool { return !tc.tcp && transport.Held(sent[s]) }
			for s := range sent {
				if !tc.tcp && !held(s) {
					t.Fatalf("session %d's join frame went back before setup read it", s)
				}
			}
			r.full()
			if r.fatal != nil {
				t.Fatal(r.fatal)
			}
			sameJoins(t, "WireSetup", algo.read)
			if !tc.keep {
				for _, j := range r.pt.joins {
					if j.Init != nil || j.payload != nil {
						t.Fatalf("client %d's init payload is kept after setup", j.ID)
					}
				}
				for s, sess := range r.sessions {
					if sess.join != nil || held(s) {
						t.Fatalf("session %d's join frame is held after setup", s)
					}
				}
				return
			}
			for s, sess := range r.sessions {
				if sess.join == nil || (!tc.tcp && !held(s)) {
					t.Fatalf("session %d's join frame went back, yet checkpoints read it", s)
				}
			}
			records := func(snap *Snapshot) [][]float64 {
				vs := make([][]float64, len(snap.Joins))
				for i, j := range snap.Joins {
					if len(j.Init) == 1 {
						vs[i] = j.Init[0]
					}
				}
				return vs
			}
			snap, err := r.snapshot()
			if err != nil {
				t.Fatal(err)
			}
			sameJoins(t, "checkpoint", records(snap))

			for _, resumed := range []bool{true, false} {
				rcfg := cfg
				if !resumed {
					rcfg.Checkpoint = nil
				}
				algo2 := &joinReader{}
				r2 := newServerRun(NewServerNode(algo2, rcfg))
				if err := r2.restore(snap); err != nil {
					t.Fatal(err)
				}
				sameJoins(t, "restored WireSetup", algo2.read)
				if !resumed {
					for _, j := range r2.pt.joins {
						if j.Init != nil || j.payload != nil {
							t.Fatalf("a root restored without a Checkpoint keeps client %d's init payload", j.ID)
						}
					}
					continue
				}
				again, err := r2.snapshot()
				if err != nil {
					t.Fatal(err)
				}
				sameJoins(t, "restored checkpoint", records(again))
			}
		})
	}
}
