// End-to-end tests of the node runtime: server and client nodes speaking
// the wire protocol over real transports, compared against the in-process
// engine for parity. External test package so fleets and algorithms come
// from experiments/core/baselines without an import cycle.
package fl_test

import (
	"context"
	"io"
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/transport"
)

func nodeScale() experiments.Scale {
	s := experiments.Tiny()
	s.Rounds = 3
	return s
}

// TestNodeFederationSyncParity runs FedClassAvg as one server node plus
// four client nodes over the inproc transport and checks every evaluation
// point lands within parity tolerance of the in-process sync engine at
// the same seed — the quickstart-parity contract of the node split.
func TestNodeFederationSyncParity(t *testing.T) {
	s := nodeScale()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	build, _, err := experiments.NewFleetBuilder(experiments.Fashion, data.Dirichlet, "heterogeneous", s.Clients, s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.Run(experiments.MethodProposed, experiments.Fashion, build, s.Clients, s, 1.0)
	if err != nil {
		t.Fatal(err)
	}

	tr := transport.NewInproc(transport.Options{})
	got, err := experiments.RunNodes(ctx, experiments.MethodProposed, experiments.Fashion, build, s.Clients, s, 1.0, comm.Spec{Value: comm.F64}, tr, "srv")
	if err != nil {
		t.Fatal(err)
	}

	if len(got) != len(want) {
		t.Fatalf("node run has %d evaluation points, sync run has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Round != want[i].Round || got[i].LocalEpochs != want[i].LocalEpochs {
			t.Fatalf("point %d: round/epochs (%d, %d) vs sync (%d, %d)",
				i, got[i].Round, got[i].LocalEpochs, want[i].Round, want[i].LocalEpochs)
		}
		if d := math.Abs(got[i].MeanAcc - want[i].MeanAcc); d > 0.02 {
			t.Fatalf("round %d: node accuracy %.4f vs sync %.4f (Δ %.4f > 0.02)",
				got[i].Round, got[i].MeanAcc, want[i].MeanAcc, d)
		}
		for j := range got[i].PerClient {
			if d := math.Abs(got[i].PerClient[j] - want[i].PerClient[j]); d > 0.02 {
				t.Fatalf("round %d client %d: node %.4f vs sync %.4f", got[i].Round, j, got[i].PerClient[j], want[i].PerClient[j])
			}
		}
	}
}

// TestNodeAllMethodsRun drives every method of the evaluation through the
// node runtime end to end.
func TestNodeAllMethodsRun(t *testing.T) {
	s := nodeScale()
	s.Rounds = 2
	cases := []struct {
		method string
		fleet  string
	}{
		{experiments.MethodBaseline, "heterogeneous"},
		{experiments.MethodFedProto, "proto"},
		{experiments.MethodKTpFL, "heterogeneous"},
		{experiments.MethodProposed, "heterogeneous"},
		{experiments.MethodFedAvg, "homogeneous"},
		{experiments.MethodFedProx, "homogeneous"},
		{experiments.MethodKTpFLWeight, "homogeneous"},
		{experiments.MethodProposedWeight, "homogeneous"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.method, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			build, _, err := experiments.NewFleetBuilder(experiments.Fashion, data.Dirichlet, tc.fleet, s.Clients, s)
			if err != nil {
				t.Fatal(err)
			}
			tr := transport.NewInproc(transport.Options{})
			hist, err := experiments.RunNodes(ctx, tc.method, experiments.Fashion, build, s.Clients, s, 1.0, comm.Spec{Value: comm.F64}, tr, "srv")
			if err != nil {
				t.Fatal(err)
			}
			if len(hist) != s.Rounds {
				t.Fatalf("history has %d points, want %d", len(hist), s.Rounds)
			}
			fin := experiments.Final(hist)
			if fin.MeanAcc < 0 || fin.MeanAcc > 1 {
				t.Fatalf("accuracy out of range: %v", fin.MeanAcc)
			}
			if fin.UpBytes < 0 || fin.DownBytes <= 0 {
				t.Fatalf("traffic accounting missing: up %d down %d", fin.UpBytes, fin.DownBytes)
			}
		})
	}
}

// TestNodeSampledEvaluation runs evaluation sampling (EvalSample below the
// fleet) through a flat node federation and a two-aggregator tree at the
// scale and seed of the in-process sync run. Every evaluation point must
// sample the same clients in all three runs. Every run's PerClient lists
// the sample's accuracies in EvalIDs order, and each node accuracy is
// finite and within the 0.02 parity tolerance of the in-process one.
func TestNodeSampledEvaluation(t *testing.T) {
	s := nodeScale()
	const sample = 2
	build, _, err := experiments.NewFleetBuilder(experiments.Fashion, data.Dirichlet, "heterogeneous", s.Clients, s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.RunScheduled(experiments.MethodProposed, experiments.Fashion, build, s.Clients, s, 1.0, 0, sample,
		fl.SchedulerConfig{}, comm.Spec{Value: comm.F64})
	if err != nil {
		t.Fatal(err)
	}
	flat, tree := runFlatAndTree(t, experiments.MethodProposed, "heterogeneous", s, 2,
		func(cfg *fl.NodeConfig) { cfg.EvalSample = sample })
	for name, got := range map[string][]fl.RoundMetrics{"flat": flat, "tree": tree} {
		if len(got) != len(want) {
			t.Fatalf("%s run has %d evaluation points, in-process run has %d", name, len(got), len(want))
		}
		for i, m := range got {
			ids := want[i].EvalIDs
			if len(ids) != sample || !slices.Equal(m.EvalIDs, ids) {
				t.Fatalf("%s round %d: sampled %v, in-process run sampled %v", name, m.Round, m.EvalIDs, ids)
			}
			if len(m.PerClient) != len(m.EvalIDs) {
				t.Fatalf("%s round %d: %d PerClient entries, want one per sampled client (%d)", name, m.Round, len(m.PerClient), len(m.EvalIDs))
			}
			for j, acc := range m.PerClient {
				if d := math.Abs(acc - want[i].PerClient[j]); math.IsNaN(acc) || math.IsInf(acc, 0) || d > 0.02 {
					t.Fatalf("%s round %d client %d: node %.4f vs in-process %.4f", name, m.Round, ids[j], acc, want[i].PerClient[j])
				}
			}
		}
	}
}

// countingListener wraps a transport listener so the test can observe the
// server's true wire traffic independently of the ledger.
type countingListener struct {
	transport.Listener
	up, down *int64
}

func (l *countingListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	hsSent, hsRecv := c.HandshakeBytes()
	atomic.AddInt64(l.down, hsSent)
	atomic.AddInt64(l.up, hsRecv)
	return &countingConn{Conn: c, up: l.up, down: l.down}, nil
}

type countingConn struct {
	transport.Conn
	up, down *int64
}

func (c *countingConn) Send(frame []byte) (int64, error) {
	n, err := c.Conn.Send(frame)
	if err == nil {
		// The ledger books only completed sends; a torn write on a dying
		// connection still reports partial bytes alongside its error.
		atomic.AddInt64(c.down, n)
	}
	return n, err
}

func (c *countingConn) Recv() ([]byte, int64, error) {
	b, n, err := c.Conn.Recv()
	if err == nil {
		atomic.AddInt64(c.up, n)
	}
	return b, n, err
}

// TestNodeLedgerMatchesWireBytes is the accounting regression test: over
// real TCP sockets, the server ledger's totals must equal the bytes that
// actually crossed the server's connections — message frames, transport
// length prefixes AND handshakes — as counted by an instrumented listener.
func TestNodeLedgerMatchesWireBytes(t *testing.T) {
	s := nodeScale()
	s.Rounds = 2
	k := 3
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	build, _, err := experiments.NewFleetBuilder(experiments.Fashion, data.Dirichlet, "heterogeneous", k, s)
	if err != nil {
		t.Fatal(err)
	}
	tr := transport.NewTCP(transport.Options{})
	ln, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var up, down int64
	counted := &countingListener{Listener: ln, up: &up, down: &down}

	algo, err := experiments.WireAlgorithmFor(experiments.MethodProposed, experiments.Fashion, s)
	if err != nil {
		t.Fatal(err)
	}
	srv := fl.NewServerNode(algo, experiments.NodeConfigFor(s, 1.0, comm.Spec{Value: comm.F64}, k))
	clientErr := make(chan error, k)
	for i := 0; i < k; i++ {
		go func(id int) {
			clientErr <- experiments.RunClientNode(ctx, experiments.MethodProposed, experiments.Fashion, build, id, s, tr, ln.Addr())
		}(i)
	}
	if _, err := srv.Serve(ctx, counted); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if err := <-clientErr; err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Ledger.TotalUp(); got != atomic.LoadInt64(&up) {
		t.Fatalf("ledger uplink %d bytes, wire carried %d", got, up)
	}
	if got := srv.Ledger.TotalDown(); got != atomic.LoadInt64(&down) {
		t.Fatalf("ledger downlink %d bytes, wire carried %d", got, down)
	}
	if up == 0 || down == 0 {
		t.Fatal("no traffic counted")
	}
}

// dyingConn kills the connection after a fixed number of received frames,
// simulating a client process dying mid-federation.
type dyingConn struct {
	transport.Conn
	left int
}

func (c *dyingConn) Recv() ([]byte, int64, error) {
	if c.left <= 0 {
		c.Conn.Close()
		return nil, 0, io.EOF
	}
	c.left--
	return c.Conn.Recv()
}

// TestNodeClientDeathChurn kills one of three clients after it has seen
// the welcome and one dispatch; the federation must finish every round
// with the survivors and report the dead client as NaN in PerClient.
func TestNodeClientDeathChurn(t *testing.T) {
	s := nodeScale()
	k := 3
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	build, _, err := experiments.NewFleetBuilder(experiments.Fashion, data.Dirichlet, "heterogeneous", k, s)
	if err != nil {
		t.Fatal(err)
	}
	tr := transport.NewInproc(transport.Options{})
	ln, err := tr.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	algo, err := experiments.WireAlgorithmFor(experiments.MethodProposed, experiments.Fashion, s)
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.NodeConfigFor(s, 1.0, comm.Spec{Value: comm.F64}, k)
	// A dead client without a reconnect attempt should degrade to churn
	// quickly; the defaults are sized for real deployments.
	cfg.Heartbeat = 20 * time.Millisecond
	cfg.DeadAfter = 200 * time.Millisecond
	cfg.ReconnectWindow = 300 * time.Millisecond
	srv := fl.NewServerNode(algo, cfg)

	survErr := make(chan error, k-1)
	for i := 0; i < k-1; i++ {
		go func(id int) {
			survErr <- experiments.RunClientNode(ctx, experiments.MethodProposed, experiments.Fashion, build, id, s, tr, "srv")
		}(i)
	}
	// The doomed client joins normally but its connection dies after two
	// received frames (welcome + round-1 dispatch).
	calgo, err := experiments.WireAlgorithmFor(experiments.MethodProposed, experiments.Fashion, s)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := tr.Dial(ctx, "srv")
	if err != nil {
		t.Fatal(err)
	}
	doomedErr := make(chan error, 1)
	go func() {
		node := &fl.ClientNode{Client: build(k - 1), Algo: calgo}
		doomedErr <- node.Run(ctx, &dyingConn{Conn: conn, left: 2})
	}()

	hist, err := srv.Serve(ctx, ln)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k-1; i++ {
		if err := <-survErr; err != nil {
			t.Errorf("surviving client: %v", err)
		}
	}
	if err := <-doomedErr; err == nil {
		t.Error("doomed client finished cleanly")
	}
	if srv.Stats.Churned != 1 {
		t.Errorf("server churned %d sessions, want 1", srv.Stats.Churned)
	}
	if len(hist) != s.Rounds {
		t.Fatalf("churned federation produced %d evaluation points, want %d", len(hist), s.Rounds)
	}
	last := hist[len(hist)-1]
	if !math.IsNaN(last.PerClient[k-1]) {
		t.Fatalf("dead client %d still has accuracy %v", k-1, last.PerClient[k-1])
	}
	for i := 0; i < k-1; i++ {
		if math.IsNaN(last.PerClient[i]) {
			t.Fatalf("surviving client %d has no accuracy", i)
		}
	}
	if last.MeanAcc < 0 || last.MeanAcc > 1 {
		t.Fatalf("mean accuracy out of range: %v", last.MeanAcc)
	}
}

// TestServerNodeCancel cancels the context while the server is still
// waiting for joins; Serve must return promptly with the context error.
func TestServerNodeCancel(t *testing.T) {
	s := nodeScale()
	tr := transport.NewInproc(transport.Options{})
	ln, err := tr.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	algo, err := experiments.WireAlgorithmFor(experiments.MethodProposed, experiments.Fashion, s)
	if err != nil {
		t.Fatal(err)
	}
	srv := fl.NewServerNode(algo, experiments.NodeConfigFor(s, 1.0, comm.Spec{Value: comm.F64}, 2))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := srv.Serve(ctx, ln)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled Serve returned no error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after cancellation")
	}
}
