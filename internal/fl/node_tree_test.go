// End-to-end tests of the 2-level aggregation tree: a root server node,
// edge aggregators and client nodes over the inproc transport, compared
// against the flat node federation at the same seed. External test
// package so fleets and algorithms come from experiments/core/baselines
// without an import cycle.
package fl_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/transport"
)

// runFlatAndTree runs the same federation flat and as a 2-aggregator tree
// at the same seed and returns both histories. Options mutate both roots'
// node configs.
func runFlatAndTree(t *testing.T, method, fleet string, s experiments.Scale, aggs int, opts ...func(*fl.NodeConfig)) (flat, tree []fl.RoundMetrics) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	build, _, err := experiments.NewFleetBuilder(experiments.Fashion, data.Dirichlet, fleet, s.Clients, s)
	if err != nil {
		t.Fatal(err)
	}
	flat, err = experiments.RunNodes(ctx, method, experiments.Fashion, build, s.Clients, s, 1.0, comm.Spec{Value: comm.F64},
		transport.NewInproc(transport.Options{}), "flat", opts...)
	if err != nil {
		t.Fatal(err)
	}
	tree, err = experiments.RunNodes(ctx, method, experiments.Fashion, build, s.Clients, s, 1.0, comm.Spec{Value: comm.F64},
		transport.NewInproc(transport.Options{}), "tree", append(opts[:len(opts):len(opts)], withAggregators(aggs))...)
	if err != nil {
		t.Fatal(err)
	}
	return flat, tree
}

// withAggregators makes the root of a node federation the root of a tree
// of aggs edge aggregators.
func withAggregators(aggs int) func(*fl.NodeConfig) {
	return func(cfg *fl.NodeConfig) { cfg.Aggregators = aggs }
}

// quietHeartbeat keeps liveness probes off the ledger: a run that finishes
// inside one heartbeat interval books the same frames every time, so its
// per-round byte counts can be compared exactly.
func quietHeartbeat(cfg *fl.NodeConfig) { cfg.Heartbeat = time.Hour }

// treeHistorySHA256 is one SHA-256 over every tree run of
// TestTreeParityAllMethods — per evaluation point the round, the MeanAcc
// bits, every PerClient bit pattern and the root's UpBytes — recorded at
// 4abdf47, when the root still shipped one copy of the global per cohort
// member. A tree change that flips one prediction or moves the root's
// uplink by one byte moves it, where the 0.02 tolerance would not notice.
// A wrong payload too close to the right one to flip a prediction (KT-pFL's
// per-client transfers differ in the fourth digit at this scale) is
// TestTreeFanOutDeliversEachPayload's to catch.
const treeHistorySHA256 = "a04811a3f736821f3d94766df4d25508b68a10a097815dabfd20256a3c373fa0"

// hashHistory folds one run's history into h.
func hashHistory(h hash.Hash, hist []fl.RoundMetrics) {
	word := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	for _, m := range hist {
		word(uint64(m.Round))
		word(math.Float64bits(m.MeanAcc))
		for _, acc := range m.PerClient {
			word(math.Float64bits(acc))
		}
		word(uint64(m.UpBytes))
	}
}

// TestTreeParityAllMethods is the tentpole's acceptance gate: for every
// method of the evaluation, a 2-level tree (two edge aggregators) must
// reproduce the flat federation's metrics at the same seed within the
// repo-wide 0.02 parity tolerance, per round and per client. The
// associative methods pre-reduce on the aggregators (exact regrouping via
// the ExactAccumulator); KT-pFL passes its updates through unreduced. The
// tree runs themselves are pinned bit for bit by treeHistorySHA256.
func TestTreeParityAllMethods(t *testing.T) {
	cases := []struct {
		method string
		fleet  string
	}{
		{experiments.MethodFedAvg, "homogeneous"},
		{experiments.MethodFedProx, "homogeneous"},
		{experiments.MethodProposed, "heterogeneous"},
		{experiments.MethodFedProto, "proto"},
		{experiments.MethodKTpFL, "heterogeneous"},
	}
	h := sha256.New()
	for _, tc := range cases {
		tc := tc
		t.Run(tc.method, func(t *testing.T) {
			s := nodeScale()
			flat, tree := runFlatAndTree(t, tc.method, tc.fleet, s, 2, quietHeartbeat)
			hashHistory(h, tree)
			if len(tree) != len(flat) {
				t.Fatalf("tree run has %d evaluation points, flat run has %d", len(tree), len(flat))
			}
			for i := range tree {
				if tree[i].Round != flat[i].Round || tree[i].LocalEpochs != flat[i].LocalEpochs {
					t.Fatalf("point %d: round/epochs (%d, %d) vs flat (%d, %d)",
						i, tree[i].Round, tree[i].LocalEpochs, flat[i].Round, flat[i].LocalEpochs)
				}
				if d := math.Abs(tree[i].MeanAcc - flat[i].MeanAcc); d > 0.02 {
					t.Fatalf("round %d: tree accuracy %.4f vs flat %.4f (Δ %.4f > 0.02)",
						tree[i].Round, tree[i].MeanAcc, flat[i].MeanAcc, d)
				}
				for j := range tree[i].PerClient {
					if d := math.Abs(tree[i].PerClient[j] - flat[i].PerClient[j]); d > 0.02 {
						t.Fatalf("round %d client %d: tree %.4f vs flat %.4f", tree[i].Round, j, tree[i].PerClient[j], flat[i].PerClient[j])
					}
				}
			}
		})
	}
	if t.Failed() {
		return
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != treeHistorySHA256 {
		t.Errorf("tree histories hash to %s, pinned %s", got, treeHistorySHA256)
	}
}

// TestTreeKTpFLPassthroughParity pins the passthrough contract for the
// non-associative algorithm: KT-pFL's tree run must match the flat run to
// floating-point noise (1e-9), because the aggregators forward the exact
// updates and the contiguous child ranges make the root's apply order
// identical to flat sorted-id order.
func TestTreeKTpFLPassthroughParity(t *testing.T) {
	s := nodeScale()
	flat, tree := runFlatAndTree(t, experiments.MethodKTpFL, "heterogeneous", s, 2)
	if len(tree) != len(flat) {
		t.Fatalf("tree run has %d evaluation points, flat run has %d", len(tree), len(flat))
	}
	for i := range tree {
		if d := math.Abs(tree[i].MeanAcc - flat[i].MeanAcc); d > 1e-9 {
			t.Fatalf("round %d: tree accuracy %v vs flat %v (Δ %v > 1e-9)",
				tree[i].Round, tree[i].MeanAcc, flat[i].MeanAcc, d)
		}
		for j := range tree[i].PerClient {
			if d := math.Abs(tree[i].PerClient[j] - flat[i].PerClient[j]); d > 1e-9 {
				t.Fatalf("round %d client %d: tree %v vs flat %v", tree[i].Round, j, tree[i].PerClient[j], flat[i].PerClient[j])
			}
		}
	}
}

// TestTreeRootUplinkShrinks verifies the uplink-reduction claim on the
// root's ledger (RoundMetrics books it per round): with two aggregators
// pre-reducing a six-client FedAvg fleet, the root's steady-state uplink
// must shrink by at least the ~fan-in factor margin. Round 1 is excluded
// — it carries the join handshakes, which the tree pays too.
func TestTreeRootUplinkShrinks(t *testing.T) {
	s := nodeScale()
	s.Clients = 6
	flat, tree := runFlatAndTree(t, experiments.MethodFedAvg, "homogeneous", s, 2)
	for i := 1; i < len(tree); i++ {
		if tree[i].UpBytes <= 0 || flat[i].UpBytes <= 0 {
			t.Fatalf("round %d: no uplink booked (tree %d, flat %d)", tree[i].Round, tree[i].UpBytes, flat[i].UpBytes)
		}
		if float64(tree[i].UpBytes) > 0.6*float64(flat[i].UpBytes) {
			t.Fatalf("round %d: tree root uplink %d bytes vs flat %d — reduction below the fan-in margin",
				tree[i].Round, tree[i].UpBytes, flat[i].UpBytes)
		}
	}
}

// TestTreeRootDownlinkShrinks verifies the downlink half on the same fleet:
// a method that broadcasts one global ships each aggregator one copy for its
// whole subtree, so the root's steady-state downlink falls by ~the fan-in
// (two frames of one payload against six). KT-pFL and FedProto build a
// payload per client, and their per-member frames must not move a byte:
// their per-round totals are pinned to literals recorded at 4abdf47.
func TestTreeRootDownlinkShrinks(t *testing.T) {
	s := nodeScale()
	s.Clients = 6
	for _, tc := range []struct {
		method, fleet string
		pinned        []int64 // root DownBytes per round; nil for a shared broadcast
	}{
		{experiments.MethodFedAvg, "homogeneous", nil},
		{experiments.MethodFedProx, "homogeneous", nil},
		{experiments.MethodProposed, "heterogeneous", nil},
		{experiments.MethodKTpFL, "heterogeneous", []int64{604, 8174, 8174}},
		{experiments.MethodFedProto, "proto", []int64{668, 9308, 9308}},
	} {
		t.Run(tc.method, func(t *testing.T) {
			flat, tree := runFlatAndTree(t, tc.method, tc.fleet, s, 2, quietHeartbeat)
			if tc.pinned != nil {
				got := make([]int64, len(tree))
				for i, m := range tree {
					got[i] = m.DownBytes
				}
				if fmt.Sprint(got) != fmt.Sprint(tc.pinned) {
					t.Fatalf("tree root downlink %v bytes per round, pinned %v", got, tc.pinned)
				}
				return
			}
			for i := 1; i < len(tree); i++ {
				if tree[i].DownBytes <= 0 || flat[i].DownBytes <= 0 {
					t.Fatalf("round %d: no downlink booked (tree %d, flat %d)", tree[i].Round, tree[i].DownBytes, flat[i].DownBytes)
				}
				if float64(tree[i].DownBytes) > 0.4*float64(flat[i].DownBytes) {
					t.Fatalf("round %d: tree root downlink %d bytes vs flat %d — above 0.4× flat",
						tree[i].Round, tree[i].DownBytes, flat[i].DownBytes)
				}
			}
		})
	}
}

// TestTreeAggregatorDeathChurnsSubtree kills one of two aggregators after
// the first committed round; the root must churn the whole subtree after
// the reconnect window and still commit every round with the surviving
// aggregator, reporting the dead subtree's clients as NaN.
func TestTreeAggregatorDeathChurnsSubtree(t *testing.T) {
	s := nodeScale()
	s.Clients = 6
	const aggs = 2
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	// Doomed-subtree clients redial their dead aggregator until this
	// context is cancelled once the federation is over.
	clientCtx, stopClients := context.WithCancel(ctx)
	defer stopClients()
	aggCtx0, killAgg0 := context.WithCancel(ctx)
	defer killAgg0()

	build, _, err := experiments.NewFleetBuilder(experiments.Fashion, data.Dirichlet, "heterogeneous", s.Clients, s)
	if err != nil {
		t.Fatal(err)
	}
	tr := transport.NewInproc(transport.Options{})
	rootLn, err := tr.Listen("root")
	if err != nil {
		t.Fatal(err)
	}
	aggLns := make([]transport.Listener, aggs)
	for a := range aggLns {
		if aggLns[a], err = tr.Listen("root-agg" + string(rune('0'+a))); err != nil {
			t.Fatal(err)
		}
	}
	discipline := func(cfg *fl.AggregatorConfig) {
		cfg.Heartbeat = 20 * time.Millisecond
		cfg.DeadAfter = 200 * time.Millisecond
		cfg.ReconnectWindow = 300 * time.Millisecond
	}
	aggErr := make(chan error, aggs)
	bounds := fl.TreeSplit(s.Clients, aggs)
	for a := 0; a < aggs; a++ {
		cfg := fl.AggregatorConfig{Index: a, Aggregators: aggs, Clients: s.Clients, Codec: comm.F64, Seed: s.Seed + int64(a)}
		discipline(&cfg)
		runCtx := ctx
		if a == 0 {
			runCtx = aggCtx0
		}
		go func(runCtx context.Context, a int, cfg fl.AggregatorConfig) {
			aggErr <- experiments.RunAggregatorNode(runCtx, experiments.MethodProposed, experiments.Fashion, s, cfg, tr, "root", aggLns[a])
		}(runCtx, a, cfg)
	}
	clientErr := make(chan error, s.Clients)
	for a := 0; a < aggs; a++ {
		for id := bounds[a]; id < bounds[a+1]; id++ {
			go func(id, a int) {
				clientErr <- experiments.RunClientNode(clientCtx, experiments.MethodProposed, experiments.Fashion, build, id, s, tr, "root-agg"+string(rune('0'+a)))
			}(id, a)
		}
	}

	srv, hist, err := experiments.ServeNode(ctx, experiments.MethodProposed, experiments.Fashion, s, 1.0, comm.Spec{Value: comm.F64}, s.Clients, rootLn,
		func(cfg *fl.NodeConfig) {
			cfg.Aggregators = aggs
			cfg.Heartbeat = 20 * time.Millisecond
			cfg.DeadAfter = 200 * time.Millisecond
			cfg.ReconnectWindow = 300 * time.Millisecond
			cfg.OnRound = func(m fl.RoundMetrics) {
				if m.Round == 1 {
					killAgg0()
				}
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	stopClients()
	if srv.Stats.Churned != 1 {
		t.Errorf("root churned %d aggregator sessions, want 1", srv.Stats.Churned)
	}
	if len(hist) != s.Rounds {
		t.Fatalf("churned tree produced %d evaluation points, want %d", len(hist), s.Rounds)
	}
	last := hist[len(hist)-1]
	for id := bounds[0]; id < bounds[1]; id++ {
		if !math.IsNaN(last.PerClient[id]) {
			t.Fatalf("dead subtree client %d still has accuracy %v", id, last.PerClient[id])
		}
	}
	for id := bounds[1]; id < bounds[2]; id++ {
		if math.IsNaN(last.PerClient[id]) {
			t.Fatalf("surviving client %d has no accuracy", id)
		}
	}
	// The killed aggregator reports its cancellation; the survivor and its
	// clients must finish cleanly. The dead subtree's clients lose their
	// aggregator mid-run and may exit with any error once released.
	sawKilled := false
	for i := 0; i < aggs; i++ {
		if err := <-aggErr; err != nil {
			if sawKilled {
				t.Errorf("second aggregator failed too: %v", err)
			}
			sawKilled = true
		}
	}
	if !sawKilled {
		t.Error("killed aggregator exited without error")
	}
	clean := 0
	for i := 0; i < s.Clients; i++ {
		if err := <-clientErr; err == nil {
			clean++
		}
	}
	if clean < bounds[2]-bounds[1] {
		t.Errorf("only %d clients finished cleanly, want at least the surviving subtree's %d", clean, bounds[2]-bounds[1])
	}
}

// TestTreeConfigInterlocks pins the NodeConfig validation for the tree
// topology: more aggregators than clients, a non-sync scheduler, and
// checkpointing are all refused before any connection is accepted.
func TestTreeConfigInterlocks(t *testing.T) {
	s := nodeScale()
	algo, err := experiments.WireAlgorithmFor(experiments.MethodProposed, experiments.Fashion, s)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*fl.NodeConfig)
	}{
		{"more aggregators than clients", func(cfg *fl.NodeConfig) { cfg.Aggregators = cfg.Clients + 1 }},
		{"async scheduler", func(cfg *fl.NodeConfig) { cfg.Aggregators = 2; cfg.Sched = fl.SchedAsyncBounded }},
		{"checkpointing", func(cfg *fl.NodeConfig) {
			cfg.Aggregators = 2
			cfg.Checkpoint = func(*fl.Snapshot) error { return nil }
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tr := transport.NewInproc(transport.Options{})
			ln, err := tr.Listen("interlock-" + tc.name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := experiments.NodeConfigFor(s, 1.0, comm.Spec{Value: comm.F64}, s.Clients)
			tc.mut(&cfg)
			if _, err := fl.NewServerNode(algo, cfg).Serve(context.Background(), ln); err == nil {
				t.Fatal("invalid tree config accepted")
			}
		})
	}
}

// stopCutConn dies right after handing the first stop frame to its reader:
// the aggregator behind it has the goodbye, and no way to acknowledge it on
// this connection. (Sends fail explicitly once dead: a write racing a close
// may otherwise still "succeed" — the very thing a stop-ack cannot rely on —
// and the test would depend on who wins.)
type stopCutConn struct {
	transport.Conn
	cut  *atomic.Bool // shared: only the first stop, on the first connection, cuts
	dead atomic.Bool
}

func (c *stopCutConn) Recv() ([]byte, int64, error) {
	b, n, err := c.Conn.Recv()
	if err == nil && fl.IsStopFrame(b) && c.cut.CompareAndSwap(false, true) {
		c.dead.Store(true)
		c.Conn.Close()
	}
	return b, n, err
}

func (c *stopCutConn) Send(frame []byte) (int64, error) {
	if c.dead.Load() {
		return 0, io.ErrClosedPipe
	}
	return c.Conn.Send(frame)
}

// TestTreeStopAckSurvivesUplinkLoss loses one aggregator's upstream
// connection between the root's stop and the aggregator's acknowledgement.
// The aggregator owes the ack like any client does: it must re-dial with its
// token, be handed the stop again and acknowledge it — not exit and leave
// the root to wait out the reconnect window and churn a subtree that had
// finished every round.
func TestTreeStopAckSurvivesUplinkLoss(t *testing.T) {
	const aggs = 2
	const window = 20 * time.Second
	s := nodeScale()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	build, _, err := experiments.NewFleetBuilder(experiments.Fashion, data.Dirichlet, "heterogeneous", s.Clients, s)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := experiments.RunNodes(ctx, experiments.MethodProposed, experiments.Fashion, build, s.Clients, s, 1.0, comm.Spec{Value: comm.F64},
		transport.NewInproc(transport.Options{}), "tree", withAggregators(aggs))
	if err != nil {
		t.Fatal(err)
	}

	tr := transport.NewInproc(transport.Options{})
	rootLn, err := tr.Listen("root")
	if err != nil {
		t.Fatal(err)
	}
	bounds := fl.TreeSplit(s.Clients, aggs)
	nodeErr := make(chan error, aggs+s.Clients)
	var cut atomic.Bool
	for a := 0; a < aggs; a++ {
		aggAddr := fmt.Sprintf("agg%d", a)
		ln, err := tr.Listen(aggAddr)
		if err != nil {
			t.Fatal(err)
		}
		cfg := fl.AggregatorConfig{Index: a, Aggregators: aggs, Clients: s.Clients, Codec: comm.F64, Seed: s.Seed + int64(a),
			ReconnectWindow: window}
		if a == 0 {
			cfg.Dialer = func(ctx context.Context, token uint64) (transport.Conn, error) {
				conn, err := transport.DialRetry(ctx, tr, "root", transport.RetryOptions{Token: token, Seed: 11})
				if err != nil {
					return nil, err
				}
				return &stopCutConn{Conn: conn, cut: &cut}, nil
			}
		}
		go func() {
			nodeErr <- experiments.RunAggregatorNode(ctx, experiments.MethodProposed, experiments.Fashion, s, cfg, tr, "root", ln)
		}()
		for id := bounds[a]; id < bounds[a+1]; id++ {
			go func(id int) {
				nodeErr <- experiments.RunClientNode(ctx, experiments.MethodProposed, experiments.Fashion, build, id, s, tr, aggAddr)
			}(id)
		}
	}
	var stopAt time.Time
	srv, hist, err := experiments.ServeNode(ctx, experiments.MethodProposed, experiments.Fashion, s, 1.0, comm.Spec{Value: comm.F64}, s.Clients, rootLn,
		func(cfg *fl.NodeConfig) {
			cfg.Aggregators = aggs
			cfg.ReconnectWindow = window
			cfg.OnRound = func(m fl.RoundMetrics) {
				if m.Round == s.Rounds {
					stopAt = time.Now() // the stop phase opens right after the last round is announced
				}
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if drain := time.Since(stopAt); drain > window/4 {
		t.Errorf("root's stop drain took %v, want < %v (it waited out the reconnect window)", drain, window/4)
	}
	if !cut.Load() {
		t.Fatal("the upstream connection was never cut: the test exercised nothing")
	}
	if srv.Stats.Churned != 0 {
		t.Errorf("root churned %d sessions, want 0 (the aggregator owed only its ack)", srv.Stats.Churned)
	}
	if srv.Stats.Reconnects < 1 {
		t.Errorf("root adopted %d reconnects, want >= 1 (the aggregator must re-dial to acknowledge)", srv.Stats.Reconnects)
	}
	requireSamePerClient(t, hist, clean)
	for i := 0; i < aggs+s.Clients; i++ {
		if err := <-nodeErr; err != nil {
			t.Errorf("node: %v", err)
		}
	}
}

// TestTreeChaosFederation shakes both edges of the tree — aggregator↔root
// and client↔aggregator — with a fault-injecting transport. The sync
// barrier makes the outcome exact, not approximate: answers are cached
// frames replayed verbatim, applies run in sorted-id order, and nobody
// churns inside the 30 s window, so PerClient must equal the fault-free
// tree run bit for bit. Each run must also finish promptly (a peer re-dials
// until its stop is acknowledged, so no edge waits out a reconnect window)
// and leave no goroutine behind — the aggregator's dial and upstream-reader
// goroutines included.
func TestTreeChaosFederation(t *testing.T) {
	const aggs = 2
	s := nodeScale()
	build, _, err := experiments.NewFleetBuilder(experiments.Fashion, data.Dirichlet, "heterogeneous", s.Clients, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{experiments.MethodProposed, experiments.MethodKTpFL} {
		method := method
		t.Run(method, func(t *testing.T) {
			baseline := settledGoroutines()
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			clean, err := experiments.RunNodes(ctx, method, experiments.Fashion, build, s.Clients, s, 1.0, comm.Spec{Value: comm.F64},
				transport.NewInproc(transport.Options{}), "tree", withAggregators(aggs))
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				chaos := transport.NewChaos(transport.NewInproc(transport.Options{}), transport.ChaosConfig{
					Seed: seed, Drop: 0.03, Dup: 0.05, Delay: 0.1, MaxDelay: 5 * time.Millisecond,
				})
				start := time.Now()
				shaken, err := experiments.RunNodes(ctx, method, experiments.Fashion, build, s.Clients, s, 1.0, comm.Spec{Value: comm.F64},
					chaos, "tree", withAggregators(aggs), func(cfg *fl.NodeConfig) {
						cfg.Heartbeat = 50 * time.Millisecond
						cfg.DeadAfter = 500 * time.Millisecond
						cfg.ReconnectWindow = 30 * time.Second
					})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				took := time.Since(start)
				t.Logf("seed %d: %v", seed, took)
				if took > 5*time.Second {
					t.Errorf("seed %d: shaken tree run took %v, want < 5s (an edge waited out its reconnect window)", seed, took)
				}
				requireSamePerClient(t, shaken, clean)
			}
			waitNodeGoroutines(t, baseline)
		})
	}
}
