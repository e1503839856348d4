// Fault-tolerance tests of the node runtime: async/semisync schedules
// over the wire, reconnect-and-resume with session tokens, server
// checkpoint restarts, chaos transports and goroutine hygiene — the
// wire-mode counterparts of the inproc engine's robustness suite.
package fl_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/transport"
)

// applySched returns a NodeConfig option selecting a wire scheduler.
func applySched(sched fl.SchedulerConfig) func(*fl.NodeConfig) {
	return func(cfg *fl.NodeConfig) {
		cfg.Sched, cfg.MaxStaleness, cfg.Decay, cfg.Quorum = sched.Kind, sched.MaxStaleness, sched.Decay, sched.Quorum
	}
}

// TestNodeAsyncWireParity runs the bounded-staleness schedule as real
// nodes and checks the final accuracy lands within tolerance of the
// inproc async engine at the same scale — the wire port of FedBuff must
// not change what the federation learns.
func TestNodeAsyncWireParity(t *testing.T) {
	s := nodeScale()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	build, _, err := experiments.NewFleetBuilder(experiments.Fashion, data.Dirichlet, "heterogeneous", s.Clients, s)
	if err != nil {
		t.Fatal(err)
	}
	sched := fl.SchedulerConfig{Kind: fl.SchedAsyncBounded, MaxStaleness: 4}
	want, err := experiments.RunScheduled(experiments.MethodProposed, experiments.Fashion, build, s.Clients, s, 1.0, 0, 0, sched, comm.Spec{Value: comm.F64})
	if err != nil {
		t.Fatal(err)
	}

	tr := transport.NewInproc(transport.Options{})
	got, err := experiments.RunNodes(ctx, experiments.MethodProposed, experiments.Fashion, build, s.Clients, s, 1.0, comm.Spec{Value: comm.F64}, tr, "srv",
		applySched(sched))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("wire async produced %d evaluation points, engine produced %d", len(got), len(want))
	}
	gf, wf := experiments.Final(got), experiments.Final(want)
	if d := math.Abs(gf.MeanAcc - wf.MeanAcc); d > 0.02 {
		t.Fatalf("wire async final %.4f vs engine %.4f (Δ %.4f > 0.02)", gf.MeanAcc, wf.MeanAcc, d)
	}
}

// TestNodeSemiSyncWireRuns drives the K-of-N quorum schedule over the
// wire end to end: every round commits and evaluates in range.
func TestNodeSemiSyncWireRuns(t *testing.T) {
	s := nodeScale()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	build, _, err := experiments.NewFleetBuilder(experiments.Fashion, data.Dirichlet, "heterogeneous", s.Clients, s)
	if err != nil {
		t.Fatal(err)
	}
	tr := transport.NewInproc(transport.Options{})
	hist, err := experiments.RunNodes(ctx, experiments.MethodProposed, experiments.Fashion, build, s.Clients, s, 1.0, comm.Spec{Value: comm.F64}, tr, "srv",
		applySched(fl.SchedulerConfig{Kind: fl.SchedSemiSync, Quorum: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != s.Rounds {
		t.Fatalf("semisync wire run produced %d evaluation points, want %d", len(hist), s.Rounds)
	}
	fin := experiments.Final(hist)
	if fin.MeanAcc < 0 || fin.MeanAcc > 1 {
		t.Fatalf("accuracy out of range: %v", fin.MeanAcc)
	}
}

// TestNodeClientReconnectResume kills one client's connection mid-round
// over real TCP; the client re-dials with its session token, the server
// adopts the reconnect and resends what it is owed, and the federation
// finishes with every client evaluated — while the ledger still matches
// the instrumented socket byte counts, heartbeats and the re-handshake
// included.
func TestNodeClientReconnectResume(t *testing.T) {
	s := nodeScale()
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
	cfg := experiments.NodeConfigFor(s, 1.0, comm.Spec{Value: comm.F64}, k)
	cfg.Heartbeat = 50 * time.Millisecond
	cfg.DeadAfter = 500 * time.Millisecond
	cfg.ReconnectWindow = 10 * time.Second
	srv := fl.NewServerNode(algo, cfg)

	type serveResult struct {
		hist []fl.RoundMetrics
		err  error
	}
	serveCh := make(chan serveResult, 1)
	go func() {
		h, serr := srv.Serve(ctx, counted)
		serveCh <- serveResult{h, serr}
	}()

	clientErr := make(chan error, k)
	for i := 0; i < k-1; i++ {
		go func(id int) {
			clientErr <- experiments.RunClientNode(ctx, experiments.MethodProposed, experiments.Fashion, build, id, s, tr, ln.Addr())
		}(i)
	}
	// The flaky client: its first connection dies after four received
	// frames (welcome, a dispatch, heartbeats); its Dialer then re-dials
	// with the granted token and the run continues on a healthy socket.
	// The TCP hello is answered by the server's accept loop, so the first
	// dial also goes through the retry helper rather than racing Serve.
	calgo, err := experiments.WireAlgorithmFor(experiments.MethodProposed, experiments.Fashion, s)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := transport.DialRetry(ctx, tr, ln.Addr(), transport.RetryOptions{Seed: 98})
	if err != nil {
		t.Fatal(err)
	}
	var tokenSeen atomic.Uint64
	go func() {
		node := &fl.ClientNode{
			Client: build(k - 1),
			Algo:   calgo,
			Dialer: func(ctx context.Context, token uint64) (transport.Conn, error) {
				return transport.DialRetry(ctx, tr, ln.Addr(), transport.RetryOptions{Token: token, Seed: 99})
			},
			OnToken: func(tok uint64) { tokenSeen.Store(tok) },
		}
		clientErr <- node.Run(ctx, &dyingConn{Conn: conn, left: 4})
	}()

	res := <-serveCh
	hist, err := res.hist, res.err
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if err := <-clientErr; err != nil {
			t.Errorf("client: %v", err)
		}
	}
	if srv.Stats.Reconnects < 1 {
		t.Errorf("server adopted %d reconnects, want >= 1", srv.Stats.Reconnects)
	}
	if srv.Stats.Churned != 0 {
		t.Errorf("server churned %d sessions, want 0 (the client came back)", srv.Stats.Churned)
	}
	if tokenSeen.Load() == 0 {
		t.Error("flaky client never observed a session token")
	}
	if len(hist) != s.Rounds {
		t.Fatalf("federation produced %d evaluation points, want %d", len(hist), s.Rounds)
	}
	last := hist[len(hist)-1]
	for i := 0; i < k; i++ {
		if math.IsNaN(last.PerClient[i]) {
			t.Errorf("client %d has no final accuracy despite finishing", i)
		}
	}
	if got := srv.Ledger.TotalUp(); got != atomic.LoadInt64(&up) {
		t.Errorf("ledger uplink %d bytes, wire carried %d", got, up)
	}
	if got := srv.Ledger.TotalDown(); got != atomic.LoadInt64(&down) {
		t.Errorf("ledger downlink %d bytes, wire carried %d", got, down)
	}
}

// TestNodeServerCheckpointResume restarts the *server* mid-federation:
// the first incarnation checkpoints every commit and is cancelled after
// round 2; a second incarnation restores the latest snapshot on the same
// address, the still-running clients reconnect with their tokens, and
// the federation completes every remaining round with no committed-round
// gaps.
func TestNodeServerCheckpointResume(t *testing.T) {
	s := nodeScale()
	s.Rounds = 4
	const stopAfter = 2
	k := s.Clients
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

	var snaps []*fl.Snapshot
	var srv1 *fl.ServerNode
	var up1, down1 int64 // the first incarnation's ledger totals at its last checkpoint
	algo1, err := experiments.WireAlgorithmFor(experiments.MethodProposed, experiments.Fashion, s)
	if err != nil {
		t.Fatal(err)
	}
	ctx1, kill := context.WithCancel(ctx)
	cfg := experiments.NodeConfigFor(s, 1.0, comm.Spec{Value: comm.F64}, k)
	cfg.Checkpoint = func(snap *fl.Snapshot) error {
		snaps = append(snaps, snap)
		up1, down1 = srv1.Ledger.TotalUp(), srv1.Ledger.TotalDown()
		if snap.Round >= stopAfter {
			kill() // the "SIGKILL": no goodbye to the clients
		}
		return nil
	}
	srv1 = fl.NewServerNode(algo1, cfg)

	clientErr := make(chan error, k)
	for i := 0; i < k; i++ {
		go func(id int) {
			clientErr <- experiments.RunClientNode(ctx, experiments.MethodProposed, experiments.Fashion, build, id, s, tr, "srv")
		}(i)
	}
	if _, err := srv1.Serve(ctx1, ln); err == nil {
		t.Fatal("killed server returned no error")
	}

	// Second incarnation: restore the latest snapshot, rebind the address
	// (Serve closed the first listener), let the clients' retry loops find
	// it. The algorithm instance is fresh — all its state comes from the
	// snapshot, exactly as a restarted process would rebuild it.
	last := snaps[len(snaps)-1]
	if last.Round != stopAfter {
		t.Fatalf("latest snapshot is round %d, want %d", last.Round, stopAfter)
	}
	ln2, err := tr.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	algo2, err := experiments.WireAlgorithmFor(experiments.MethodProposed, experiments.Fashion, s)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := experiments.NodeConfigFor(s, 1.0, comm.Spec{Value: comm.F64}, k)
	cfg2.Resume = last
	srv2 := fl.NewServerNode(algo2, cfg2)
	hist, err := srv2.Serve(ctx, ln2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if err := <-clientErr; err != nil {
			t.Errorf("client: %v", err)
		}
	}
	// The snapshot carries the committed history, so the resumed server
	// returns the federation's full record: rounds 1..Rounds, gap-free.
	if len(hist) != s.Rounds {
		t.Fatalf("resumed server produced %d evaluation points, want %d", len(hist), s.Rounds)
	}
	for i, m := range hist {
		if want := i + 1; m.Round != want {
			t.Fatalf("resumed round sequence has a gap: point %d is round %d, want %d", i, m.Round, want)
		}
		if m.MeanAcc < 0 || m.MeanAcc > 1 {
			t.Fatalf("round %d accuracy out of range: %v", m.Round, m.MeanAcc)
		}
	}
	if srv2.Stats.Reconnects != k {
		t.Errorf("resumed server adopted %d reconnects, want %d (every client)", srv2.Stats.Reconnects, k)
	}
	// The resumed ledger continues the first incarnation's: its committed
	// rounds first, then one row per resumed round, and totals that start
	// from the first incarnation's and grow with every resumed round.
	before, after := srv1.Ledger.Rounds(), srv2.Ledger.Rounds()
	if len(before) < stopAfter || len(after) != s.Rounds || !reflect.DeepEqual(after[:stopAfter], before[:stopAfter]) {
		t.Fatalf("resumed ledger rounds %+v do not continue the first incarnation's %+v", after, before)
	}
	if up, down := srv2.Ledger.TotalUp(), srv2.Ledger.TotalDown(); up <= up1 || down <= down1 {
		t.Fatalf("resumed ledger totals up %d down %d, first incarnation's were up %d down %d at its checkpoint", up, down, up1, down1)
	}
	// SimTime is cumulative serving time: the resumed incarnation's clock
	// continues the restored history's instead of restarting at zero.
	for i := 1; i < len(hist); i++ {
		if hist[i].SimTime < hist[i-1].SimTime {
			t.Fatalf("SimTime decreases from round %d (%.4fs) to round %d (%.4fs)",
				hist[i-1].Round, hist[i-1].SimTime, hist[i].Round, hist[i].SimTime)
		}
	}
}

// TestNodeResumeGuard feeds the in-process engine's sync and async
// schedulers and a node server three checkpoints each must refuse: one of
// another scheduler kind, one past the configured horizon and one of
// another fleet size. Every refusal names both sides of the mismatch, and a
// refused engine run leaves the simulation's history and ledger as they
// were.
func TestNodeResumeGuard(t *testing.T) {
	s := experiments.Tiny()
	s.Rounds = 2
	k := s.Clients
	build, _, err := experiments.NewFleetBuilder(experiments.Fashion, data.Dirichlet, "heterogeneous", k, s)
	if err != nil {
		t.Fatal(err)
	}
	newSim := func() *fl.Simulation {
		clients := make([]*fl.Client, k)
		for i := range clients {
			clients[i] = build(i)
		}
		return fl.NewSimulation(clients, fl.Config{Rounds: s.Rounds, BatchSize: s.BatchSize, Seed: s.Seed + 7})
	}
	newAlgo := func() fl.WireAlgorithm {
		algo, err := experiments.WireAlgorithmFor(experiments.MethodProposed, experiments.Fashion, s)
		if err != nil {
			t.Fatal(err)
		}
		return algo
	}
	// firstSnap keeps a run's round-1 checkpoint.
	firstSnap := func(snap **fl.Snapshot) func(*fl.Snapshot) error {
		return func(sn *fl.Snapshot) error {
			if *snap == nil {
				*snap = sn
			}
			return nil
		}
	}
	var syncSnap, asyncSnap, nodeSnap *fl.Snapshot
	for kind, snap := range map[fl.SchedulerKind]**fl.Snapshot{fl.SchedSync: &syncSnap, fl.SchedAsyncBounded: &asyncSnap} {
		if _, err := newSim().RunScheduled(newAlgo(), fl.SchedulerConfig{Kind: kind, Checkpoint: firstSnap(snap)}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := experiments.RunNodes(ctx, experiments.MethodProposed, experiments.Fashion, build, k, s, 1, comm.Spec{Value: comm.F64},
		transport.NewInproc(transport.Options{}), "guard-src", func(cfg *fl.NodeConfig) { cfg.Checkpoint = firstSnap(&nodeSnap) }); err != nil {
		t.Fatal(err)
	}

	// The refused variants of a snapshot, each with the words its refusal
	// must name.
	type refusal struct {
		name string
		snap *fl.Snapshot
		want []string
	}
	refusals := func(snap *fl.Snapshot, other fl.SchedulerKind) []refusal {
		kind, past, fleet := *snap, *snap, *snap
		kind.Kind = other
		past.Round = s.Rounds + 1
		// Every per-client section of a k+1-client fleet's checkpoint.
		fleet.FleetSize = k + 1
		if snap.Away != nil {
			fleet.Away = make([]float64, k+1)
		}
		if snap.Idle != nil {
			fleet.Idle = make([]bool, k+1)
		}
		if snap.Sessions != nil {
			fleet.Sessions = append(slices.Clone(snap.Sessions), fl.SessionState{ID: k, Token: 1 << 63})
			fleet.Joins = append(slices.Clone(snap.Joins), snap.Joins[k-1])
		}
		return []refusal{
			{"other kind", &kind, []string{other.String(), snap.Kind.String()}},
			{"past the horizon", &past, []string{fmt.Sprint(s.Rounds + 1), fmt.Sprint(s.Rounds)}},
			{"other fleet size", &fleet, []string{fmt.Sprint(k + 1), fmt.Sprint(k)}},
		}
	}
	check := func(t *testing.T, err error, want []string) {
		t.Helper()
		if err == nil {
			t.Fatal("resume accepted the checkpoint")
		}
		for _, w := range want {
			if !strings.Contains(err.Error(), w) {
				t.Fatalf("refusal %q does not name %q", err, w)
			}
		}
	}
	for _, engine := range []struct {
		kind, other fl.SchedulerKind
		snap        *fl.Snapshot
	}{{fl.SchedSync, fl.SchedAsyncBounded, syncSnap}, {fl.SchedAsyncBounded, fl.SchedSync, asyncSnap}} {
		for _, r := range refusals(engine.snap, engine.other) {
			t.Run(fmt.Sprintf("engine %s/%s", engine.kind, r.name), func(t *testing.T) {
				sim := newSim()
				_, err := sim.RunScheduled(newAlgo(), fl.SchedulerConfig{Kind: engine.kind, Resume: r.snap})
				check(t, err, r.want)
				if len(sim.History) != 0 || !reflect.DeepEqual(sim.Ledger.Snapshot(), comm.NewLedger().Snapshot()) {
					t.Fatalf("refused resume touched the simulation: %d history points, ledger %+v", len(sim.History), sim.Ledger.Snapshot())
				}
			})
		}
	}
	for i, r := range refusals(nodeSnap, fl.SchedSemiSync) {
		t.Run("node/"+r.name, func(t *testing.T) {
			ln, err := transport.NewInproc(transport.Options{}).Listen(fmt.Sprintf("guard-%d", i))
			if err != nil {
				t.Fatal(err)
			}
			cfg := experiments.NodeConfigFor(s, 1, comm.Spec{Value: comm.F64}, k)
			cfg.Resume = r.snap
			_, err = fl.NewServerNode(newAlgo(), cfg).Serve(ctx, ln)
			check(t, err, r.want)
		})
	}
}

// TestNodeChaosFederation runs the federation over a fault-injecting
// transport — connection losses and duplicated frames on schedule — and
// checks every round still commits with exactly the clean run's
// accuracies: under the sync barrier an adoption replays cached frames, a
// duplicate is deduplicated and applies run in sorted-id order, so faults
// may cost time but never a bit. This is the in-process shape of the CI
// chaos job.
func TestNodeChaosFederation(t *testing.T) {
	s := nodeScale()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	build, _, err := experiments.NewFleetBuilder(experiments.Fashion, data.Dirichlet, "heterogeneous", s.Clients, s)
	if err != nil {
		t.Fatal(err)
	}

	clean, err := experiments.RunNodes(ctx, experiments.MethodProposed, experiments.Fashion, build, s.Clients, s, 1.0, comm.Spec{Value: comm.F64},
		transport.NewInproc(transport.Options{}), "srv")
	if err != nil {
		t.Fatal(err)
	}

	chaos := transport.NewChaos(transport.NewInproc(transport.Options{}), transport.ChaosConfig{
		Seed:     42,
		Drop:     0.02,
		Dup:      0.05,
		Delay:    0.1,
		MaxDelay: 5 * time.Millisecond,
	})
	shaken, err := experiments.RunNodes(ctx, experiments.MethodProposed, experiments.Fashion, build, s.Clients, s, 1.0, comm.Spec{Value: comm.F64},
		chaos, "srv", func(cfg *fl.NodeConfig) {
			cfg.Heartbeat = 50 * time.Millisecond
			cfg.DeadAfter = 500 * time.Millisecond
			cfg.ReconnectWindow = 30 * time.Second
		})
	if err != nil {
		t.Fatal(err)
	}
	requireSamePerClient(t, shaken, clean)
}

// settledGoroutines waits for the goroutine count to hold still briefly
// and returns it — the baseline for the leak checks below.
func settledGoroutines() int {
	last, stable := runtime.NumGoroutine(), 0
	for i := 0; i < 250 && stable < 10; i++ {
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
		if n := runtime.NumGoroutine(); n == last {
			stable++
		} else {
			last, stable = n, 0
		}
	}
	return last
}

// waitNodeGoroutines polls until the goroutine count returns to the
// baseline — the node runtime must leave no reader, worker or accept
// goroutine behind however a run ends.
func waitNodeGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	t.Fatalf("goroutines leaked: %d running, baseline %d\n%s", runtime.NumGoroutine(), baseline, buf)
}

// TestNodeGoroutineHygiene checks the server and client nodes shed every
// goroutine after (a) a clean run, (b) a mid-run cancellation and (c) a
// run with a mid-federation disconnect and reconnect.
func TestNodeGoroutineHygiene(t *testing.T) {
	s := nodeScale()
	s.Rounds = 2
	build, _, err := experiments.NewFleetBuilder(experiments.Fashion, data.Dirichlet, "heterogeneous", s.Clients, s)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("clean", func(t *testing.T) {
		// Baselines are taken inside each subtest: t.Run's own runner
		// goroutine (and the parent blocked in t.Run) are part of the
		// steady state here, not a leak.
		baseline := settledGoroutines()
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		tr := transport.NewInproc(transport.Options{})
		if _, err := experiments.RunNodes(ctx, experiments.MethodProposed, experiments.Fashion, build, s.Clients, s, 1.0, comm.Spec{Value: comm.F64}, tr, "srv"); err != nil {
			t.Fatal(err)
		}
		waitNodeGoroutines(t, baseline)
	})

	t.Run("cancelled", func(t *testing.T) {
		baseline := settledGoroutines()
		ctx, cancel := context.WithCancel(context.Background())
		tr := transport.NewInproc(transport.Options{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			experiments.RunNodes(ctx, experiments.MethodProposed, experiments.Fashion, build, s.Clients, s, 1.0, comm.Spec{Value: comm.F64}, tr, "srv")
		}()
		time.Sleep(150 * time.Millisecond) // into the first local rounds
		cancel()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("cancelled node federation did not return")
		}
		waitNodeGoroutines(t, baseline)
	})

	t.Run("disconnect", func(t *testing.T) {
		baseline := settledGoroutines()
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		tr := transport.NewInproc(transport.Options{})
		ln, err := tr.Listen("srv")
		if err != nil {
			t.Fatal(err)
		}
		algo, err := experiments.WireAlgorithmFor(experiments.MethodProposed, experiments.Fashion, s)
		if err != nil {
			t.Fatal(err)
		}
		cfg := experiments.NodeConfigFor(s, 1.0, comm.Spec{Value: comm.F64}, s.Clients)
		cfg.Heartbeat = 20 * time.Millisecond
		cfg.DeadAfter = 200 * time.Millisecond
		srv := fl.NewServerNode(algo, cfg)
		clientErr := make(chan error, s.Clients)
		for i := 0; i < s.Clients-1; i++ {
			go func(id int) {
				clientErr <- experiments.RunClientNode(ctx, experiments.MethodProposed, experiments.Fashion, build, id, s, tr, "srv")
			}(i)
		}
		calgo, err := experiments.WireAlgorithmFor(experiments.MethodProposed, experiments.Fashion, s)
		if err != nil {
			t.Fatal(err)
		}
		conn, err := tr.Dial(ctx, "srv")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			node := &fl.ClientNode{
				Client: build(s.Clients - 1),
				Algo:   calgo,
				Dialer: func(ctx context.Context, token uint64) (transport.Conn, error) {
					return transport.DialRetry(ctx, tr, "srv", transport.RetryOptions{Token: token, Seed: 7})
				},
			}
			clientErr <- node.Run(ctx, &dyingConn{Conn: conn, left: 3})
		}()
		if _, err := srv.Serve(ctx, ln); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < s.Clients; i++ {
			if err := <-clientErr; err != nil {
				t.Errorf("client: %v", err)
			}
		}
		waitNodeGoroutines(t, baseline)
	})
}

// requireSamePerClient fails unless both histories carry the same
// evaluation points with bit-identical per-client accuracies — a NaN slot
// (a churned client) must match too, which Float64bits compares exactly.
func requireSamePerClient(t *testing.T, got, want []fl.RoundMetrics) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("run produced %d evaluation points, reference run %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Round != want[i].Round || len(got[i].PerClient) != len(want[i].PerClient) {
			t.Fatalf("point %d: round %d with %d clients, reference round %d with %d",
				i, got[i].Round, len(got[i].PerClient), want[i].Round, len(want[i].PerClient))
		}
		for j := range want[i].PerClient {
			if g, w := got[i].PerClient[j], want[i].PerClient[j]; math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("round %d client %d: %.17g, reference %.17g", want[i].Round, j, g, w)
			}
		}
	}
}
