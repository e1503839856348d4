// Sparse and delta wire-framing tests at the node and simulation level:
// ledger-vs-socket accounting, flat-vs-tree parity and the determinism and
// uplink-reduction contracts of the spec'd simulation paths.
package fl_test

import (
	"bytes"
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// TestNodeSparseLedgerMatchesWireBytes re-runs the accounting regression
// over real TCP sockets with sparse and delta framings negotiated in the
// handshake: the server ledger's totals must still equal the instrumented
// socket byte counts exactly — the ledger books the sparse frames the wire
// actually carried, not an element-count estimate.
func TestNodeSparseLedgerMatchesWireBytes(t *testing.T) {
	specs := []comm.Spec{
		comm.NewSpec(comm.F32, 0.25, false),
		comm.NewSpec(comm.I8, 0, true),
		comm.NewSpec(comm.F32, 0.25, true),
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.String(), func(t *testing.T) {
			s := nodeScale()
			s.Rounds = 2
			k := 3
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			build, _, err := experiments.NewFleetBuilder(experiments.Fashion, data.Dirichlet, "homogeneous", k, s)
			if err != nil {
				t.Fatal(err)
			}
			tr := transport.NewTCP(transport.Options{Spec: spec})
			ln, err := tr.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var up, down int64
			counted := &countingListener{Listener: ln, up: &up, down: &down}

			algo, err := experiments.WireAlgorithmFor(experiments.MethodFedAvg, experiments.Fashion, s)
			if err != nil {
				t.Fatal(err)
			}
			srv := fl.NewServerNode(algo, experiments.NodeConfigFor(s, 1.0, spec, k))
			clientErr := make(chan error, k)
			for i := 0; i < k; i++ {
				go func(id int) {
					clientErr <- experiments.RunClientNode(ctx, experiments.MethodFedAvg, experiments.Fashion, build, id, s, tr, ln.Addr())
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
		})
	}
}

// TestTreeSparseParity is the grouping-invariance gate for sparse
// pre-reduction: with top-k+delta uploads, a 2-aggregator tree must
// reproduce the flat federation's metrics at the same seed — the sparse
// frames decode to identical dense vectors in both topologies, and the
// exact accumulator makes the regrouped fold order-invariant.
func TestTreeSparseParity(t *testing.T) {
	spec := comm.NewSpec(comm.F32, 0.25, true)
	cases := []struct {
		method string
		fleet  string
	}{
		{experiments.MethodFedAvg, "homogeneous"},
		{experiments.MethodProposed, "heterogeneous"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.method, func(t *testing.T) {
			s := nodeScale()
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			build, _, err := experiments.NewFleetBuilder(experiments.Fashion, data.Dirichlet, tc.fleet, s.Clients, s)
			if err != nil {
				t.Fatal(err)
			}
			flat, err := experiments.RunNodes(ctx, tc.method, experiments.Fashion, build, s.Clients, s, 1.0, spec,
				transport.NewInproc(transport.Options{Spec: spec}), "flat-sparse")
			if err != nil {
				t.Fatal(err)
			}
			tree, err := experiments.RunNodes(ctx, tc.method, experiments.Fashion, build, s.Clients, s, 1.0, spec,
				transport.NewInproc(transport.Options{Spec: spec}), "tree-sparse", withAggregators(2))
			if err != nil {
				t.Fatal(err)
			}
			if len(tree) != len(flat) {
				t.Fatalf("tree run has %d evaluation points, flat run has %d", len(tree), len(flat))
			}
			for i := range tree {
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
}

// TestSparseGoldenAcrossWorkerCounts extends the sync golden to the
// sparse+delta simulation path: byte-identical RoundMetrics whether the
// worker pool is capped to one goroutine or uncapped — the per-client
// delta bases and the selector must never let parallelism into the
// arithmetic or the byte accounting.
func TestSparseGoldenAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []byte {
		prev := tensor.SetMaxWorkers(workers)
		defer tensor.SetMaxWorkers(prev)
		sim := fl.NewSimulation(goldenFleet(t, 4), fl.Config{
			Rounds: 3, BatchSize: 8, Seed: 9, Codec: comm.F32, TopK: 0.25, Delta: true,
		})
		hist, err := sim.Run(baselines.NewFedAvg(1))
		if err != nil {
			t.Fatal(err)
		}
		return encodeHistory(t, hist)
	}
	serial := run(1)
	parallel := run(0)
	if !bytes.Equal(serial, parallel) {
		t.Fatal("sparse sync RoundMetrics differ between 1 and N workers")
	}
}

// TestTopKSpecShrinksLedger is the headline uplink-reduction gate: top-k
// at 5% density over f32 values must shrink FedAvg's booked uplink at
// least 10x against dense f64, while training still produces a sane
// accuracy.
func TestTopKSpecShrinksLedger(t *testing.T) {
	run := func(spec comm.Spec) (int64, float64) {
		sim := fl.NewSimulation(goldenFleetDim(t, 4, 32), fl.Config{
			Rounds: 2, BatchSize: 8, Seed: 9,
			Codec: spec.Value, TopK: spec.Frac, Delta: spec.Delta,
		})
		hist, err := sim.Run(baselines.NewFedAvg(1))
		if err != nil {
			t.Fatal(err)
		}
		return sim.Ledger.TotalUp(), hist[len(hist)-1].MeanAcc
	}
	f64Bytes, f64Acc := run(comm.Spec{Value: comm.F64})
	topkBytes, topkAcc := run(comm.NewSpec(comm.F32, 0.05, false))
	ratio := float64(f64Bytes) / float64(topkBytes)
	t.Logf("uplink bytes: f64 %d, topk5%% %d (%.2fx); acc f64 %.4f, topk %.4f", f64Bytes, topkBytes, ratio, f64Acc, topkAcc)
	if ratio < 10 {
		t.Fatalf("top-k 5%% shrank uplink only %.2fx, want >= 10x", ratio)
	}
	if math.IsNaN(topkAcc) || topkAcc < 0 || topkAcc > 1 {
		t.Fatalf("top-k training produced accuracy %v", topkAcc)
	}
}

// TestAsyncSparseUplinkBooked drives the async engine's UpBytes path: a
// bounded-staleness FedAvg run with top-k uploads must book its uplink
// from the exact sparse frame sizes — far below the dense run's books —
// and stay deterministic for a fixed seed.
func TestAsyncSparseUplinkBooked(t *testing.T) {
	run := func(spec comm.Spec) (int64, []byte) {
		sim := fl.NewSimulation(goldenFleetDim(t, 4, 32), fl.Config{
			Rounds: 2, BatchSize: 8, Seed: 9,
			Codec: spec.Value, TopK: spec.Frac, Delta: spec.Delta,
		})
		hist, err := sim.RunScheduled(baselines.NewFedAvg(1), fl.SchedulerConfig{Kind: fl.SchedAsyncBounded})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Ledger.TotalUp(), encodeHistory(t, hist)
	}
	denseBytes, _ := run(comm.Spec{Value: comm.F64})
	sparse := comm.NewSpec(comm.F32, 0.05, false)
	sparseBytes, h1 := run(sparse)
	_, h2 := run(sparse)
	if sparseBytes <= 0 || float64(denseBytes)/float64(sparseBytes) < 10 {
		t.Fatalf("async top-k uplink %d bytes vs dense %d — UpBytes path not booking sparse frames", sparseBytes, denseBytes)
	}
	if !bytes.Equal(h1, h2) {
		t.Fatal("async sparse run not deterministic for a fixed seed")
	}
}
