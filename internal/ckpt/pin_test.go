package ckpt_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/transport"
)

// TestEagerCheckpointBytesPinned pins what a checkpoint of an eager fleet
// holds, byte for byte: one SHA-256 over the marshalled snapshots of Tiny-scale
// FedClassAvg runs on the heterogeneous fleet — sync and async, rounds 1 and 2
// — recorded at 8930139, when an eager simulation still captured its clients
// from a slice of its own, and re-pinned at format version 6, whose client
// section is the client store's records in place of a field traversal of its
// own (TestRestoredStatePinned, recorded before that change, shows the new
// files restore the same state), and at version 7, which drops the empty
// server accumulators from the algorithm section (decoded, the two versions'
// snapshots of these runs differ in nothing else), and at version 8, which
// drops the ledger's per-client byte totals (decoded, the snapshots differ in
// nothing else, and each version-7 file's per-client totals sum to its round
// history plus open round). The kill-resume goldens
// compare a run with itself; this literal only holds if a refactor of the
// capture path writes the same files. It holds at any GOMAXPROCS.
func TestEagerCheckpointBytesPinned(t *testing.T) {
	const want = "8789b020c8ec58d5a173ba529d0990cedbc0b722811c3ddd6ed3cf88327c4714"
	h := sha256.New()
	hashCheckpoints(t, h, experiments.MethodProposed, "heterogeneous")
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("eager checkpoint bytes moved: SHA-256 %s, want %s", got, want)
	}
}

// TestWeightAveragingCheckpointBytesPinned is the sibling pin for the methods
// that average a whole weight vector: Tiny-scale FedClassAvg+weight, FedAvg
// and FedProx on the homogeneous fleet, sync and async, rounds 1 and 2. The
// async files hold in-flight updates and the FedProx runs read per-dispatch
// proximal references, so the literal covers the upload layout, the global
// vector, the accumulator commit and the snapshot layout of each method. It
// was recorded before the three methods shared one server half, and holds
// at any GOMAXPROCS.
func TestWeightAveragingCheckpointBytesPinned(t *testing.T) {
	const want = "0aead391216e0602e215ecd5d478ee2150515ff6f7d0a25dafc6938225c0fab0"
	h := sha256.New()
	for _, method := range []string{experiments.MethodProposedWeight, experiments.MethodFedAvg, experiments.MethodFedProx} {
		hashCheckpoints(t, h, method, "homogeneous")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("weight-averaging checkpoint bytes moved: SHA-256 %s, want %s", got, want)
	}
}

// TestComparisonCheckpointBytesPinned is the pin for the comparison methods
// that keep no weight-averaging half: Tiny-scale Baseline, FedProto and
// KT-pFL on the heterogeneous fleet, then KT-pFL+weight on the homogeneous
// one, sync and async, rounds 1 and 2. The async files hold in-flight
// prototype and knowledge reports, FedProto's committed table and KT-pFL's
// coefficient matrix, latest reports and pending transfers. It was recorded
// before these methods' in-process schedulers ran through their wire
// halves, and holds at any GOMAXPROCS.
func TestComparisonCheckpointBytesPinned(t *testing.T) {
	const want = "cdc72b94908e591f0508b8b96784cd4fc74c29e59491d453fb95edd5a2221d1b"
	h := sha256.New()
	for _, method := range []string{experiments.MethodBaseline, experiments.MethodFedProto, experiments.MethodKTpFL} {
		hashCheckpoints(t, h, method, "heterogeneous")
	}
	hashCheckpoints(t, h, experiments.MethodKTpFLWeight, "homogeneous")
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("comparison-method checkpoint bytes moved: SHA-256 %s, want %s", got, want)
	}
}

// hashCheckpoints writes into h the marshalled snapshots of a Tiny-scale run
// of method on the named fleet, sync then async, after rounds 1 and 2.
func hashCheckpoints(t *testing.T, h hash.Hash, method, fleet string) {
	t.Helper()
	s := experiments.Tiny()
	for _, kind := range []fl.SchedulerKind{fl.SchedSync, fl.SchedAsyncBounded} {
		build, _, err := experiments.NewFleetBuilder(experiments.Fashion, data.Dirichlet, fleet, s.Clients, s)
		if err != nil {
			t.Fatal(err)
		}
		clients := make([]*fl.Client, s.Clients)
		for i := range clients {
			clients[i] = build(i)
		}
		algo, err := experiments.NewAlgorithm(method, experiments.Fashion, s)
		if err != nil {
			t.Fatal(err)
		}
		snaps := 0
		sched := fl.SchedulerConfig{Kind: kind, Checkpoint: func(snap *fl.Snapshot) error {
			b, err := ckpt.Marshal(snap, comm.F64)
			h.Write(b)
			snaps++
			return err
		}}
		sim := fl.NewSimulation(clients, fl.Config{Rounds: 2, BatchSize: s.BatchSize, Seed: s.Seed + 7})
		if _, err := sim.RunScheduled(algo, sched); err != nil {
			t.Fatal(err)
		}
		if snaps != 2 {
			t.Fatalf("%s %s run wrote %d checkpoints, want 2", method, kind, snaps)
		}
	}
}

// TestNodeCheckpointBytesPinned is the node server's sibling pin: one
// SHA-256 over the marshalled snapshots of a Tiny-scale, flat, sync,
// three-client FedClassAvg node federation over inproc channels, checkpointed
// after rounds 1 and 2. A server checkpoint holds no client records but the
// session table, the join declarations and the root's round record. Each
// history point's SimTime is wall-clock serving time, so it is zeroed before
// marshalling; nothing else varies between runs — sessions take their tokens
// in id order from the seeded stream, and the hour-long heartbeat keeps
// liveness probes off the ledger. It was recorded before the node root and
// the in-process engine shared one round record.
func TestNodeCheckpointBytesPinned(t *testing.T) {
	const want = "accbb4e8a837bc5bc68408f10b64af4c77a84427c4ea78a793a21f8f905de727"
	s := experiments.Tiny()
	s.Clients, s.Rounds = 3, 2
	build, _, err := experiments.NewFleetBuilder(experiments.Fashion, data.Dirichlet, "heterogeneous", s.Clients, s)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	h, snaps := sha256.New(), 0
	_, err = experiments.RunNodes(ctx, experiments.MethodProposed, experiments.Fashion, build, s.Clients, s, 1, comm.Spec{Value: comm.F64},
		transport.NewInproc(transport.Options{}), "srv", func(cfg *fl.NodeConfig) {
			cfg.Heartbeat = time.Hour
			cfg.Checkpoint = func(snap *fl.Snapshot) error {
				for i := range snap.History {
					snap.History[i].SimTime = 0
				}
				b, err := ckpt.Marshal(snap, comm.F64)
				h.Write(b)
				snaps++
				return err
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if snaps != 2 {
		t.Fatalf("node run wrote %d checkpoints, want 2", snaps)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("node checkpoint bytes moved: SHA-256 %s, want %s", got, want)
	}
}
