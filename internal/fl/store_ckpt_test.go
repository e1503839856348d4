package fl_test

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/fl"
)

// A budgeted lazy run must checkpoint and resume byte-identically, with the
// checkpoint holding only the touched clients — each once, whatever the
// budget.
func TestLazySnapshotResumeByteIdentical(t *testing.T) {
	t.Run("sync", func(t *testing.T) {
		const k, rounds, killAt = 12, 4, 2
		sched := func() fl.SchedulerConfig {
			return fl.SchedulerConfig{Kind: fl.SchedSync, Trace: &fl.Trace{}}
		}
		newSim := func() *fl.Simulation {
			return fl.NewLazySimulation(k, fl.LazyTestBuilder(t, k), 2, fl.Config{
				Rounds: rounds, SampleRate: 0.5, BatchSize: 8, Seed: 11,
			})
		}

		// Uninterrupted run, snapshotting at every boundary.
		var atKill *fl.Snapshot
		full := sched()
		full.Checkpoint = func(snap *fl.Snapshot) error {
			if snap.Round == killAt {
				atKill = snap
			}
			return nil
		}
		wantHist, err := newSim().RunScheduled(&fl.TrainAlgo{}, full)
		if err != nil {
			t.Fatal(err)
		}
		if atKill == nil {
			t.Fatalf("no snapshot at round %d", killAt)
		}
		if atKill.FleetSize != k {
			t.Fatalf("snapshot fleet size %d, want %d", atKill.FleetSize, k)
		}
		if len(atKill.Clients) >= k {
			t.Fatalf("lazy snapshot holds %d clients — it must hold only the touched subset of %d", len(atKill.Clients), k)
		}

		// Resume from the mid-run snapshot and compare the full history.
		res := sched()
		res.Resume = atKill
		gotHist, err := newSim().RunScheduled(&fl.TrainAlgo{}, res)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantHist, gotHist) {
			t.Fatalf("resumed history differs:\n%+v\nvs\n%+v", gotHist, wantHist)
		}
		if !reflect.DeepEqual(full.Trace, res.Trace) {
			t.Fatal("resumed trace differs from the uninterrupted one")
		}
	})

	// An async fleet with sampled evaluation mixes every kind of resident:
	// trained clients, clients only evaluated since they were built, and
	// trained clients rehydrated clean for an evaluation, which stay indexed
	// in the segment while resident. At budgets 8, 32 and ∞ the checkpoint
	// must marshal to the same bytes, hold exactly the clients dispatched so
	// far (evaluation alone puts none in), each once, and resume to the
	// uninterrupted run bit for bit.
	t.Run("async-evalsample", func(t *testing.T) {
		const k, rounds, killAt = 48, 8, 4
		var blob0 []byte
		var hist0 []fl.RoundMetrics
		for _, budget := range []int{8, 32, 0} {
			newSim := func() *fl.Simulation {
				return fl.NewLazySimulation(k, fl.LazyTestBuilder(t, k), budget, fl.Config{
					Rounds: rounds, SampleRate: 4.0 / k, BatchSize: 8, Seed: 13, EvalSample: 12,
				})
			}
			var blob []byte
			full := fl.SchedulerConfig{Kind: fl.SchedAsyncBounded, Trace: &fl.Trace{}}
			full.Checkpoint = func(snap *fl.Snapshot) error {
				if snap.Round != killAt {
					return nil
				}
				checkCapturedOnce(t, budget, snap)
				var err error
				blob, err = ckpt.Marshal(snap, comm.F64)
				return err
			}
			wantHist, err := newSim().RunScheduled(&fl.TrainAlgo{}, full)
			if err != nil {
				t.Fatal(err)
			}
			if blob == nil {
				t.Fatalf("budget %d: no snapshot at round %d", budget, killAt)
			}
			if blob0 == nil {
				blob0, hist0 = blob, wantHist
			} else {
				if !bytes.Equal(blob, blob0) {
					t.Fatalf("budget %d checkpoint differs from budget 8's (%d vs %d bytes)", budget, len(blob), len(blob0))
				}
				if !reflect.DeepEqual(wantHist, hist0) {
					t.Fatalf("budget %d history differs from budget 8's", budget)
				}
			}

			snap, err := ckpt.Unmarshal(blob)
			if err != nil {
				t.Fatal(err)
			}
			res := fl.SchedulerConfig{Kind: fl.SchedAsyncBounded, Trace: &fl.Trace{}, Resume: snap}
			gotHist, err := newSim().RunScheduled(&fl.TrainAlgo{}, res)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wantHist, gotHist) {
				t.Fatalf("budget %d: resumed history differs:\n%+v\nvs\n%+v", budget, gotHist, wantHist)
			}
			if !reflect.DeepEqual(full.Trace, res.Trace) {
				t.Fatalf("budget %d: resumed trace differs from the uninterrupted one", budget)
			}
		}
	})
}

// checkCapturedOnce fails unless snap holds each client dispatched before it
// exactly once, and no other client.
func checkCapturedOnce(t *testing.T, budget int, snap *fl.Snapshot) {
	t.Helper()
	var want []int
	seen := make(map[int]bool)
	for _, e := range snap.Trace {
		if e.Kind == fl.TraceDispatch && !seen[e.Client] {
			seen[e.Client] = true
			want = append(want, e.Client)
		}
	}
	sort.Ints(want)
	got := make([]int, len(snap.Clients))
	for i, cs := range snap.Clients {
		got[i] = cs.ID
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("budget %d: checkpoint holds clients %v, want the dispatched %v, each once", budget, got, want)
	}
}
