// Determinism and scheduler-coverage tests over real algorithms, run as an
// external test package so the fleet can be built from baselines and core
// without an import cycle.
package fl_test

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/baselines"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/models"
	"repro/internal/opt"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// goldenFleet builds k identically seeded MLP clients over a non-iid
// Fashion-MNIST stand-in split. Homogeneous models keep every algorithm
// (including the +weight variants) runnable.
func goldenFleet(t *testing.T, k int) []*fl.Client {
	return goldenFleetDim(t, k, 8)
}

func goldenFleetDim(t *testing.T, k, featDim int) []*fl.Client {
	t.Helper()
	ds := data.Generate(data.SynthFashion(6, 4, 3))
	parts, err := data.Partition(ds, k, data.PartitionOptions{Kind: data.Dirichlet, Alpha: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*fl.Client, k)
	for i := range clients {
		m := models.New(models.Config{
			Arch: models.ArchMLP, InC: ds.C, InH: ds.H, InW: ds.W,
			FeatDim: featDim, NumClasses: ds.NumClasses, Hidden: 16,
		}, xrand.New(int64(i+1)))
		clients[i] = &fl.Client{
			ID: i, Model: m, Train: parts[i].Train, Test: parts[i].Test,
			Aug:       data.NewAugmenter(ds.C, ds.H, ds.W),
			Rng:       rand.New(rand.NewSource(int64(i + 100))),
			Optimizer: opt.NewAdam(0.01),
		}
	}
	return clients
}

func encodeHistory(t *testing.T, hist []fl.RoundMetrics) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(hist); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The sync-scheduler golden: for a fixed seed, Simulation.Run must produce
// byte-identical RoundMetrics whether the worker pool is capped to one
// goroutine or left at full width — client-level parallelism must never
// leak into the arithmetic.
func TestSyncGoldenAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []byte {
		prev := tensor.SetMaxWorkers(workers)
		defer tensor.SetMaxWorkers(prev)
		sim := fl.NewSimulation(goldenFleet(t, 4), fl.Config{Rounds: 3, BatchSize: 8, Seed: 9})
		hist, err := sim.Run(baselines.NewFedAvg(1))
		if err != nil {
			t.Fatal(err)
		}
		return encodeHistory(t, hist)
	}
	serial := run(1)
	parallel := run(0) // 0 = uncapped
	if !bytes.Equal(serial, parallel) {
		t.Fatal("sync RoundMetrics differ between 1 and N workers")
	}
}

// The async seeded-reproducibility golden: two runs from the same seed must
// produce the same event trace, and the same trace must yield byte-identical
// metrics — the engine's virtual clock, not goroutine scheduling, decides
// every apply.
func TestAsyncSeededReproducibility(t *testing.T) {
	run := func() (*fl.Trace, []byte) {
		sim := fl.NewSimulation(goldenFleet(t, 4), fl.Config{Rounds: 3, BatchSize: 8, Seed: 9})
		tr := &fl.Trace{}
		hist, err := sim.RunScheduled(baselines.NewFedAvg(1), fl.SchedulerConfig{
			Kind:  fl.SchedAsyncBounded,
			Costs: []float64{2, 1, 1, 1},
			Decay: 0.5,
			Trace: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr, encodeHistory(t, hist)
	}
	tr1, h1 := run()
	tr2, h2 := run()
	if !reflect.DeepEqual(tr1, tr2) {
		t.Fatal("same seed produced different async event traces")
	}
	if !bytes.Equal(h1, h2) {
		t.Fatal("same event trace produced different async metrics")
	}
}

// goldenAlgos builds every algorithm of the evaluation, by name, sized for
// goldenFleet.
func goldenAlgos() map[string]func() fl.Algorithm {
	ds := data.SynthFashion(6, 4, 3)
	return map[string]func() fl.Algorithm{
		"Local":    func() fl.Algorithm { return baselines.NewLocalOnly(1) },
		"FedAvg":   func() fl.Algorithm { return baselines.NewFedAvg(1) },
		"FedProx":  func() fl.Algorithm { return baselines.NewFedProx(1, 0.1) },
		"FedProto": func() fl.Algorithm { return baselines.NewFedProto(1, 1.0) },
		"KT-pFL": func() fl.Algorithm {
			k := baselines.NewKTpFL(1, 1, 8)
			k.SetPublic(data.PublicSplit(ds, 8, 5), 1, 12, 12)
			return k
		},
		"KT-pFL+weight": func() fl.Algorithm { return baselines.NewKTpFLWeights(1) },
		"FedClassAvg":   func() fl.Algorithm { return core.New(core.DefaultOptions()) },
		"FedClassAvg+wgt": func() fl.Algorithm {
			o := core.DefaultOptions()
			o.ShareAllWeights = true
			return core.New(o)
		},
	}
}

// Every algorithm of the evaluation must run under every scheduler.
func TestAllAlgorithmsRunUnderAllSchedulers(t *testing.T) {
	for name, mk := range goldenAlgos() {
		for _, kind := range []fl.SchedulerKind{fl.SchedSync, fl.SchedAsyncBounded, fl.SchedSemiSync} {
			sim := fl.NewSimulation(goldenFleet(t, 4), fl.Config{Rounds: 2, BatchSize: 8, Seed: 4, Codec: comm.F32})
			hist, err := sim.RunScheduled(mk(), fl.SchedulerConfig{Kind: kind, Costs: []float64{2, 1, 1, 1}})
			if err != nil {
				t.Fatalf("%s under %s: %v", name, kind, err)
			}
			if len(hist) != 2 {
				t.Fatalf("%s under %s: %d history entries", name, kind, len(hist))
			}
			final := hist[len(hist)-1]
			if final.MeanAcc < 0 || final.MeanAcc > 1 || math.IsNaN(final.MeanAcc) {
				t.Fatalf("%s under %s: accuracy %v", name, kind, final.MeanAcc)
			}
		}
	}
}

// Bounded staleness must not wreck accuracy: async with staleness ≤ 2 and
// a 2× straggler stays close to the sync result on the same fleet.
func TestAsyncAccuracyParity(t *testing.T) {
	run := func(kind fl.SchedulerKind) float64 {
		sim := fl.NewSimulation(goldenFleet(t, 4), fl.Config{Rounds: 8, BatchSize: 8, Seed: 9, EvalEvery: 8})
		hist, err := sim.RunScheduled(core.New(core.DefaultOptions()), fl.SchedulerConfig{
			Kind:         kind,
			Costs:        []float64{2, 1, 1, 1},
			MaxStaleness: 2,
			Decay:        0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return hist[len(hist)-1].MeanAcc
	}
	syncAcc := run(fl.SchedSync)
	asyncAcc := run(fl.SchedAsyncBounded)
	t.Logf("sync %.4f vs async %.4f", syncAcc, asyncAcc)
	if asyncAcc < syncAcc-0.10 {
		t.Fatalf("async accuracy %.4f fell more than 10 points below sync %.4f", asyncAcc, syncAcc)
	}
}

// Lossy codecs shrink the ledger without breaking training: int8 must cut
// uplink bytes ≥ 7× versus float64 on the classifier-exchange scenario.
func TestInt8CodecShrinksLedger(t *testing.T) {
	run := func(codec comm.Codec) (int64, float64) {
		// FeatDim 32 matches the communication example's classifier payload
		// (32·10 + 10 floats).
		sim := fl.NewSimulation(goldenFleetDim(t, 4, 32), fl.Config{Rounds: 2, BatchSize: 8, Seed: 9, Codec: codec})
		hist, err := sim.Run(core.New(core.DefaultOptions()))
		if err != nil {
			t.Fatal(err)
		}
		return sim.Ledger.TotalUp(), hist[len(hist)-1].MeanAcc
	}
	f64Bytes, _ := run(comm.F64)
	i8Bytes, i8Acc := run(comm.I8)
	ratio := float64(f64Bytes) / float64(i8Bytes)
	t.Logf("uplink bytes: f64 %d, i8 %d (%.2fx), i8 acc %.4f", f64Bytes, i8Bytes, ratio, i8Acc)
	if ratio < 7 {
		t.Fatalf("int8 codec shrank uplink only %.2fx, want >= 7x", ratio)
	}
	if math.IsNaN(i8Acc) || i8Acc < 0 || i8Acc > 1 {
		t.Fatalf("int8 training produced accuracy %v", i8Acc)
	}
}
