package baselines

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/xrand"
)

func fleet(t *testing.T, k int, arch func(int) models.Arch) []*fl.Client {
	t.Helper()
	ds := data.Generate(data.SynthFashion(6, 4, 3))
	parts, err := data.Partition(ds, k, data.PartitionOptions{Kind: data.Dirichlet, Alpha: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*fl.Client, k)
	for i := range clients {
		m := models.New(models.Config{
			Arch: arch(i), InC: ds.C, InH: ds.H, InW: ds.W, FeatDim: 8, NumClasses: ds.NumClasses, Hidden: 12,
		}, xrand.New(int64(i+1)))
		clients[i] = &fl.Client{
			ID: i, Model: m, Train: parts[i].Train, Test: parts[i].Test,
			Aug:       data.NewAugmenter(ds.C, ds.H, ds.W),
			Rng:       rand.New(rand.NewSource(int64(i + 50))),
			Optimizer: opt.NewAdam(0.005),
		}
	}
	return clients
}

func mlp(int) models.Arch { return models.ArchMLP }
func het(i int) models.Arch {
	return models.HeterogeneousSet[i%len(models.HeterogeneousSet)]
}

func TestLocalOnlyNoTraffic(t *testing.T) {
	clients := fleet(t, 3, het)
	sim := fl.NewSimulation(clients, fl.Config{Rounds: 2, BatchSize: 8, Seed: 1})
	if _, err := sim.Run(NewLocalOnly(1)); err != nil {
		t.Fatal(err)
	}
	if sim.Ledger.TotalUp() != 0 || sim.Ledger.TotalDown() != 0 {
		t.Fatal("local baseline must not communicate")
	}
}

func TestFedAvgSynchronizesClients(t *testing.T) {
	clients := fleet(t, 3, mlp)
	algo := NewFedAvg(1)
	sim := fl.NewSimulation(clients, fl.Config{Rounds: 1, BatchSize: 8, Seed: 1})
	if err := algo.Setup(sim); err != nil {
		t.Fatal(err)
	}
	// All clients start from client 0's weights after the first download;
	// verify the aggregate equals the weighted average of the results.
	if err := algo.Round(sim, 1, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	global := algo.Global()
	var avg []float64
	for _, c := range clients {
		flat := nn.FlattenParams(c.Model.Params())
		if avg == nil {
			avg = make([]float64, len(flat))
		}
		for j, v := range flat {
			avg[j] += v / 3
		}
	}
	for j := range avg {
		if math.Abs(avg[j]-global[j]) > 1e-9 {
			t.Fatalf("global[%d] = %v, want %v", j, global[j], avg[j])
		}
	}
}

func TestFedAvgRejectsHeterogeneous(t *testing.T) {
	clients := fleet(t, 4, het)
	sim := fl.NewSimulation(clients, fl.Config{Rounds: 1, Seed: 1})
	if _, err := sim.Run(NewFedAvg(1)); err == nil {
		t.Fatal("FedAvg must reject heterogeneous fleets")
	}
}

func TestFedProxStaysCloserToGlobal(t *testing.T) {
	dist := func(mu float64) float64 {
		clients := fleet(t, 2, mlp)
		algo := NewFedProx(1, mu)
		sim := fl.NewSimulation(clients, fl.Config{Rounds: 1, BatchSize: 8, Seed: 1})
		if err := algo.Setup(sim); err != nil {
			t.Fatal(err)
		}
		start := algo.Global()
		if err := algo.Round(sim, 1, []int{0, 1}); err != nil {
			t.Fatal(err)
		}
		flat := nn.FlattenParams(clients[0].Model.Params())
		var d float64
		for j := range flat {
			dd := flat[j] - start[j]
			d += dd * dd
		}
		return d
	}
	if dist(50) >= dist(0) {
		t.Fatal("large mu must keep weights closer to the global model")
	}
}

func TestFedProtoPrototypeAggregation(t *testing.T) {
	clients := fleet(t, 3, mlp)
	algo := NewFedProto(1, 1.0)
	sim := fl.NewSimulation(clients, fl.Config{Rounds: 2, BatchSize: 8, Seed: 1})
	if _, err := sim.Run(algo); err != nil {
		t.Fatal(err)
	}
	// After rounds, every class seen by some client must have a prototype
	// of the right dimension.
	seen := map[int]bool{}
	for _, c := range clients {
		for _, ex := range c.Train {
			seen[ex.Y] = true
		}
	}
	for cls := range seen {
		proto := algo.globalProtos[cls]
		if proto == nil {
			t.Fatalf("class %d has no global prototype", cls)
		}
		if len(proto) != 8 {
			t.Fatalf("prototype dim %d", len(proto))
		}
	}
	// Traffic: prototypes only, far less than every client sharing its
	// model weights.
	modelBytes := int64(len(clients)) * int64(12+8*nn.NumParams(clients[0].Model.Params()))
	for _, r := range sim.Ledger.Rounds() {
		if r.UpBytes >= modelBytes {
			t.Fatalf("round %d: FedProto traffic %d should be well below model sharing %d", r.Round, r.UpBytes, modelBytes)
		}
	}
}

// A class's first committed prototype is the reported mean at any commit
// mix; only a class that already has a prototype mixes (1-λ)·old + λ·mean.
// Class 1 is never reported and stays nil.
func TestFedProtoFirstCommitTakesMean(t *testing.T) {
	for _, tc := range []struct {
		mix          float64
		first, later []float64
	}{
		{mix: 1, first: []float64{4, 4}, later: []float64{8, 8}},
		{mix: 0.5, first: []float64{4, 4}, later: []float64{6, 6}},
	} {
		p := NewFedProto(1, 1)
		if err := p.WireSetup([]fl.WireJoin{{FeatDim: 2, NumClasses: 2}}, 1); err != nil {
			t.Fatal(err)
		}
		p.mix = tc.mix
		for round, want := range [][]float64{tc.first, tc.later} {
			report := []float64{4, 4}
			if round > 0 {
				report = []float64{8, 8}
			}
			u := &fl.Update{Vecs: bodies(report, nil), Counts: []int{3, 0}, Weight: 1}
			if err := p.AsyncApply(nil, u); err != nil {
				t.Fatal(err)
			}
			if err := p.AsyncCommit(nil); err != nil {
				t.Fatal(err)
			}
			got := p.globalProtos[0]
			if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("mix %v commit %d: class 0 prototype %v, want %v", tc.mix, round+1, got, want)
			}
			if p.globalProtos[1] != nil {
				t.Fatalf("mix %v commit %d: unreported class 1 got prototype %v", tc.mix, round+1, p.globalProtos[1])
			}
		}
	}
}

func TestFedProtoRejectsMismatchedFeatureDims(t *testing.T) {
	clients := fleet(t, 2, mlp)
	clients[1].Model = models.New(models.Config{
		Arch: models.ArchMLP, InC: 1, InH: 12, InW: 12, FeatDim: 16, NumClasses: 10,
	}, xrand.New(5))
	sim := fl.NewSimulation(clients, fl.Config{Rounds: 1, Seed: 1})
	if _, err := sim.Run(NewFedProto(1, 1)); err == nil {
		t.Fatal("FedProto must reject mismatched feature dims")
	}
}

func TestKTpFLNeedsPublicData(t *testing.T) {
	clients := fleet(t, 2, het)
	sim := fl.NewSimulation(clients, fl.Config{Rounds: 1, Seed: 1})
	if _, err := sim.Run(NewKTpFL(1, 1, 8)); err == nil {
		t.Fatal("KT-pFL without public data must fail setup")
	}
}

func TestKTpFLRunsAndCommunicatesSoftPredictions(t *testing.T) {
	clients := fleet(t, 4, het)
	algo := NewKTpFL(1, 2, 12)
	spec := data.SynthFashion(6, 4, 3)
	algo.SetPublic(data.PublicSplit(spec, 12, 77), 1, 12, 12)
	sim := fl.NewSimulation(clients, fl.Config{Rounds: 2, BatchSize: 8, Seed: 1})
	if _, err := sim.Run(algo); err != nil {
		t.Fatal(err)
	}
	// Per-round per-client upload = 12 public examples × 10 classes floats.
	want := int64(len(clients)) * int64(12+8*12*10)
	for _, r := range sim.Ledger.Rounds() {
		if r.UpBytes != want {
			t.Fatalf("round %d: KT-pFL upload %d, want %d", r.Round, r.UpBytes, want)
		}
	}
	if n := len(sim.Ledger.Rounds()); n != 2 {
		t.Fatalf("ledger holds %d rounds, want 2", n)
	}
	// Coefficient rows must be stochastic (sum to 1).
	for _, row := range algo.coeff {
		var s float64
		for _, v := range row {
			if v < 0 {
				t.Fatal("negative knowledge coefficient")
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("coefficient row sums to %v", s)
		}
	}
}

func TestKTpFLCoefficientsFavorSimilarClients(t *testing.T) {
	algo := NewKTpFL(1, 1, 4)
	algo.coeff = [][]float64{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}
	// Squared distances: clients 0,1 identical; client 2 at 9 from both.
	algo.refreshCoeff([]int{0, 1, 2}, [][]float64{{0}, {0}, {3}}, 1, nil)
	if algo.coeff[0][1] <= algo.coeff[0][2] {
		t.Fatalf("similar client should get higher coefficient: %v", algo.coeff[0])
	}
}

func TestKTpFLWeightVariantHomogeneousOnly(t *testing.T) {
	hetClients := fleet(t, 4, het)
	sim := fl.NewSimulation(hetClients, fl.Config{Rounds: 1, Seed: 1})
	if _, err := sim.Run(NewKTpFLWeights(1)); err == nil {
		t.Fatal("+weight variant must reject heterogeneous fleets")
	}
	homClients := fleet(t, 3, mlp)
	sim2 := fl.NewSimulation(homClients, fl.Config{Rounds: 2, BatchSize: 8, Seed: 1})
	if _, err := sim2.Run(NewKTpFLWeights(1)); err != nil {
		t.Fatal(err)
	}
}

func TestEpochsPerRoundReporting(t *testing.T) {
	if NewLocalOnly(3).EpochsPerRound() != 3 {
		t.Fatal("LocalOnly epochs")
	}
	if NewKTpFL(20, 1, 4).EpochsPerRound() != 20 {
		t.Fatal("KT-pFL epochs (paper pacing: 20 per round)")
	}
	if NewFedAvg(0).EpochsPerRound() != 1 {
		t.Fatal("FedAvg must default to 1 epoch")
	}
}

// bodies returns vs as F64 bodies over their own memory: a test builds a
// payload from floats.
func bodies(vs ...[]float64) []comm.Body {
	out := make([]comm.Body, len(vs))
	for i, v := range vs {
		out[i] = comm.AsF64Body(v)
	}
	return out
}

// floats decodes a body into a fresh vector, nil for an absent one.
func floats(b comm.Body) []float64 {
	if b.Nil() {
		return nil
	}
	return b.Decode(make([]float64, b.Len()))
}
