package fl

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/opt"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

func testClient(t *testing.T, id int, train, test []data.Example) *Client {
	t.Helper()
	m := models.New(models.Config{
		Arch: models.ArchMLP, InC: 1, InH: 12, InW: 12, FeatDim: 8, NumClasses: 10, Hidden: 16,
	}, xrand.New(int64(id+1)))
	return &Client{
		ID: id, Model: m, Train: train, Test: test,
		Aug:       data.NewAugmenter(1, 12, 12),
		Rng:       rand.New(rand.NewSource(int64(id + 100))),
		Optimizer: opt.NewAdam(0.01),
	}
}

func testFleet(t *testing.T, k int) []*Client {
	ds := data.Generate(data.SynthFashion(6, 4, 3))
	parts, err := data.Partition(ds, k, data.PartitionOptions{Kind: data.Dirichlet, Alpha: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, k)
	for i := range clients {
		clients[i] = testClient(t, i, parts[i].Train, parts[i].Test)
	}
	return clients
}

func TestMeanStd(t *testing.T) {
	m, s := MeanStd([]float64{1, 2, 3, 4})
	if m != 2.5 {
		t.Fatalf("mean %v", m)
	}
	if math.Abs(s-math.Sqrt(1.25)) > 1e-12 {
		t.Fatalf("std %v", s)
	}
	if m, s := MeanStd(nil); m != 0 || s != 0 {
		t.Fatal("empty MeanStd should be 0,0")
	}
}

func TestTrainEpochCEImproves(t *testing.T) {
	clients := testFleet(t, 1)
	c := clients[0]
	first := c.TrainEpochCE(8)
	var last float64
	for e := 0; e < 15; e++ {
		last = c.TrainEpochCE(8)
	}
	if last >= first {
		t.Fatalf("CE loss did not improve: %g → %g", first, last)
	}
}

func TestEvalAccuracyBounds(t *testing.T) {
	clients := testFleet(t, 2)
	for _, c := range clients {
		acc := c.EvalAccuracy()
		if acc < 0 || acc > 1 {
			t.Fatalf("accuracy %v", acc)
		}
	}
	empty := testClient(t, 9, nil, nil)
	if empty.EvalAccuracy() != 0 {
		t.Fatal("empty test set should score 0")
	}
}

// countingAlgo records participants per round.
type countingAlgo struct {
	rounds       int
	participants [][]int
	failAt       int
}

func (a *countingAlgo) Name() string                { return "counting" }
func (a *countingAlgo) EpochsPerRound() int         { return 2 }
func (a *countingAlgo) Setup(sim *Simulation) error { return nil }
func (a *countingAlgo) Round(sim *Simulation, round int, participants []int) error {
	a.rounds++
	cp := append([]int(nil), participants...)
	a.participants = append(a.participants, cp)
	if a.failAt > 0 && round == a.failAt {
		return errors.New("injected failure")
	}
	return nil
}

func TestSimulationRunBasics(t *testing.T) {
	clients := testFleet(t, 4)
	sim := NewSimulation(clients, Config{Rounds: 5, SampleRate: 0.5, Seed: 9})
	algo := &countingAlgo{}
	hist, err := sim.Run(algo)
	if err != nil {
		t.Fatal(err)
	}
	if algo.rounds != 5 {
		t.Fatalf("ran %d rounds", algo.rounds)
	}
	if len(hist) != 5 {
		t.Fatalf("history %d entries", len(hist))
	}
	// SampleRate 0.5 of 4 clients = 2 participants per round.
	for _, p := range algo.participants {
		if len(p) != 2 {
			t.Fatalf("participants %v", p)
		}
	}
	// LocalEpochs uses EpochsPerRound.
	if hist[2].LocalEpochs != 3*2 {
		t.Fatalf("epochs axis %d, want 6", hist[2].LocalEpochs)
	}
}

func TestSimulationErrorPropagates(t *testing.T) {
	clients := testFleet(t, 2)
	sim := NewSimulation(clients, Config{Rounds: 5, Seed: 1})
	_, err := sim.Run(&countingAlgo{failAt: 2})
	if err == nil {
		t.Fatal("round error must propagate")
	}
}

func TestSimulationDeterminism(t *testing.T) {
	run := func() []float64 {
		clients := testFleet(t, 3)
		sim := NewSimulation(clients, Config{Rounds: 3, Seed: 11})
		algo := &countingAlgo{}
		hist, err := sim.Run(algo)
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for _, m := range hist {
			out = append(out, m.MeanAcc)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic run: %v vs %v", a, b)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	sim := NewSimulation(nil, Config{})
	if sim.Cfg.Rounds != 1 || sim.Cfg.SampleRate != 1 || sim.Cfg.BatchSize != 32 || sim.Cfg.EvalEvery != 1 {
		t.Fatalf("defaults not applied: %+v", sim.Cfg)
	}
}

// weightedAverage weights each update by its DataScale: |D_k| for a client
// with data, 1 for an empty one. With every client holding data that is the
// historical |D_k|/|D| average bit for bit; an empty client among full ones
// counts as one example.
func TestWeightedAverageDataScaleRule(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sizes := []int{7, 13, 1, 29}
	var us []*Update
	var total float64
	for _, n := range sizes {
		v := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		us = append(us, &Update{Scale: DataScale(n), Vecs: bodiesOf([][]float64{v})})
		total += float64(n)
	}
	want := make([]float64, 3)
	for i, u := range us {
		for j, x := range floatsOf(u.Vecs)[0] {
			want[j] += float64(sizes[i]) / total * x
		}
	}
	for j, got := range weightedAverage(us, 0) {
		if math.Float64bits(got) != math.Float64bits(want[j]) {
			t.Fatalf("element %d: %v, want the |D_k|/|D| average %v", j, got, want[j])
		}
	}
	empty := []*Update{
		{Scale: DataScale(3), Vecs: bodiesOf([][]float64{{4}})},
		{Scale: DataScale(0), Vecs: bodiesOf([][]float64{{8}})},
	}
	if got := weightedAverage(empty, 0)[0]; got != 3.0/4*4+1.0/4*8 {
		t.Fatalf("an empty client among full ones averages to %v, want it weighted as one example (5)", got)
	}
}

func TestAugmentedBatchWithoutAugmenter(t *testing.T) {
	clients := testFleet(t, 1)
	c := clients[0]
	c.Aug = nil
	x, y := c.AugmentedBatch(c.Train[:2])
	if x.Dim(0) != 2 || len(y) != 2 {
		t.Fatalf("shapes %v %v", x.Shape, y)
	}
	// Without augmenter the batch must be the raw pixels.
	for j := 0; j < 5; j++ {
		if x.Data[j] != c.Train[0].X[j] {
			t.Fatal("nil augmenter must pass raw input")
		}
	}
}

// TestPackViewsMatchesApply: packViews writes each augmented view straight
// into its row of the batch. At every dtype, with one view and with two, the
// batch must hold the bytes that Apply followed by WriteFloat64sAt gives,
// from the same draws: the client's Rng ends where the reference stream
// does, so the next draw after packing is the same.
func TestPackViewsMatchesApply(t *testing.T) {
	ds := data.Generate(data.SynthFashion(6, 4, 3))
	b := ds.Train[:5]
	dim := ds.InputDim()
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32, tensor.BF16} {
		for views := 1; views <= 2; views++ {
			cfg := models.Config{Arch: models.ArchMLP, InC: ds.C, InH: ds.H, InW: ds.W, FeatDim: 8, NumClasses: 10, Hidden: 16, DType: dt}
			c := &Client{Model: models.New(cfg, xrand.New(1)), Aug: data.NewAugmenter(ds.C, ds.H, ds.W), Rng: rand.New(rand.NewSource(7))}
			got := tensor.NewOf(dt, views*len(b), ds.C, ds.H, ds.W)
			got.Fill(math.NaN()) // every element must be written
			y := make([]int, len(b))
			c.packViews(got, b, views, y)

			rng := rand.New(rand.NewSource(7))
			want := tensor.NewOf(dt, views*len(b), ds.C, ds.H, ds.W)
			for i, ex := range b {
				for v := 0; v < views; v++ {
					want.WriteFloat64sAt((v*len(b)+i)*dim, c.Aug.Apply(ex.X, rng))
				}
				if y[i] != ex.Y {
					t.Fatalf("%v, %d views: label %d is %d, want %d", dt, views, i, y[i], ex.Y)
				}
			}
			g, w := got.AppendFloat64s(nil), want.AppendFloat64s(nil)
			for i := range w {
				if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
					t.Fatalf("%v, %d views: element %d is %v, want %v", dt, views, i, g[i], w[i])
				}
			}
			if c.Rng.Int63() != rng.Int63() {
				t.Fatalf("%v, %d views: packing left the client's Rng elsewhere than Apply does", dt, views)
			}
		}
	}
}
