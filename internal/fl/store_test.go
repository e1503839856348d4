package fl

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// lazyTestBuilder returns a builder that constructs client i as a pure
// function of i — the contract NewLazySimulation requires — over a lazily
// partitioned synthetic dataset.
func lazyTestBuilder(t *testing.T, k int) func(int) *Client {
	t.Helper()
	return lazyTestBuilderOf(t, k, tensor.F64)
}

// lazyTestBuilderOf is lazyTestBuilder with models of dtype dt.
func lazyTestBuilderOf(t *testing.T, k int, dt tensor.DType) func(int) *Client {
	t.Helper()
	ds := data.Generate(data.SynthFashion(6, 4, 3))
	lp, err := data.NewLazyPartitioner(ds, k, data.PartitionOptions{Kind: data.Dirichlet, Alpha: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return func(i int) *Client {
		part := lp.Client(i)
		m := models.New(models.Config{
			Arch: models.ArchMLP, InC: 1, InH: 12, InW: 12, FeatDim: 8, NumClasses: 10, Hidden: 16, DType: dt,
		}, xrand.New(int64(i+1)))
		rng, src := xrand.NewRand(int64(i) * 7919)
		return &Client{
			ID: i, Model: m, Train: part.Train, Test: part.Test,
			Aug:       data.NewAugmenter(1, 12, 12),
			Rng:       rng,
			Src:       src,
			Optimizer: opt.NewAdam(0.01),
		}
	}
}

// trainAlgo trains each participant for one epoch — under any scheduler —
// so client state actually mutates between spill cycles.
type trainAlgo struct{}

func (a *trainAlgo) Name() string                { return "train" }
func (a *trainAlgo) EpochsPerRound() int         { return 1 }
func (a *trainAlgo) Setup(sim *Simulation) error { return nil }
func (a *trainAlgo) Round(sim *Simulation, round int, participants []int) error {
	tensor.Parallel(len(participants), func(idx int) {
		sim.Client(participants[idx]).TrainEpochCE(sim.Cfg.BatchSize)
	})
	return nil
}
func (a *trainAlgo) AsyncSetup(sim *Simulation, sched *SchedulerConfig) error { return nil }
func (a *trainAlgo) AsyncDispatch(sim *Simulation, client int) error          { return nil }
func (a *trainAlgo) AsyncLocalGroup(sim *Simulation, clients []int) ([]*Update, error) {
	us := make([]*Update, len(clients))
	for i, id := range clients {
		sim.Client(id).TrainEpochCE(sim.Cfg.BatchSize)
		us[i] = &Update{Client: id}
	}
	return us, nil
}
func (a *trainAlgo) AsyncApply(sim *Simulation, u *Update) error { return nil }
func (a *trainAlgo) AsyncCommit(sim *Simulation) error           { return nil }
func (a *trainAlgo) AlgoSnapshot() (*AlgoState, error) {
	return &AlgoState{}, nil
}
func (a *trainAlgo) AlgoRestore(st *AlgoState) error { return nil }

func TestSamplePrefixDrawsDistinctInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const k, n = 1000000, 40
	got := SamplePrefix(rng, k, n)
	if len(got) != n {
		t.Fatalf("drew %d ids, want %d", len(got), n)
	}
	seen := make(map[int]bool, n)
	for _, id := range got {
		if id < 0 || id >= k {
			t.Fatalf("id %d out of [0,%d)", id, k)
		}
		if seen[id] {
			t.Fatalf("id %d drawn twice", id)
		}
		seen[id] = true
	}
	// Same seed, same draw.
	again := SamplePrefix(rand.New(rand.NewSource(7)), k, n)
	if !reflect.DeepEqual(got, again) {
		t.Fatal("same seed produced different samples")
	}
	// Edge cases: n > k clamps, n <= 0 is empty.
	if got := SamplePrefix(rng, 3, 10); len(got) != 3 {
		t.Fatalf("n>k drew %d ids, want 3", len(got))
	}
	if got := SamplePrefix(rng, 3, 0); len(got) != 0 {
		t.Fatalf("n=0 drew %d ids", len(got))
	}
}

// SamplePrefix must produce exactly the first n slots of a full
// Fisher–Yates shuffle of the same stream — the property that makes the
// O(n) sampler a drop-in for small fleets and the basis of its uniformity.
func TestSamplePrefixMatchesFullShuffle(t *testing.T) {
	const k, n = 53, 17
	got := SamplePrefix(rand.New(rand.NewSource(21)), k, n)
	perm := make([]int, k)
	for i := range perm {
		perm[i] = i
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < n; i++ {
		j := i + rng.Intn(k-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	if !reflect.DeepEqual(got, perm[:n]) {
		t.Fatalf("prefix %v differs from full shuffle %v", got, perm[:n])
	}
}

func TestSampleCohortAscendingAndDeterministic(t *testing.T) {
	draw := func() []int {
		return SampleCohort(rand.New(rand.NewSource(5)), 100000, 0.0002)
	}
	a, b := draw(), draw()
	if len(a) != 20 {
		t.Fatalf("cohort of %d, want ⌈100000·0.0002⌉ = 20", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1] {
			t.Fatalf("cohort not ascending: %v", a)
		}
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different cohorts")
	}
}

// At rate·N ≪ N, draws must range over the whole id space, not cluster at
// the front — the failure mode of a truncated-permutation sampler.
func TestSampleCohortDistributionSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const k = 100000
	max, rounds := 0, 50
	for r := 0; r < rounds; r++ {
		for _, id := range SampleCohort(rng, k, 0.0001) {
			if id > max {
				max = id
			}
		}
	}
	// 500 uniform draws: P(all below k/2) = 2^-500.
	if max < k/2 {
		t.Fatalf("500 draws never exceeded id %d of %d — sampler is not uniform over the fleet", max, k)
	}
}

func TestMeanStdNaN(t *testing.T) {
	nan := math.NaN()
	if m, s := MeanStd([]float64{nan, nan, nan}); m != 0 || s != 0 {
		t.Fatalf("all-NaN MeanStd = %v, %v, want 0, 0", m, s)
	}
	// Mixed: NaN entries are excluded from both moments.
	m, s := MeanStd([]float64{1, nan, 2, 3, nan, 4})
	wantM, wantS := MeanStd([]float64{1, 2, 3, 4})
	if m != wantM || s != wantS {
		t.Fatalf("mixed MeanStd = %v, %v, want %v, %v", m, s, wantM, wantS)
	}
	if math.IsNaN(m) || math.IsNaN(s) {
		t.Fatal("NaN leaked into the moments")
	}
}

// Evicting a trained client and rehydrating it must reproduce its state
// bit for bit: parameters, buffers, RNG position and optimizer moments.
func TestClientStoreEvictRehydrateBitIdentical(t *testing.T) {
	build := lazyTestBuilder(t, 8)
	st := NewClientStore(8, build, 2)

	c := st.Get(3)
	c.TrainEpochCE(8)
	before := clientRecord(t, c)

	// Touch enough other clients to push 3 out, twice over, exercising the
	// buffer pool's recycle path.
	for _, id := range []int{0, 1, 2, 4, 5} {
		st.Get(id)
		if err := st.EvictToBudget(nil); err != nil {
			t.Fatal(err)
		}
	}
	if st.Resident() > 2 {
		t.Fatalf("%d clients resident over budget 2", st.Resident())
	}

	re := st.Get(3)
	if re == c {
		t.Fatal("client 3 was never evicted — test exercises nothing")
	}
	if !bytes.Equal(clientRecord(t, re), before) {
		t.Fatal("rehydrated client state differs from its pre-eviction state")
	}

	// And it keeps training identically: one more epoch on the rehydrated
	// client matches one more epoch on a never-evicted twin.
	twinStore := NewClientStore(8, build, 0)
	twin := twinStore.Get(3)
	twin.TrainEpochCE(8)
	lossA := re.TrainEpochCE(8)
	lossB := twin.TrainEpochCE(8)
	if lossA != lossB {
		t.Fatalf("post-rehydration training diverged: %g vs %g", lossA, lossB)
	}
}

// The determinism contract of the lazy fleet: any finite resident budget
// produces byte-identical metrics and trace to the unbounded run, under
// every scheduler.
func TestLazyBudgetByteIdentity(t *testing.T) {
	kinds := []struct {
		name string
		kind SchedulerKind
	}{
		{"sync", SchedSync},
		{"async", SchedAsyncBounded},
		{"semisync", SchedSemiSync},
	}
	for _, tc := range kinds {
		t.Run(tc.name, func(t *testing.T) {
			run := func(resident int) ([]RoundMetrics, *Trace) {
				tr := &Trace{}
				sim := NewLazySimulation(12, lazyTestBuilder(t, 12), resident, Config{
					Rounds: 4, SampleRate: 0.5, BatchSize: 8, Seed: 11,
				})
				hist, err := sim.RunScheduled(&trainAlgo{}, SchedulerConfig{Kind: tc.kind, Trace: tr})
				if err != nil {
					t.Fatal(err)
				}
				return hist, tr
			}
			unbounded, trU := run(0)
			budgeted, trB := run(2)
			if !reflect.DeepEqual(trU, trB) {
				t.Fatal("budget 2 produced a different scheduler trace than budget ∞")
			}
			if !reflect.DeepEqual(unbounded, budgeted) {
				t.Fatalf("budget 2 produced different metrics than budget ∞:\n%+v\nvs\n%+v", budgeted, unbounded)
			}
		})
	}
}

// primeNaN dirties what the next clients built, stepped or rehydrated take
// over. Each of fleet's clients trains an epoch, its model's value,
// gradient and moment slabs and running statistics turn NaN, and the
// store's recycle hands the model whole to the models free list, where the
// next builds of its config take it. And NaN-filled storage goes into the
// pool at every length the clients take — a model's value and gradient
// slabs and its upload vector, as long as its parameters, and each
// parameter's float64 initialization before packing, at f64 and f32 — once
// per client.
func primeNaN(fleet []*Client) {
	for _, c := range fleet {
		params := c.Model.Params()
		n := nn.NumParams(params)
		sizes := []int{n, n, n}
		for _, p := range params {
			sizes = append(sizes, p.Value.Size())
		}
		c.TrainEpochCE(8)
		vals, grads := nn.Flat(params)
		vals.Fill(math.NaN())
		grads.Fill(math.NaN())
		for _, p := range params {
			p.M.Fill(math.NaN())
			p.V.Fill(math.NaN())
		}
		for _, b := range c.Model.Buffers() {
			for i := range b {
				b[i] = math.NaN()
			}
		}
		c.recycle()
		for _, size := range sizes {
			v, w := make([]float64, size), make([]float32, size)
			for i := range v {
				v[i], w[i] = math.NaN(), float32(math.NaN())
			}
			tensor.PutStorage(v)
			tensor.PutStorage(w)
		}
	}
}

// Storage from the pool is scratch: with a NaN-primed model recycled per
// client and NaN-filled storage primed at every length the fleet keeps,
// TestLazyBudgetByteIdentity's runs give the bits they give without it —
// metrics, trace and every touched client's final state — under every
// scheduler, at budget ∞ and at budget 2, where every later build also
// takes an evicted client's model.
func TestRecycledStorageIsScratch(t *testing.T) {
	for _, kind := range []SchedulerKind{SchedSync, SchedAsyncBounded, SchedSemiSync} {
		t.Run(kind.String(), func(t *testing.T) {
			run := func(resident int) ([]RoundMetrics, *Trace, []ClientRecord) {
				tr := &Trace{}
				sim := NewLazySimulation(12, lazyTestBuilder(t, 12), resident, Config{
					Rounds: 4, SampleRate: 0.5, BatchSize: 8, Seed: 11,
				})
				hist, err := sim.RunScheduled(&trainAlgo{}, SchedulerConfig{Kind: kind, Trace: tr})
				if err != nil {
					t.Fatal(err)
				}
				states, err := sim.store.CaptureTouched()
				if err != nil {
					t.Fatal(err)
				}
				return hist, tr, states
			}
			want, wantTr, wantStates := run(0)
			build := lazyTestBuilder(t, 12)
			for _, resident := range []int{0, 2} {
				fleet := make([]*Client, 12)
				for i := range fleet {
					fleet[i] = build(i)
				}
				primeNaN(fleet)
				got, tr, states := run(resident)
				if !reflect.DeepEqual(states, wantStates) {
					t.Fatalf("budget %d on NaN-primed storage left different client states", resident)
				}
				if !reflect.DeepEqual(tr, wantTr) {
					t.Fatalf("budget %d on NaN-primed storage produced a different scheduler trace", resident)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("budget %d on NaN-primed storage produced different metrics:\n%+v\nvs\n%+v", resident, got, want)
				}
			}
		})
	}
}

// clientRecord returns c's state as the record bytes encodeClient writes:
// the comparator for a client's whole state.
func clientRecord(t testing.TB, c *Client) []byte {
	t.Helper()
	var sb spillBuf
	if err := sb.encodeClient(&resident{c: c}); err != nil {
		t.Fatal(err)
	}
	return sb.rec
}

// Evaluation changes nothing a spill record holds — the fact a clean entry's
// eviction by forgetting rests on. For every architecture at f64 and f32, a
// client that has trained encodes to the same record bytes (parameters,
// buffers, RNG position, optimizer moments) before and after EvalAccuracy.
func TestEvalMutatesNothing(t *testing.T) {
	ds := data.Generate(data.SynthFashion(6, 4, 3))
	parts, err := data.Partition(ds, 2, data.PartitionOptions{Kind: data.Dirichlet, Alpha: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	archs := []models.Arch{models.ArchMLP, models.ArchAlexNet, models.ArchResNet, models.ArchShuffleNet, models.ArchGoogLeNet, models.ArchCNN2}
	for _, arch := range archs {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			t.Run(fmt.Sprintf("%v/%v", arch, dt), func(t *testing.T) {
				rng, src := xrand.NewRand(3)
				c := &Client{
					Model: models.New(models.Config{
						Arch: arch, InC: ds.C, InH: ds.H, InW: ds.W, FeatDim: 8, NumClasses: ds.NumClasses, Hidden: 12, DType: dt,
					}, xrand.New(5)),
					Train: parts[0].Train, Test: parts[0].Test,
					Aug: data.NewAugmenter(ds.C, ds.H, ds.W), Rng: rng, Src: src,
					Optimizer: opt.NewAdam(0.01),
				}
				if len(c.Test) == 0 {
					t.Fatal("the client has no test examples — the evaluation reads nothing")
				}
				c.TrainEpochCE(8)
				before := clientRecord(t, c)
				c.EvalAccuracy()
				if !bytes.Equal(clientRecord(t, c), before) {
					t.Fatal("EvalAccuracy changed the client's spill record")
				}
			})
		}
	}
}

// Churned clients appear as NaN in PerClient and are excluded from the
// mean — the inproc engine's evaluation must match the node runtime's
// semantics (DESIGN.md §9).
func TestEvaluateChurnExclusion(t *testing.T) {
	clients := testFleet(t, 4)
	sim := NewSimulation(clients, Config{Rounds: 1, Seed: 1})
	away := []float64{0, 5, 0, 5} // clients 1 and 3 away past now=1
	m := sim.evaluateWith(away, 1)
	if len(m.PerClient) != 4 {
		t.Fatalf("PerClient has %d entries", len(m.PerClient))
	}
	if !math.IsNaN(m.PerClient[1]) || !math.IsNaN(m.PerClient[3]) {
		t.Fatalf("away clients not NaN: %v", m.PerClient)
	}
	wantMean, wantStd := MeanStd([]float64{m.PerClient[0], m.PerClient[2]})
	if m.MeanAcc != wantMean || m.StdAcc != wantStd {
		t.Fatalf("churned clients leaked into the moments: got %v ± %v, want %v ± %v",
			m.MeanAcc, m.StdAcc, wantMean, wantStd)
	}
	// Zero churn: identical to the churn-free evaluation, byte for byte.
	clean := sim.evaluateWith(make([]float64, 4), 1)
	plain := sim.Evaluate()
	if !reflect.DeepEqual(clean, plain) {
		t.Fatal("zero-churn evaluation differs from the churn-free path")
	}
}

// Sampled evaluation draws from its own RNG stream: it must not perturb
// cohort sampling, and the sample must be recorded in EvalIDs.
func TestEvalSampleStreamIsolated(t *testing.T) {
	cohorts := func(evalSample int) [][]int {
		sim := NewLazySimulation(20, lazyTestBuilder(t, 20), 0, Config{
			Rounds: 3, SampleRate: 0.25, BatchSize: 8, Seed: 11, EvalSample: evalSample,
		})
		var got [][]int
		for r := 0; r < 3; r++ {
			got = append(got, sim.sampleParticipants())
			m := sim.Evaluate()
			if evalSample > 0 {
				if len(m.EvalIDs) != evalSample || len(m.PerClient) != evalSample {
					t.Fatalf("eval sampled %d ids, %d accs; want %d", len(m.EvalIDs), len(m.PerClient), evalSample)
				}
			}
		}
		return got
	}
	if !reflect.DeepEqual(cohorts(3), cohorts(5)) {
		t.Fatal("changing EvalSample perturbed the cohort sampling stream")
	}
}
