// Package repro's root benchmark harness: one testing.B benchmark per table
// and figure of the paper's evaluation, each running the corresponding
// experiment at the tiny scale (see DESIGN.md §3 for the experiment index
// and cmd/tables / cmd/figures for the full-scale reproductions).
package repro

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/transport"
)

func benchScale() experiments.Scale {
	s := experiments.Tiny()
	s.Rounds = 2
	return s
}

func runMethod(b *testing.B, method string, fleetKind string) {
	b.Helper()
	s := benchScale()
	var factory experiments.ClientFactory
	switch fleetKind {
	case "het":
		factory, _, _ = experiments.NewHeterogeneousFleet(experiments.Fashion, data.Dirichlet, s.Clients, s)
	case "hom":
		factory, _, _ = experiments.NewHomogeneousFleet(experiments.Fashion, data.Dirichlet, s.Clients, s)
	case "proto":
		factory, _, _ = experiments.NewProtoFleet(experiments.Fashion, data.Dirichlet, s.Clients, s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(method, experiments.Fashion, factory, s, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

// runThroughput measures committed rounds per unit of virtual cluster time
// for one scheduler over a homogeneous fleet with a 2×-slow straggler; the
// rounds/vtime metric is what the sync-vs-async comparison reads.
func runThroughput(b *testing.B, kind fl.SchedulerKind) {
	b.Helper()
	s := benchScale()
	s.Rounds = 6
	factory, _, err := experiments.NewHomogeneousFleet(experiments.Fashion, data.Dirichlet, s.Clients, s)
	if err != nil {
		b.Fatal(err)
	}
	sched := fl.SchedulerConfig{
		Kind:  kind,
		Decay: 0.5,
		Costs: experiments.StragglerCosts(s.Clients, 1, 2),
	}
	var simTime float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hist, err := experiments.RunScheduled(experiments.MethodFedAvg, experiments.Fashion, factory, s, 1.0, sched, comm.Spec{Value: comm.F64})
		if err != nil {
			b.Fatal(err)
		}
		simTime = hist[len(hist)-1].SimTime
	}
	if simTime > 0 {
		b.ReportMetric(float64(s.Rounds)/simTime, "rounds/vtime")
	}
}

// --- Scheduler round throughput under straggler heterogeneity ---

func BenchmarkRoundThroughputSync(b *testing.B)  { runThroughput(b, fl.SchedSync) }
func BenchmarkRoundThroughputAsync(b *testing.B) { runThroughput(b, fl.SchedAsyncBounded) }
func BenchmarkRoundThroughputSemiSync(b *testing.B) {
	runThroughput(b, fl.SchedSemiSync)
}

// BenchmarkRoundThroughput10k runs rounds over a 10 000-client virtual
// fleet at cohort-proportional cost: clients materialize on dispatch and at
// most 64 stay resident. The interesting number is that this completes at
// all in benchmark time — an eager fleet of this size would spend the whole
// budget constructing 10 000 models.
func BenchmarkRoundThroughput10k(b *testing.B) {
	s := benchScale()
	const k = 10_000
	build, _, err := experiments.NewLazyFleetBuilder(experiments.Fashion, data.Dirichlet, "homogeneous", k, s)
	if err != nil {
		b.Fatal(err)
	}
	sched := fl.SchedulerConfig{Kind: fl.SchedSync}
	var simTime float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hist, err := experiments.RunLazyScheduled(experiments.MethodFedAvg, experiments.Fashion, build, k, s, 0.0008, 64, 0, sched, comm.Spec{Value: comm.F64})
		if err != nil {
			b.Fatal(err)
		}
		simTime = hist[len(hist)-1].SimTime
	}
	if simTime > 0 {
		b.ReportMetric(float64(s.Rounds)/simTime, "rounds/vtime")
	}
}

// BenchmarkRoundThroughputTree runs the 2-level aggregation tree — a root
// server, two edge aggregators and the client nodes, all over the inproc
// transport — so the hierarchical wire path's round cost sits in the same
// BENCH file as the flat schedulers it amortizes.
func BenchmarkRoundThroughputTree(b *testing.B) {
	s := benchScale()
	build, _, err := experiments.NewFleetBuilder(experiments.Fashion, data.Dirichlet, "homogeneous", s.Clients, s)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunTreeNodes(context.Background(), experiments.MethodFedAvg, experiments.Fashion,
			build, s.Clients, 2, s, 1.0, comm.Spec{Value: comm.F64}, transport.NewInproc(transport.Options{}), "bench-tree")
		if err != nil {
			b.Fatal(err)
		}
	}
}

// lazyRunHeap runs a short lazy-fleet experiment at fleet size k with a
// fixed cohort size and returns the live heap while the simulation is still
// reachable — the memory the virtual fleet actually retains.
func lazyRunHeap(t *testing.T, k int, rate float64) uint64 {
	t.Helper()
	s := benchScale()
	build, _, err := experiments.NewLazyFleetBuilder(experiments.Fashion, data.Dirichlet, "homogeneous", k, s)
	if err != nil {
		t.Fatal(err)
	}
	algo, err := experiments.NewAlgorithm(experiments.MethodBaseline, experiments.Fashion, s)
	if err != nil {
		t.Fatal(err)
	}
	sim := fl.NewLazySimulation(k, build, 16, fl.Config{
		Rounds: s.Rounds, SampleRate: rate, BatchSize: s.BatchSize, Seed: s.Seed + 7,
	})
	if _, err := sim.RunScheduled(algo, fl.SchedulerConfig{Kind: fl.SchedSync}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(sim)
	return ms.HeapAlloc
}

// TestLazyFleetMemorySublinear is the memory gate of the virtual-fleet
// contract: growing the fleet 10× at a fixed cohort size must not grow the
// retained heap anywhere near 10×. The bookkeeping that legitimately scales
// with N (per-client churn/idle arrays, ~9 bytes each) is far below the
// ~10× model-state blowup an eager fleet would show.
func TestLazyFleetMemorySublinear(t *testing.T) {
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	// Rate scales inversely with fleet size: cohort = ⌈k·rate⌉ = 10 both times.
	h10k := lazyRunHeap(t, 10_000, 0.001)
	h100k := lazyRunHeap(t, 100_000, 0.0001)
	grow10k := int64(h10k) - int64(base.HeapAlloc)
	grow100k := int64(h100k) - int64(base.HeapAlloc)
	if grow10k < 0 {
		grow10k = 0
	}
	const slack = 8 << 20
	if grow100k > 3*grow10k+slack {
		t.Fatalf("10× fleet grew retained heap %d → %d bytes — memory is not cohort-proportional", grow10k, grow100k)
	}
}

// lazyAsyncRunHeap runs the async lazy fleet (fixed size, cohort and resident
// budget, with churn) for the given number of commits and returns the live
// heap while the simulation is still reachable, with how many clients the
// run touched.
func lazyAsyncRunHeap(t *testing.T, commits int) (heap uint64, touched int) {
	t.Helper()
	const k, rate, resident = 2000, 0.002, 8
	s := benchScale()
	build, _, err := experiments.NewLazyFleetBuilder(experiments.Fashion, data.Dirichlet, "homogeneous", k, s)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	var mu sync.Mutex
	counted := func(i int) *fl.Client {
		mu.Lock()
		seen[i] = true
		mu.Unlock()
		return build(i)
	}
	algo, err := experiments.NewAlgorithm(experiments.MethodBaseline, experiments.Fashion, s)
	if err != nil {
		t.Fatal(err)
	}
	// One evaluation, at the end: the metrics history must not be what grows.
	sim := fl.NewLazySimulation(k, counted, resident, fl.Config{
		Rounds: commits, SampleRate: rate, BatchSize: s.BatchSize, Seed: s.Seed + 7, EvalEvery: commits,
	})
	sched := fl.SchedulerConfig{Kind: fl.SchedAsyncBounded, LeaveProb: 0.1, RejoinAfter: 2}
	if _, err := sim.RunScheduled(algo, sched); err != nil {
		t.Fatal(err)
	}
	touched = len(seen)
	seen = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(sim)
	return ms.HeapAlloc, touched
}

// TestLazyFleetMemoryFlatInCommits is the other half of the virtual-fleet
// memory contract: at a fixed fleet, cohort and resident budget, running ten
// times as many commits touches several times as many clients, and each of
// them may cost the heap an index entry — not its parameters and optimizer
// moments (~1 MB for this model), which are on disk once it is evicted.
func TestLazyFleetMemoryFlatInCommits(t *testing.T) {
	const commits = 12
	short, touchedShort := lazyAsyncRunHeap(t, commits)
	long, touchedLong := lazyAsyncRunHeap(t, 10*commits)
	newly := touchedLong - touchedShort
	if newly < 4*touchedShort {
		t.Fatalf("10× the commits touched %d → %d clients — the long run exercises nothing new", touchedShort, touchedLong)
	}
	t.Logf("touched %d → %d, heap %d → %d", touchedShort, touchedLong, short, long)
	const perClient, slack = 32, 1 << 20
	if grow := int64(long) - int64(short); grow > int64(perClient*newly+slack) {
		t.Fatalf("%d more touched clients grew the retained heap by %d bytes (%d → %d), over %d B each + %d",
			newly, grow, short, long, perClient, slack)
	}
}

// --- Quantized codec hot path ---

func BenchmarkQuantizedMarshalI8(b *testing.B) {
	payload := make([]float64, 4096)
	rng := rand.New(rand.NewSource(1))
	for i := range payload {
		payload[i] = rng.NormFloat64()
	}
	spec := comm.Spec{Value: comm.I8}
	var frame []byte
	var scratch []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame = comm.MarshalSpecInto(frame[:0], spec, 1, payload, nil)
		_, v, err := comm.DecodeSpec(scratch, frame, nil)
		if err != nil {
			b.Fatal(err)
		}
		scratch = v
	}
}

// BenchmarkMarshalTopK measures the sparse encode hot path — top-k
// selection plus varint-delta index packing into a reused buffer — and
// reports the frame size so -compare catches both speed and density
// regressions.
func BenchmarkMarshalTopK(b *testing.B) {
	payload := make([]float64, 4096)
	rng := rand.New(rand.NewSource(1))
	for i := range payload {
		payload[i] = rng.NormFloat64()
	}
	spec := comm.NewSpec(comm.F32, 0.05, false)
	buf := make([]byte, 0, comm.MarshalSpecBound(spec, len(payload)))
	b.ResetTimer()
	var frame []byte
	for i := 0; i < b.N; i++ {
		frame = comm.MarshalSpecInto(buf[:0], spec, 1, payload, nil)
	}
	b.ReportMetric(float64(len(frame)), "frame-B/op")
}

// BenchmarkDecodeDelta measures the delta decode hot path: fold a residual
// frame into the connection's basis. Encoder and decoder bases advance in
// lockstep outside the timed region's allocations (scratch is reused), so
// steady state is zero-alloc.
func BenchmarkDecodeDelta(b *testing.B) {
	payload := make([]float64, 4096)
	rng := rand.New(rand.NewSource(1))
	for i := range payload {
		payload[i] = rng.NormFloat64()
	}
	spec := comm.NewSpec(comm.I8, 0, true)
	encRef := &comm.DeltaRef{}
	decRef := &comm.DeltaRef{}
	buf := make([]byte, 0, comm.MarshalSpecBound(spec, len(payload)))
	// Establish the basis on both ends, then pre-encode one residual frame.
	basis := comm.MarshalSpecInto(buf[:0], spec, 1, payload, encRef)
	scratch := make([]float64, len(payload))
	if _, _, err := comm.DecodeSpec(scratch, basis, decRef); err != nil {
		b.Fatal(err)
	}
	for i := range payload {
		payload[i] += 0.01 * rng.NormFloat64()
	}
	frame := append([]byte(nil), comm.MarshalSpecInto(buf[:0], spec, 1, payload, encRef)...)
	savedTag, savedBase := decRef.Tag, append([]float64(nil), decRef.Base...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := comm.DecodeSpec(scratch, frame, decRef); err != nil {
			b.Fatal(err)
		}
		// Rewind the basis so every iteration decodes the same frame.
		decRef.Tag = savedTag
		copy(decRef.Base, savedBase)
	}
	b.ReportMetric(float64(len(frame)), "frame-B/op")
}

// --- Table 2: heterogeneous personalized FL (one bench per method) ---

func BenchmarkTable2_Baseline(b *testing.B) { runMethod(b, experiments.MethodBaseline, "het") }
func BenchmarkTable2_FedProto(b *testing.B) { runMethod(b, experiments.MethodFedProto, "proto") }
func BenchmarkTable2_KTpFL(b *testing.B)    { runMethod(b, experiments.MethodKTpFL, "het") }
func BenchmarkTable2_Proposed(b *testing.B) { runMethod(b, experiments.MethodProposed, "het") }

// --- Table 3: homogeneous FL ---

func BenchmarkTable3_FedAvg(b *testing.B)  { runMethod(b, experiments.MethodFedAvg, "hom") }
func BenchmarkTable3_FedProx(b *testing.B) { runMethod(b, experiments.MethodFedProx, "hom") }
func BenchmarkTable3_KTpFLWeight(b *testing.B) {
	runMethod(b, experiments.MethodKTpFLWeight, "hom")
}
func BenchmarkTable3_ProposedWeight(b *testing.B) {
	runMethod(b, experiments.MethodProposedWeight, "hom")
}

// --- Table 4: ablation ---

func BenchmarkTable4_Ablation(b *testing.B) {
	s := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(s, []experiments.DatasetName{experiments.Fashion}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 5: communication cost ---

func BenchmarkTable5_CommCost(b *testing.B) {
	s := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5(s, experiments.CIFAR10); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 2/3: non-iid partitions ---

func BenchmarkFigure2_Partition(b *testing.B) {
	s := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure23(experiments.CIFAR10, data.Dirichlet, s.Clients, s)
		experiments.Figure23(experiments.CIFAR10, data.Skewed, s.Clients, s)
	}
}

func BenchmarkFigure3_PartitionEMNIST(b *testing.B) {
	s := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure23(experiments.EMNIST, data.Dirichlet, s.Clients, s)
		experiments.Figure23(experiments.EMNIST, data.Skewed, s.Clients, s)
	}
}

// --- Figures 4/5: heterogeneous learning curves ---

func BenchmarkFigure4_Curves(b *testing.B) {
	s := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure45(experiments.Fashion, data.Dirichlet, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5_CurvesSkewed(b *testing.B) {
	s := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure45(experiments.Fashion, data.Skewed, s); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 6/7: homogeneous learning curves ---

func BenchmarkFigure6_Curves(b *testing.B) {
	s := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure67(experiments.Fashion, s.Clients, 1.0, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7_CurvesSampled(b *testing.B) {
	s := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure67(experiments.Fashion, s.LargeClients, 0.1, s); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 8: t-SNE feature clustering ---

func BenchmarkFigure8_TSNE(b *testing.B) {
	s := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure8(experiments.Fashion, s, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 9: layer conductance ---

func BenchmarkFigure9_Conductance(b *testing.B) {
	s := benchScale()
	s.Rounds = 3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure9(experiments.Fashion, s); err != nil {
			// At tiny scale a shared probe may not exist; that is a valid
			// outcome of the experiment, not a harness failure.
			b.Skipf("no shared probe at tiny scale: %v", err)
		}
	}
}

// --- Micro-benchmarks of the numerical substrate ---

func BenchmarkMatMul64(b *testing.B) {
	a := tensor.New(64, 64)
	c := tensor.New(64, 64)
	a.Fill(0.5)
	c.Fill(0.25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(a, c)
	}
}

// BenchmarkMatMulInto64 measures the steady-state (allocation-free) GEMM
// path the layers use.
func BenchmarkMatMulInto64(b *testing.B) {
	a := tensor.New(64, 64)
	c := tensor.New(64, 64)
	out := tensor.New(64, 64)
	a.Fill(0.5)
	c.Fill(0.25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(out, a, c)
	}
}

func BenchmarkConvForward(b *testing.B) {
	s := benchScale()
	factory, _, err := experiments.NewHeterogeneousFleet(experiments.Fashion, data.Dirichlet, s.Clients, s)
	if err != nil {
		b.Fatal(err)
	}
	c := factory()[0]
	x := tensor.New(8, 1, 12, 12)
	x.Fill(0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Model.Forward(x, true)
	}
}

// BenchmarkConvTrainStep measures one forward+backward pass of a single
// convolution layer on the batched im2col path.
func BenchmarkConvTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	layer := nn.NewConv2D(8, 16, 3, 1, 1, 1, rng)
	x := tensor.New(8, 8, 12, 12)
	x.FillRandn(rng, 1)
	grad := tensor.New(8, 16, 12, 12)
	grad.FillRandn(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layer.Forward(x, true)
		layer.Backward(grad)
	}
}

func BenchmarkClientLocalEpoch(b *testing.B) {
	s := benchScale()
	factory, _, err := experiments.NewHeterogeneousFleet(experiments.Fashion, data.Dirichlet, s.Clients, s)
	if err != nil {
		b.Fatal(err)
	}
	clients := factory()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clients[i%len(clients)].TrainEpochCE(s.BatchSize)
	}
}

// --- float32 fast path: the same hot paths at the narrow dtype ---

func BenchmarkMatMul32(b *testing.B) {
	a := tensor.NewOf(tensor.F32, 64, 64)
	c := tensor.NewOf(tensor.F32, 64, 64)
	a.Fill(0.5)
	c.Fill(0.25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(a, c)
	}
}

func BenchmarkMatMulInto32(b *testing.B) {
	a := tensor.NewOf(tensor.F32, 64, 64)
	c := tensor.NewOf(tensor.F32, 64, 64)
	out := tensor.NewOf(tensor.F32, 64, 64)
	a.Fill(0.5)
	c.Fill(0.25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(out, a, c)
	}
}

func BenchmarkConvForward32(b *testing.B) {
	s := benchScale()
	s.DType = tensor.F32
	factory, _, err := experiments.NewHeterogeneousFleet(experiments.Fashion, data.Dirichlet, s.Clients, s)
	if err != nil {
		b.Fatal(err)
	}
	c := factory()[0]
	x := tensor.NewOf(tensor.F32, 8, 1, 12, 12)
	x.Fill(0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Model.Forward(x, true)
	}
}

func BenchmarkConvTrainStep32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	layer := nn.NewConv2D(8, 16, 3, 1, 1, 1, rng)
	nn.ConvertParams(layer.Params(), tensor.F32)
	x := tensor.NewOf(tensor.F32, 8, 8, 12, 12)
	x.FillRandn(rng, 1)
	grad := tensor.NewOf(tensor.F32, 8, 16, 12, 12)
	grad.FillRandn(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layer.Forward(x, true)
		layer.Backward(grad)
	}
}

func BenchmarkClientLocalEpoch32(b *testing.B) {
	s := benchScale()
	s.DType = tensor.F32
	factory, _, err := experiments.NewHeterogeneousFleet(experiments.Fashion, data.Dirichlet, s.Clients, s)
	if err != nil {
		b.Fatal(err)
	}
	clients := factory()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clients[i%len(clients)].TrainEpochCE(s.BatchSize)
	}
}

func BenchmarkClassifierAveraging(b *testing.B) {
	s := benchScale()
	factory, _, err := experiments.NewHeterogeneousFleet(experiments.Fashion, data.Dirichlet, s.Clients, s)
	if err != nil {
		b.Fatal(err)
	}
	clients := factory()
	dst := clients[0].Model.ClassifierParams()
	srcs := make([][]*nn.Param, len(clients))
	weights := make([]float64, len(clients))
	for i, c := range clients {
		srcs[i] = c.Model.ClassifierParams()
		weights[i] = 1 / float64(len(clients))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := nn.AverageInto(dst, srcs, weights); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactPreReduce is one edge aggregator's round on the tree at the
// benchmark fleet's geometry: four children's 107 722-weight uploads folded
// exactly into a reused accumulator and rounded once.
func BenchmarkExactPreReduce(b *testing.B) {
	const d, children = 107722, 4
	rng := rand.New(rand.NewSource(1))
	vecs := make([][]float64, children)
	for c := range vecs {
		vecs[c] = make([]float64, d)
		for i := range vecs[c] {
			vecs[c][i] = 0.05 * rng.NormFloat64()
		}
	}
	acc := fl.NewExactAccumulator(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Reset()
		for _, v := range vecs {
			acc.Fold(v, 30)
		}
		acc.Round()
	}
}

// Sanity guard: the bench harness itself must produce valid accuracies.
func TestBenchHarnessSanity(t *testing.T) {
	s := benchScale()
	factory, _, err := experiments.NewHeterogeneousFleet(experiments.Fashion, data.Dirichlet, s.Clients, s)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := experiments.Run(experiments.MethodProposed, experiments.Fashion, factory, s, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	fin := experiments.Final(hist)
	if fin.MeanAcc < 0 || fin.MeanAcc > 1 || fin.UpBytes <= 0 {
		t.Fatalf("bad metrics: %+v", fin)
	}
	var _ []*fl.Client = factory()
	var _ = models.ArchResNet
}
