// Package repro's root microbenchmarks: the kernel, layer, local-epoch, codec
// and fold hot paths, each paired with the allocs/op figure it must hold
// (TestHotPathAllocs), plus the virtual-fleet memory gates. Whole-round and
// end-to-end measurement lives in benchmark/ (BENCHMARK.json); the paper's
// tables and figures run from cmd/tables and cmd/figures.
package repro

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
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

// A hotPath is one gated microbenchmark. setup builds the operands and
// returns the timed operation; allocs is its allocs/op at one worker, as
// measured (CI runs the gate at GOMAXPROCS=1), and loops bounds how many
// parallel loops the operation runs: beyond one worker each of them may
// allocate its range closure and a task closure per worker. (The worker
// pool's dispatch and the GEMM launches no longer allocate in steady state,
// so the allowance is an upper bound.)
type hotPath struct {
	name   string
	setup  func(tb testing.TB) func()
	allocs float64
	loops  float64
}

var hotPaths = []hotPath{
	{"MatMul64", matMul(tensor.F64, false), 3, 1},
	{"MatMul32", matMul(tensor.F32, false), 3, 1},
	{"MatMulInto64", matMul(tensor.F64, true), 0, 1},
	{"MatMulInto32", matMul(tensor.F32, true), 0, 1},
	{"MatMulForms", matMulForms, 0, float64(2 * len(gemmForms))},
	{"ConvForward", convForward(tensor.F64), 0, 8},
	{"ConvForward32", convForward(tensor.F32), 0, 8},
	{"ConvTrainStep", convTrainStep(tensor.F64), 0, 5},
	{"ConvTrainStep32", convTrainStep(tensor.F32), 0, 5},
	{"ClientLocalEpoch", clientLocalEpoch(tensor.F64), 0, 50},
	{"ClientLocalEpoch32", clientLocalEpoch(tensor.F32), 0, 50},
	// The method's per-call lists around the epochs: the group, its refs
	// and classifier lists, the update list, the updates and their upload
	// views. The classifiers' parameter lists are the models' own.
	{"ClientLocalEpochGroup", clientLocalEpochGroup, 8, 270},
	// One range closure per fold: benchFleet's four uploads and the commit.
	{"ClassifierAveraging", classifierAveraging, 5, 5},
	{"ExactPreReduce", exactPreReduce, 0, 0},
	{"QuantizedMarshalI8", codecRoundTrip(comm.Spec{Value: comm.I8}), 0, 0},
	{"MarshalTopK", codecRoundTrip(comm.NewSpec(comm.F32, 0.05, false)), 0, 0},
	{"DecodeDelta", codecRoundTrip(comm.NewSpec(comm.I8, 0, true)), 0, 0},
	{"TopKDeltaEncode", topKDelta("log-normal", false), 0, 0},
	{"TopKDeltaDecode", topKDelta("log-normal", true), 0, 0},
}

func bench(b *testing.B, name string) {
	for _, h := range hotPaths {
		if h.name == name {
			timeOp(b, h.setup)
			return
		}
	}
	b.Fatalf("no hot path %q", name)
}

// timeOp times the operation setup returns, its operands built off the clock.
func timeOp(b *testing.B, setup func(testing.TB) func()) {
	op := setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkMatMul64(b *testing.B)              { bench(b, "MatMul64") }
func BenchmarkMatMul32(b *testing.B)              { bench(b, "MatMul32") }
func BenchmarkMatMulInto64(b *testing.B)          { bench(b, "MatMulInto64") }
func BenchmarkMatMulInto32(b *testing.B)          { bench(b, "MatMulInto32") }
func BenchmarkConvForward(b *testing.B)           { bench(b, "ConvForward") }
func BenchmarkConvForward32(b *testing.B)         { bench(b, "ConvForward32") }
func BenchmarkConvTrainStep(b *testing.B)         { bench(b, "ConvTrainStep") }
func BenchmarkConvTrainStep32(b *testing.B)       { bench(b, "ConvTrainStep32") }
func BenchmarkClientLocalEpoch(b *testing.B)      { bench(b, "ClientLocalEpoch") }
func BenchmarkClientLocalEpoch32(b *testing.B)    { bench(b, "ClientLocalEpoch32") }
func BenchmarkClientLocalEpochGroup(b *testing.B) { bench(b, "ClientLocalEpochGroup") }
func BenchmarkClassifierAveraging(b *testing.B)   { bench(b, "ClassifierAveraging") }
func BenchmarkQuantizedMarshalI8(b *testing.B)    { bench(b, "QuantizedMarshalI8") }
func BenchmarkMarshalTopK(b *testing.B)           { bench(b, "MarshalTopK") }
func BenchmarkDecodeDelta(b *testing.B)           { bench(b, "DecodeDelta") }
func BenchmarkExactPreReduce(b *testing.B)        { bench(b, "ExactPreReduce") }

// BenchmarkTopKDeltaEncode and its Decode twin time the sparse uplink's codec
// per residual class: the typical one and the three a radix select must not
// degenerate on.
func BenchmarkTopKDeltaEncode(b *testing.B) { benchTopKDelta(b, false) }
func BenchmarkTopKDeltaDecode(b *testing.B) { benchTopKDelta(b, true) }

func benchTopKDelta(b *testing.B, decode bool) {
	for _, class := range []string{"log-normal", "single binade", "mostly zero", "all equal"} {
		b.Run(class, func(b *testing.B) { timeOp(b, topKDelta(class, decode)) })
	}
}

// TestHotPathAllocs moves the one portable gate of the retired bench-compare
// job into go test: every hot path holds its recorded steady-state allocs/op
// (exactly 0 where that was the figure).
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool puts; the alloc gate runs without -race")
	}
	for _, h := range hotPaths {
		op := h.setup(t)
		for i := 0; i < 4; i++ {
			op() // size the cached workspaces (of each of the fleet's four models)
		}
		want := h.allocs
		if w := tensor.Workers(); w > 1 {
			want += h.loops * float64(1+w)
		}
		if got := testing.AllocsPerRun(40, op); got > want {
			t.Errorf("%s: %v allocs/op, want <= %v", h.name, got, want)
		}
	}
}

// TestWireRoundAllocs is the node wire path's allocation gate: what one
// committed round allocates, process-wide, once every owned buffer has come
// into being. The fleet is the wire benchmark workloads' — 8 FedAvg MLP
// clients at FeatDim 64, d = 107 722 weights, 862 KB a vector — run 12 sync
// rounds in this process over the three shapes those workloads take. Each
// round trains, uploads, folds, broadcasts and evaluates; with a fresh frame
// per message, a copy per inproc send and fresh vectors per decode the
// figures were ≈ 48, ≈ 74 and ≈ 31 MB, and ≈ 0.31 MB on each row while
// training still allocated its views, loss gradients and per-step lists.
// What is left is small envelopes, ≈ 0.01 MB on each row. An inproc send
// now copies only control frames: a model-sized frame is lent and crosses
// its lane as it lies (TestInprocLanesKeepNoModelBuffer). The gate is the
// median round: above one worker the nodes' goroutines overlap differently
// every round, and a round that meets a new high-water mark of vectors in
// flight grows a role's free list by one 862 KB vector (rounds of ≈ 1 MB as
// late as round 11 at 4 workers here), and more passes than ever before run
// at once and take an arena each — buffers coming into being, not garbage.
// A round that allocates shows in every round, so in the median.
func TestWireRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime inflates every allocation; the alloc gate runs without -race")
	}
	const rounds, warm, maxMB = 12, 3, 0.1
	for _, f := range wireFleets {
		t.Run(f.name, func(t *testing.T) {
			var total []uint64 // TotalAlloc as each round commits
			runWireFleet(t, f, rounds, nil, func() {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				total = append(total, ms.TotalAlloc)
			})
			if len(total) != rounds {
				t.Fatalf("%d rounds committed, want %d", len(total), rounds)
			}
			var perRound []float64
			for i := warm; i < rounds; i++ {
				perRound = append(perRound, float64(total[i]-total[i-1])/(1<<20))
			}
			slices.Sort(perRound)
			median := perRound[len(perRound)/2]
			mean := float64(total[rounds-1]-total[warm-1]) / float64(rounds-warm) / (1 << 20)
			t.Logf("%.3f MB allocated in the median round of rounds %d-%d (mean %.3f)", median, warm+1, rounds, mean)
			if median > maxMB {
				t.Errorf("%.3f MB allocated in the median round, want <= %v", median, maxMB)
			}
		})
	}
}

// BenchmarkWireRound times one committed sync round of each wire fleet
// (TestWireRoundAllocs'), after three warm-up rounds: ns/op is the wall
// time from the third round's commit to the last one's over b.N rounds,
// and B/op and allocs/op are what the whole process allocated over them,
// per round.
func BenchmarkWireRound(b *testing.B) {
	const warm = 3
	for _, f := range wireFleets {
		b.Run(f.name, func(b *testing.B) {
			var start, end time.Time
			var ms0, ms1 runtime.MemStats
			n := 0
			runWireFleet(b, f, warm+b.N, nil, func() {
				if n++; n == warm {
					runtime.ReadMemStats(&ms0)
					start = time.Now()
				}
				end = time.Now()
				runtime.ReadMemStats(&ms1)
			})
			per := func(x uint64) float64 { return float64(x) / float64(b.N) }
			b.ReportMetric(float64(end.Sub(start).Nanoseconds())/float64(b.N), "ns/op")
			b.ReportMetric(per(ms1.TotalAlloc-ms0.TotalAlloc), "B/op")
			b.ReportMetric(per(ms1.Mallocs-ms0.Mallocs), "allocs/op")
		})
	}
}

// wireFleet is one shape the wire benchmark workloads take: transport,
// topology and framing.
type wireFleet struct {
	name string
	tcp  bool
	aggs int
	spec comm.Spec
}

var wireFleets = []wireFleet{
	{"inproc flat dense f64", false, 0, comm.Spec{}},
	{"inproc tree dense f64", false, 2, comm.Spec{}},
	{"tcp flat topk+delta f32", true, 0, comm.NewSpec(comm.F32, 0.05, true)},
}

// runWireFleet runs the wire workloads' fleet — 8 FedAvg MLP clients at
// FeatDim 64, d = 107 722 weights, 862 KB a vector — for rounds sync rounds
// in this process over f, calling onRound as each round commits. Each round
// trains, uploads, folds, broadcasts and evaluates. wrap, when set, wraps
// the transport the nodes connect over.
func runWireFleet(tb testing.TB, f wireFleet, rounds int, wrap func(transport.Transport) transport.Transport, onRound func()) {
	const clients = 8
	s := experiments.Small()
	s.Rounds, s.FeatDim, s.TrainPerClass, s.TestPerClass = rounds, 64, 24, 16
	factory, _, err := experiments.NewRotationFleet(experiments.Fashion, data.Dirichlet, clients, s,
		[]models.Arch{models.ArchMLP}, []int{8})
	if err != nil {
		tb.Fatal(err)
	}
	fleet := factory()
	build := func(i int) *fl.Client { return fleet[i] }
	if d := nn.NumParams(fleet[0].Model.Params()); d != 107722 {
		tb.Fatalf("fleet geometry drifted: d = %d, the benchmark's is 107722", d)
	}
	opts := transport.Options{DType: s.DType, Spec: f.spec}
	var tr transport.Transport = transport.NewInproc(opts)
	addr := "allocs"
	if f.tcp {
		tr, addr = transport.NewTCP(opts), "127.0.0.1:0"
	}
	if wrap != nil {
		tr = wrap(tr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	tree := func(cfg *fl.NodeConfig) { cfg.Aggregators = f.aggs }
	sample := func(cfg *fl.NodeConfig) { cfg.OnRound = func(fl.RoundMetrics) { onRound() } }
	if _, err := experiments.RunNodes(ctx, experiments.MethodFedAvg, experiments.Fashion, build, clients, s, 1, f.spec, tr, addr, tree, sample); err != nil {
		tb.Fatal(err)
	}
}

// TestInprocLanesKeepNoModelBuffer checks that a model-sized frame crosses
// an inproc lane without a copy. On the inproc tree row of the wire fleet —
// 10 connections, 8 client–aggregator and 2 aggregator–root, so 20 lanes —
// no lane keeps a spare buffer of a model frame's size once the warm rounds
// are done: every model-sized frame (join, upload, aggregate, dispatch) is
// lent, so a lane carries it as it lies and only frames in flight hold model
// memory. While every Send copied, each lane kept one: 0.86 MB on 18 lanes
// and 3.4 MB on the two aggregator→root lanes, grown by the 4-child tree
// joins and reused for the aggregates.
func TestInprocLanesKeepNoModelBuffer(t *testing.T) {
	const rounds, warm, modelSized = 6, 3, 64 << 10
	rec := &connRecorder{}
	wrap := func(tr transport.Transport) transport.Transport {
		rec.Transport = tr
		return rec
	}
	n, worst := 0, 0
	read := func() {
		for _, c := range rec.all() {
			for _, b := range transport.LaneSpares(c) {
				worst = max(worst, b)
			}
		}
	}
	runWireFleet(t, wireFleets[1], rounds, wrap, func() {
		if n++; n > warm {
			read()
		}
	})
	read()
	if got := len(rec.all()); got != 20 {
		t.Fatalf("%d connection ends recorded, want 20 (10 connections)", got)
	}
	if worst >= modelSized {
		t.Fatalf("a lane keeps a spare %d-byte buffer after the warm rounds; want every one under %d bytes", worst, modelSized)
	}
	t.Logf("largest spare lane buffer after round %d: %d bytes", warm, worst)
}

// connRecorder wraps a transport and keeps every connection end it dials or
// accepts.
type connRecorder struct {
	transport.Transport
	mu    sync.Mutex
	conns []transport.Conn
}

func (r *connRecorder) add(c transport.Conn, err error) (transport.Conn, error) {
	if err == nil {
		r.mu.Lock()
		r.conns = append(r.conns, c)
		r.mu.Unlock()
	}
	return c, err
}

func (r *connRecorder) all() []transport.Conn {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.conns)
}

func (r *connRecorder) Dial(ctx context.Context, addr string) (transport.Conn, error) {
	return r.add(r.Transport.Dial(ctx, addr))
}

func (r *connRecorder) Listen(addr string) (transport.Listener, error) {
	ln, err := r.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &recordingListener{Listener: ln, r: r}, nil
}

type recordingListener struct {
	transport.Listener
	r *connRecorder
}

func (l *recordingListener) Accept() (transport.Conn, error) { return l.r.add(l.Listener.Accept()) }

// roundSampler is FedClassAvg with the process's TotalAlloc read as each
// sync round opens; embedding the concrete type keeps every optional
// interface satisfied.
type roundSampler struct {
	*core.FedClassAvg
	total []uint64
}

func (r *roundSampler) Round(sim *fl.Simulation, round int, participants []int) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.total = append(r.total, ms.TotalAlloc)
	return r.FedClassAvg.Round(sim, round, participants)
}

// TestSyncRoundAllocs is the in-process engine's allocation gate: what one
// sync round of the het_sync fleet — 8 heterogeneous clients under
// FedClassAvg at Small scale, two augmented views, SupCon and the proximal
// pull — allocates once the arenas, the layers and the clients' kept lists
// have grown to size. A round trains every client, folds the classifiers and
// evaluates. While each view, each loss gradient and each step's lists were
// allocated fresh it was ≈ 0.70 MB a round; it is ≈ 0.01 MB. It holds at
// every worker count: groups training in parallel take separate arenas, and
// each pass takes the free arena nearest the most its model has leased at
// once (tensor.TakeArena), so an arena does not grow to every group's
// layout in turn. While one pool served every pass, parallel groups met new
// high-water marks for many rounds (single rounds of up to 5 MB at 4
// workers) and the gate ran its groups one at a time.
func TestSyncRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime inflates every allocation; the alloc gate runs without -race")
	}
	const rounds, warm, maxMB = 8, 3, 0.05
	s := experiments.Small()
	s.Rounds = rounds
	factory, _, err := experiments.NewHeterogeneousFleet(experiments.Fashion, data.Dirichlet, s.Clients, s)
	if err != nil {
		t.Fatal(err)
	}
	algo, err := experiments.NewAlgorithm(experiments.MethodProposed, experiments.Fashion, s)
	if err != nil {
		t.Fatal(err)
	}
	r := &roundSampler{FedClassAvg: algo.(*core.FedClassAvg)}
	sim := fl.NewSimulation(factory(), fl.Config{Rounds: rounds, SampleRate: 1, BatchSize: s.BatchSize, Seed: s.Seed + 7})
	if _, err := sim.RunScheduled(r, fl.SchedulerConfig{Kind: fl.SchedSync}); err != nil {
		t.Fatal(err)
	}
	if len(r.total) != rounds {
		t.Fatalf("%d rounds opened, want %d", len(r.total), rounds)
	}
	perRound := float64(r.total[rounds-1]-r.total[warm]) / float64(rounds-1-warm) / (1 << 20)
	t.Logf("%.3f MB allocated per round over rounds %d-%d", perRound, warm+1, rounds-1)
	if perRound > maxMB {
		t.Errorf("%.3f MB allocated per round, want <= %v", perRound, maxMB)
	}
}

// arenaSampler is FedClassAvg with the arenas read as each sync round
// opens, when every pass of the round before has ended.
type arenaSampler struct {
	*core.FedClassAvg
	stats [][]tensor.ArenaStat
}

func (r *arenaSampler) Round(sim *fl.Simulation, round int, participants []int) error {
	r.stats = append(r.stats, tensor.ArenaStats())
	return r.FedClassAvg.Round(sim, round, participants)
}

// TestArenaBoundedByLiveSet checks that a pass's arena holds what a pass
// leases at once, not what passes have leased: on the het_sync fleet at
// one worker, starting from no arena, once a round has trained and
// evaluated all four architectures, the next round's training and
// evaluation passes make no chunk, and every arena is within one least
// chunk (1 MiB) of the most it ever had leased at once. (One arena: the
// groups train one after another, each in its leader's arena.)
func TestArenaBoundedByLiveSet(t *testing.T) {
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	tensor.DropArenas()
	const rounds = 3
	s := experiments.Small()
	s.Rounds = rounds
	factory, _, err := experiments.NewHeterogeneousFleet(experiments.Fashion, data.Dirichlet, s.Clients, s)
	if err != nil {
		t.Fatal(err)
	}
	algo, err := experiments.NewAlgorithm(experiments.MethodProposed, experiments.Fashion, s)
	if err != nil {
		t.Fatal(err)
	}
	r := &arenaSampler{FedClassAvg: algo.(*core.FedClassAvg)}
	sim := fl.NewSimulation(factory(), fl.Config{Rounds: rounds, SampleRate: 1, BatchSize: s.BatchSize, Seed: s.Seed + 7})
	if _, err := sim.RunScheduled(r, fl.SchedulerConfig{Kind: fl.SchedSync}); err != nil {
		t.Fatal(err)
	}
	chunks := func(st []tensor.ArenaStat) (n int) {
		for _, a := range st {
			n += a.Chunks
		}
		return n
	}
	warm, next := r.stats[1], r.stats[2]
	if len(warm) == 0 {
		t.Fatal("no arena is free after the warm round")
	}
	if len(next) != len(warm) || chunks(next) != chunks(warm) {
		t.Errorf("the round after the warm one went from %d arenas of %d chunks to %d of %d", len(warm), chunks(warm), len(next), chunks(next))
	}
	for i, a := range next {
		t.Logf("arena %d: %d chunks, %.2f MB, %.2f MB leased at most", i, a.Chunks, float64(a.Bytes)/(1<<20), float64(a.High)/(1<<20))
		if a.Bytes > a.High+1<<20 {
			t.Errorf("arena %d holds %d bytes, more than 1 MiB over its lease high-water %d", i, a.Bytes, a.High)
		}
	}
}

// matMul is the 64×64 GEMM: allocating (tensor, shape and data of the
// result) or into a reused output, the steady-state path the layers use.
func matMul(dt tensor.DType, into bool) func(testing.TB) func() {
	return func(testing.TB) func() {
		a, c, out := tensor.NewOf(dt, 64, 64), tensor.NewOf(dt, 64, 64), tensor.NewOf(dt, 64, 64)
		a.Fill(0.5)
		c.Fill(0.25)
		if into {
			return func() { tensor.MatMulInto(out, a, c) }
		}
		return func() { tensor.MatMul(a, c) }
	}
}

// gemmForms are the three GEMM forms at the shapes the benchmark workloads
// run them. a is m×k; b and out follow from the form: NN out = a·b (b k×n),
// ATB out = aᵀ·b (b m×n, out k×n), ABT out = a·bᵀ (b n×k, out m×n). Each
// layer contributes its forward product and its two backward ones, as
// internal/nn issues them: a Conv2D with outC output channels, K = inC·kh·kw
// and P = block·spatial (a block is the samples whose lowering fits the
// layer's element budget) runs W·cols (outC,K,P), Wᵀ·gmat (outC,K,P) and
// cols·gmatᵀ (K,P,outC) per block; a Dense layer of batch B runs x·W (B,in,out), xᵀ·g
// (B,in,out) and g·Wᵀ (B,out,in).
var gemmForms = []struct {
	form    string
	m, k, n int
}{
	// het_sync conv: outC 8, K 72, P 1296. The 8→8 3×3 convolution at 12×12
	// lowers its contrastive batch of 32 in blocks of 9 samples (9·144
	// columns), the last of 5.
	{"NN", 8, 72, 1296}, {"ATB", 8, 72, 1296}, {"ABT", 72, 1296, 8},
	// wire MLP's first Dense: B 16, 144 → 512.
	{"NN", 16, 144, 512}, {"ATB", 16, 144, 512}, {"ABT", 16, 512, 144},
	// lazy_async_churn conv: outC 8, K 72, P 144.
	{"NN", 8, 72, 144}, {"ATB", 8, 72, 144}, {"ABT", 72, 144, 8},
}

// gemmForm is one of gemmForms as an Into product at dtype dt.
func gemmForm(i int, dt tensor.DType) func() {
	f := gemmForms[i]
	a, b, out := tensor.NewOf(dt, f.m, f.k), tensor.NewOf(dt, f.k, f.n), tensor.NewOf(dt, f.m, f.n)
	run := tensor.MatMulInto
	switch f.form {
	case "ATB":
		b, out, run = tensor.NewOf(dt, f.m, f.n), tensor.NewOf(dt, f.k, f.n), tensor.MatMulATBInto
	case "ABT":
		b, run = tensor.NewOf(dt, f.n, f.k), tensor.MatMulABTInto
	}
	rng := rand.New(rand.NewSource(int64(i)))
	a.FillUniform(rng, -1, 1)
	b.FillUniform(rng, -1, 1)
	return func() { run(out, a, b) }
}

// matMulForms runs every gemmForms product at both dtypes.
func matMulForms(testing.TB) func() {
	var ops []func()
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
		for i := range gemmForms {
			ops = append(ops, gemmForm(i, dt))
		}
	}
	return func() {
		for _, op := range ops {
			op()
		}
	}
}

// BenchmarkMatMulForms times each of gemmForms alone, per dtype.
func BenchmarkMatMulForms(b *testing.B) {
	for i, f := range gemmForms {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			b.Run(fmt.Sprintf("%s/%dx%dx%d/%v", f.form, f.m, f.k, f.n, dt), func(b *testing.B) {
				timeOp(b, func(testing.TB) func() { return gemmForm(i, dt) })
			})
		}
	}
}

func benchFleet(tb testing.TB, dt tensor.DType) []*fl.Client {
	s := benchScale()
	s.DType = dt
	factory, _, err := experiments.NewHeterogeneousFleet(experiments.Fashion, data.Dirichlet, s.Clients, s)
	if err != nil {
		tb.Fatal(err)
	}
	return factory()
}

// convForward is one training-mode forward pass of the fleet's first model.
func convForward(dt tensor.DType) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		model := benchFleet(tb, dt)[0].Model
		x := tensor.NewOf(dt, 8, 1, 12, 12)
		x.Fill(0.1)
		return func() { model.Forward(x, true) }
	}
}

// convTrainStep is one forward+backward pass of a single convolution layer
// whose batch lowers in one block.
func convTrainStep(dt tensor.DType) func(testing.TB) func() {
	return func(testing.TB) func() {
		rng := rand.New(rand.NewSource(1))
		layer := nn.NewConv2D(8, 16, 3, 1, 1, 1, rng)
		nn.Pack(layer.Params(), dt)
		x := tensor.NewOf(dt, 8, 8, 12, 12)
		x.FillRandn(rng, 1)
		grad := tensor.NewOf(dt, 8, 16, 12, 12)
		grad.FillRandn(rng, 1)
		return func() {
			layer.Forward(x, true)
			layer.Backward(grad)
		}
	}
}

// clientLocalEpochGroup is one FedClassAvg local update — two views, SupCon,
// the classifier's proximal pull — of two MiniResNet clients trained as one
// group, through the async engine's entry point.
func clientLocalEpochGroup(tb testing.TB) func() {
	s := benchScale()
	build, _, err := experiments.NewFleetBuilder(experiments.Fashion, data.Dirichlet, "homogeneous", 2, s)
	if err != nil {
		tb.Fatal(err)
	}
	sim := fl.NewSimulation([]*fl.Client{build(0), build(1)}, fl.Config{BatchSize: s.BatchSize})
	algo := core.New(core.DefaultOptions())
	if err := algo.Setup(sim); err != nil {
		tb.Fatal(err)
	}
	if err := algo.AsyncSetup(sim, &fl.SchedulerConfig{MixRate: 1}); err != nil {
		tb.Fatal(err)
	}
	ids := []int{0, 1}
	for _, id := range ids {
		if err := algo.AsyncDispatch(sim, id); err != nil {
			tb.Fatal(err)
		}
	}
	return func() {
		if _, err := algo.AsyncLocalGroup(sim, ids); err != nil {
			tb.Fatal(err)
		}
	}
}

// clientLocalEpoch is one cross-entropy epoch, cycling over the four
// heterogeneous architectures (the figure is their average).
func clientLocalEpoch(dt tensor.DType) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		clients, s, i := benchFleet(tb, dt), benchScale(), 0
		return func() {
			clients[i%len(clients)].TrainEpochCE(s.BatchSize)
			i++
		}
	}
}

// classifierAveraging is FedClassAvg's server fold: one Accumulate per
// client's classifier upload, then the commit into the global classifier.
func classifierAveraging(tb testing.TB) func() {
	clients := benchFleet(tb, tensor.F64)
	ups := make([][]float64, len(clients))
	for i, c := range clients {
		ups[i] = nn.FlattenParams(c.Model.ClassifierParams())
	}
	global := slices.Clone(ups[0])
	acc := fl.NewSharded(len(global), tensor.Workers())
	w := 1 / float64(len(clients))
	return func() {
		for _, u := range ups {
			acc.Accumulate(u, w)
		}
		acc.CommitInto(global, 1, nil)
	}
}

// codecRoundTrip is the wire codec's hot path under one framing spec —
// quantize, top-k select and index-pack, or residual against the slot's
// basis — into reused buffers, then the decode that folds it back.
func codecRoundTrip(spec comm.Spec) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		payload := make([]float64, 4096)
		rng := rand.New(rand.NewSource(1))
		for i := range payload {
			payload[i] = rng.NormFloat64()
		}
		enc, dec := &comm.DeltaRef{}, &comm.DeltaRef{}
		var frame []byte
		var scratch []float64
		return func() {
			frame = comm.MarshalSpecInto(frame[:0], spec, 1, payload, enc)
			_, v, err := comm.DecodeSpec(scratch, frame, dec)
			if err != nil {
				tb.Fatal(err)
			}
			scratch = v
		}
	}
}

// topKDelta is the sparse uplink's codec at the wire benchmark's geometry — a
// 107 722-weight vector under top-k 5 % of f32 with delta framing, two vectors
// alternating as benchmark/probe.go's comm.encode_ms does — as a steady-state
// encode, or as the decode of the frames that encode produced. class shapes
// the step between the two vectors, which is what the residuals look like
// once the basis has caught up: log-normal magnitudes on gaussian weights, or,
// from zero weights so the residuals are exact, one binade, a step that is
// zero on all but 1 % of the coordinates, and one value everywhere.
func topKDelta(class string, decode bool) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		const d = 107722
		spec := comm.NewSpec(comm.F32, 0.05, true)
		rng := rand.New(rand.NewSource(1))
		var vecs [2][]float64
		vecs[0], vecs[1] = make([]float64, d), make([]float64, d)
		for i := range vecs[0] {
			var w, step float64
			sign := float64(1 - 2*rng.Intn(2))
			switch class {
			case "log-normal":
				w, step = 0.05*rng.NormFloat64(), sign*1e-3*math.Exp(rng.NormFloat64())
			case "single binade":
				step = sign * (1 + rng.Float64()) / 1024
			case "mostly zero":
				if rng.Intn(100) == 0 {
					step = sign * rng.Float64()
				}
			case "all equal":
				step = 0.5
			default:
				tb.Fatalf("no residual class %q", class)
			}
			vecs[0][i], vecs[1][i] = w, w+step
		}
		enc := &comm.DeltaRef{}
		var frame []byte
		i := 0
		encode := func() {
			frame = comm.MarshalSpecInto(frame[:0], spec, 1, vecs[i%2], enc)
			i++
		}
		for i < 64 { // past the frames that walk the basis onto the weights
			encode()
		}
		if !decode {
			return encode
		}
		// Two consecutive frames and the basis they apply to; each decode is
		// handed the tag its frame was encoded against.
		dec := &comm.DeltaRef{Base: append([]float64(nil), enc.Base...)}
		var frames [2][]byte
		var tags [2]uint64
		for j := range frames {
			tags[j] = enc.Tag
			encode()
			frames[j] = append([]byte(nil), frame...)
		}
		var scratch []float64
		return func() {
			dec.Tag = tags[i%2]
			_, v, err := comm.DecodeSpec(scratch, frames[i%2], dec)
			if err != nil {
				tb.Fatal(err)
			}
			scratch = v
			i++
		}
	}
}

// exactPreReduce is one edge aggregator's round on the tree at the
// benchmark fleet's geometry: four children's 107 722-weight uploads folded
// exactly into a reused accumulator and rounded once into a reused vector,
// as WeightAvg.PreReduce rounds.
func exactPreReduce(testing.TB) func() {
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
	sum := make([]float64, d)
	return func() {
		acc.Reset()
		for _, v := range vecs {
			acc.Fold(v, 30)
		}
		sum, _ = acc.RoundInto(sum)
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
// run touched and how many bytes the run allocated.
func lazyAsyncRunHeap(t *testing.T, commits int) (heap uint64, touched int, alloc uint64) {
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
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	if _, err := sim.RunScheduled(algo, sched); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	alloc = ms.TotalAlloc - before
	touched = len(seen)
	seen = nil
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(sim)
	return ms.HeapAlloc, touched, alloc
}

// TestLazyFleetMemoryFlatInCommits is the other half of the virtual-fleet
// memory contract: at a fixed fleet, cohort and resident budget, running ten
// times as many commits touches several times as many clients, and each of
// them may cost the heap an index entry — not its parameters and optimizer
// moments (~1 MB for this model), which are on disk once it is evicted.
func TestLazyFleetMemoryFlatInCommits(t *testing.T) {
	const commits = 12
	short, touchedShort, _ := lazyAsyncRunHeap(t, commits)
	long, touchedLong, _ := lazyAsyncRunHeap(t, 10*commits)
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

// TestLazyRoundAllocBytes gates the bytes one commit of the async lazy fleet
// allocates, fleet construction and setup excluded: the difference between
// 10× and 1× the commits of lazyAsyncRunHeap, per extra commit. Each commit
// builds or rehydrates clients, trains them and spills others. While every
// model kept its layer workspaces for life, each of those builds allocated
// them afresh: 4.55 MB a commit. With workspaces leased per pass from the
// tensor pool it was 0.76 MB, nearly all of it the built clients'
// parameters, gradients and optimizer moments. With evicted clients handing
// that storage to the next build it was 0.12 MB (0.06 when this test ran
// alone), the layers' own structs and tensor headers. With an evicted
// client's whole model going to the next build of its config, which
// initializes it again in place, it is 0.02 MB, alone and in a whole-package
// run: what a build makes around the model (the client, its data split,
// RNG streams, augmenter and optimizer) and each commit's updates.
func TestLazyRoundAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime inflates every allocation; the alloc gate runs without -race")
	}
	const commits, measuredMB = 12, 0.02
	// A warm-up run first: the first run in a process builds every model
	// its setup probes from scratch, and the runs after it take the models
	// the run before recycled, so only two runs after a third compare.
	lazyAsyncRunHeap(t, commits)
	_, _, short := lazyAsyncRunHeap(t, commits)
	_, _, long := lazyAsyncRunHeap(t, 10*commits)
	perCommit := (float64(long) - float64(short)) / (9 * commits) / (1 << 20)
	t.Logf("%.3f MB allocated per commit", perCommit)
	if perCommit > 1.3*measuredMB {
		t.Errorf("%.3f MB allocated per commit, want <= %.3f (1.3 × %.2f)", perCommit, 1.3*measuredMB, measuredMB)
	}
}
