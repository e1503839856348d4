package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/baselines"
	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/transport"
)

// taskSeed fixes every workload's learning task — dataset, partition and
// model initialisation. The -seed argument drives the stochastic inputs on
// top of it: each client's batch order and augmentation stream, cohort
// sampling, churn rolls and evaluation samples. Drawing a new task per seed
// moved rounds-to-target by 2× between seeds (one seed in six never reached
// the target), far outside any bound a metric could carry; with the task
// fixed the same metric moves by about 6 %.
const taskSeed = 1

const (
	fleetClients = 8
	lazyClients  = 4096
	lazyCohort   = 8
	lazyResident = 32
	treeAggs     = 2
	ckptEvery    = 10
	dataset      = experiments.Fashion
)

// workload is one named set of inputs and the federation that consumes it.
type workload struct {
	Name string
	// Rounds is the fixed number of commits one rep runs: a fixed count, not
	// a fixed time, so byte and accuracy figures compare exactly.
	Rounds    int
	EvalEvery int
	// Target is the mean-accuracy target of the *_to_target metrics. 0 means
	// the workload carries no accuracy signal and its target is the commit
	// that completes half the run.
	Target float64
	// Floor is the lowest final accuracy a correct run may report; 0 where
	// accuracy carries no signal and is not checked.
	Floor float64
	// Nodes is how many client and aggregator nodes a rep starts.
	Nodes int
	// Method, Spec and the GEMM shape describe the workload to the probes.
	Method string
	Spec   comm.Spec
	// GEMM is the dominant matrix product of one local step, [M, K, N]:
	// het_sync and lazy_async_churn the MiniResNet 3×3 8→8 convolution over
	// a 12×12 image lowered by im2col (weights [8,72] times columns
	// [72, batch·144], batch 32 = two views of 16, or 1 for the one-example
	// lazy clients); the wire workloads the MLP's first layer at batch 16.
	GEMM [3]int
	run  func(ctx context.Context, w *workload, rc *runCfg) (*runOut, error)
}

// BENCHMARK.json records why each workload exists; README.md gives the
// share-of-CPU figures they were sized with.
var workloads = []*workload{
	{
		Name:   "het_sync",
		Rounds: 50, EvalEvery: 1, Target: 0.45, Floor: 0.52,
		Method: experiments.MethodProposed, Spec: comm.NewSpec(comm.F64, 0, false),
		GEMM: [3]int{8, 72, 32 * 144}, run: runHetSync,
	},
	{
		Name:   "wire_sparse_tcp",
		Rounds: 80, EvalEvery: 5, Target: 0.57, Floor: 0.58, Nodes: fleetClients,
		Method: experiments.MethodFedAvg, Spec: comm.NewSpec(comm.F32, 0.05, true),
		GEMM: [3]int{16, 144, 512}, run: runWire,
	},
	{
		Name:   "wire_dense_tree",
		Rounds: 40, EvalEvery: 5, Target: 0.67, Floor: 0.72, Nodes: fleetClients + treeAggs,
		Method: experiments.MethodFedAvg, Spec: comm.NewSpec(comm.F64, 0, false),
		GEMM: [3]int{16, 144, 512}, run: runWire,
	},
	{
		Name:   "lazy_async_churn",
		Rounds: 400, EvalEvery: 1,
		Method: experiments.MethodFedAvg, Spec: comm.NewSpec(comm.I8, 0, false),
		GEMM: [3]int{8, 72, 144}, run: runLazy,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// scale is the experiment scale a workload's fleet is built at.
func (w *workload) scale() experiments.Scale {
	s := experiments.Small()
	s.Seed = taskSeed
	s.Rounds = w.Rounds
	if w.Nodes > 0 {
		// The node workloads' MLP fleet: d ≈ 108k weights, few FLOPs.
		s.FeatDim, s.TrainPerClass, s.TestPerClass = 64, 24, 16
	}
	return s
}

// runCfg is what one rep asks of a workload.
type runCfg struct {
	Seed int64
	rec  *recorder // nil for the untraced run
}

// evalPoint is one row of a run's metrics history with its commit time.
type evalPoint struct {
	Round int     `json:"round"`
	Acc   float64 `json:"acc"`
	AtS   float64 `json:"at_s"` // seconds since the first round opened
}

// runOut is what a workload hands back for accounting.
type runOut struct {
	// SetupBuildS lists repeated timings of dataset generation, partition,
	// fleet build and simulation construction; SetupOpenS is the remainder
	// of set-up, from the run call to the first round opening.
	SetupBuildS []float64
	SetupOpenS  float64
	// FleetBuildS lists, for eager fleets, the part of each set-up spent
	// constructing the clients themselves.
	FleetBuildS []float64
	Open        time.Time
	OpenCtrs    procCounters
	End         time.Time
	EndCtrs     procCounters
	// Commits are the commit timestamps the boundary shim recorded (inproc
	// engine); on node workloads only eval points are observable.
	Commits []time.Time
	Points  []evalPoint
	History []fl.RoundMetrics
	// Traffic is the server ledger's per-round record; TotalUp/TotalDown its
	// cumulative totals.
	Traffic            []comm.RoundTraffic
	TotalUp, TotalDown int64
	NodeErrs           []error
	// Traced-run observations.
	Builds, OptSteps int64
	Dispatches       int64 // lazy fleet: clients engaged for training
	Applied          int64
	StaleDrops       int64
	Leaves           int64
	Meter            *meter
	CkptBytes        int64
	// GlobalAcc is the committed global model's accuracy on the whole test
	// set, for the workload whose sampled accuracies carry no signal.
	GlobalAcc float64
	// probeFleet is a set of clients (one per distinct architecture first)
	// the layer probes may consume after the run.
	probeFleet []*fl.Client
	probeBuild experiments.ClientBuilder
	classAvg   *core.FedClassAvg
}

// setupRepeats is how many times a rep builds its fleet; set-up is
// milliseconds long, so one sample would mostly be noise.
const setupRepeats = 5

// reseed applies the workload seed to each client's training stream.
func reseed(clients []*fl.Client, seed int64) {
	for _, c := range clients {
		c.Src.Seed(streamSeed(seed, c.ID))
	}
}

func runHetSync(ctx context.Context, w *workload, rc *runCfg) (*runOut, error) {
	out := &runOut{}
	s := w.scale()
	var sim *fl.Simulation
	var clients []*fl.Client
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		factory, _, err := experiments.NewHeterogeneousFleet(dataset, data.Dirichlet, fleetClients, s)
		if err != nil {
			return nil, err
		}
		tf := time.Now()
		clients = factory()
		out.FleetBuildS = append(out.FleetBuildS, time.Since(tf).Seconds())
		reseed(clients, rc.Seed)
		sim = fl.NewSimulation(clients, fl.Config{Rounds: s.Rounds, SampleRate: 1, BatchSize: s.BatchSize, Seed: rc.Seed + 7})
		out.SetupBuildS = append(out.SetupBuildS, time.Since(t0).Seconds())
	}
	algo, err := experiments.NewAlgorithm(w.Method, dataset, s)
	if err != nil {
		return nil, err
	}
	clk := newRoundClock(s.Rounds)
	shim := &classAvgShim{FedClassAvg: algo.(*core.FedClassAvg), clk: clk}
	var sched fl.SchedulerConfig
	var steps atomic.Int64
	if rc.rec != nil {
		shim.tc = newTraceCtx(rc.rec, fleetClients)
		for _, c := range clients {
			wrapOptimizer(c, shim.tc, &steps)
		}
		sched.CheckpointEvery = ckptEvery
		sched.Checkpoint = func(snap *fl.Snapshot) error {
			id := shim.tc.begin("ckpt.marshal", -1)
			b, err := ckpt.Marshal(snap, comm.F64)
			shim.tc.end(id)
			if err != nil {
				return err
			}
			out.CkptBytes = int64(len(b))
			id = shim.tc.begin("ckpt.unmarshal", -1)
			_, err = ckpt.Unmarshal(b)
			shim.tc.end(id)
			return err
		}
	}
	start := time.Now()
	hist, err := sim.RunScheduledContext(ctx, shim, sched)
	out.End, out.EndCtrs = time.Now(), readCounters()
	if err != nil {
		return nil, err
	}
	out.finishInproc(start, clk, hist, sim)
	out.OptSteps, out.Builds = steps.Load(), fleetClients
	out.probeFleet, out.classAvg = clients, shim.FedClassAvg
	return out, nil
}

func runLazy(ctx context.Context, w *workload, rc *runCfg) (*runOut, error) {
	out := &runOut{}
	s := w.scale()
	var tc *traceCtx
	var trace *fl.Trace
	if rc.rec != nil {
		tc = newTraceCtx(rc.rec, lazyClients)
		trace = &fl.Trace{}
	}
	var builds, steps atomic.Int64
	var sim *fl.Simulation
	var inner experiments.ClientBuilder
	var ds *data.Dataset
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if inner, ds, err = experiments.NewLazyFleetBuilder(dataset, data.Dirichlet, "homogeneous", lazyClients, s); err != nil {
			return nil, err
		}
		build := lazyBuilder(inner, rc.Seed, tc, &builds, &steps)
		sim = fl.NewLazySimulation(lazyClients, build, lazyResident, fl.Config{
			Rounds: s.Rounds, SampleRate: float64(lazyCohort) / lazyClients, BatchSize: s.BatchSize,
			Seed: rc.Seed + 7, Codec: w.Spec.Value, EvalSample: lazyCohort,
		})
		out.SetupBuildS = append(out.SetupBuildS, time.Since(t0).Seconds())
	}
	algo, err := experiments.NewAlgorithm(w.Method, dataset, s)
	if err != nil {
		return nil, err
	}
	clk := newRoundClock(s.Rounds)
	shim := &fedAvgShim{FedAvg: algo.(*baselines.FedAvg), clk: clk, tc: tc}
	sched := fl.SchedulerConfig{
		Kind: fl.SchedAsyncBounded, MaxStaleness: 8, Decay: 0.5, Workers: lazyCohort,
		LeaveProb: 0.1, RejoinAfter: 2,
		Costs: experiments.StragglerCosts(lazyClients, lazyClients/8, 2),
		Trace: trace,
	}
	start := time.Now()
	hist, err := sim.RunScheduledContext(ctx, shim, sched)
	out.End, out.EndCtrs = time.Now(), readCounters()
	if err != nil {
		return nil, err
	}
	out.finishInproc(start, clk, hist, sim)
	out.Builds, out.OptSteps = builds.Load(), steps.Load()
	if trace != nil {
		for _, e := range trace.Events {
			switch e.Kind {
			case fl.TraceDispatch:
				out.Dispatches++
			case fl.TraceDeliver:
				out.Applied++
			case fl.TraceDrop:
				out.StaleDrops++
			case fl.TraceLeave:
				out.Leaves++
			}
		}
	}
	out.probeBuild = lazyBuilder(inner, rc.Seed, nil, new(atomic.Int64), new(atomic.Int64))
	judge := inner(0)
	judge.Test = ds.Test
	if err := nn.SetFlatParams(judge.Model.Params(), shim.FedAvg.Global()); err != nil {
		return nil, err
	}
	out.GlobalAcc = judge.EvalAccuracy()
	return out, nil
}

// finishInproc fills the accounting an inproc-engine run shares.
func (out *runOut) finishInproc(start time.Time, clk *roundClock, hist []fl.RoundMetrics, sim *fl.Simulation) {
	out.SetupOpenS = clk.open.Sub(start).Seconds()
	out.Open, out.OpenCtrs = clk.open, clk.openCtrs
	out.Commits = clk.marks
	out.History = hist
	for _, m := range hist {
		at := 0.0
		if m.Round >= 1 && m.Round <= len(clk.marks) {
			at = clk.marks[m.Round-1].Sub(clk.open).Seconds()
		}
		out.Points = append(out.Points, evalPoint{Round: m.Round, Acc: m.MeanAcc, AtS: at})
	}
	out.Traffic = sim.Ledger.Rounds()
	out.TotalUp, out.TotalDown = sim.Ledger.TotalUp(), sim.Ledger.TotalDown()
}

// runWire runs the two node workloads: a root server, the client nodes and —
// when the workload is the tree — the edge aggregators, all in this process
// over the workload's transport. It is experiments.RunNodes/RunTreeNodes
// unrolled, because those return only the history and the byte metrics need
// the server's ledger.
func runWire(ctx context.Context, w *workload, rc *runCfg) (*runOut, error) {
	out := &runOut{}
	s := w.scale()
	aggs := w.Nodes - fleetClients
	var clients []*fl.Client
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		factory, _, err := experiments.NewRotationFleet(dataset, data.Dirichlet, fleetClients, s, []models.Arch{models.ArchMLP}, []int{8})
		if err != nil {
			return nil, err
		}
		tf := time.Now()
		clients = factory()
		out.FleetBuildS = append(out.FleetBuildS, time.Since(tf).Seconds())
		reseed(clients, rc.Seed)
		out.SetupBuildS = append(out.SetupBuildS, time.Since(t0).Seconds())
	}
	build := func(i int) *fl.Client { return clients[i] }

	var tc *traceCtx
	var steps atomic.Int64
	if rc.rec != nil {
		tc = newTraceCtx(rc.rec, fleetClients)
		for _, c := range clients {
			wrapOptimizer(c, tc, &steps)
		}
	}
	var inner transport.Transport
	addr := "bench"
	if aggs == 0 {
		inner, addr = transport.NewTCP(transport.Options{DType: s.DType, Spec: w.Spec}), "127.0.0.1:0"
	} else {
		inner = transport.NewInproc(transport.Options{DType: s.DType, Spec: w.Spec})
	}
	tr := newMeter(inner, tc, w.Nodes)
	out.Meter = tr

	// A failing server cancels the nodes, so every goroutine started below
	// has ended by the time runWire returns.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	start := time.Now()
	rootLn, err := tr.Listen(addr)
	if err != nil {
		return nil, err
	}
	nodeDone := make(chan error, w.Nodes)
	clientAddr := func(int) string { return rootLn.Addr() }
	if aggs > 0 {
		bounds := fl.TreeSplit(fleetClients, aggs)
		aggLns := make([]transport.Listener, aggs)
		for a := range aggLns {
			ln, lerr := tr.Listen(fmt.Sprintf("%s-agg%d", addr, a))
			if lerr != nil {
				rootLn.Close()
				for _, l := range aggLns[:a] {
					l.Close()
				}
				return nil, lerr
			}
			aggLns[a] = ln
		}
		for a := 0; a < aggs; a++ {
			go func(a int) {
				nodeDone <- experiments.RunAggregatorNode(ctx, w.Method, dataset, s, fl.AggregatorConfig{
					Index: a, Aggregators: aggs, Clients: fleetClients,
					Codec: w.Spec.Value, TopK: w.Spec.Frac, Delta: w.Spec.Delta,
					Seed: rc.Seed + 7 + 101*int64(a),
				}, tr, rootLn.Addr(), aggLns[a])
			}(a)
		}
		clientAddr = func(id int) string {
			for a := 0; a < aggs; a++ {
				if id < bounds[a+1] {
					return aggLns[a].Addr()
				}
			}
			return aggLns[aggs-1].Addr()
		}
	}
	for id := 0; id < fleetClients; id++ {
		go func(id int) {
			nodeDone <- experiments.RunClientNode(ctx, w.Method, dataset, build, id, s, tr, clientAddr(id))
		}(id)
	}
	var evalAt []time.Time
	srv, hist, err := experiments.ServeNode(ctx, w.Method, dataset, s, 1, w.Spec, fleetClients, rootLn, func(cfg *fl.NodeConfig) {
		cfg.Seed = rc.Seed + 7
		cfg.EvalEvery = w.EvalEvery
		cfg.Aggregators = aggs
		cfg.OnRound = func(m fl.RoundMetrics) {
			evalAt = append(evalAt, time.Now())
			if tc != nil {
				tc.round.Store(int64(m.Round))
			}
		}
	})
	out.End, out.EndCtrs = time.Now(), readCounters()
	if err != nil {
		cancel()
	}
	for i := 0; i < w.Nodes; i++ {
		if nerr := <-nodeDone; nerr != nil {
			out.NodeErrs = append(out.NodeErrs, nerr)
		}
	}
	if err != nil {
		return nil, err
	}
	out.Open = tr.openedAt()
	if c := tr.openCtrs.Load(); c != nil {
		out.OpenCtrs = *c
	}
	out.SetupOpenS = out.Open.Sub(start).Seconds()
	out.History = hist
	for i, m := range hist {
		out.Points = append(out.Points, evalPoint{Round: m.Round, Acc: m.MeanAcc, AtS: evalAt[i].Sub(out.Open).Seconds()})
	}
	out.Traffic = srv.Ledger.Rounds()
	out.TotalUp, out.TotalDown = srv.Ledger.TotalUp(), srv.Ledger.TotalDown()
	out.OptSteps = steps.Load()
	out.Builds = fleetClients
	out.probeFleet = clients
	return out, nil
}
