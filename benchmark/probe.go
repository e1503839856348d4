package main

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/loss"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Probes replay one layer's exported functions alone, at the shapes, dtype,
// framing spec and cohort the workload used, after the traced run has
// finished with the fleet. Each returns milliseconds per call (the median
// of repeated calls) unless its name says otherwise.

const (
	probeBudget   = 40 * time.Millisecond
	probeMinIters = 3
	probeMaxIters = 400
)

// timeOp returns the median duration of f in milliseconds. setup, when
// non-nil, runs untimed before every call.
func timeOp(setup, f func()) float64 {
	var samples []float64
	start := time.Now()
	for i := 0; i < probeMaxIters && (i < probeMinIters || time.Since(start) < probeBudget); i++ {
		if setup != nil {
			setup()
		}
		t0 := time.Now()
		f()
		samples = append(samples, time.Since(t0).Seconds()*1e3)
	}
	return median(samples)
}

// probeEnv is what the probes know about a finished run.
type probeEnv struct {
	w        *workload
	s        experiments.Scale
	clients  []*fl.Client // the eager fleet, or a few built lazy clients
	archs    []*fl.Client // one client per distinct architecture
	build    experiments.ClientBuilder
	classAvg *core.FedClassAvg
}

func newProbeEnv(w *workload, out *runOut) *probeEnv {
	env := &probeEnv{w: w, s: w.scale(), clients: out.probeFleet, build: out.probeBuild, classAvg: out.classAvg}
	if env.build != nil {
		for i := 0; i < lazyCohort; i++ {
			env.clients = append(env.clients, env.build(i))
		}
	}
	seen := map[models.Config]bool{}
	for _, c := range env.clients {
		// Probes call the optimizer directly: drop the traced run's shim.
		if o, ok := c.Optimizer.(*optShim); ok {
			c.Optimizer = o.inner
		}
		if !seen[c.Model.Cfg] {
			seen[c.Model.Cfg] = true
			env.archs = append(env.archs, c)
		}
	}
	return env
}

// exchanged returns the parameters a client uploads: the classifier under
// FedClassAvg, the whole model under FedAvg.
func (env *probeEnv) exchanged(c *fl.Client) []*nn.Param {
	if env.w.Method == experiments.MethodProposed {
		return c.Model.ClassifierParams()
	}
	return c.Model.Params()
}

func (env *probeEnv) twoViews() bool { return env.w.Method == experiments.MethodProposed }

// stepBatch builds the input of one local step for client c.
func (env *probeEnv) stepBatch(c *fl.Client) (x *tensor.Tensor, labels []int) {
	n := env.s.BatchSize
	if n > len(c.Train) {
		n = len(c.Train)
	}
	batch := c.Train[:n]
	if !env.twoViews() {
		return c.AugmentedBatch(batch)
	}
	ch, h, w := c.InputGeometry()
	dim := ch * h * w
	x = tensor.NewOf(c.DType(), 2*n, ch, h, w)
	labels = make([]int, n)
	for i, ex := range batch {
		v1, v2 := c.Aug.TwoViews(ex.X, c.Rng)
		x.WriteFloat64sAt(i*dim, v1)
		x.WriteFloat64sAt((n+i)*dim, v2)
		labels[i] = ex.Y
	}
	return x, labels
}

// probeAll runs every probe that applies to the workload; the rest report 0.
func probeAll(env *probeEnv) map[string]float64 {
	m := map[string]float64{}
	env.probeTensor(m)
	env.probeStep(m)
	env.probeData(m)
	env.probeFold(m)
	env.probeComm(m)
	env.probeEval(m)
	switch {
	case env.w.Nodes > 0:
		env.replayWire(m)
	case env.classAvg != nil:
		m["algo.local_ms"] = env.localUpdates()
	}
	if env.build != nil {
		env.probeStore(m)
	}
	return m
}

func (env *probeEnv) probeTensor(m map[string]float64) {
	m["tensor.calib_gemm_ms"] = calibrate()
	g := env.w.GEMM
	a, b, c := tensor.New(g[0], g[1]), tensor.New(g[1], g[2]), tensor.New(g[0], g[2])
	for i := range a.Data {
		a.Data[i] = float64(i%7) * 0.125
	}
	for i := range b.Data {
		b.Data[i] = float64(i%5) * 0.25
	}
	ms := timeOp(nil, func() { tensor.MatMulInto(c, a, b) })
	m["tensor.gemm_gflops"] = 2 * float64(g[0]) * float64(g[1]) * float64(g[2]) / (ms * 1e6)
}

// probeStep times the pieces of one local step on each distinct
// architecture and sums them over the mix.
func (env *probeEnv) probeStep(m map[string]float64) {
	for _, c := range env.archs {
		x, labels := env.stepBatch(c)
		n := len(labels)
		var feats, logits, dlogits, dfeats *tensor.Tensor
		forward := func() {
			feats = c.Model.Extractor.Forward(c.Model.CastInput(x), true)
			logits = c.Model.Classifier.Forward(feats.SliceRows(0, n), true)
		}
		m["nn.forward_ms"] += timeOp(nil, forward)
		m["loss.ce_ms"] += timeOp(nil, func() { _, dlogits = loss.CrossEntropy(logits, labels) })
		var dcl *tensor.Tensor
		if env.twoViews() {
			m["loss.supcon_ms"] += timeOp(nil, func() {
				_, dcl = loss.SupCon(feats, labels, loss.SupConOptions{Temperature: core.DefaultOptions().Tau})
			})
			globalC := nn.FlattenParams(c.Model.ClassifierParams())
			rho := experiments.HyperparamsFor(dataset, env.s).Rho
			m["loss.proximal_ms"] += timeOp(nil, func() { loss.Proximal(c.Model.ClassifierParams(), globalC, rho) })
		}
		m["nn.backward_ms"] += timeOp(func() {
			forward()
			dfeats = tensor.NewOf(feats.DT, feats.Rows(), feats.Cols())
			if dcl != nil {
				dfeats.AddInPlace(dcl)
			}
		}, func() {
			dview := c.Model.Classifier.Backward(dlogits)
			tensor.CopySegment(dfeats, 0, dview, 0, n*feats.Cols())
			c.Model.Extractor.Backward(dfeats)
		})
		params := c.Model.Params()
		m["opt.step_ms"] += timeOp(nil, func() { c.Optimizer.Step(params) })
		nn.ZeroGrads(params)
		m["models.build_ms"] += timeOp(nil, func() { models.New(c.Model.Cfg, xrand.New(1)) })
	}
	p := env.exchanged(env.archs[0])
	m["nn.flatten_ms"] = timeOp(nil, func() {
		flat := nn.FlattenParams(p)
		if err := nn.SetFlatParams(p, flat); err != nil {
			panic(err) // the vector was flattened from these parameters
		}
	})
}

func (env *probeEnv) probeData(m map[string]float64) {
	spec := experiments.Spec(dataset, env.s)
	var ds *data.Dataset
	m["data.generate_ms"] = timeOp(nil, func() { ds = data.Generate(spec) })
	opts := data.PartitionOptions{Kind: data.Dirichlet, Alpha: 0.5, Seed: env.s.Seed + 17}
	if env.build == nil {
		m["data.partition_ms"] = timeOp(nil, func() {
			if _, err := data.Partition(ds, fleetClients, opts); err != nil {
				panic(err) // the same options built the fleet
			}
		})
	} else {
		var lp *data.LazyPartitioner
		m["data.partition_ms"] = timeOp(nil, func() {
			var err error
			if lp, err = data.NewLazyPartitioner(ds, lazyClients, opts); err != nil {
				panic(err)
			}
		})
		id := 0
		m["data.lazy_client_ms"] = timeOp(nil, func() { lp.Client(id % lazyClients); id++ })
	}
	c := env.clients[0]
	rng := rand.New(rand.NewSource(1))
	m["data.batch_ms"] = timeOp(nil, func() {
		for _, ex := range data.Batches(c.Train, env.s.BatchSize, rng)[0] {
			if env.twoViews() {
				c.Aug.TwoViews(ex.X, rng)
			} else {
				c.Aug.Apply(ex.X, rng)
			}
		}
	})
}

// exchangeVecs returns the upload vector of client 0 and a copy moved by
// one round's worth of training noise, so delta frames have a residual.
func (env *probeEnv) exchangeVecs() (v0, v1 []float64) {
	v0 = nn.FlattenParams(env.exchanged(env.clients[0]))
	v1 = append([]float64(nil), v0...)
	rng := rand.New(rand.NewSource(2))
	for i := range v1 {
		v1[i] += 1e-3 * rng.NormFloat64()
	}
	return v0, v1
}

// probeFold times the server's reductions at the workload's vector length
// and cohort: the sharded fold and commit every workload uses, and on the
// tree the exact accumulator's per-round work (two aggregators of four
// children each).
func (env *probeEnv) probeFold(m map[string]float64) {
	v0, v1 := env.exchangeVecs()
	d := len(v0)
	cohort := fleetClients
	acc := fl.NewSharded(d, tensor.Workers())
	dst := make([]float64, d)
	fold := func() {
		for i := 0; i < cohort; i++ {
			acc.Accumulate(v1, 1)
		}
	}
	m["fl.fold_ms"] = timeOp(nil, fold)
	m["fl.commit_ms"] = timeOp(fold, func() { acc.CommitInto(dst, 1, nil) })
	if env.w.Nodes <= fleetClients {
		return
	}
	children := fleetClients / treeAggs
	var e *fl.ExactAccumulator
	fresh := func() { e = fl.NewExactAccumulator(d) }
	foldExact := func() {
		for i := 0; i < children; i++ {
			e.Fold(v1, 30)
		}
	}
	m["fl.exact_fold_ms"] = treeAggs * timeOp(fresh, foldExact)
	m["fl.exact_round_ms"] = treeAggs * timeOp(nil, func() { e.Round() })
	other := fl.NewExactAccumulator(d)
	other.Fold(v0, 30)
	m["fl.exact_merge_ms"] = timeOp(nil, func() { e.Merge(other) })
}

// probeKind tags probe frames; the codec treats the kind as opaque.
const probeKind = 1

func (env *probeEnv) probeComm(m map[string]float64) {
	v0, v1 := env.exchangeVecs()
	d := len(v0)
	sel := comm.Selector{Spec: env.w.Spec}
	up := sel.For(probeKind, d)
	var encRef, decRef *comm.DeltaRef
	if up.Delta {
		encRef, decRef = &comm.DeltaRef{}, &comm.DeltaRef{}
	}
	var frame []byte
	var scratch []float64
	i := 0
	next := func() []float64 {
		i++
		if i%2 == 0 {
			return v0
		}
		return v1
	}
	var enc, dec []float64
	for it := 0; it < 12; it++ {
		v := next()
		t0 := time.Now()
		frame = comm.MarshalSpecInto(frame[:0], up, probeKind, v, encRef)
		t1 := time.Now()
		_, out, err := comm.DecodeSpec(scratch, frame, decRef)
		t2 := time.Now()
		if err != nil {
			panic(err) // the frame was encoded a line above
		}
		scratch = out
		if it >= 2 { // the first frames establish the delta basis
			enc = append(enc, t1.Sub(t0).Seconds()*1e3)
			dec = append(dec, t2.Sub(t1).Seconds()*1e3)
		}
	}
	m["comm.encode_ms"], m["comm.decode_ms"] = median(enc), median(dec)
	m["comm.frame_bytes_up"] = float64(len(frame))
	m["comm.density"] = float64(len(frame)) / float64(comm.WireSizeAs(comm.F64, d))
	var before, after runtime.MemStats
	const allocRuns = 10
	runtime.ReadMemStats(&before)
	for it := 0; it < allocRuns; it++ {
		frame = comm.MarshalSpecInto(frame[:0], up, probeKind, next(), encRef)
	}
	runtime.ReadMemStats(&after)
	m["comm.encode_allocs"] = float64(after.Mallocs-before.Mallocs) / allocRuns
	down := comm.Spec{Value: env.w.Spec.Value}
	var dframe []byte
	m["comm.encode_down_ms"] = timeOp(nil, func() { dframe = comm.MarshalSpecInto(dframe[:0], down, probeKind, v0, nil) })
}

// probeEval times one evaluation point's model evaluations: every client of
// the eager fleets, a cohort of built clients on the lazy one. Materialising
// lazy clients for evaluation is the store's and the builder's cost, not
// this one's.
func (env *probeEnv) probeEval(m map[string]float64) {
	m["fl.eval_ms"] = timeOp(nil, func() {
		for _, c := range env.clients {
			c.EvalAccuracy()
		}
	})
}

// localUpdates times one round's eight FedClassAvg local updates, the
// compute half of het_sync's monolithic Round.
func (env *probeEnv) localUpdates() float64 {
	return timeOp(nil, func() {
		for _, c := range env.clients {
			env.classAvg.LocalUpdate(c, env.s.BatchSize)
		}
	})
}

// replayWire drives the wire-split halves of the workload's algorithm
// sequentially — dispatch, local, apply or pre-reduce, commit — as the node
// runtime would for one round, and reports each phase per round.
func (env *probeEnv) replayWire(m map[string]float64) {
	algo, err := experiments.WireAlgorithmFor(env.w.Method, dataset, env.s)
	if err != nil {
		panic(err) // the same method just ran
	}
	joins := make([]fl.WireJoin, len(env.clients))
	for i, c := range env.clients {
		init, err := algo.WireInit(c)
		if err != nil {
			panic(err)
		}
		joins[i] = fl.WireJoin{
			ID: c.ID, TrainSize: len(c.Train), FeatDim: c.Model.Cfg.FeatDim, NumClasses: c.Model.Cfg.NumClasses,
			NumParams: nn.NumParams(c.Model.Params()), NumClassifier: nn.NumParams(c.Model.ClassifierParams()), Init: init,
		}
	}
	if err := algo.WireSetup(joins, tensor.Workers()); err != nil {
		panic(err)
	}
	tree := env.w.Nodes > fleetClients
	var red fl.ReducibleWireAlgorithm
	if tree {
		red = algo.(fl.ReducibleWireAlgorithm)
	}
	const replayRounds = 3
	phases := map[string][]float64{}
	for r := 0; r < replayRounds; r++ {
		sum := map[string]float64{}
		timed := func(name string, f func()) {
			t0 := time.Now()
			f()
			sum[name] += time.Since(t0).Seconds() * 1e3
		}
		updates := make([]*fl.Update, len(env.clients))
		for i, c := range env.clients {
			var disp [][]float64
			timed("algo.dispatch_ms", func() { disp, err = algo.WireDispatch(c.ID) })
			if err != nil {
				panic(err)
			}
			timed("algo.local_ms", func() { updates[i], err = algo.WireLocal(c, env.s.BatchSize, disp) })
			if err != nil {
				panic(err)
			}
			updates[i].Weight = updates[i].Scale
		}
		if tree {
			bounds := fl.TreeSplit(len(env.clients), treeAggs)
			for a := 0; a < treeAggs; a++ {
				var au *fl.AggUpdate
				timed("algo.prereduce_ms", func() { au, err = red.PreReduce(updates[bounds[a]:bounds[a+1]]) })
				if err != nil {
					panic(err)
				}
				au.Agg = a
				timed("algo.apply_ms", func() { err = red.WireApplyAggregate(au) })
				if err != nil {
					panic(err)
				}
			}
		} else {
			for _, u := range updates {
				timed("algo.apply_ms", func() { err = algo.WireApply(u) })
				if err != nil {
					panic(err)
				}
			}
		}
		timed("algo.commit_ms", func() { err = algo.WireCommit() })
		if err != nil {
			panic(err)
		}
		for name, v := range sum {
			phases[name] = append(phases[name], v)
		}
	}
	for name, vs := range phases {
		m[name] = median(vs)
		m["algo.round_ms"] += m[name]
	}
	m["algo.local_calls"] = float64(len(env.clients))
}

// probeStore replays the client store alone: first-touch gets (build),
// evictions (spill) and re-gets of spilled clients (build + rehydrate), in
// the proportions a cohort of eight cycling through a budget of 32 sees.
func (env *probeEnv) probeStore(m map[string]float64) {
	const touched = 64
	store := fl.NewClientStore(lazyClients, env.build, lazyResident)
	var gets []float64
	var evictS float64
	evict := func() {
		t0 := time.Now()
		if err := store.EvictToBudget(nil); err != nil {
			panic(err) // probe clients carry serializable state
		}
		evictS += time.Since(t0).Seconds()
	}
	get := func(id int) {
		t0 := time.Now()
		store.Get(id)
		gets = append(gets, time.Since(t0).Seconds()*1e3)
	}
	for id := 0; id < touched; id++ {
		get(id)
		if id%lazyCohort == lazyCohort-1 {
			evict()
		}
	}
	evicted := touched - lazyResident
	for id := 0; id < evicted; id++ {
		get(id)
		if id%lazyCohort == lazyCohort-1 {
			evict()
		}
	}
	m["fl.store_get_ms"] = median(gets)
	m["fl.store_evict_ms"] = evictS * 1e3 / float64(2*evicted)
}
