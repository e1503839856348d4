// Package core implements FedClassAvg, the paper's contribution: federated
// classifier averaging with local representation learning for personalized
// federated learning over heterogeneous client models.
//
// Each communication round (Algorithm 1 of the paper):
//
//  1. The server broadcasts the global classifier weights w_C to the
//     sampled clients, which overwrite their local classifiers.
//  2. Every client trains locally minimizing
//     L_k = L_CL(F_k(x'), F_k(x”)) + L_CE(y, ŷ) + ρ·L_R(C, C_k)
//     — the supervised contrastive loss over two augmented views, the
//     cross-entropy on view one, and the L2 proximal pull of the local
//     classifier toward the global classifier.
//  3. Clients upload classifiers; the server averages them weighted by
//     local dataset size: w_C ← Σ_k (|D_k|/|D|)·w_Ck.
//
// Only the classifier (one fully connected layer) crosses the network, so
// the per-round payload is O(featDim·numClasses) — the paper's 2 KB claim.
//
// The UseProximal/UseContrastive switches reproduce the Table 4 ablation;
// ShareAllWeights reproduces the homogeneous "+weight" variant of Table 3,
// where extractor weights are averaged too (proximal regularization still
// applies to the classifier only, as in the paper).
package core

import (
	"errors"
	"fmt"

	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/loss"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Options configures FedClassAvg.
type Options struct {
	// Rho is the proximal regularization coefficient ρ (paper Table 1:
	// 0.1 for CIFAR-10/EMNIST, 0.4662 for Fashion-MNIST).
	Rho float64
	// Tau is the supervised contrastive temperature.
	Tau float64
	// LocalEpochs is E in Algorithm 1 (paper: 1).
	LocalEpochs int
	// UseProximal enables the ρ·L_R term (ablation switch PR).
	UseProximal bool
	// UseContrastive enables the L_CL term (ablation switch CL).
	UseContrastive bool
	// ShareAllWeights additionally averages extractor weights; valid only
	// when all clients share one architecture (the "+weight" rows of
	// Table 3).
	ShareAllWeights bool
}

// DefaultOptions mirrors the paper's full method.
func DefaultOptions() Options {
	return Options{Rho: 0.1, Tau: 0.1, LocalEpochs: 1, UseProximal: true, UseContrastive: true}
}

// FedClassAvg implements fl.Algorithm and fl.AsyncAlgorithm.
type FedClassAvg struct {
	Opts Options

	globalClassifier []float64
	globalAll        []float64 // only with ShareAllWeights

	// Async-scheduler state: sharded accumulators for the classifier (and,
	// with ShareAllWeights, the full weights), the commit mixing rate, and
	// per-client snapshots of the classifier the client downloaded — the
	// proximal pull must reference that broadcast, not the server's
	// continuously moving aggregate.
	accC   *fl.ShardedAccumulator
	accAll *fl.ShardedAccumulator
	mix    float64
	snapC  [][]float64

	// pre is the edge-aggregator half's reduction state (PreReduce).
	pre fl.VecReducer
}

// New builds the algorithm.
func New(opts Options) *FedClassAvg {
	if opts.LocalEpochs <= 0 {
		opts.LocalEpochs = 1
	}
	if opts.Tau <= 0 {
		opts.Tau = 0.1
	}
	return &FedClassAvg{Opts: opts}
}

// Name identifies the algorithm (with ablation suffixes for clarity).
func (f *FedClassAvg) Name() string {
	n := "FedClassAvg"
	switch {
	case f.Opts.UseProximal && f.Opts.UseContrastive:
	case f.Opts.UseProximal:
		n += "(CA+PR)"
	case f.Opts.UseContrastive:
		n += "(CA+CL)"
	default:
		n += "(CA)"
	}
	if f.Opts.ShareAllWeights {
		n += "+weight"
	}
	return n
}

// EpochsPerRound reports E.
func (f *FedClassAvg) EpochsPerRound() int { return f.Opts.LocalEpochs }

// LossyUploads marks FedClassAvg's weight uploads (classifier, and full
// model under ShareAllWeights) as tolerant of wire sparsification and
// delta framing: the server only ever averages them.
func (f *FedClassAvg) LossyUploads() bool { return true }

// Setup checks classifier compatibility and initializes the global
// classifier (and, with ShareAllWeights, the global model) as the
// data-weighted average of the clients' initial weights.
func (f *FedClassAvg) Setup(sim *fl.Simulation) error {
	if sim.NumClients() == 0 {
		return errors.New("core: no clients")
	}
	// SetupIDs is the whole fleet for an eager simulation (the historical
	// initial average) and a fixed budget-independent prefix for a lazy one,
	// where averaging a million initial classifiers would materialize them
	// all for weights that wash out after the first commit anyway.
	probe := sim.SetupIDs()
	ref := sim.Client(probe[0]).Model
	for _, id := range probe[1:] {
		c := sim.Client(id)
		if c.Model.Cfg.FeatDim != ref.Cfg.FeatDim || c.Model.Cfg.NumClasses != ref.Cfg.NumClasses {
			return fmt.Errorf("core: client %d classifier shape (%d→%d) differs from client 0 (%d→%d)",
				c.ID, c.Model.Cfg.FeatDim, c.Model.Cfg.NumClasses, ref.Cfg.FeatDim, ref.Cfg.NumClasses)
		}
		if f.Opts.ShareAllWeights && nn.NumParams(c.Model.Params()) != nn.NumParams(ref.Params()) {
			return fmt.Errorf("core: ShareAllWeights requires homogeneous models; client %d differs", c.ID)
		}
	}
	f.globalClassifier = f.averageFlat(sim, probe, func(c *fl.Client) []*nn.Param {
		return c.Model.ClassifierParams()
	})
	if f.Opts.ShareAllWeights {
		f.globalAll = f.averageFlat(sim, probe, func(c *fl.Client) []*nn.Param {
			return c.Model.Params()
		})
	}
	return nil
}

// Round performs one FedClassAvg communication round.
func (f *FedClassAvg) Round(sim *fl.Simulation, round int, participants []int) error {
	if len(participants) == 0 {
		return nil
	}
	// Broadcast + local update, one goroutine per participant. Errors are
	// collected per index to stay race-free under the worker pool.
	errs := make([]error, len(participants))
	flatC := make([][]float64, len(participants))
	var flatAll [][]float64
	if f.Opts.ShareAllWeights {
		flatAll = make([][]float64, len(participants))
	}
	fl.ParallelClients(len(participants), func(idx int) {
		c := sim.Client(participants[idx])
		if f.Opts.ShareAllWeights {
			errs[idx] = nn.SetFlatParams(c.Model.Params(), f.globalAll)
			sim.Downlink(c.ID, len(f.globalAll))
		} else {
			errs[idx] = nn.SetFlatParams(c.Model.ClassifierParams(), f.globalClassifier)
			sim.Downlink(c.ID, len(f.globalClassifier))
		}
		if errs[idx] != nil {
			return
		}
		f.localUpdate(c, sim.Cfg.BatchSize, f.globalClassifier)
		if f.Opts.ShareAllWeights {
			// The classifier rides inside the one full-weight frame
			// (extractor then classifier), so it is the quantized tail of
			// that upload — never fresher than what crossed the wire.
			flatAll[idx] = sim.Uplink(c.ID, nn.FlattenParams(c.Model.Params()))
			nC := nn.NumParams(c.Model.ClassifierParams())
			flatC[idx] = flatAll[idx][len(flatAll[idx])-nC:]
		} else {
			flatC[idx] = sim.Uplink(c.ID, nn.FlattenParams(c.Model.ClassifierParams()))
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Aggregate.
	f.globalClassifier = weightedFlatAverage(sim, participants, flatC)
	if f.Opts.ShareAllWeights {
		f.globalAll = weightedFlatAverage(sim, participants, flatAll)
	}
	return nil
}

// AsyncSetup sizes the sharded aggregation state.
func (f *FedClassAvg) AsyncSetup(sim *fl.Simulation, sched *fl.SchedulerConfig) error {
	f.accC = fl.NewSharded(len(f.globalClassifier), sched.Shards)
	if f.Opts.ShareAllWeights {
		f.accAll = fl.NewSharded(len(f.globalAll), sched.Shards)
	}
	f.mix = sched.MixRate
	f.snapC = make([][]float64, sim.NumClients())
	return nil
}

// AsyncDispatch broadcasts the committed classifier (or, with
// ShareAllWeights, the full model) and snapshots the proximal reference.
func (f *FedClassAvg) AsyncDispatch(sim *fl.Simulation, client int) error {
	c := sim.Client(client)
	if f.Opts.ShareAllWeights {
		if err := nn.SetFlatParams(c.Model.Params(), f.globalAll); err != nil {
			return err
		}
		sim.Downlink(c.ID, len(f.globalAll))
	} else {
		if err := nn.SetFlatParams(c.Model.ClassifierParams(), f.globalClassifier); err != nil {
			return err
		}
		sim.Downlink(c.ID, len(f.globalClassifier))
	}
	f.snapC[client] = append(f.snapC[client][:0], f.globalClassifier...)
	return nil
}

// AsyncLocal runs the composite-objective local epochs against the
// dispatch snapshot and uploads the classifier (and full weights when
// shared).
func (f *FedClassAvg) AsyncLocal(sim *fl.Simulation, client int) (*fl.Update, error) {
	c := sim.Client(client)
	f.localUpdate(c, sim.Cfg.BatchSize, f.snapC[client])
	u := &fl.Update{Client: client, Scale: fl.DataScale(c)}
	if f.Opts.ShareAllWeights {
		// As in the sync round, the classifier is the quantized tail of
		// the single full-weight frame.
		all, bytes := sim.QuantizeUplink(client, nn.FlattenParams(c.Model.Params()))
		nC := nn.NumParams(c.Model.ClassifierParams())
		u.Vecs = [][]float64{all[len(all)-nC:], all}
		u.UpBytes = bytes
	} else {
		flat, bytes := sim.QuantizeUplink(client, nn.FlattenParams(c.Model.ClassifierParams()))
		u.Vecs = [][]float64{flat}
		u.UpBytes = bytes
	}
	return u, nil
}

// AsyncApply folds the staleness-weighted classifier (and optionally full
// weights) into the shards.
func (f *FedClassAvg) AsyncApply(sim *fl.Simulation, u *fl.Update) error {
	f.accC.Accumulate(u.Vecs[0], u.Weight)
	if f.Opts.ShareAllWeights {
		f.accAll.Accumulate(u.Vecs[1], u.Weight)
	}
	return nil
}

// AsyncCommit merges the buffered aggregates into the committed globals.
func (f *FedClassAvg) AsyncCommit(sim *fl.Simulation) error {
	f.accC.CommitInto(f.globalClassifier, f.mix, nil)
	if f.Opts.ShareAllWeights {
		f.accAll.CommitInto(f.globalAll, f.mix, nil)
	}
	return nil
}

// GlobalClassifier exposes the current global classifier weights (a copy),
// used by analysis tooling.
func (f *FedClassAvg) GlobalClassifier() []float64 {
	return append([]float64(nil), f.globalClassifier...)
}

// AlgoSnapshot captures the server state. Layout: Ints = [shareAll,
// hasAcc]; Vecs = [globalClassifier, globalAll?] plus, under async
// schedulers, the classifier accumulator's sums and weights and (with
// ShareAllWeights) the full-weight accumulator's. Per-client proximal
// snapshots (snapC) are not captured — dead after the engine's quiesce.
func (f *FedClassAvg) AlgoSnapshot(sim *fl.Simulation) (*fl.AlgoState, error) {
	shareAll := int64(0)
	st := &fl.AlgoState{Vecs: [][]float64{fl.CloneVec(f.globalClassifier)}}
	if f.Opts.ShareAllWeights {
		shareAll = 1
		st.Vecs = append(st.Vecs, fl.CloneVec(f.globalAll))
	}
	hasAcc := int64(0)
	if f.accC != nil {
		hasAcc = 1
		sum, wsum := f.accC.Snapshot()
		st.Vecs = append(st.Vecs, sum, wsum)
		if f.Opts.ShareAllWeights {
			sumA, wsumA := f.accAll.Snapshot()
			st.Vecs = append(st.Vecs, sumA, wsumA)
		}
	}
	st.Ints = []int64{shareAll, hasAcc}
	return st, nil
}

// AlgoRestore is the inverse of AlgoSnapshot.
func (f *FedClassAvg) AlgoRestore(sim *fl.Simulation, st *fl.AlgoState) error {
	if len(st.Ints) != 2 || len(st.Vecs) < 1 {
		return fmt.Errorf("core: malformed %s state (%d ints, %d vecs)", f.Name(), len(st.Ints), len(st.Vecs))
	}
	shareAll := st.Ints[0] == 1
	if shareAll != f.Opts.ShareAllWeights {
		return fmt.Errorf("core: checkpoint ShareAllWeights=%v, algorithm has %v", shareAll, f.Opts.ShareAllWeights)
	}
	if len(st.Vecs[0]) != len(f.globalClassifier) {
		return fmt.Errorf("core: checkpoint has %d classifier weights, model has %d",
			len(st.Vecs[0]), len(f.globalClassifier))
	}
	copy(f.globalClassifier, st.Vecs[0])
	next := 1
	if shareAll {
		if len(st.Vecs) < 2 || len(st.Vecs[1]) != len(f.globalAll) {
			return fmt.Errorf("core: checkpoint full-weight vector does not match the model")
		}
		copy(f.globalAll, st.Vecs[1])
		next = 2
	}
	if st.Ints[1] == 1 {
		want := next + 2
		if shareAll {
			want += 2
		}
		if f.accC == nil || len(st.Vecs) != want {
			return fmt.Errorf("core: checkpoint carries accumulator state for a different scheduler")
		}
		if err := f.accC.RestoreState(st.Vecs[next], st.Vecs[next+1]); err != nil {
			return err
		}
		if shareAll {
			return f.accAll.RestoreState(st.Vecs[next+2], st.Vecs[next+3])
		}
	}
	return nil
}

// LocalUpdate runs the client's local epochs with the paper's composite
// objective. Exported so ablation and analysis code can drive single
// clients directly.
func (f *FedClassAvg) LocalUpdate(c *fl.Client, batchSize int) {
	f.localUpdate(c, batchSize, f.globalClassifier)
}

// localUpdate is LocalUpdate against an explicit global-classifier
// reference (the client's dispatch snapshot under async schedulers).
func (f *FedClassAvg) localUpdate(c *fl.Client, batchSize int, globalC []float64) {
	for e := 0; e < f.Opts.LocalEpochs; e++ {
		for _, batch := range data.Batches(c.Train, batchSize, c.Rng) {
			f.step(c, batch, globalC)
		}
	}
}

// step performs one mini-batch update.
func (f *FedClassAvg) step(c *fl.Client, batch []data.Example, globalC []float64) {
	n := len(batch)
	ch, h, w := c.InputGeometry()
	dim := ch * h * w
	dt := c.DType()
	labels := make([]int, n)
	// The input batch and the feature-gradient accumulator are pooled (in
	// the model dtype): both are fully consumed by the extractor's backward
	// pass, so they return to the pool at the end of the step. Augmented
	// views arrive as float64 bookkeeping and narrow while packing.
	var x *tensor.Tensor
	if f.Opts.UseContrastive {
		// Stack both augmented views: rows [0,n) = x', rows [n,2n) = x''.
		x = tensor.GetTensorOf(dt, 2*n, ch, h, w)
		for i, ex := range batch {
			v1, v2 := c.Aug.TwoViews(ex.X, c.Rng)
			x.WriteFloat64sAt(i*dim, v1)
			x.WriteFloat64sAt((n+i)*dim, v2)
			labels[i] = ex.Y
		}
	} else {
		x = tensor.GetTensorOf(dt, n, ch, h, w)
		for i, ex := range batch {
			x.WriteFloat64sAt(i*dim, c.Aug.Apply(ex.X, c.Rng))
			labels[i] = ex.Y
		}
	}
	feats := c.Model.Extractor.Forward(x, true)
	// Cross-entropy on view one.
	view1 := feats.SliceRows(0, n)
	logits := c.Model.Classifier.Forward(view1, true)
	_, dlogits := loss.CrossEntropy(logits, labels)
	dview1 := c.Model.Classifier.Backward(dlogits)
	dfeats := tensor.GetTensorOf(dt, feats.Rows(), feats.Cols())
	tensor.CopySegment(dfeats, 0, dview1, 0, n*feats.Cols())
	if f.Opts.UseContrastive {
		_, dcl := loss.SupCon(feats, labels, loss.SupConOptions{Temperature: f.Opts.Tau})
		dfeats.AddInPlace(dcl)
	}
	c.Model.Extractor.Backward(dfeats)
	tensor.PutTensor(dfeats)
	tensor.PutTensor(x)
	if f.Opts.UseProximal && globalC != nil {
		loss.Proximal(c.Model.ClassifierParams(), globalC, f.Opts.Rho)
	}
	params := c.Model.Params()
	c.Optimizer.Step(params)
	nn.ZeroGrads(params)
}

// averageFlat computes the |D_k|-weighted average of the selected clients'
// chosen parameter subsets, flattened.
func (f *FedClassAvg) averageFlat(sim *fl.Simulation, ids []int, pick func(*fl.Client) []*nn.Param) []float64 {
	flats := make([][]float64, len(ids))
	for i, id := range ids {
		flats[i] = nn.FlattenParams(pick(sim.Client(id)))
	}
	return weightedFlatAverage(sim, ids, flats)
}

// weightedFlatAverage folds pre-flattened (and wire-quantized) uploads with
// the same |D_k| weighting as averageFlat.
func weightedFlatAverage(sim *fl.Simulation, ids []int, flats [][]float64) []float64 {
	var total float64
	for _, id := range ids {
		total += float64(len(sim.Client(id).Train))
	}
	if total == 0 {
		total = float64(len(ids))
	}
	var out []float64
	for i, id := range ids {
		c := sim.Client(id)
		wgt := float64(len(c.Train)) / total
		if len(c.Train) == 0 {
			wgt = 1 / total
		}
		flat := flats[i]
		if out == nil {
			out = make([]float64, len(flat))
		}
		for j, v := range flat {
			out[j] += wgt * v
		}
	}
	return out
}
