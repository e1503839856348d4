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

// Round performs one FedClassAvg communication round: each same-
// configuration group of participants downloads, trains in lockstep against
// the broadcast classifier and uploads.
func (f *FedClassAvg) Round(sim *fl.Simulation, round int, participants []int) error {
	if len(participants) == 0 {
		return nil
	}
	us := make([]*fl.Update, len(participants))
	errs := make([]error, len(participants))
	fl.ParallelGroups(sim, participants, func(group []*fl.Client, pos []int) {
		refs := make([][]float64, len(group))
		for i, c := range group {
			if errs[pos[i]] = f.download(sim, c); errs[pos[i]] != nil {
				return
			}
			refs[i] = f.globalClassifier
		}
		for i, u := range f.local(sim, group, refs) {
			sim.Ledger.AddUp(u.UpBytes)
			us[pos[i]] = u
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	f.globalClassifier = fl.WeightedAverage(us, 0)
	if f.Opts.ShareAllWeights {
		f.globalAll = fl.WeightedAverage(us, 1)
	}
	return nil
}

// download installs the committed classifier (or, with ShareAllWeights, the
// full model) on one client.
func (f *FedClassAvg) download(sim *fl.Simulation, c *fl.Client) error {
	global, params := f.globalClassifier, c.Model.ClassifierParams()
	if f.Opts.ShareAllWeights {
		global, params = f.globalAll, c.Model.Params()
	}
	if err := nn.SetFlatParams(params, global); err != nil {
		return err
	}
	sim.Downlink(len(global))
	return nil
}

// train runs a group's local epochs with the paper's composite objective:
// cross-entropy on view one, SupCon over both views, and the proximal pull of
// client k's classifier toward refs[k], the classifier it downloaded.
func (f *FedClassAvg) train(group []*fl.Client, batchSize int, refs [][]float64) {
	obj := fl.Objective{TwoViews: f.Opts.UseContrastive}
	if f.Opts.UseContrastive {
		opts := loss.SupConOptions{Temperature: f.Opts.Tau}
		obj.Head = func(_ int, feats, dfeats *tensor.Tensor, labels []int) {
			_, dcl := loss.SupCon(feats, labels, opts)
			dfeats.AddInPlace(dcl)
		}
	}
	if f.Opts.UseProximal {
		clfs := make([][]*nn.Param, len(group))
		for k, c := range group {
			clfs[k] = c.Model.ClassifierParams()
		}
		obj.Hook = func(k int) { loss.Proximal(clfs[k], refs[k], f.Opts.Rho) }
	}
	fl.TrainEpochs(group, batchSize, f.Opts.LocalEpochs, obj)
}

// local trains a group and returns each client's upload — the classifier,
// or with ShareAllWeights the full weights and the classifier as their tail —
// passed through the upload framing with its bytes not yet booked.
func (f *FedClassAvg) local(sim *fl.Simulation, group []*fl.Client, refs [][]float64) []*fl.Update {
	f.train(group, sim.Cfg.BatchSize, refs)
	us := make([]*fl.Update, len(group))
	for i, c := range group {
		u := &fl.Update{Client: c.ID, Scale: fl.DataScale(len(c.Train))}
		if f.Opts.ShareAllWeights {
			// The classifier rides inside the one full-weight frame
			// (extractor then classifier), so it is the quantized tail of
			// that upload — never fresher than what crossed the wire.
			all, bytes := sim.QuantizeUplink(c.ID, nn.FlattenParams(c.Model.Params()))
			nC := nn.NumParams(c.Model.ClassifierParams())
			u.Vecs, u.UpBytes = [][]float64{all[len(all)-nC:], all}, bytes
		} else {
			flat, bytes := sim.QuantizeUplink(c.ID, nn.FlattenParams(c.Model.ClassifierParams()))
			u.Vecs, u.UpBytes = [][]float64{flat}, bytes
		}
		us[i] = u
	}
	return us
}

// AsyncSetup sizes the sharded aggregation state.
func (f *FedClassAvg) AsyncSetup(sim *fl.Simulation, sched *fl.SchedulerConfig) error {
	f.accC = fl.NewSharded(len(f.globalClassifier), tensor.Workers())
	if f.Opts.ShareAllWeights {
		f.accAll = fl.NewSharded(len(f.globalAll), tensor.Workers())
	}
	f.mix = sched.MixRate
	f.snapC = make([][]float64, sim.NumClients())
	return nil
}

// AsyncDispatch broadcasts the committed classifier (or, with
// ShareAllWeights, the full model) and snapshots the proximal reference.
func (f *FedClassAvg) AsyncDispatch(sim *fl.Simulation, client int) error {
	if err := f.download(sim, sim.Client(client)); err != nil {
		return err
	}
	f.snapC[client] = append(f.snapC[client][:0], f.globalClassifier...)
	return nil
}

// AsyncLocalGroup trains a group against its dispatch snapshots and
// uploads each client's classifier (and full weights when shared).
func (f *FedClassAvg) AsyncLocalGroup(sim *fl.Simulation, clients []int) ([]*fl.Update, error) {
	group := make([]*fl.Client, len(clients))
	refs := make([][]float64, len(clients))
	for i, id := range clients {
		group[i], refs[i] = sim.Client(id), f.snapC[id]
	}
	return f.local(sim, group, refs), nil
}

// AsyncApply folds the staleness-weighted classifier (and optionally full
// weights) into the accumulators.
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

// AlgoSnapshot captures the server state. Layout: Ints = [shareAll]; Vecs =
// [globalClassifier, globalAll?]. The accumulators are empty at every
// checkpoint boundary, and per-client proximal snapshots (snapC) are dead
// after the engine's quiesce, so neither is captured.
func (f *FedClassAvg) AlgoSnapshot(sim *fl.Simulation) (*fl.AlgoState, error) {
	shareAll := int64(0)
	st := &fl.AlgoState{Vecs: [][]float64{fl.CloneVec(f.globalClassifier)}}
	if f.Opts.ShareAllWeights {
		shareAll = 1
		st.Vecs = append(st.Vecs, fl.CloneVec(f.globalAll))
	}
	st.Ints = []int64{shareAll}
	return st, nil
}

// AlgoRestore is the inverse of AlgoSnapshot.
func (f *FedClassAvg) AlgoRestore(sim *fl.Simulation, st *fl.AlgoState) error {
	if len(st.Ints) != 1 || len(st.Vecs) < 1 {
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
	if shareAll {
		if len(st.Vecs) < 2 || len(st.Vecs[1]) != len(f.globalAll) {
			return fmt.Errorf("core: checkpoint full-weight vector does not match the model")
		}
		copy(f.globalAll, st.Vecs[1])
	}
	return nil
}

// LocalUpdate trains one client alone against the global classifier. Its
// only caller is benchmark/probe.go; it retires with the one algorithm
// surface.
func (f *FedClassAvg) LocalUpdate(c *fl.Client, batchSize int) {
	f.train([]*fl.Client{c}, batchSize, [][]float64{f.globalClassifier})
}

// averageFlat computes the |D_k|-weighted average of the selected clients'
// chosen parameter subsets, flattened.
func (f *FedClassAvg) averageFlat(sim *fl.Simulation, ids []int, pick func(*fl.Client) []*nn.Param) []float64 {
	us := make([]*fl.Update, len(ids))
	for i, id := range ids {
		c := sim.Client(id)
		us[i] = &fl.Update{Scale: fl.DataScale(len(c.Train)), Vecs: [][]float64{nn.FlattenParams(pick(c))}}
	}
	return fl.WeightedAverage(us, 0)
}
