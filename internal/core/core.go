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

	"repro/internal/comm"
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

// FedClassAvg implements fl.Algorithm, fl.AsyncAlgorithm and the wire
// halves through the weight-averaging half it embeds: the shared vector is
// the classifier, or with ShareAllWeights the whole model, whose tail is the
// classifier (extractor precedes classifier in the parameter arena).
type FedClassAvg struct {
	Opts Options
	*fl.WeightAvg

	// nC is the classifier's length, the tail of the global vector.
	nC int
}

var _ fl.ReducibleWireAlgorithm = (*FedClassAvg)(nil)

// New builds the algorithm.
func New(opts Options) *FedClassAvg {
	if opts.LocalEpochs <= 0 {
		opts.LocalEpochs = 1
	}
	if opts.Tau <= 0 {
		opts.Tau = 0.1
	}
	f := &FedClassAvg{Opts: opts}
	f.WeightAvg = fl.NewWeightAvg(f)
	return f
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

// Setup builds the server state from the probe clients' joins through
// WireSetup, the one place it is built.
func (f *FedClassAvg) Setup(sim *fl.Simulation) error {
	joins, err := sim.SetupJoins(f)
	if err != nil {
		return err
	}
	return f.WireSetup(joins, tensor.Workers())
}

// WireSetup checks that every join declares client 0's classifier geometry
// (and, with ShareAllWeights, its parameter count) and starts the global
// vector as the |D_k|-weighted average of the init payloads.
func (f *FedClassAvg) WireSetup(joins []fl.WireJoin, shards int) error {
	if len(joins) == 0 {
		return errors.New("core: no clients")
	}
	ref := joins[0]
	for _, j := range joins[1:] {
		if j.FeatDim != ref.FeatDim || j.NumClasses != ref.NumClasses {
			return fmt.Errorf("core: client %d classifier shape (%d→%d) differs from client 0 (%d→%d)",
				j.ID, j.FeatDim, j.NumClasses, ref.FeatDim, ref.NumClasses)
		}
		if f.Opts.ShareAllWeights && j.NumParams != ref.NumParams {
			return fmt.Errorf("core: ShareAllWeights requires homogeneous models; client %d differs", j.ID)
		}
	}
	want := ref.NumClassifier
	if f.Opts.ShareAllWeights {
		want = ref.NumParams
	}
	if ref.NumClassifier <= 0 || ref.NumClassifier > want {
		return fmt.Errorf("core: client 0 declared %d classifier weights of %d total", ref.NumClassifier, want)
	}
	f.nC = ref.NumClassifier
	return f.WireStart(joins, want, true, shards)
}

// Shared is the classifier, or with ShareAllWeights the whole model.
func (f *FedClassAvg) Shared(c *fl.Client) []*nn.Param {
	if f.Opts.ShareAllWeights {
		return c.Model.Params()
	}
	return c.Model.ClassifierParams()
}

// Ref is the classifier tail of a downloaded vector when the proximal term
// is on: proximal regularization applies to the classifier only, "+weight"
// included, as in the paper.
func (f *FedClassAvg) Ref(c *fl.Client, shared []float64) []float64 {
	if !f.Opts.UseProximal {
		return nil
	}
	return shared[len(shared)-nn.NumParams(c.Model.ClassifierParams()):]
}

// Pulls is the proximal term.
func (f *FedClassAvg) Pulls(*fl.Client) bool { return f.Opts.UseProximal }

// Upload is the shared vector; with ShareAllWeights it is led by a view of
// its classifier tail, the layout in-flight "+weight" updates have in
// checkpoints.
func (f *FedClassAvg) Upload(c *fl.Client, shared []float64) []comm.Body {
	if !f.Opts.ShareAllWeights {
		return []comm.Body{comm.AsF64Body(shared)}
	}
	return []comm.Body{comm.AsF64Body(shared[len(shared)-nn.NumParams(c.Model.ClassifierParams()):]), comm.AsF64Body(shared)}
}

// Train runs a group's local epochs with the paper's composite objective:
// cross-entropy on view one, SupCon over both views, and the proximal pull of
// client k's classifier toward refs[k], the classifier it downloaded.
func (f *FedClassAvg) Train(group []*fl.Client, batchSize int, refs [][]float64) {
	obj := fl.Objective{TwoViews: f.Opts.UseContrastive}
	if f.Opts.UseContrastive {
		opts := loss.SupConOptions{Temperature: f.Opts.Tau}
		obj.Head = func(_ int, feats, dfeats *tensor.Tensor, labels []int) {
			_, dcl := loss.SupCon(feats, labels, opts)
			dfeats.AddInPlace(dcl)
			tensor.PutTensor(dcl)
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

// GlobalClassifier exposes the current global classifier weights (a copy),
// used by analysis tooling.
func (f *FedClassAvg) GlobalClassifier() []float64 {
	g := f.Global()
	return g[len(g)-f.nC:]
}

// AlgoSnapshot captures the server state. Layout: Ints = [shareAll]; Vecs =
// [classifier, all weights?] — under ShareAllWeights the classifier is the
// tail of the second vector. The accumulator is empty at every checkpoint
// boundary, and per-client proximal snapshots are dead after the engine's
// quiesce, so neither is captured.
func (f *FedClassAvg) AlgoSnapshot() (*fl.AlgoState, error) {
	g := f.Global()
	if !f.Opts.ShareAllWeights {
		return &fl.AlgoState{Ints: []int64{0}, Vecs: [][]float64{g}}, nil
	}
	return &fl.AlgoState{Ints: []int64{1}, Vecs: [][]float64{fl.CloneVec(g[len(g)-f.nC:]), g}}, nil
}

// AlgoRestore is the inverse of AlgoSnapshot.
func (f *FedClassAvg) AlgoRestore(st *fl.AlgoState) error {
	if len(st.Ints) != 1 || len(st.Vecs) < 1 {
		return fmt.Errorf("core: malformed %s state (%d ints, %d vecs)", f.Name(), len(st.Ints), len(st.Vecs))
	}
	shareAll := st.Ints[0] == 1
	if shareAll != f.Opts.ShareAllWeights {
		return fmt.Errorf("core: checkpoint ShareAllWeights=%v, algorithm has %v", shareAll, f.Opts.ShareAllWeights)
	}
	if len(st.Vecs[0]) != f.nC {
		return fmt.Errorf("core: checkpoint has %d classifier weights, model has %d", len(st.Vecs[0]), f.nC)
	}
	if !shareAll {
		return f.RestoreGlobal(st.Vecs[0])
	}
	if len(st.Vecs) < 2 {
		return fmt.Errorf("core: checkpoint has no full-weight vector")
	}
	return f.RestoreGlobal(st.Vecs[1])
}

// LocalUpdate trains one client alone against the global classifier. Its
// only caller is benchmark/probe.go; it retires with the one algorithm
// surface.
func (f *FedClassAvg) LocalUpdate(c *fl.Client, batchSize int) {
	f.Train([]*fl.Client{c}, batchSize, [][]float64{f.Ref(c, f.Global())})
}
