package baselines

import (
	"errors"
	"fmt"

	"repro/internal/comm"
	"repro/internal/fl"
	"repro/internal/loss"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// FedAvg is communication-efficient federated averaging over homogeneous
// models (McMahan et al. 2017): clients download the global model, train
// locally with cross-entropy, upload all weights, and the server averages
// them weighted by local dataset size. With Mu > 0 it becomes FedProx
// (Li et al. 2020): the local objective gains the proximal term
// (μ/2)·‖w − w_global‖² over all weights. The server half, sync, async and
// wire, is the embedded weight-averaging half over the whole model.
type FedAvg struct {
	LocalEpochs int
	// Mu is the FedProx proximal coefficient; 0 yields plain FedAvg.
	Mu float64
	*fl.WeightAvg
}

var _ fl.ReducibleWireAlgorithm = (*FedAvg)(nil)

// NewFedAvg builds plain FedAvg.
func NewFedAvg(epochs int) *FedAvg { return NewFedProx(epochs, 0) }

// NewFedProx builds FedProx with proximal coefficient mu.
func NewFedProx(epochs int, mu float64) *FedAvg {
	f := &FedAvg{LocalEpochs: max1(epochs), Mu: mu}
	f.WeightAvg = fl.NewWeightAvg(f)
	return f
}

// Name identifies the algorithm.
func (f *FedAvg) Name() string {
	if f.Mu > 0 {
		return "FedProx"
	}
	return "FedAvg"
}

// EpochsPerRound reports the local epochs per round.
func (f *FedAvg) EpochsPerRound() int { return f.LocalEpochs }

// Setup builds the server state from the probe clients' joins through
// WireSetup, the one place it is built.
func (f *FedAvg) Setup(sim *fl.Simulation) error {
	joins, err := sim.SetupJoins(f)
	if err != nil {
		return err
	}
	return f.WireSetup(joins, tensor.Workers())
}

// WireSetup verifies homogeneity and adopts client 0's join weights as the
// global model, so all clients start from one common initialization, as
// FedAvg assumes.
func (f *FedAvg) WireSetup(joins []fl.WireJoin, shards int) error {
	if len(joins) == 0 {
		return errors.New("baselines: no clients")
	}
	n := joins[0].NumParams
	for _, j := range joins[1:] {
		if j.NumParams != n {
			return fmt.Errorf("baselines: %s requires homogeneous models; client %d differs", f.Name(), j.ID)
		}
	}
	return f.WireStart(joins, n, false, shards)
}

// Shared is the whole model.
func (f *FedAvg) Shared(c *fl.Client) []*nn.Param { return c.Model.Params() }

// Ref is the whole downloaded model under FedProx and nothing under FedAvg.
func (f *FedAvg) Ref(c *fl.Client, shared []float64) []float64 {
	if f.Mu > 0 {
		return shared
	}
	return nil
}

// Pulls is FedProx's proximal term.
func (f *FedAvg) Pulls(*fl.Client) bool { return f.Mu > 0 }

// Upload is the model alone.
func (f *FedAvg) Upload(c *fl.Client, shared []float64) []comm.Body {
	return []comm.Body{comm.AsF64Body(shared)}
}

// Train runs a group's local epochs; under FedProx each client's proximal
// reference is refs[k], the weights it downloaded.
func (f *FedAvg) Train(group []*fl.Client, batchSize int, refs [][]float64) {
	var obj fl.Objective
	if f.Mu > 0 {
		params := make([][]*nn.Param, len(group))
		for k, c := range group {
			params[k] = c.Model.Params()
		}
		// FedProx uses (μ/2)‖w−w_g‖², i.e. Proximal with ρ = μ/2.
		obj.Hook = func(k int) { loss.Proximal(params[k], refs[k], f.Mu/2) }
	}
	fl.TrainEpochs(group, batchSize, f.LocalEpochs, obj)
}

// AsyncLocal is AsyncLocalGroup for one client. Its only caller is
// benchmark/shim.go; it retires with the one algorithm surface.
func (f *FedAvg) AsyncLocal(sim *fl.Simulation, client int) (*fl.Update, error) {
	us, err := f.AsyncLocalGroup(sim, []int{client})
	if err != nil {
		return nil, err
	}
	return us[0], nil
}

// AlgoSnapshot captures the server state. Layout: Vecs = [global]. The
// accumulator is empty at every checkpoint boundary, and per-client proximal
// snapshots are dead after the engine's quiesce until the next dispatch
// rewrites them, so neither is captured.
func (f *FedAvg) AlgoSnapshot() (*fl.AlgoState, error) {
	return &fl.AlgoState{Vecs: [][]float64{f.Global()}}, nil
}

// AlgoRestore is the inverse of AlgoSnapshot.
func (f *FedAvg) AlgoRestore(st *fl.AlgoState) error {
	if len(st.Ints) != 0 || len(st.Vecs) != 1 {
		return fmt.Errorf("baselines: malformed %s state (%d ints, %d vecs)", f.Name(), len(st.Ints), len(st.Vecs))
	}
	return f.RestoreGlobal(st.Vecs[0])
}

func max1(v int) int {
	if v <= 0 {
		return 1
	}
	return v
}
