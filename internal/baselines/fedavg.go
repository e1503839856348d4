package baselines

import (
	"errors"
	"fmt"

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
// (μ/2)·‖w − w_global‖² over all weights.
type FedAvg struct {
	LocalEpochs int
	// Mu is the FedProx proximal coefficient; 0 yields plain FedAvg.
	Mu float64

	global []float64

	// Async-scheduler state: the sharded aggregation buffer, the commit
	// mixing rate, and per-client broadcast snapshots (the proximal
	// reference must be the weights the client actually downloaded, not
	// whatever the server has mutated to since).
	acc   *fl.ShardedAccumulator
	mix   float64
	snaps [][]float64

	// pre is the edge-aggregator half's reduction state (PreReduce).
	pre fl.VecReducer
}

// NewFedAvg builds plain FedAvg.
func NewFedAvg(epochs int) *FedAvg { return &FedAvg{LocalEpochs: max1(epochs)} }

// NewFedProx builds FedProx with proximal coefficient mu.
func NewFedProx(epochs int, mu float64) *FedAvg {
	return &FedAvg{LocalEpochs: max1(epochs), Mu: mu}
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

// LossyUploads marks FedAvg/FedProx weight uploads as tolerant of wire
// sparsification and delta framing: the server only ever averages them.
func (f *FedAvg) LossyUploads() bool { return true }

// Setup verifies homogeneity and initializes the global model from client 0
// so all clients start from one common initialization, as FedAvg assumes.
func (f *FedAvg) Setup(sim *fl.Simulation) error {
	if sim.NumClients() == 0 {
		return errors.New("baselines: no clients")
	}
	probe := sim.SetupIDs()
	n := nn.NumParams(sim.Client(probe[0]).Model.Params())
	for _, id := range probe[1:] {
		c := sim.Client(id)
		if nn.NumParams(c.Model.Params()) != n {
			return fmt.Errorf("baselines: %s requires homogeneous models; client %d differs", f.Name(), c.ID)
		}
	}
	f.global = nn.FlattenParams(sim.Client(probe[0]).Model.Params())
	return nil
}

// Round broadcasts, trains each same-configuration group of participants in
// lockstep (with the optional proximal term against the broadcast) and
// aggregates all weights.
func (f *FedAvg) Round(sim *fl.Simulation, round int, participants []int) error {
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
			refs[i] = f.global
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
	f.global = fl.WeightedAverage(us, 0)
	return nil
}

// download installs the committed global model on one client.
func (f *FedAvg) download(sim *fl.Simulation, c *fl.Client) error {
	if err := nn.SetFlatParams(c.Model.Params(), f.global); err != nil {
		return err
	}
	sim.Downlink(len(f.global))
	return nil
}

// train runs a group's local epochs; under FedProx each client's proximal
// reference is refs[k], the weights it downloaded.
func (f *FedAvg) train(group []*fl.Client, batchSize int, refs [][]float64) {
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

// local trains a group and returns each client's full weights — its
// FlatUpload vector, valid until its next local — passed through the upload
// framing with their bytes not yet booked.
func (f *FedAvg) local(sim *fl.Simulation, group []*fl.Client, refs [][]float64) []*fl.Update {
	f.train(group, sim.Cfg.BatchSize, refs)
	us := make([]*fl.Update, len(group))
	for i, c := range group {
		flat, bytes := sim.QuantizeUplink(c.ID, c.FlatUpload(c.Model.Params()))
		us[i] = &fl.Update{Client: c.ID, Scale: fl.DataScale(len(c.Train)), Vecs: [][]float64{flat}, UpBytes: bytes}
	}
	return us
}

// AsyncLocalGroup trains a group against its dispatch snapshots and
// returns each client's update, in order.
func (f *FedAvg) AsyncLocalGroup(sim *fl.Simulation, clients []int) ([]*fl.Update, error) {
	group := make([]*fl.Client, len(clients))
	refs := make([][]float64, len(clients))
	for i, id := range clients {
		group[i], refs[i] = sim.Client(id), f.snaps[id]
	}
	return f.local(sim, group, refs), nil
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

// AsyncSetup sizes the sharded aggregation state.
func (f *FedAvg) AsyncSetup(sim *fl.Simulation, sched *fl.SchedulerConfig) error {
	f.acc = fl.NewSharded(len(f.global), tensor.Workers())
	f.mix = sched.MixRate
	f.snaps = make([][]float64, sim.NumClients())
	return nil
}

// AsyncDispatch broadcasts the committed global model to one client and,
// for FedProx, snapshots it as the proximal reference.
func (f *FedAvg) AsyncDispatch(sim *fl.Simulation, client int) error {
	if err := f.download(sim, sim.Client(client)); err != nil {
		return err
	}
	if f.Mu > 0 {
		f.snaps[client] = append(f.snaps[client][:0], f.global...)
	}
	return nil
}

// AsyncApply folds a staleness-weighted client model into the accumulator.
func (f *FedAvg) AsyncApply(sim *fl.Simulation, u *fl.Update) error {
	f.acc.Accumulate(u.Vecs[0], u.Weight)
	return nil
}

// AsyncCommit merges the buffered weighted average into the global model.
func (f *FedAvg) AsyncCommit(sim *fl.Simulation) error {
	f.acc.CommitInto(f.global, f.mix, nil)
	return nil
}

// Global returns a copy of the current global weight vector.
func (f *FedAvg) Global() []float64 { return append([]float64(nil), f.global...) }

// AlgoSnapshot captures the server state. Layout: Vecs = [global]. The
// accumulator is empty at every checkpoint boundary, and per-client proximal
// snapshots are dead after the engine's quiesce until the next dispatch
// rewrites them, so neither is captured.
func (f *FedAvg) AlgoSnapshot(sim *fl.Simulation) (*fl.AlgoState, error) {
	return &fl.AlgoState{Vecs: [][]float64{fl.CloneVec(f.global)}}, nil
}

// AlgoRestore is the inverse of AlgoSnapshot.
func (f *FedAvg) AlgoRestore(sim *fl.Simulation, st *fl.AlgoState) error {
	if len(st.Ints) != 0 || len(st.Vecs) != 1 {
		return fmt.Errorf("baselines: malformed %s state (%d ints, %d vecs)", f.Name(), len(st.Ints), len(st.Vecs))
	}
	if len(st.Vecs[0]) != len(f.global) {
		return fmt.Errorf("baselines: %s checkpoint has %d global weights, model has %d",
			f.Name(), len(st.Vecs[0]), len(f.global))
	}
	copy(f.global, st.Vecs[0])
	return nil
}

func max1(v int) int {
	if v <= 0 {
		return 1
	}
	return v
}
