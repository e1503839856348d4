package baselines

import (
	"errors"
	"fmt"

	"repro/internal/data"
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

// Round broadcasts, trains locally (with optional proximal term) and
// aggregates all weights. With grouping enabled (and no proximal term) the
// cohort trains as same-configuration lockstep groups with cross-client
// batched GEMMs — byte-identical to the per-client path by the grouping
// invariance contract (DESIGN.md §12).
func (f *FedAvg) Round(sim *fl.Simulation, round int, participants []int) error {
	if len(participants) == 0 {
		return nil
	}
	if f.GroupLocal() && fl.CohortGrouping() {
		return f.roundGrouped(sim, participants)
	}
	errs := make([]error, len(participants))
	flats := make([][]float64, len(participants))
	fl.ParallelClients(len(participants), func(idx int) {
		c := sim.Client(participants[idx])
		errs[idx] = nn.SetFlatParams(c.Model.Params(), f.global)
		if errs[idx] != nil {
			return
		}
		sim.Downlink(c.ID, len(f.global))
		for e := 0; e < f.LocalEpochs; e++ {
			if f.Mu > 0 {
				f.trainEpochProx(c, sim.Cfg.BatchSize, f.global)
			} else {
				c.TrainEpochCE(sim.Cfg.BatchSize)
			}
		}
		flats[idx] = sim.Uplink(c.ID, nn.FlattenParams(c.Model.Params()))
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	f.global = weightedAverage(sim, participants, flats)
	return nil
}

// roundGrouped is the cohort-grouped sync round: broadcast per client, then
// one lockstep training pass per same-configuration group, then the same
// weighted aggregation over uploads in participant order.
func (f *FedAvg) roundGrouped(sim *fl.Simulation, participants []int) error {
	flats := make([][]float64, len(participants))
	slot := make(map[int]int, len(participants))
	for i, id := range participants {
		slot[id] = i
	}
	for _, grp := range fl.GroupCohort(sim, participants) {
		cs := make([]*fl.Client, len(grp))
		for i, id := range grp {
			c := sim.Client(id)
			if err := nn.SetFlatParams(c.Model.Params(), f.global); err != nil {
				return err
			}
			sim.Downlink(c.ID, len(f.global))
			cs[i] = c
		}
		for e := 0; e < f.LocalEpochs; e++ {
			fl.TrainEpochGroupCE(cs, sim.Cfg.BatchSize)
		}
		for i, id := range grp {
			flats[slot[id]] = sim.Uplink(cs[i].ID, nn.FlattenParams(cs[i].Model.Params()))
		}
	}
	f.global = weightedAverage(sim, participants, flats)
	return nil
}

// GroupLocal reports whether lockstep grouped training is valid: plain
// FedAvg groups; FedProx's proximal reference is per client, so it opts out.
func (f *FedAvg) GroupLocal() bool { return f.Mu == 0 }

// AsyncLocalGroup trains a same-configuration cohort slice in lockstep and
// returns each client's update, in order.
func (f *FedAvg) AsyncLocalGroup(sim *fl.Simulation, clients []int) ([]*fl.Update, error) {
	cs := make([]*fl.Client, len(clients))
	for i, id := range clients {
		cs[i] = sim.Client(id)
	}
	for e := 0; e < f.LocalEpochs; e++ {
		fl.TrainEpochGroupCE(cs, sim.Cfg.BatchSize)
	}
	us := make([]*fl.Update, len(clients))
	for i, id := range clients {
		flat, bytes := sim.QuantizeUplink(id, nn.FlattenParams(cs[i].Model.Params()))
		us[i] = &fl.Update{Client: id, Scale: fl.DataScale(cs[i]), Vecs: [][]float64{flat}, UpBytes: bytes}
	}
	return us, nil
}

// AsyncSetup sizes the sharded aggregation state.
func (f *FedAvg) AsyncSetup(sim *fl.Simulation, sched *fl.SchedulerConfig) error {
	f.acc = fl.NewSharded(len(f.global), sched.Shards)
	f.mix = sched.MixRate
	f.snaps = make([][]float64, sim.NumClients())
	return nil
}

// AsyncDispatch broadcasts the committed global model to one client and,
// for FedProx, snapshots it as the proximal reference.
func (f *FedAvg) AsyncDispatch(sim *fl.Simulation, client int) error {
	c := sim.Client(client)
	if err := nn.SetFlatParams(c.Model.Params(), f.global); err != nil {
		return err
	}
	sim.Downlink(c.ID, len(f.global))
	if f.Mu > 0 {
		f.snaps[client] = append(f.snaps[client][:0], f.global...)
	}
	return nil
}

// AsyncLocal trains the client against its dispatch snapshot and uploads
// its full weights.
func (f *FedAvg) AsyncLocal(sim *fl.Simulation, client int) (*fl.Update, error) {
	c := sim.Client(client)
	for e := 0; e < f.LocalEpochs; e++ {
		if f.Mu > 0 {
			f.trainEpochProx(c, sim.Cfg.BatchSize, f.snaps[client])
		} else {
			c.TrainEpochCE(sim.Cfg.BatchSize)
		}
	}
	flat, bytes := sim.QuantizeUplink(client, nn.FlattenParams(c.Model.Params()))
	return &fl.Update{Client: client, Scale: fl.DataScale(c), Vecs: [][]float64{flat}, UpBytes: bytes}, nil
}

// AsyncApply folds a staleness-weighted client model into the shards.
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

// AlgoSnapshot captures the server state. Layout: Ints = [hasAcc]; Vecs =
// [global] plus, under async schedulers, the accumulator's sums and
// per-shard weights. Per-client proximal snapshots are not captured — after
// the engine's quiesce they are dead until the next dispatch rewrites them.
func (f *FedAvg) AlgoSnapshot(sim *fl.Simulation) (*fl.AlgoState, error) {
	st := &fl.AlgoState{Vecs: [][]float64{fl.CloneVec(f.global)}}
	hasAcc := int64(0)
	if f.acc != nil {
		hasAcc = 1
		sum, wsum := f.acc.Snapshot()
		st.Vecs = append(st.Vecs, sum, wsum)
	}
	st.Ints = []int64{hasAcc}
	return st, nil
}

// AlgoRestore is the inverse of AlgoSnapshot.
func (f *FedAvg) AlgoRestore(sim *fl.Simulation, st *fl.AlgoState) error {
	if len(st.Ints) != 1 || len(st.Vecs) < 1 {
		return fmt.Errorf("baselines: malformed %s state (%d ints, %d vecs)", f.Name(), len(st.Ints), len(st.Vecs))
	}
	if len(st.Vecs[0]) != len(f.global) {
		return fmt.Errorf("baselines: %s checkpoint has %d global weights, model has %d",
			f.Name(), len(st.Vecs[0]), len(f.global))
	}
	copy(f.global, st.Vecs[0])
	if st.Ints[0] == 1 {
		if f.acc == nil || len(st.Vecs) != 3 {
			return fmt.Errorf("baselines: %s checkpoint carries accumulator state for a different scheduler", f.Name())
		}
		return f.acc.RestoreState(st.Vecs[1], st.Vecs[2])
	}
	return nil
}

// trainEpochProx is one cross-entropy epoch with the FedProx proximal term
// against the given reference weights (the client's last download).
func (f *FedAvg) trainEpochProx(c *fl.Client, batchSize int, global []float64) {
	params := c.Model.Params()
	for _, b := range data.Batches(c.Train, batchSize, c.Rng) {
		x, y := c.AugmentedBatch(b)
		_, logits := c.Model.Forward(x, true)
		_, dlogits := loss.CrossEntropy(logits, y)
		dfeat := c.Model.Classifier.Backward(dlogits)
		c.Model.Extractor.Backward(dfeat)
		// FedProx uses (μ/2)‖w−w_g‖², i.e. Proximal with ρ = μ/2.
		loss.Proximal(params, global, f.Mu/2)
		c.Optimizer.Step(params)
		nn.ZeroGrads(params)
	}
}

// weightedAverage computes the |D_k|-weighted flat average of the selected
// clients' uploaded weight vectors.
func weightedAverage(sim *fl.Simulation, ids []int, flats [][]float64) []float64 {
	var total float64
	for _, id := range ids {
		total += float64(len(sim.Client(id).Train))
	}
	var out []float64
	for i, id := range ids {
		c := sim.Client(id)
		wgt := 1.0 / float64(len(ids))
		if total > 0 {
			wgt = float64(len(c.Train)) / total
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

func max1(v int) int {
	if v <= 0 {
		return 1
	}
	return v
}

// batchForward is a shared helper: forward a labeled (augmented) batch,
// returning features, logits and labels.
func batchForward(c *fl.Client, b []data.Example, train bool) (feats, logits *tensor.Tensor, y []int) {
	x, y := c.AugmentedBatch(b)
	feats, logits = c.Model.Forward(x, train)
	return feats, logits, y
}
