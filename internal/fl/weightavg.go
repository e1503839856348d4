package fl

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// WeightMethod is what a weight-averaging algorithm supplies to its
// WeightAvg half: the part of the method that is its own. Everything else —
// the global vector, the sync average, the accumulator, the wire halves and
// the edge pre-reduction — is the half's.
type WeightMethod interface {
	Name() string
	// Shared returns the suffix of c's parameter arena the method averages:
	// the classifier, or the whole model.
	Shared(c *Client) []*nn.Param
	// Ref returns the tail of a shared vector c downloaded that c's local
	// objective pulls toward, or nil when the objective reads none.
	Ref(c *Client, shared []float64) []float64
	// Pulls reports whether c's local objective reads a Ref at all; when
	// it does not, a broadcast is installed and nothing else of it read.
	Pulls(c *Client) bool
	// Train runs one group's local epochs; refs[k] is member k's Ref.
	Train(group []*Client, batchSize int, refs [][]float64)
	// Upload returns an in-process update's vectors around c's quantized
	// shared upload, which is their last entry and the one the half
	// averages. Checkpoints store in-flight updates as they are.
	Upload(c *Client, shared []float64) []comm.Body
}

// WeightAvg is the server half, and the local step, of every method whose
// upload is one weight vector — FedClassAvg's classifier (or whole model
// under "+weight"), FedAvg's and FedProx's whole model. The methods embed it
// and supply a WeightMethod; it owns the global vector, the sync round's
// |D_k|-weighted average, the accumulator of the async and wire commits, the
// per-dispatch proximal snapshots, the downlink booking, the wire halves and
// the edge PreReduce.
//
// Every aggregation step is elementwise, so averaging a longer suffix of
// the arena computes its tail bit for bit as averaging the tail alone would:
// "+weight" needs no second vector for its classifier.
type WeightAvg struct {
	m      WeightMethod
	global []float64

	// Async and wire state: the accumulator, the commit mixing rate, and
	// per-client snapshots of the proximal reference each client downloaded
	// (the pull must reference that broadcast, not the server's moving
	// aggregate).
	acc   *ShardedAccumulator
	mix   float64
	snaps [][]float64

	// The edge aggregator's reduction state, kept between rounds: an
	// aggregator reduces the same geometry every round. preSum is the
	// rounded aggregate PreReduce returns, valid until its next call.
	pre    *ExactAccumulator
	preSum []float64
}

// NewWeightAvg builds the half for method m.
func NewWeightAvg(m WeightMethod) *WeightAvg { return &WeightAvg{m: m} }

// LossyUploads marks weight uploads as tolerant of wire sparsification and
// delta framing: the server only ever averages them.
func (h *WeightAvg) LossyUploads() bool { return true }

// WireStart sets the global vector from join payloads, each a single
// vector of want values — their |D_k|-weighted average when average is set,
// else a copy of joins[0]'s, the only one read — and readies the
// accumulator for plain-average commits with folds split shards ways. It is
// the one start: an in-process Setup reaches it through WireSetup over
// Simulation.SetupJoins.
func (h *WeightAvg) WireStart(joins []WireJoin, want int, average bool, shards int) error {
	if !average {
		joins = joins[:1]
	}
	inits := make([]*Update, len(joins))
	for i, j := range joins {
		if len(j.Init) != 1 || len(j.Init[0]) != want {
			return fmt.Errorf("fl: client %d joined %s with a malformed init payload", j.ID, h.m.Name())
		}
		inits[i] = &Update{Client: j.ID, Scale: DataScale(j.TrainSize), Vecs: f64Bodies(nil, j.Init)}
	}
	if average {
		h.global = weightedAverage(inits, 0)
	} else {
		h.global = CloneVec(joins[0].Init[0])
	}
	h.acc = NewSharded(len(h.global), shards)
	h.mix = 1
	return nil
}

// Global returns a copy of the global vector.
func (h *WeightAvg) Global() []float64 { return CloneVec(h.global) }

// RestoreGlobal overwrites the global vector with a checkpointed one of the
// same length.
func (h *WeightAvg) RestoreGlobal(v []float64) error {
	if len(v) != len(h.global) {
		return fmt.Errorf("fl: %s checkpoint has %d global weights, model has %d", h.m.Name(), len(v), len(h.global))
	}
	copy(h.global, v)
	return nil
}

// Round performs one sync round: each same-configuration group of
// participants downloads, trains in lockstep and uploads, and the global
// vector becomes the |D_k|-weighted average of the uploads.
func (h *WeightAvg) Round(sim *Simulation, round int, participants []int) error {
	if len(participants) == 0 {
		return nil
	}
	us := make([]*Update, len(participants))
	errs := make([]error, len(participants))
	ParallelGroups(sim, participants, func(group []*Client, pos []int) {
		refs := make([][]float64, len(group))
		for i, c := range group {
			if errs[pos[i]] = h.download(sim, c); errs[pos[i]] != nil {
				return
			}
			refs[i] = h.m.Ref(c, h.global)
		}
		for i, u := range h.local(sim, group, refs) {
			sim.Ledger.AddUp(u.UpBytes)
			us[pos[i]] = u
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	h.global = weightedAverage(us, len(us[0].Vecs)-1)
	return nil
}

// download installs the global vector on one client's shared weights.
func (h *WeightAvg) download(sim *Simulation, c *Client) error {
	if err := nn.SetFlatParams(h.m.Shared(c), h.global); err != nil {
		return err
	}
	sim.Downlink(len(h.global))
	return nil
}

// local trains a group against refs and returns each client's update, its
// shared weights passed through the upload framing with the bytes not yet
// booked.
func (h *WeightAvg) local(sim *Simulation, group []*Client, refs [][]float64) []*Update {
	h.m.Train(group, sim.Cfg.BatchSize, refs)
	us := make([]*Update, len(group))
	for i, c := range group {
		flat, bytes := sim.QuantizeUplink(c.ID, c.FlatUpload(h.m.Shared(c)))
		us[i] = &Update{Client: c.ID, Scale: DataScale(len(c.Train)), Vecs: h.m.Upload(c, flat), UpBytes: bytes}
	}
	return us
}

// AsyncSetup sets the commit mix and sizes the snapshot table; WireStart
// built the accumulator.
func (h *WeightAvg) AsyncSetup(sim *Simulation, sched *SchedulerConfig) error {
	h.mix = sched.MixRate
	h.snaps = make([][]float64, sim.NumClients())
	return nil
}

// AsyncDispatch broadcasts the global vector to one client and snapshots
// its proximal reference when the objective reads one.
func (h *WeightAvg) AsyncDispatch(sim *Simulation, client int) error {
	c := sim.Client(client)
	if err := h.download(sim, c); err != nil {
		return err
	}
	if ref := h.m.Ref(c, h.global); ref != nil {
		h.snaps[client] = append(h.snaps[client][:0], ref...)
	}
	return nil
}

// AsyncLocalGroup trains a group against its dispatch snapshots and
// returns each client's update, in order.
func (h *WeightAvg) AsyncLocalGroup(sim *Simulation, clients []int) ([]*Update, error) {
	group := make([]*Client, len(clients))
	refs := make([][]float64, len(clients))
	for i, id := range clients {
		group[i], refs[i] = sim.Client(id), h.snaps[id]
	}
	return h.local(sim, group, refs), nil
}

// AsyncApply folds a staleness-weighted update's shared weights into the
// accumulator.
func (h *WeightAvg) AsyncApply(_ *Simulation, u *Update) error {
	return h.apply(u, u.Vecs[len(u.Vecs)-1])
}

// apply folds v, u's shared weights, into the accumulator.
func (h *WeightAvg) apply(u *Update, v comm.Body) error {
	if v.Len() != h.acc.Len() {
		return fmt.Errorf("fl: client %d uploaded %d %s weights, server expects %d", u.Client, v.Len(), h.m.Name(), h.acc.Len())
	}
	h.acc.accumulateBody(v, u.Weight)
	return nil
}

// AsyncCommit merges the accumulated average into the global vector.
func (h *WeightAvg) AsyncCommit(_ *Simulation) error { return h.WireCommit() }

// WireInit returns the client's shared weights for the server's start, on
// tensor pool storage.
func (h *WeightAvg) WireInit(c *Client) ([][]float64, error) {
	shared := h.m.Shared(c)
	return [][]float64{nn.AppendFlatParams(tensor.GetStorage[float64](nn.NumParams(shared))[:0], shared)}, nil
}

// WireDispatch broadcasts the global vector.
func (h *WeightAvg) WireDispatch(client int) ([][]float64, error) {
	return [][]float64{h.global}, nil
}

// WireLocal installs the broadcast, trains against its proximal reference
// and uploads the client's shared weights.
func (h *WeightAvg) WireLocal(c *Client, batchSize int, dispatch [][]float64) (*Update, error) {
	if len(dispatch) != 1 || dispatch[0] == nil {
		return nil, fmt.Errorf("fl: %s expects one broadcast vector, got %d", h.m.Name(), len(dispatch))
	}
	if err := nn.SetFlatParams(h.m.Shared(c), dispatch[0]); err != nil {
		return nil, err
	}
	return h.localInstalled(c, batchSize, h.m.Ref(c, dispatch[0]))
}

// installParams returns the parameters a broadcast installs into when the
// local round reads nothing else of it (frameInstaller), else nil.
func (h *WeightAvg) installParams(c *Client) []*nn.Param {
	if h.m.Pulls(c) {
		return nil
	}
	return h.m.Shared(c)
}

// localInstalled is WireLocal once the broadcast is in the shared weights:
// it trains against ref, the broadcast's Ref, and uploads.
func (h *WeightAvg) localInstalled(c *Client, batchSize int, ref []float64) (*Update, error) {
	shared := h.m.Shared(c)
	h.m.Train([]*Client{c}, batchSize, [][]float64{ref})
	return &Update{Client: c.ID, Scale: DataScale(len(c.Train)), Vecs: []comm.Body{comm.AsF64Body(wireUpload(c, shared))}}, nil
}

// wireUpload is a wire upload of c's shared weights: an F64 model's value
// slab itself, which nothing writes until the client trains again, or
// FlatUpload's widened copy of a narrower one. The in-process rounds keep
// FlatUpload, whose vector the uplink quantization rounds in place.
func wireUpload(c *Client, shared []*nn.Param) []float64 {
	if nn.ParamsDType(shared) == tensor.F64 {
		vals, _ := nn.Flat(shared)
		return vals.Data
	}
	return c.FlatUpload(shared)
}

// WireApply folds one weighted upload into the accumulator.
func (h *WeightAvg) WireApply(u *Update) error {
	if len(u.Vecs) != 1 {
		return fmt.Errorf("fl: client %d uploaded %d %s vectors, want 1", u.Client, len(u.Vecs), h.m.Name())
	}
	return h.apply(u, u.Vecs[0])
}

// WireCommit merges the round's accumulated average into the global vector.
func (h *WeightAvg) WireCommit() error {
	h.acc.CommitInto(h.global, h.mix, nil)
	return nil
}

// PreReduce folds the subtree's uploads into one exact weighted sum
// Σ w_c·v_c with its summed weight, the quantity the root's normalization
// divides by — flat fan-in's arithmetic, regrouped exactly. It touches no
// server state; the aggregate is valid until the next call.
func (h *WeightAvg) PreReduce(updates []*Update) (*AggUpdate, error) {
	au := &AggUpdate{Children: len(updates)}
	for i, u := range updates {
		if len(u.Vecs) != 1 || u.Vecs[0].Nil() {
			return nil, fmt.Errorf("fl: client %d uploaded a malformed payload (%d vectors, want 1)", u.Client, len(u.Vecs))
		}
		n := u.Vecs[0].Len()
		if i == 0 {
			h.pre = ReuseExactAccumulator(h.pre, n)
		} else if n != h.pre.Len() {
			return nil, fmt.Errorf("fl: client %d uploaded %d weights, subtree peers uploaded %d", u.Client, n, h.pre.Len())
		}
		h.pre.foldBody(u.Vecs[0], u.Weight)
	}
	if len(updates) > 0 {
		h.preSum, au.Weight = h.pre.RoundInto(h.preSum)
		au.Vecs = []comm.Body{comm.AsF64Body(h.preSum)}
	}
	return au, nil
}

// WireApplyAggregate folds one pre-weighted subtree sum into the
// accumulator.
func (h *WeightAvg) WireApplyAggregate(u *AggUpdate) error {
	if u.Children == 0 {
		return nil
	}
	if len(u.Vecs) != 1 || u.Vecs[0].Nil() || u.Vecs[0].Len() != h.acc.Len() {
		return fmt.Errorf("fl: aggregator %d forwarded a malformed %s aggregate", u.Agg, h.m.Name())
	}
	h.acc.mergeBody(u.Vecs[0], u.Weight)
	return nil
}

// weightedAverage is the sync rounds' |D_k| average of the updates' vec-th
// vectors: Σ_k (Scale_k/Σ Scale)·Vecs_k[vec], folded in update order, with
// Scale the clients' DataScale weights.
func weightedAverage(us []*Update, vec int) []float64 {
	var total float64
	for _, u := range us {
		total += u.Scale
	}
	var out []float64
	for _, u := range us {
		if out == nil {
			out = make([]float64, u.Vecs[vec].Len())
		}
		withF64(u.Vecs[vec], func(body []byte) { axpyBody(out, body, u.Scale/total) })
	}
	return out
}
