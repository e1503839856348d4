package fl

import (
	"repro/internal/data"
	"repro/internal/loss"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// One local step (DESIGN.md §12): every method trains through TrainEpochs,
// one epoch driver over a group of clients that share a model configuration
// — architecture, geometry and dtype, i.e. the comparable models.Config —
// and training one client is a group of one. A group trains in lockstep,
// each layer's per-client GEMMs lowered into one batched launch. That is a
// pure dispatch choice: a group step is byte-identical to stepping its
// clients one after another at every GOMAXPROCS, because the batched GEMM
// entry points keep each product's standalone shard plan and every client's
// private RNG stream is consumed in exactly the order its solo epoch would
// consume it.

// GroupCohort partitions a cohort by model configuration, in first-seen
// order, returning each group as positions into ids in cohort order. Clients
// without a model each form their own singleton group.
func GroupCohort(sim *Simulation, ids []int) [][]int {
	groups := make([][]int, 0, 4)
	index := make(map[models.Config]int, 4)
	for p, id := range ids {
		c := sim.Client(id)
		if c.Model == nil {
			groups = append(groups, []int{p})
			continue
		}
		gi, ok := index[c.Model.Cfg]
		if !ok {
			gi = len(groups)
			index[c.Model.Cfg] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], p)
	}
	return groups
}

// ParallelGroups runs f once per GroupCohort group of ids, the groups in
// parallel on the worker pool: f receives the group's clients and their
// positions in ids. It is how a sync round trains its participants.
func ParallelGroups(sim *Simulation, ids []int, f func(group []*Client, pos []int)) {
	groups := GroupCohort(sim, ids)
	tensor.Parallel(len(groups), func(g int) {
		group := make([]*Client, len(groups[g]))
		for i, p := range groups[g] {
			group[i] = sim.Client(ids[p])
		}
		f(group, groups[g])
	})
}

// Objective is one method's local loss over a group, its per-client parts
// indexed by the client's place k in the group. Every method's loss holds
// the classifier's cross-entropy on view one, which the driver takes; a
// method adds the rest through the head and the hook.
type Objective struct {
	// TwoViews feeds the extractor two augmented views of each batch, stacked
	// as rows [0,n) and [n,2n); the classifier sees the first. Unset, the
	// extractor sees one view.
	TwoViews bool
	// Head, when set, adds client k's feature-space loss gradient into
	// dfeats, which arrives holding the classifier's gradient (zero on the
	// view-two rows). feats are the extractor's outputs over every row,
	// labels the batch's n labels.
	Head func(k int, feats, dfeats *tensor.Tensor, labels []int)
	// Hook, when set, adjusts client k's parameter gradients after the
	// backward pass, before its optimizer steps.
	Hook func(k int)
}

// TrainEpochs trains a group of same-configuration clients for the given
// epochs under obj and returns each client's mean view-one cross-entropy
// over the steps it took. At each epoch's start every client draws its batch
// schedule from its own Rng, in group order. Each step, every client packs
// its views in group order, and then the group runs the extractor forward,
// the classifier forward on view one, the cross-entropy and head, the
// classifier and extractor backward, the hook, and each client's optimizer
// step. Clients with fewer batches drop out of later steps. Every step runs
// the nn group entry points over the clients taking it, however many. The
// epochs are one pass, whose batches, loss gradients and layer workspaces
// every client leases from the leader's arena (nn.Join): on return it is
// back on the free list (models.SplitModel.ReleaseWorkspaces). The group's
// lists are its leader's (group[0]'s), so a warm call allocates nothing,
// and the returned losses are valid until the leader's next TrainEpochs.
func TrainEpochs(group []*Client, batchSize, epochs int, obj Objective) []float64 {
	ts := &group[0].train
	g := len(group)
	losses := append(ts.losses[:0], make([]float64, g)...)
	taken := append(ts.taken[:0], make([]int, g)...)
	params := ts.params[:0]
	batches := append(ts.batches[:0], make([][][]data.Example, g)...)
	for _, c := range group {
		params = append(params, c.Model.Params())
		nn.Join(c.Model.Extractor, group[0].Model.Extractor)
	}
	st := &ts.st
	for e := 0; e < epochs; e++ {
		steps := 0
		for k, c := range group {
			batches[k] = c.train.sched.Draw(c.Train, batchSize, c.Rng)
			steps = max(steps, len(batches[k]))
		}
		for s := 0; s < steps; s++ {
			st.reset()
			for k, c := range group {
				if s < len(batches[k]) {
					st.pack(k, c, batches[k][s], obj.TwoViews)
				}
			}
			st.feats = nn.SequentialForwardBatch(st.exts, st.xs, true)
			views := st.feats
			if obj.TwoViews {
				views = st.viewOne()
			}
			logits := nn.DenseForwardBatch(st.clfs, views, true)
			st.grads = st.grads[:0]
			for j, k := range st.k {
				l, dl := loss.CrossEntropy(logits[j], st.ys[j])
				losses[k] += l
				taken[k]++
				st.grads = append(st.grads, dl)
			}
			dfeats := nn.DenseBackwardBatch(st.clfs, st.grads)
			for _, dl := range st.grads {
				tensor.PutTensor(dl)
			}
			st.grads = append(st.grads[:0], dfeats...)
			for j, k := range st.k {
				if obj.TwoViews {
					// The view-one gradient widens to every row, zero below.
					f, d := st.feats[j], st.grads[j]
					st.grads[j] = tensor.LeaseBeside(f, f.DT, f.Rows(), f.Cols())
					tensor.CopySegment(st.grads[j], 0, d, 0, d.Size())
				}
				if obj.Head != nil {
					obj.Head(k, st.feats[j], st.grads[j], st.ys[j])
				}
			}
			nn.SequentialBackwardParams(st.exts, st.grads)
			for j, k := range st.k {
				if obj.TwoViews {
					tensor.PutTensor(st.grads[j])
				}
				tensor.PutTensor(st.xs[j])
				if obj.Hook != nil {
					obj.Hook(k)
				}
				group[k].Optimizer.Step(params[k])
				nn.ZeroGrads(params[k])
			}
		}
	}
	for k, n := range taken {
		if n > 0 {
			losses[k] /= float64(n)
		}
	}
	for _, c := range group[1:] {
		c.Model.ReleaseWorkspaces()
	}
	group[0].Model.ReleaseWorkspaces()
	// Keep the lists' storage, not what they point at: a member may be
	// evicted before the leader trains again.
	clear(params)
	clear(batches)
	st.drop()
	ts.losses, ts.taken, ts.params, ts.batches = losses, taken, params, batches
	return losses
}

// trainScratch is the storage a client's local steps keep between calls:
// its batch schedule and labels, and, when it leads a TrainEpochs group,
// the group's lists.
type trainScratch struct {
	sched  data.Schedule
	labels []int

	st      step
	losses  []float64
	taken   []int
	params  [][]*nn.Param
	batches [][][]data.Example
}

// step holds one lockstep step's operands, one entry per client taking the
// step; TrainEpochs reuses it across steps.
type step struct {
	k     []int // the clients' places in the group
	exts  []*nn.Sequential
	clfs  []*nn.Dense
	xs    []*tensor.Tensor // packed inputs, leased from the leader's arena
	ys    [][]int
	feats []*tensor.Tensor // the extractors' outputs, in the leader's list
	// views are row headers over the view-one half of feats (TwoViews).
	views []*tensor.Tensor
	grads []*tensor.Tensor
}

func (st *step) reset() {
	st.k, st.exts, st.clfs, st.xs, st.ys = st.k[:0], st.exts[:0], st.clfs[:0], st.xs[:0], st.ys[:0]
}

// drop empties the lists, keeping their storage but not the members'
// layers and labels they point at.
func (st *step) drop() {
	st.reset()
	clear(st.exts[:cap(st.exts)])
	clear(st.clfs[:cap(st.clfs)])
	clear(st.ys[:cap(st.ys)])
}

// pack appends client c (place k) with its batch b packed into a
// model-dtype input leased from its pass's arena, and c's kept labels.
func (st *step) pack(k int, c *Client, b []data.Example, twoViews bool) {
	views := 1
	if twoViews {
		views = 2
	}
	ch, h, w := c.InputGeometry()
	x := nn.ArenaOf(c.Model.Extractor).Lease(c.DType(), views*len(b), ch, h, w)
	if cap(c.train.labels) < len(b) {
		c.train.labels = make([]int, len(b))
	}
	y := c.train.labels[:len(b)]
	c.packViews(x, b, views, y)
	st.k = append(st.k, k)
	st.exts = append(st.exts, c.Model.Extractor)
	st.clfs = append(st.clfs, c.Model.Classifier)
	st.xs = append(st.xs, x)
	st.ys = append(st.ys, y)
}

// viewOne points one header per client at the view-one rows of its
// features.
func (st *step) viewOne() []*tensor.Tensor {
	for len(st.views) < len(st.feats) {
		st.views = append(st.views, &tensor.Tensor{})
	}
	for j, f := range st.feats {
		n := len(st.ys[j])
		tensor.ViewInto(st.views[j], f, 0, n*f.Cols(), n, f.Cols())
	}
	return st.views[:len(st.feats)]
}
