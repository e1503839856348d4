package baselines

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/loss"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// KTpFL implements parameterized knowledge transfer for personalized
// federated learning (Zhang et al. 2021), the paper's strongest
// heterogeneous competitor. Per round:
//
//  1. Clients run LocalEpochs of supervised training (the original uses 20
//     epochs per round; our scaled default is configurable and the
//     learning-curve x-axis accounts for it via EpochsPerRound).
//  2. Clients evaluate soft predictions on a shared public dataset and
//     upload them.
//  3. The server refreshes the knowledge coefficient matrix c where
//     c[k][l] ∝ exp(−‖S_k − S_l‖²/σ²) (one similarity refresh per round;
//     the original learns c by gradient descent, which converges to the
//     same similarity-weighted fixed point at our scales — see DESIGN.md).
//  4. Each client receives its personalized soft target T_k = Σ_l c[k][l]·S_l
//     and distills toward it on the public data with temperature-scaled KL.
//
// With ShareWeights (the "+weight" rows of Table 3, homogeneous models
// only), weights replace soft predictions: the server maintains one
// personalized global model per client, w̃_k = Σ_l c[k][l]·w_l with c from
// pairwise weight similarity, and clients download w̃_k directly.
type KTpFL struct {
	LocalEpochs  int
	DistillSteps int     // gradient steps of public-data distillation
	Temperature  float64 // distillation temperature
	Sigma        float64 // similarity bandwidth for the coefficient matrix
	PublicSize   int
	ShareWeights bool

	public   []data.Example
	publicX  *tensor.Tensor
	coeff    [][]float64 // knowledge coefficient matrix
	initOnce bool

	// Async-scheduler state (pending-transfer pattern): the server keeps
	// each client's latest report (soft predictions, or flat weights for
	// the "+weight" variant) with its staleness weight; commits refresh
	// the coefficient matrix over whoever has reported and stage each
	// client's personalized transfer, which the client consumes at its
	// next dispatch. Knowledge thus flows without ever writing to a model
	// that is training.
	latest  [][]float64
	latestW []float64
	pending [][]float64
	staged  [][]float64 // moved pending → staged at dispatch, consumed by AsyncLocalGroup
	numCls  int
}

// NewKTpFL builds the soft-prediction variant.
func NewKTpFL(localEpochs, distillSteps, publicSize int) *KTpFL {
	return &KTpFL{
		LocalEpochs:  max1(localEpochs),
		DistillSteps: max1(distillSteps),
		Temperature:  2.0,
		Sigma:        1.0,
		PublicSize:   publicSize,
	}
}

// NewKTpFLWeights builds the "+weight" variant for homogeneous models.
func NewKTpFLWeights(localEpochs int) *KTpFL {
	k := NewKTpFL(localEpochs, 1, 0)
	k.ShareWeights = true
	return k
}

// Name identifies the algorithm.
func (k *KTpFL) Name() string {
	if k.ShareWeights {
		return "KT-pFL+weight"
	}
	return "KT-pFL"
}

// EpochsPerRound reports local epochs per round (distillation happens on
// the small public set and is not counted, matching the paper's x-axis).
func (k *KTpFL) EpochsPerRound() int { return k.LocalEpochs }

// SetPublic installs the shared public dataset (required for the
// soft-prediction variant).
func (k *KTpFL) SetPublic(public []data.Example, c, h, w int) {
	k.public = public
	k.publicX, _ = data.BatchTensor(public, c, h, w)
}

// Setup validates configuration and initializes the coefficient matrix
// uniformly.
func (k *KTpFL) Setup(sim *fl.Simulation) error {
	if sim.NumClients() == 0 {
		return errors.New("baselines: no clients")
	}
	if !k.ShareWeights && k.publicX == nil {
		return errors.New("baselines: KT-pFL needs a public dataset (call SetPublic)")
	}
	if k.ShareWeights {
		probe := sim.SetupIDs()
		n := nn.NumParams(sim.Client(probe[0]).Model.Params())
		for _, id := range probe[1:] {
			if nn.NumParams(sim.Client(id).Model.Params()) != n {
				return errors.New("baselines: KT-pFL+weight requires homogeneous models")
			}
		}
	}
	// The dense N×N knowledge-coefficient matrix is inherent to KT-pFL; it
	// caps the fleet sizes the method is practical at regardless of lazy
	// client materialization.
	kk := sim.NumClients()
	k.coeff = make([][]float64, kk)
	for i := range k.coeff {
		k.coeff[i] = make([]float64, kk)
		for j := range k.coeff[i] {
			k.coeff[i][j] = 1 / float64(kk)
		}
	}
	return nil
}

// Round runs local training, knowledge-coefficient refresh and transfer.
func (k *KTpFL) Round(sim *fl.Simulation, round int, participants []int) error {
	if len(participants) == 0 {
		return nil
	}
	// 1. Local supervised training.
	fl.ParallelGroups(sim, participants, func(group []*fl.Client, _ []int) {
		fl.TrainEpochs(group, sim.Cfg.BatchSize, k.LocalEpochs, fl.Objective{})
	})
	if k.ShareWeights {
		return k.weightTransfer(sim, participants)
	}
	return k.softTransfer(sim, participants)
}

// softTransfer is the heterogeneous path: soft predictions on public data.
func (k *KTpFL) softTransfer(sim *fl.Simulation, participants []int) error {
	m := len(k.public)
	numClasses := sim.Client(participants[0]).Model.Cfg.NumClasses
	soft := make([]*tensor.Tensor, len(participants))
	fl.ParallelClients(len(participants), func(idx int) {
		c := sim.Client(participants[idx])
		_, logits := c.Model.Forward(k.publicX, false)
		// Soft predictions widen to float64 bookkeeping before hitting the
		// wire: the coefficient matrix and personalized targets are server
		// state (widening f32 predictions is exact, so the f64 path is
		// unchanged and the f32 path loses nothing).
		soft[idx] = loss.SoftmaxWithTemperature(logits, k.Temperature).AsType(tensor.F64)
		sim.Uplink(c.ID, soft[idx].Data)
	})
	// 2. Refresh knowledge coefficients from pairwise prediction similarity.
	k.refreshCoeff(participants, func(a, b int) float64 {
		d := tensor.Sub(soft[a], soft[b])
		return d.SumSquares() / float64(m)
	})
	// 3. Personalized targets and distillation.
	fl.ParallelClients(len(participants), func(idx int) {
		c := sim.Client(participants[idx])
		target := tensor.New(m, numClasses)
		for j := range participants {
			target.AxpyInPlace(k.coeff[participants[idx]][participants[j]], soft[j])
		}
		// Renormalize rows (coefficients over participants may not sum to 1).
		for i := 0; i < m; i++ {
			row := target.Row(i)
			var s float64
			for _, v := range row {
				s += v
			}
			if s > 0 {
				for jj := range row {
					row[jj] /= s
				}
			}
		}
		sim.Downlink(m * numClasses)
		k.distill(c, target)
	})
	return nil
}

// weightTransfer is the homogeneous "+weight" path.
func (k *KTpFL) weightTransfer(sim *fl.Simulation, participants []int) error {
	flats := make([][]float64, len(participants))
	for idx, id := range participants {
		c := sim.Client(id)
		flats[idx] = sim.Uplink(c.ID, nn.FlattenParams(c.Model.Params()))
	}
	k.refreshCoeff(participants, func(a, b int) float64 {
		var s float64
		for j := range flats[a] {
			d := flats[a][j] - flats[b][j]
			s += d * d
		}
		return s / float64(len(flats[a]))
	})
	errs := make([]error, len(participants))
	fl.ParallelClients(len(participants), func(idx int) {
		c := sim.Client(participants[idx])
		personalized := make([]float64, len(flats[idx]))
		var wsum float64
		for j := range participants {
			w := k.coeff[participants[idx]][participants[j]]
			wsum += w
			for p, v := range flats[j] {
				personalized[p] += w * v
			}
		}
		if wsum > 0 {
			inv := 1 / wsum
			for p := range personalized {
				personalized[p] *= inv
			}
		}
		errs[idx] = nn.SetFlatParams(c.Model.Params(), personalized)
		sim.Downlink(len(personalized))
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// refreshCoeff recomputes coefficient rows for the participating clients
// from a pairwise distance function over participant indices.
func (k *KTpFL) refreshCoeff(participants []int, dist func(a, b int) float64) {
	k.refreshCoeffWeighted(participants, dist, nil)
}

// refreshCoeffWeighted additionally multiplies each source l's similarity
// by weight w[l] before row normalization — under async schedulers, stale
// reports contribute less knowledge.
func (k *KTpFL) refreshCoeffWeighted(participants []int, dist func(a, b int) float64, w []float64) {
	sigma2 := k.Sigma * k.Sigma
	for a := range participants {
		row := make([]float64, len(participants))
		var sum float64
		for b := range participants {
			v := math.Exp(-dist(a, b) / sigma2)
			if w != nil {
				v *= w[b]
			}
			row[b] = v
			sum += v
		}
		if sum == 0 {
			continue
		}
		for b := range participants {
			k.coeff[participants[a]][participants[b]] = row[b] / sum
		}
	}
}

// AsyncSetup sizes the pending-transfer tables.
func (k *KTpFL) AsyncSetup(sim *fl.Simulation, sched *fl.SchedulerConfig) error {
	n := sim.NumClients()
	k.latest = make([][]float64, n)
	k.latestW = make([]float64, n)
	k.pending = make([][]float64, n)
	k.staged = make([][]float64, n)
	k.numCls = sim.Client(0).Model.Cfg.NumClasses
	return nil
}

// AsyncDispatch hands the client its staged personalized transfer (soft
// target or personalized weights) computed at the last commit.
func (k *KTpFL) AsyncDispatch(sim *fl.Simulation, client int) error {
	if k.pending[client] == nil {
		return nil
	}
	k.staged[client] = k.pending[client]
	k.pending[client] = nil
	c := sim.Client(client)
	if k.ShareWeights {
		sim.Downlink(len(k.staged[client]))
		err := nn.SetFlatParams(c.Model.Params(), k.staged[client])
		k.staged[client] = nil
		return err
	}
	sim.Downlink(len(k.public) * k.numCls)
	return nil
}

// AsyncLocalGroup distills each client toward any staged target, runs the
// group's supervised local epochs, and uploads a fresh report per client
// (soft predictions, or flat weights for the "+weight" variant).
func (k *KTpFL) AsyncLocalGroup(sim *fl.Simulation, clients []int) ([]*fl.Update, error) {
	group := make([]*fl.Client, len(clients))
	for i, id := range clients {
		group[i] = sim.Client(id)
		if !k.ShareWeights && k.staged[id] != nil {
			target := tensor.New(len(k.public), k.numCls)
			target.SetFromFloat64s(k.staged[id])
			k.staged[id] = nil
			k.distill(group[i], target)
		}
	}
	fl.TrainEpochs(group, sim.Cfg.BatchSize, k.LocalEpochs, fl.Objective{})
	us := make([]*fl.Update, len(clients))
	for i, c := range group {
		var report []float64
		if k.ShareWeights {
			report = nn.FlattenParams(c.Model.Params())
		} else {
			_, logits := c.Model.Forward(k.publicX, false)
			soft := loss.SoftmaxWithTemperature(logits, k.Temperature)
			report = soft.AppendFloat64s(nil)
		}
		report, bytes := sim.QuantizeUplink(c.ID, report)
		us[i] = &fl.Update{Client: c.ID, Scale: 1, Vecs: [][]float64{report}, UpBytes: bytes}
	}
	return us, nil
}

// AsyncApply files the client's latest report with its staleness weight.
func (k *KTpFL) AsyncApply(sim *fl.Simulation, u *fl.Update) error {
	k.latest[u.Client] = u.Vecs[0]
	k.latestW[u.Client] = u.Weight
	return nil
}

// AsyncCommit refreshes the knowledge-coefficient matrix over every client
// that has reported (similarities scaled by staleness weight) and stages
// each one's personalized transfer for its next dispatch.
func (k *KTpFL) AsyncCommit(sim *fl.Simulation) error {
	cohort := make([]int, 0, len(k.latest))
	for id, rep := range k.latest {
		if rep != nil {
			cohort = append(cohort, id)
		}
	}
	if len(cohort) < 2 {
		return nil
	}
	w := make([]float64, len(cohort))
	for i, id := range cohort {
		w[i] = k.latestW[id]
	}
	dim := float64(len(k.latest[cohort[0]]))
	dist := func(a, b int) float64 {
		va, vb := k.latest[cohort[a]], k.latest[cohort[b]]
		var s float64
		for j := range va {
			d := va[j] - vb[j]
			s += d * d
		}
		return s / dim
	}
	k.refreshCoeffWeighted(cohort, dist, w)
	for _, id := range cohort {
		mix := make([]float64, len(k.latest[id]))
		var wsum float64
		for _, l := range cohort {
			cw := k.coeff[id][l]
			wsum += cw
			for j, v := range k.latest[l] {
				mix[j] += cw * v
			}
		}
		if k.ShareWeights {
			if wsum > 0 {
				inv := 1 / wsum
				for j := range mix {
					mix[j] *= inv
				}
			}
		} else {
			// Renormalize each public-example row to a distribution.
			m := len(k.public)
			for i := 0; i < m; i++ {
				row := mix[i*k.numCls : (i+1)*k.numCls]
				var s float64
				for _, v := range row {
					s += v
				}
				if s > 0 {
					for j := range row {
						row[j] /= s
					}
				}
			}
		}
		k.pending[id] = mix
	}
	return nil
}

// AlgoSnapshot captures the server state. Layout: Ints = [k, hasAsync];
// Vecs = the k coefficient-matrix rows plus, under async schedulers, the k
// latest reports (nil-able), the k pending transfers (nil-able) and one
// k-vector of staleness weights. Staged transfers are not captured: after
// the engine's quiesce every dispatched client has consumed its stage.
func (k *KTpFL) AlgoSnapshot(sim *fl.Simulation) (*fl.AlgoState, error) {
	n := len(k.coeff)
	st := &fl.AlgoState{}
	for _, row := range k.coeff {
		st.Vecs = append(st.Vecs, fl.CloneVec(row))
	}
	hasAsync := int64(0)
	if k.latest != nil {
		hasAsync = 1
		for _, v := range k.latest {
			st.Vecs = append(st.Vecs, fl.CloneVec(v))
		}
		for _, v := range k.pending {
			st.Vecs = append(st.Vecs, fl.CloneVec(v))
		}
		st.Vecs = append(st.Vecs, fl.CloneVec(k.latestW))
	}
	st.Ints = []int64{int64(n), hasAsync}
	return st, nil
}

// AlgoRestore is the inverse of AlgoSnapshot.
func (k *KTpFL) AlgoRestore(sim *fl.Simulation, st *fl.AlgoState) error {
	n := len(k.coeff)
	if len(st.Ints) != 2 || int(st.Ints[0]) != n || len(st.Vecs) < n {
		return fmt.Errorf("baselines: malformed %s state (%d ints, %d vecs, %d clients)",
			k.Name(), len(st.Ints), len(st.Vecs), n)
	}
	for i := 0; i < n; i++ {
		if len(st.Vecs[i]) != n {
			return fmt.Errorf("baselines: %s checkpoint coefficient row %d has %d entries, want %d",
				k.Name(), i, len(st.Vecs[i]), n)
		}
		copy(k.coeff[i], st.Vecs[i])
	}
	if st.Ints[1] == 1 {
		if k.latest == nil || len(st.Vecs) != 3*n+1 {
			return fmt.Errorf("baselines: %s checkpoint carries async state for a different scheduler", k.Name())
		}
		for i := 0; i < n; i++ {
			k.latest[i] = fl.CloneVec(st.Vecs[n+i])
			k.pending[i] = fl.CloneVec(st.Vecs[2*n+i])
			k.staged[i] = nil
		}
		w := st.Vecs[3*n]
		if len(w) != n {
			return fmt.Errorf("baselines: %s checkpoint staleness weights have %d entries, want %d", k.Name(), len(w), n)
		}
		copy(k.latestW, w)
	}
	return nil
}

// distill runs DistillSteps of temperature-scaled KL toward the target on
// the public set. Targets are staged as float64 server state and narrow to
// the model dtype here, once, before the distillation loop. It is the one
// training loop outside fl.TrainEpochs: its batch is the whole public set,
// drawn from no client's batch schedule or Rng, and folding it in would make
// the driver branch on where a batch comes from. Like TrainEpochs it is one
// pass, and it hands the model's workspaces back when it returns.
func (k *KTpFL) distill(c *fl.Client, target *tensor.Tensor) {
	params := c.Model.Params()
	target = target.AsType(c.DType())
	for s := 0; s < k.DistillSteps; s++ {
		_, logits := c.Model.Forward(k.publicX, true)
		_, dlogits := loss.KLDistill(logits, target, k.Temperature)
		dfeat := c.Model.Classifier.Backward(dlogits)
		c.Model.Extractor.Backward(dfeat)
		c.Optimizer.Step(params)
		nn.ZeroGrads(params)
	}
	c.Model.ReleaseWorkspaces()
}
