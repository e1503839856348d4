package baselines

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/comm"
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

	public  []data.Example
	publicX *tensor.Tensor
	coeff   [][]float64 // knowledge coefficient matrix

	// The async and wire halves' state (pending-transfer pattern): the
	// server keeps each client's latest report (soft predictions, or flat
	// weights for the "+weight" variant) with its staleness weight; commits
	// refresh the coefficient matrix over whoever has reported and stage
	// each client's personalized transfer, which the client consumes at its
	// next dispatch. Knowledge thus flows without ever writing to a model
	// that is training.
	latest  [][]float64
	latestW []float64
	pending [][]float64
	staged  [][]float64 // moved pending → staged at dispatch, consumed by AsyncLocalGroup
	// reportLen is the length of every report WireApply accepts.
	reportLen int
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
// uniformly over the whole fleet; only "+weight" reads the probe clients'
// joins.
func (k *KTpFL) Setup(sim *fl.Simulation) error {
	var joins []fl.WireJoin
	if k.ShareWeights {
		var err error
		if joins, err = sim.SetupJoins(k); err != nil {
			return err
		}
	}
	return k.start(sim.NumClients(), joins)
}

// start checks the configuration for an n-client federation — "+weight"
// needs every join's parameter count to agree — and initializes the
// coefficient matrix uniformly.
func (k *KTpFL) start(n int, joins []fl.WireJoin) error {
	if n == 0 {
		return errors.New("baselines: no clients")
	}
	if !k.ShareWeights && k.publicX == nil {
		return errors.New("baselines: KT-pFL needs a public dataset (call SetPublic)")
	}
	if k.ShareWeights {
		for _, j := range joins {
			if j.NumParams != joins[0].NumParams {
				return errors.New("baselines: KT-pFL+weight requires homogeneous models")
			}
		}
	}
	// The dense N×N knowledge-coefficient matrix is inherent to KT-pFL; it
	// caps the fleet sizes the method is practical at regardless of lazy
	// client materialization.
	k.coeff = make([][]float64, n)
	for i := range k.coeff {
		k.coeff[i] = make([]float64, n)
		for j := range k.coeff[i] {
			k.coeff[i][j] = 1 / float64(n)
		}
	}
	return nil
}

// Round runs local training, knowledge-coefficient refresh and transfer.
// Each participant's transfer lands in the round that produced the reports
// it mixes — unlike the staged commit of the async and wire halves, where a
// transfer waits for its client's next dispatch.
func (k *KTpFL) Round(sim *fl.Simulation, round int, participants []int) error {
	if len(participants) == 0 {
		return nil
	}
	// 1. Local supervised training and every participant's report.
	reports := make([][]float64, len(participants))
	fl.ParallelGroups(sim, participants, func(group []*fl.Client, pos []int) {
		// Without transfers local cannot fail.
		rs, _ := k.local(group, sim.Cfg.BatchSize, make([][]float64, len(group)))
		for i, r := range rs {
			reports[pos[i]] = r
		}
	})
	for i, id := range participants {
		reports[i] = sim.Uplink(id, reports[i])
	}
	// 2. Refresh knowledge coefficients from pairwise report similarity:
	// squared distance per public example for soft predictions, per weight
	// for the "+weight" variant.
	norm := float64(len(k.public))
	if k.ShareWeights {
		norm = float64(len(reports[0]))
	}
	k.refreshCoeff(participants, reports, norm, nil)
	// 3. Personalized transfers.
	errs := make([]error, len(participants))
	tensor.Parallel(len(participants), func(idx int) {
		t := k.transfer(participants[idx], participants, reports)
		sim.Downlink(len(t))
		errs[idx] = k.consume(sim.Client(participants[idx]), t)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// refreshCoeff recomputes the coefficient rows of the cohort from pairwise
// report similarity exp(−(‖r_a − r_b‖²/norm)/σ²), reports[i] being
// cohort[i]'s. With w set, each source b's similarity is scaled by w[b]
// before its row is normalized: under async schedulers stale reports
// contribute less knowledge.
func (k *KTpFL) refreshCoeff(cohort []int, reports [][]float64, norm float64, w []float64) {
	sigma2 := k.Sigma * k.Sigma
	for a := range cohort {
		row := make([]float64, len(cohort))
		var sum float64
		for b := range cohort {
			var s float64
			for j, v := range reports[a] {
				d := v - reports[b][j]
				s += d * d
			}
			dist := s / norm
			v := math.Exp(-dist / sigma2)
			if w != nil {
				v *= w[b]
			}
			row[b] = v
			sum += v
		}
		if sum == 0 {
			continue
		}
		for b := range cohort {
			k.coeff[cohort[a]][cohort[b]] = row[b] / sum
		}
	}
}

// transfer returns client id's personalized transfer Σ_l c[id][l]·r_l over
// the cohort, folded in cohort order (reports[i] is cohort[i]'s): soft
// targets renormalized to a distribution per public example, personalized
// weights divided by the coefficients' sum.
func (k *KTpFL) transfer(id int, cohort []int, reports [][]float64) []float64 {
	mix := make([]float64, len(reports[0]))
	var wsum float64
	for i, l := range cohort {
		cw := k.coeff[id][l]
		wsum += cw
		for j, v := range reports[i] {
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
		return mix
	}
	cols := len(mix) / len(k.public)
	for i := range k.public {
		row := mix[i*cols : (i+1)*cols]
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
	return mix
}

// consume lands a personalized transfer on c: the "+weight" variant
// installs it as c's weights, the soft variant distills toward it.
func (k *KTpFL) consume(c *fl.Client, transfer []float64) error {
	if k.ShareWeights {
		return nn.SetFlatParams(c.Model.Params(), transfer)
	}
	k.distill(c, tensor.FromSlice(transfer, len(k.public), len(transfer)/len(k.public)))
	return nil
}

// local consumes each member's transfer, where transfers[i] has one, runs
// the group's supervised local epochs and returns each client's fresh
// knowledge report (soft predictions on the public set, or flat weights for
// the "+weight" variant), not yet passed through the upload framing. A
// "+weight" report is the client's FlatUpload vector.
func (k *KTpFL) local(group []*fl.Client, batchSize int, transfers [][]float64) ([][]float64, error) {
	for i, c := range group {
		if transfers[i] != nil {
			if err := k.consume(c, transfers[i]); err != nil {
				return nil, err
			}
		}
	}
	fl.TrainEpochs(group, batchSize, k.LocalEpochs, fl.Objective{})
	reports := make([][]float64, len(group))
	for i, c := range group {
		if k.ShareWeights {
			reports[i] = c.FlatUpload(c.Model.Params())
		} else {
			_, logits := c.Model.Forward(k.publicX, false)
			reports[i] = loss.SoftmaxWithTemperature(logits, k.Temperature).AppendFloat64s(nil)
			c.Model.ReleaseWorkspaces()
		}
	}
	return reports, nil
}

// AsyncSetup sizes the pending-transfer tables.
func (k *KTpFL) AsyncSetup(sim *fl.Simulation, sched *fl.SchedulerConfig) error {
	c := sim.Client(0)
	k.sizeTables(sim.NumClients(), c.Model.Cfg.NumClasses, nn.NumParams(c.Model.Params()))
	return nil
}

// sizeTables sizes the pending-transfer tables for n clients and fixes the
// report length WireApply accepts: len(public)·numCls soft predictions, or
// numParams weights for the "+weight" variant.
func (k *KTpFL) sizeTables(n, numCls, numParams int) {
	k.latest = make([][]float64, n)
	k.latestW = make([]float64, n)
	k.pending = make([][]float64, n)
	k.staged = make([][]float64, n)
	k.reportLen = len(k.public) * numCls
	if k.ShareWeights {
		k.reportLen = numParams
	}
}

// AsyncDispatch hands the client its personalized transfer from the last
// commit, consumed through WireDispatch, and books it. Personalized weights
// install now, as the client's download; a soft target is staged for the
// client's local step, which distills toward it.
func (k *KTpFL) AsyncDispatch(sim *fl.Simulation, client int) error {
	d, _ := k.WireDispatch(client)
	if d == nil {
		return nil
	}
	sim.Downlink(len(d[0]))
	if k.ShareWeights {
		return k.consume(sim.Client(client), d[0])
	}
	k.staged[client] = d[0]
	return nil
}

// AsyncLocalGroup runs local over a group with its staged transfers and
// passes each report through the upload framing.
func (k *KTpFL) AsyncLocalGroup(sim *fl.Simulation, clients []int) ([]*fl.Update, error) {
	group := make([]*fl.Client, len(clients))
	transfers := make([][]float64, len(clients))
	for i, id := range clients {
		group[i], transfers[i] = sim.Client(id), k.staged[id]
		k.staged[id] = nil
	}
	reports, err := k.local(group, sim.Cfg.BatchSize, transfers)
	if err != nil {
		return nil, err
	}
	us := make([]*fl.Update, len(group))
	for i, c := range group {
		report, bytes := sim.QuantizeUplink(c.ID, reports[i])
		us[i] = &fl.Update{Client: c.ID, Scale: 1, Vecs: []comm.Body{comm.AsF64Body(report)}, UpBytes: bytes}
	}
	return us, nil
}

// AsyncApply is WireApply.
func (k *KTpFL) AsyncApply(sim *fl.Simulation, u *fl.Update) error { return k.WireApply(u) }

// AsyncCommit is WireCommit.
func (k *KTpFL) AsyncCommit(sim *fl.Simulation) error { return k.WireCommit() }

// AlgoSnapshot captures the server state. Layout: Ints = [k, hasAsync];
// Vecs = the k coefficient-matrix rows plus, under async schedulers, the k
// latest reports (nil-able), the k pending transfers (nil-able) and one
// k-vector of staleness weights. Staged transfers are not captured: after
// the engine's quiesce every dispatched client has consumed its stage.
func (k *KTpFL) AlgoSnapshot() (*fl.AlgoState, error) {
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
func (k *KTpFL) AlgoRestore(st *fl.AlgoState) error {
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
			for _, v := range [][]float64{st.Vecs[n+i], st.Vecs[2*n+i]} {
				if v != nil && len(v) != k.reportLen {
					return fmt.Errorf("baselines: %s checkpoint report or transfer %d has %d values, want %d",
						k.Name(), i, len(v), k.reportLen)
				}
			}
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
		tensor.PutTensor(dlogits)
		c.Model.Extractor.BackwardParams(dfeat)
		c.Optimizer.Step(params)
		nn.ZeroGrads(params)
	}
	c.Model.ReleaseWorkspaces()
}
