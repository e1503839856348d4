package baselines

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/tensor"
)

// FedProto implements federated prototype learning (Tan et al. 2021).
// Instead of weights, clients exchange per-class feature prototypes (mean
// extractor outputs). The server averages prototypes across clients, and
// each client's local objective adds a regularizer pulling its features
// toward the global prototype of their class:
//
//	L_k = L_CE + λ·‖F_k(x) − proto_y‖²
//
// Heterogeneous extractors are allowed as long as the feature dimension
// matches (the paper notes FedProto "requires the prototypes to be the same
// dimensions", its milder heterogeneity assumption).
type FedProto struct {
	LocalEpochs int
	// Lambda weights the prototype regularizer.
	Lambda float64

	featDim    int
	numClasses int
	// globalProtos[c] is nil until some client has reported class c.
	globalProtos [][]float64

	// The server half's state: a class-segmented accumulator (each class
	// aggregates under its own weight) and its commit mix, 1 unless an async
	// scheduler sets its rate. Async schedulers also keep per-client
	// broadcast snapshots so local training regularizes against the
	// prototypes the client actually downloaded.
	acc   *fl.ShardedAccumulator
	mix   float64
	snaps [][][]float64

	// preW and preAccs are the edge-aggregator half's reduction state
	// (PreReduce): the weight accumulator and one per class, and preVec the
	// scratch a reported prototype is decoded into for its fold.
	preW    *fl.ExactAccumulator
	preAccs []*fl.ExactAccumulator
	preVec  []float64
}

// NewFedProto builds the algorithm.
func NewFedProto(epochs int, lambda float64) *FedProto {
	return &FedProto{LocalEpochs: max1(epochs), Lambda: lambda}
}

// Name identifies the algorithm.
func (p *FedProto) Name() string { return "FedProto" }

// EpochsPerRound reports the local epochs per round.
func (p *FedProto) EpochsPerRound() int { return p.LocalEpochs }

// Setup builds the server state from the probe clients' joins through
// WireSetup, the one place it is built.
func (p *FedProto) Setup(sim *fl.Simulation) error {
	joins, err := sim.SetupJoins(p)
	if err != nil {
		return err
	}
	return p.WireSetup(joins, tensor.Workers())
}

// Round trains participants with the prototype regularizer against the
// global table, then makes each reported class's prototype the
// sample-count-weighted mean of this round's reports: every report folds
// through WireApply at weight 1, in participant order, and WireCommit runs
// at mix 1 (sync runs never set another).
func (p *FedProto) Round(sim *fl.Simulation, round int, participants []int) error {
	us := make([]*fl.Update, len(participants))
	fl.ParallelGroups(sim, participants, func(group []*fl.Client, pos []int) {
		tables := make([][][]float64, len(group))
		for i := range tables {
			tables[i] = p.globalProtos
		}
		for i, u := range p.local(sim, group, sim.Cfg.BatchSize, tables) {
			sim.Ledger.AddUp(u.UpBytes)
			sim.Downlink(p.downloadFloats())
			us[pos[i]] = u
		}
	})
	for _, u := range us {
		u.Weight = 1
		if err := p.WireApply(u); err != nil {
			return err
		}
	}
	return p.WireCommit()
}

// downloadFloats counts the floats in the current global prototype table.
func (p *FedProto) downloadFloats() int {
	n := 0
	for _, proto := range p.globalProtos {
		if proto != nil {
			n += p.featDim
		}
	}
	return n
}

// local runs a group's local epochs of CE + prototype regularization, client
// k against prototype table tables[k] (the global table in sync rounds, its
// dispatch snapshot under async schedulers, the broadcast in node mode), and
// returns each client's fresh local prototypes with their per-class sample
// counts. In process (sim non-nil) the prototypes pass through the wire
// codec first, their bytes not yet booked.
func (p *FedProto) local(sim *fl.Simulation, group []*fl.Client, batchSize int, tables [][][]float64) []*fl.Update {
	// Prototype pull: d/df λ‖f − proto‖²/N = 2λ(f − proto)/N. Features and
	// their gradient are model-dtype; the prototype table is float64
	// bookkeeping, widened per element inside the pull.
	head := func(k int, feats, dfeats *tensor.Tensor, labels []int) {
		scale := 2 * p.Lambda / float64(feats.Rows())
		if feats.DT.Backing() == tensor.F32 {
			protoPull(tensor.Of[float32](feats), tensor.Of[float32](dfeats), tables[k], labels, scale, feats.Cols())
		} else {
			protoPull(feats.Data, dfeats.Data, tables[k], labels, scale, feats.Cols())
		}
	}
	fl.TrainEpochs(group, batchSize, p.LocalEpochs, fl.Objective{Head: head})
	us := make([]*fl.Update, len(group))
	for i, c := range group {
		protos, counts := p.localPrototypes(c, batchSize)
		us[i] = &fl.Update{Client: c.ID, Scale: 1, Vecs: make([]comm.Body, len(protos)), Counts: counts}
		if sim != nil {
			us[i].UpBytes = p.quantizeProtos(sim, protos)
		}
		for cls, proto := range protos {
			us[i].Vecs[cls] = comm.AsF64Body(proto)
		}
	}
	return us
}

// AsyncSetup sets the commit mix and sizes the per-client dispatch
// snapshots.
func (p *FedProto) AsyncSetup(sim *fl.Simulation, sched *fl.SchedulerConfig) error {
	p.mix = sched.MixRate
	p.snaps = make([][][]float64, sim.NumClients())
	return nil
}

// AsyncDispatch snapshots the broadcast table for the client and books it.
func (p *FedProto) AsyncDispatch(sim *fl.Simulation, client int) error {
	p.snaps[client], _ = p.WireDispatch(client)
	sim.Downlink(p.downloadFloats())
	return nil
}

// AsyncLocalGroup trains a group against its snapshot regularizers and
// uploads fresh local prototypes with their per-class sample counts.
func (p *FedProto) AsyncLocalGroup(sim *fl.Simulation, clients []int) ([]*fl.Update, error) {
	group := make([]*fl.Client, len(clients))
	tables := make([][][]float64, len(clients))
	for i, id := range clients {
		group[i], tables[i] = sim.Client(id), p.snaps[id]
	}
	return p.local(sim, group, sim.Cfg.BatchSize, tables), nil
}

// quantizeProtos passes each reported class prototype through the wire
// codec and returns the upload's size: the reported rows travel as one
// dense frame.
func (p *FedProto) quantizeProtos(sim *fl.Simulation, protos [][]float64) int64 {
	sent := 0
	for cls := range protos {
		if protos[cls] != nil {
			sim.Quantize(protos[cls])
			sent += p.featDim
		}
	}
	return comm.WireSizeAs(sim.Cfg.Codec, sent)
}

// AsyncApply is WireApply.
func (p *FedProto) AsyncApply(sim *fl.Simulation, u *fl.Update) error { return p.WireApply(u) }

// AsyncCommit is WireCommit.
func (p *FedProto) AsyncCommit(sim *fl.Simulation) error { return p.WireCommit() }

// AlgoSnapshot captures the server state. Layout: Ints = [numClasses];
// Vecs = numClasses global prototypes (nil for never-reported classes). The
// accumulator is empty at every checkpoint boundary, and per-client dispatch
// snapshots are dead after the quiesce, so neither is captured.
func (p *FedProto) AlgoSnapshot() (*fl.AlgoState, error) {
	st := &fl.AlgoState{Ints: []int64{int64(p.numClasses)}}
	for _, proto := range p.globalProtos {
		st.Vecs = append(st.Vecs, fl.CloneVec(proto))
	}
	return st, nil
}

// AlgoRestore is the inverse of AlgoSnapshot.
func (p *FedProto) AlgoRestore(st *fl.AlgoState) error {
	if len(st.Ints) != 1 || int(st.Ints[0]) != p.numClasses || len(st.Vecs) != p.numClasses {
		return fmt.Errorf("baselines: malformed FedProto state (%d ints, %d vecs, %d classes)",
			len(st.Ints), len(st.Vecs), p.numClasses)
	}
	for cls, proto := range st.Vecs {
		if proto != nil && len(proto) != p.featDim {
			return fmt.Errorf("baselines: checkpoint prototype %d has %d dims, model has %d", cls, len(proto), p.featDim)
		}
		p.globalProtos[cls] = fl.CloneVec(proto)
	}
	return nil
}

// localPrototypes computes per-class mean features over the client's
// training data in evaluation mode. It is one pass: it hands the model's
// arena back when it has read the features.
func (p *FedProto) localPrototypes(c *fl.Client, batchSize int) ([][]float64, []int) {
	sums := make([][]float64, p.numClasses)
	counts := make([]int, p.numClasses)
	ch, h, w := c.InputGeometry()
	for lo := 0; lo < len(c.Train); lo += batchSize {
		hi := lo + batchSize
		if hi > len(c.Train) {
			hi = len(c.Train)
		}
		x, y := data.BatchTensorOf(c.DType(), c.Train[lo:hi], ch, h, w)
		feats := c.Model.Features(x, false)
		row := make([]float64, p.featDim)
		for i, cls := range y {
			if sums[cls] == nil {
				sums[cls] = make([]float64, p.featDim)
			}
			feats.RowTo(i, row)
			for j, v := range row {
				sums[cls][j] += v
			}
			counts[cls]++
		}
	}
	c.Model.ReleaseWorkspaces()
	for cls := range sums {
		if counts[cls] == 0 {
			continue
		}
		inv := 1 / float64(counts[cls])
		for j := range sums[cls] {
			sums[cls][j] *= inv
		}
	}
	return sums, counts
}

// protoPull adds the prototype regularizer gradient 2λ(f − proto)/N to the
// feature gradient, widening model-dtype features against the float64
// prototype table.
func protoPull[F tensor.Float](featsd, dfeatd []F, protos [][]float64, y []int, scale float64, d int) {
	for i := range y {
		proto := protos[y[i]]
		if proto == nil {
			continue
		}
		frow := featsd[i*d : (i+1)*d]
		grow := dfeatd[i*d : (i+1)*d]
		for j := range grow {
			grow[j] += F(scale * (float64(frow[j]) - proto[j]))
		}
	}
}
