package baselines

import (
	"errors"
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

	// Async-scheduler state: a class-segmented accumulator (each class
	// aggregates under its own weight) and per-client broadcast snapshots so
	// local training regularizes against the prototypes the client actually
	// downloaded.
	acc   *fl.ShardedAccumulator
	mix   float64
	snaps [][][]float64

	// preW and preAccs are the edge-aggregator half's reduction state
	// (PreReduce): the weight accumulator and one per class.
	preW    *fl.ExactAccumulator
	preAccs []*fl.ExactAccumulator
}

// NewFedProto builds the algorithm.
func NewFedProto(epochs int, lambda float64) *FedProto {
	return &FedProto{LocalEpochs: max1(epochs), Lambda: lambda}
}

// Name identifies the algorithm.
func (p *FedProto) Name() string { return "FedProto" }

// EpochsPerRound reports the local epochs per round.
func (p *FedProto) EpochsPerRound() int { return p.LocalEpochs }

// Setup verifies that all feature dimensions agree.
func (p *FedProto) Setup(sim *fl.Simulation) error {
	if sim.NumClients() == 0 {
		return errors.New("baselines: no clients")
	}
	probe := sim.SetupIDs()
	first := sim.Client(probe[0])
	p.featDim = first.Model.Cfg.FeatDim
	p.numClasses = first.Model.Cfg.NumClasses
	for _, id := range probe[1:] {
		c := sim.Client(id)
		if c.Model.Cfg.FeatDim != p.featDim {
			return fmt.Errorf("baselines: FedProto needs equal feature dims; client %d has %d want %d",
				c.ID, c.Model.Cfg.FeatDim, p.featDim)
		}
	}
	p.globalProtos = make([][]float64, p.numClasses)
	return nil
}

// Round trains participants with the prototype regularizer, then aggregates
// their fresh local prototypes weighted by per-class sample counts.
func (p *FedProto) Round(sim *fl.Simulation, round int, participants []int) error {
	us := make([]*fl.Update, len(participants))
	fl.ParallelGroups(sim, participants, func(group []*fl.Client, pos []int) {
		tables := make([][][]float64, len(group))
		for i := range tables {
			tables[i] = p.globalProtos
		}
		for i, u := range p.local(sim, group, tables) {
			sim.Ledger.AddUp(u.UpBytes)
			sim.Downlink(p.downloadFloats())
			us[pos[i]] = u
		}
	})
	// Aggregate prototypes per class, weighted by sample counts.
	sums := make([][]float64, p.numClasses)
	totals := make([]int, p.numClasses)
	for _, u := range us {
		for cls, proto := range u.Vecs {
			if proto == nil {
				continue
			}
			if sums[cls] == nil {
				sums[cls] = make([]float64, p.featDim)
			}
			for j, v := range proto {
				sums[cls][j] += v * float64(u.Counts[cls])
			}
			totals[cls] += u.Counts[cls]
		}
	}
	for cls := range sums {
		if totals[cls] == 0 {
			continue
		}
		proto := sums[cls]
		inv := 1 / float64(totals[cls])
		for j := range proto {
			proto[j] *= inv
		}
		p.globalProtos[cls] = proto
	}
	return nil
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

// train runs a group's local epochs of CE + prototype regularization, client
// k against prototype table tables[k] (the global table in sync rounds, its
// dispatch snapshot under async schedulers).
func (p *FedProto) train(group []*fl.Client, batchSize int, tables [][][]float64) {
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
}

// local trains a group and returns each client's fresh local prototypes
// with their per-class sample counts, passed through the wire codec with
// their bytes not yet booked.
func (p *FedProto) local(sim *fl.Simulation, group []*fl.Client, tables [][][]float64) []*fl.Update {
	p.train(group, sim.Cfg.BatchSize, tables)
	us := make([]*fl.Update, len(group))
	for i, c := range group {
		protos, counts := p.localPrototypes(c, sim.Cfg.BatchSize)
		us[i] = &fl.Update{Client: c.ID, Scale: 1, Vecs: protos, Counts: counts, UpBytes: p.quantizeProtos(sim, protos)}
	}
	return us
}

// AsyncSetup builds the class-segmented aggregation state: segment s is
// class s's prototype, aggregated under its own weight.
func (p *FedProto) AsyncSetup(sim *fl.Simulation, sched *fl.SchedulerConfig) error {
	p.setupAcc(sched.MixRate)
	p.snaps = make([][][]float64, sim.NumClients())
	return nil
}

// setupAcc sizes the class-segmented accumulator and sets the commit mix.
func (p *FedProto) setupAcc(mix float64) {
	segs := make([]int, p.numClasses)
	for i := range segs {
		segs[i] = p.featDim
	}
	p.acc = fl.NewSegmented(segs)
	p.mix = mix
}

// commit merges each class's buffered mean into its global prototype. A
// class nobody reported keeps its previous prototype; a class reported for
// the first time takes the mean itself, since there is no previous
// prototype to mix it with.
func (p *FedProto) commit() {
	for cls, proto := range p.globalProtos {
		if proto != nil {
			p.acc.CommitSegment(cls, proto, p.mix)
			continue
		}
		proto = make([]float64, p.featDim)
		if p.acc.CommitSegment(cls, proto, 1) {
			p.globalProtos[cls] = proto
		}
	}
}

// AsyncDispatch snapshots the committed prototype table down to the client.
func (p *FedProto) AsyncDispatch(sim *fl.Simulation, client int) error {
	snap := p.snaps[client]
	if snap == nil {
		snap = make([][]float64, p.numClasses)
	}
	for cls := range snap {
		if proto := p.globalProtos[cls]; proto != nil {
			snap[cls] = append(snap[cls][:0], proto...)
		} else {
			snap[cls] = nil
		}
	}
	p.snaps[client] = snap
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
	return p.local(sim, group, tables), nil
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

// AsyncApply folds each reported class prototype into its segment, weighted
// by sample count and staleness decay.
func (p *FedProto) AsyncApply(sim *fl.Simulation, u *fl.Update) error {
	for cls, proto := range u.Vecs {
		if proto == nil || u.Counts[cls] == 0 {
			continue
		}
		p.acc.AccumulateSegment(cls, proto, u.Weight*float64(u.Counts[cls]))
	}
	return nil
}

// AsyncCommit merges the per-class means into the global prototypes.
func (p *FedProto) AsyncCommit(sim *fl.Simulation) error {
	p.commit()
	return nil
}

// AlgoSnapshot captures the server state. Layout: Ints = [numClasses];
// Vecs = numClasses global prototypes (nil for never-reported classes). The
// accumulator is empty at every checkpoint boundary, and per-client dispatch
// snapshots are dead after the quiesce, so neither is captured.
func (p *FedProto) AlgoSnapshot(sim *fl.Simulation) (*fl.AlgoState, error) {
	st := &fl.AlgoState{Ints: []int64{int64(p.numClasses)}}
	for _, proto := range p.globalProtos {
		st.Vecs = append(st.Vecs, fl.CloneVec(proto))
	}
	return st, nil
}

// AlgoRestore is the inverse of AlgoSnapshot.
func (p *FedProto) AlgoRestore(sim *fl.Simulation, st *fl.AlgoState) error {
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
// training data in evaluation mode.
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
