package baselines

import (
	"errors"
	"fmt"

	"repro/internal/comm"
	"repro/internal/fl"
)

// The wire-split halves of the comparison algorithms, each method's one
// server half and one client half. The in-process schedulers bind to
// them: every method's local step is one group function
// that WireLocal runs over a group of one; FedProto's sync round and its
// async apply and commit fold through WireApply and WireCommit; KT-pFL's
// async dispatch, apply and commit are WireDispatch, WireApply and
// WireCommit. KT-pFL's sync Round shares the commit's coefficient refresh
// and transfer arithmetic but not its staging: it lands each transfer in
// the round that produced the reports, a different algorithm. FedAvg's
// halves are fl.WeightAvg's (see internal/fl/weightavg.go), and
// internal/fl/wire.go has the interface contract.

var (
	_ fl.WireAlgorithm = (*LocalOnly)(nil)
	_ fl.WireAlgorithm = (*FedProto)(nil)
	_ fl.WireAlgorithm = (*KTpFL)(nil)
)

// ---- LocalOnly ----
//
// The baseline is the degenerate federation: no server state, no payloads.
// Node mode still schedules and evaluates it, so the learning curves of a
// multi-process deployment have their no-communication floor.

// WireInit sends nothing.
func (l *LocalOnly) WireInit(c *fl.Client) ([][]float64, error) { return nil, nil }

// WireSetup has no server state to build.
func (l *LocalOnly) WireSetup(joins []fl.WireJoin, shards int) error {
	if len(joins) == 0 {
		return errors.New("baselines: no clients")
	}
	return nil
}

// WireDispatch broadcasts nothing.
func (l *LocalOnly) WireDispatch(client int) ([][]float64, error) { return nil, nil }

// WireLocal trains locally and uploads a communication-free update.
func (l *LocalOnly) WireLocal(c *fl.Client, batchSize int, dispatch [][]float64) (*fl.Update, error) {
	return l.local([]*fl.Client{c}, batchSize)[0], nil
}

// WireApply is a no-op.
func (l *LocalOnly) WireApply(u *fl.Update) error { return nil }

// WireCommit is a no-op.
func (l *LocalOnly) WireCommit() error { return nil }

// ---- FedProto ----

// WireInit sends nothing: prototypes only exist after training.
func (p *FedProto) WireInit(c *fl.Client) ([][]float64, error) { return nil, nil }

// WireSetup verifies matching feature dimensions and builds the server
// state from the joins' geometry: the prototype table and the
// class-segmented accumulator, committing at mix 1. Setup builds the same
// state through it from the probe clients.
func (p *FedProto) WireSetup(joins []fl.WireJoin, shards int) error {
	if len(joins) == 0 {
		return errors.New("baselines: no clients")
	}
	p.featDim = joins[0].FeatDim
	p.numClasses = joins[0].NumClasses
	if p.featDim <= 0 || p.numClasses <= 0 {
		return fmt.Errorf("baselines: FedProto needs positive feature dims and classes, client 0 declared %d×%d",
			p.featDim, p.numClasses)
	}
	for _, j := range joins[1:] {
		if j.FeatDim != p.featDim {
			return fmt.Errorf("baselines: FedProto needs equal feature dims; client %d has %d want %d",
				j.ID, j.FeatDim, p.featDim)
		}
	}
	p.globalProtos = make([][]float64, p.numClasses)
	segs := make([]int, p.numClasses)
	for i := range segs {
		segs[i] = p.featDim
	}
	p.acc = fl.NewSegmented(segs)
	p.mix = 1
	return nil
}

// WireDispatch broadcasts a copy of the current prototype table; classes
// nobody has reported yet travel as nil entries.
func (p *FedProto) WireDispatch(client int) ([][]float64, error) {
	table := make([][]float64, p.numClasses)
	for cls, proto := range p.globalProtos {
		if proto != nil {
			table[cls] = append([]float64(nil), proto...)
		}
	}
	return table, nil
}

// WireLocal trains with the prototype regularizer against the dispatched
// table and uploads fresh local prototypes with per-class sample counts.
func (p *FedProto) WireLocal(c *fl.Client, batchSize int, dispatch [][]float64) (*fl.Update, error) {
	// The client half derives its geometry from its own model: Setup never
	// runs client-side.
	p.featDim = c.Model.Cfg.FeatDim
	p.numClasses = c.Model.Cfg.NumClasses
	if len(dispatch) != 0 && len(dispatch) != p.numClasses {
		return nil, fmt.Errorf("baselines: FedProto broadcast has %d classes, model has %d", len(dispatch), p.numClasses)
	}
	table := dispatch
	if table == nil {
		table = make([][]float64, p.numClasses)
	}
	for cls, proto := range table {
		if proto != nil && len(proto) != p.featDim {
			return nil, fmt.Errorf("baselines: FedProto prototype %d has %d dims, model has %d", cls, len(proto), p.featDim)
		}
	}
	return p.local(nil, []*fl.Client{c}, batchSize, [][][]float64{table})[0], nil
}

// WireApply folds each reported class prototype into its segment,
// weighted by sample count. A malformed report folds nothing.
func (p *FedProto) WireApply(u *fl.Update) error {
	if len(u.Vecs) > p.numClasses || len(u.Counts) != len(u.Vecs) {
		return fmt.Errorf("baselines: client %d uploaded a malformed FedProto report", u.Client)
	}
	for cls, proto := range u.Vecs {
		if err := checkProtoCount(u, cls); err != nil {
			return err
		}
		if !proto.Nil() && u.Counts[cls] != 0 && proto.Len() != p.featDim {
			return fmt.Errorf("baselines: client %d prototype %d has %d dims, server expects %d",
				u.Client, cls, proto.Len(), p.featDim)
		}
	}
	for cls, proto := range u.Vecs {
		if !proto.Nil() && u.Counts[cls] != 0 {
			p.acc.AccumulateSegment(cls, proto, u.Weight*float64(u.Counts[cls]))
		}
	}
	return nil
}

// checkProtoCount refuses a negative sample count for class cls of u, which
// would fold its prototype at negative weight.
func checkProtoCount(u *fl.Update, cls int) error {
	if u.Counts[cls] < 0 {
		return fmt.Errorf("baselines: client %d reports %d samples of class %d", u.Client, u.Counts[cls], cls)
	}
	return nil
}

// WireCommit merges each class's buffered mean into its global prototype. A
// class nobody reported keeps its previous prototype; a class reported for
// the first time takes the mean itself, since there is no previous
// prototype to mix it with.
func (p *FedProto) WireCommit() error {
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
	return nil
}

// ---- KT-pFL ----

// WireInit sends nothing: knowledge reports only exist after training.
func (k *KTpFL) WireInit(c *fl.Client) ([][]float64, error) { return nil, nil }

// WireSetup initializes the coefficient matrix uniformly and sizes the
// pending-transfer tables, the wire form of Setup+AsyncSetup.
func (k *KTpFL) WireSetup(joins []fl.WireJoin, shards int) error {
	if err := k.start(len(joins), joins); err != nil {
		return err
	}
	k.sizeTables(len(joins), joins[0].NumClasses, joins[0].NumParams)
	return nil
}

// WireDispatch hands the client its staged personalized transfer (soft
// target, or personalized weights for the "+weight" variant) from the
// last commit, consuming it; nothing is sent before the first commit.
func (k *KTpFL) WireDispatch(client int) ([][]float64, error) {
	p := k.pending[client]
	if p == nil {
		return nil, nil
	}
	k.pending[client] = nil
	return [][]float64{p}, nil
}

// WireLocal checks any personalized transfer's length and runs local over a
// group of one: consume the transfer, train, report.
func (k *KTpFL) WireLocal(c *fl.Client, batchSize int, dispatch [][]float64) (*fl.Update, error) {
	var transfer []float64
	if len(dispatch) > 0 {
		transfer = dispatch[0]
	}
	if transfer != nil && !k.ShareWeights {
		m := len(k.public)
		numCls := c.Model.Cfg.NumClasses
		if m == 0 || len(transfer) != m*numCls {
			return nil, fmt.Errorf("baselines: KT-pFL transfer has %d values, want %d×%d", len(transfer), m, numCls)
		}
	}
	reports, err := k.local([]*fl.Client{c}, batchSize, [][]float64{transfer})
	if err != nil {
		return nil, err
	}
	return &fl.Update{Client: c.ID, Scale: 1, Vecs: []comm.Body{comm.AsF64Body(reports[0])}}, nil
}

// WireApply files a decoded copy of the client's latest report with its
// weight: the report outlives the call (the next commits read it), u.Vecs
// does not.
func (k *KTpFL) WireApply(u *fl.Update) error {
	if len(u.Vecs) != 1 || u.Vecs[0].Nil() {
		return fmt.Errorf("baselines: client %d uploaded a malformed %s report", u.Client, k.Name())
	}
	if u.Client < 0 || u.Client >= len(k.latest) {
		return fmt.Errorf("baselines: %s report from unknown client %d", k.Name(), u.Client)
	}
	if u.Vecs[0].Len() != k.reportLen {
		return fmt.Errorf("baselines: client %d uploaded a %s report of %d values, want %d",
			u.Client, k.Name(), u.Vecs[0].Len(), k.reportLen)
	}
	k.latest[u.Client] = u.Vecs[0].Decode(k.latest[u.Client])
	k.latestW[u.Client] = u.Weight
	return nil
}

// WireCommit refreshes the knowledge-coefficient matrix over every client
// that has reported (similarities scaled by staleness weight) and stages
// each one's personalized transfer for its next dispatch.
func (k *KTpFL) WireCommit() error {
	var cohort []int
	var reports [][]float64
	var w []float64
	for id, rep := range k.latest {
		if rep != nil {
			cohort = append(cohort, id)
			reports = append(reports, rep)
			w = append(w, k.latestW[id])
		}
	}
	if len(cohort) < 2 {
		return nil
	}
	k.refreshCoeff(cohort, reports, float64(len(reports[0])), w)
	for _, id := range cohort {
		k.pending[id] = k.transfer(id, cohort, reports)
	}
	return nil
}
