package baselines

import (
	"errors"
	"fmt"

	"repro/internal/fl"
	"repro/internal/loss"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// The wire-split halves of the comparison algorithms, mirroring their
// async decompositions with the server half fed by join payloads and wire
// vectors instead of live client models. FedAvg's are fl.WeightAvg's (see
// internal/fl/weightavg.go), and internal/fl/wire.go has the interface
// contract.

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
	fl.TrainEpochs([]*fl.Client{c}, batchSize, l.LocalEpochs, fl.Objective{})
	return &fl.Update{Client: c.ID}, nil
}

// WireApply is a no-op.
func (l *LocalOnly) WireApply(u *fl.Update) error { return nil }

// WireCommit is a no-op.
func (l *LocalOnly) WireCommit() error { return nil }

// ---- FedProto ----

// WireInit sends nothing: prototypes only exist after training.
func (p *FedProto) WireInit(c *fl.Client) ([][]float64, error) { return nil, nil }

// WireSetup verifies matching feature dimensions and sizes the per-class
// segmented accumulator from the joins' geometry.
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
	p.setupAcc(1)
	return nil
}

// WireDispatch broadcasts the current prototype table; classes nobody has
// reported yet travel as nil entries.
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
	p.train([]*fl.Client{c}, batchSize, [][][]float64{table})
	protos, counts := p.localPrototypes(c, batchSize)
	return &fl.Update{Client: c.ID, Scale: 1, Vecs: protos, Counts: counts}, nil
}

// WireApply folds each reported class prototype into its segment,
// weighted by sample count.
func (p *FedProto) WireApply(u *fl.Update) error {
	if len(u.Vecs) > p.numClasses || len(u.Counts) != len(u.Vecs) {
		return fmt.Errorf("baselines: client %d uploaded a malformed FedProto report", u.Client)
	}
	for cls, proto := range u.Vecs {
		if proto == nil || u.Counts[cls] == 0 {
			continue
		}
		if len(proto) != p.featDim {
			return fmt.Errorf("baselines: client %d prototype %d has %d dims, server expects %d",
				u.Client, cls, len(proto), p.featDim)
		}
		p.acc.AccumulateSegment(cls, proto, u.Weight*float64(u.Counts[cls]))
	}
	return nil
}

// WireCommit merges the per-class means into the global prototypes.
func (p *FedProto) WireCommit() error {
	p.commit()
	return nil
}

// ---- KT-pFL ----

// WireInit sends nothing: knowledge reports only exist after training.
func (k *KTpFL) WireInit(c *fl.Client) ([][]float64, error) { return nil, nil }

// WireSetup initializes the coefficient matrix uniformly and sizes the
// pending-transfer tables, the wire form of Setup+AsyncSetup.
func (k *KTpFL) WireSetup(joins []fl.WireJoin, shards int) error {
	if len(joins) == 0 {
		return errors.New("baselines: no clients")
	}
	if !k.ShareWeights && k.publicX == nil {
		return errors.New("baselines: KT-pFL needs a public dataset (call SetPublic)")
	}
	if k.ShareWeights {
		n := joins[0].NumParams
		for _, j := range joins[1:] {
			if j.NumParams != n {
				return errors.New("baselines: KT-pFL+weight requires homogeneous models")
			}
		}
	}
	kk := len(joins)
	k.coeff = make([][]float64, kk)
	for i := range k.coeff {
		k.coeff[i] = make([]float64, kk)
		for j := range k.coeff[i] {
			k.coeff[i][j] = 1 / float64(kk)
		}
	}
	k.latest = make([][]float64, kk)
	k.latestW = make([]float64, kk)
	k.pending = make([][]float64, kk)
	k.staged = make([][]float64, kk)
	k.numCls = joins[0].NumClasses
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

// WireLocal consumes any personalized transfer (distilling toward a soft
// target, or installing personalized weights), runs the supervised local
// epochs and uploads a fresh knowledge report.
func (k *KTpFL) WireLocal(c *fl.Client, batchSize int, dispatch [][]float64) (*fl.Update, error) {
	if len(dispatch) > 0 && dispatch[0] != nil {
		if k.ShareWeights {
			if err := nn.SetFlatParams(c.Model.Params(), dispatch[0]); err != nil {
				return nil, err
			}
		} else {
			m := len(k.public)
			numCls := c.Model.Cfg.NumClasses
			if m == 0 || len(dispatch[0]) != m*numCls {
				return nil, fmt.Errorf("baselines: KT-pFL transfer has %d values, want %d×%d", len(dispatch[0]), m, numCls)
			}
			target := tensor.New(m, numCls)
			target.SetFromFloat64s(dispatch[0])
			k.distill(c, target)
		}
	}
	fl.TrainEpochs([]*fl.Client{c}, batchSize, k.LocalEpochs, fl.Objective{})
	var report []float64
	if k.ShareWeights {
		report = c.FlatUpload(c.Model.Params())
	} else {
		_, logits := c.Model.Forward(k.publicX, false)
		soft := loss.SoftmaxWithTemperature(logits, k.Temperature)
		report = soft.AppendFloat64s(nil)
	}
	return &fl.Update{Client: c.ID, Scale: 1, Vecs: [][]float64{report}}, nil
}

// WireApply files a copy of the client's latest report with its weight: the
// report outlives the call (the next commits read it), u.Vecs does not.
func (k *KTpFL) WireApply(u *fl.Update) error {
	if len(u.Vecs) != 1 || u.Vecs[0] == nil {
		return fmt.Errorf("baselines: client %d uploaded a malformed %s report", u.Client, k.Name())
	}
	if u.Client < 0 || u.Client >= len(k.latest) {
		return fmt.Errorf("baselines: %s report from unknown client %d", k.Name(), u.Client)
	}
	k.latest[u.Client] = append(k.latest[u.Client][:0], u.Vecs[0]...)
	k.latestW[u.Client] = u.Weight
	return nil
}

// WireCommit refreshes the knowledge-coefficient matrix over everyone who
// has reported and stages each one's personalized transfer for its next
// dispatch — the same staged-transfer commit the async engine uses.
func (k *KTpFL) WireCommit() error {
	return k.AsyncCommit(nil)
}
