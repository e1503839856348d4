package core

import (
	"errors"
	"fmt"

	"repro/internal/fl"
	"repro/internal/nn"
)

// The wire-split half of FedClassAvg: the server side owns the global
// classifier (and, with ShareAllWeights, the global model) plus the
// sharded accumulators, and the client side owns one model's composite
// local update. Numerics reuse the same helpers as the monolithic rounds:
// the initial global state is the |D_k|-weighted average of the clients'
// join payloads — exactly Setup's arithmetic, fed by wire vectors instead
// of local models — and each round's aggregation is the accumulator
// commit with mix 1, the async engine's plain weighted average.
//
// Payload layout: one vector per message. The classifier variant moves
// the flat classifier both ways; ShareAllWeights moves the full flat
// parameter vector, whose tail IS the classifier (extractor precedes
// classifier in the flattening order), so the proximal reference and the
// classifier average are recovered from the tail instead of paying for a
// second vector on the wire.

var _ fl.WireAlgorithm = (*FedClassAvg)(nil)

// WireInit returns the client's initial classifier (or, with
// ShareAllWeights, its full flat weights) for the server's setup average.
func (f *FedClassAvg) WireInit(c *fl.Client) ([][]float64, error) {
	if f.Opts.ShareAllWeights {
		return [][]float64{nn.FlattenParams(c.Model.Params())}, nil
	}
	return [][]float64{nn.FlattenParams(c.Model.ClassifierParams())}, nil
}

// WireSetup validates fleet geometry from the joins and initializes the
// global state as the |D_k|-weighted average of the init payloads.
func (f *FedClassAvg) WireSetup(joins []fl.WireJoin, shards int) error {
	if len(joins) == 0 {
		return errors.New("core: no clients")
	}
	ref := joins[0]
	for _, j := range joins[1:] {
		if j.FeatDim != ref.FeatDim || j.NumClasses != ref.NumClasses {
			return fmt.Errorf("core: client %d classifier shape (%d→%d) differs from client 0 (%d→%d)",
				j.ID, j.FeatDim, j.NumClasses, ref.FeatDim, ref.NumClasses)
		}
		if f.Opts.ShareAllWeights && j.NumParams != ref.NumParams {
			return fmt.Errorf("core: ShareAllWeights requires homogeneous models; client %d differs", j.ID)
		}
	}
	want := ref.NumClassifier
	if f.Opts.ShareAllWeights {
		want = ref.NumParams
	}
	inits := make([]*fl.Update, len(joins))
	for i, j := range joins {
		if len(j.Init) != 1 || len(j.Init[0]) != want {
			return fmt.Errorf("core: client %d joined with a malformed init payload", j.ID)
		}
		inits[i] = &fl.Update{Client: j.ID, Scale: fl.DataScale(j.TrainSize), Vecs: j.Init}
	}
	if f.Opts.ShareAllWeights {
		f.globalAll = fl.WeightedAverage(inits, 0)
		nC := ref.NumClassifier
		if nC <= 0 || nC > len(f.globalAll) {
			return fmt.Errorf("core: client 0 declared %d classifier weights of %d total", nC, len(f.globalAll))
		}
		f.globalClassifier = append([]float64(nil), f.globalAll[len(f.globalAll)-nC:]...)
		f.accAll = fl.NewSharded(len(f.globalAll), shards)
	} else {
		f.globalClassifier = fl.WeightedAverage(inits, 0)
	}
	f.accC = fl.NewSharded(len(f.globalClassifier), shards)
	f.mix = 1
	return nil
}

// WireDispatch broadcasts the committed classifier (or full model).
func (f *FedClassAvg) WireDispatch(client int) ([][]float64, error) {
	if f.Opts.ShareAllWeights {
		return [][]float64{f.globalAll}, nil
	}
	return [][]float64{f.globalClassifier}, nil
}

// WireLocal installs the broadcast, runs the composite-objective local
// epochs against it (the proximal reference is the downloaded classifier —
// for ShareAllWeights, the tail of the downloaded model) and uploads the
// trained weights.
func (f *FedClassAvg) WireLocal(c *fl.Client, batchSize int, dispatch [][]float64) (*fl.Update, error) {
	if len(dispatch) != 1 || dispatch[0] == nil {
		return nil, fmt.Errorf("core: %s expects one broadcast vector, got %d", f.Name(), len(dispatch))
	}
	var ref []float64
	if f.Opts.ShareAllWeights {
		if err := nn.SetFlatParams(c.Model.Params(), dispatch[0]); err != nil {
			return nil, err
		}
		nC := nn.NumParams(c.Model.ClassifierParams())
		ref = dispatch[0][len(dispatch[0])-nC:]
	} else {
		if err := nn.SetFlatParams(c.Model.ClassifierParams(), dispatch[0]); err != nil {
			return nil, err
		}
		ref = dispatch[0]
	}
	f.train([]*fl.Client{c}, batchSize, [][]float64{ref})
	u := &fl.Update{Client: c.ID, Scale: fl.DataScale(len(c.Train))}
	if f.Opts.ShareAllWeights {
		u.Vecs = [][]float64{c.FlatUpload(c.Model.Params())}
	} else {
		u.Vecs = [][]float64{c.FlatUpload(c.Model.ClassifierParams())}
	}
	return u, nil
}

// WireApply folds one weighted upload into the accumulators. For
// ShareAllWeights the single uploaded vector feeds both: its tail is the
// classifier.
func (f *FedClassAvg) WireApply(u *fl.Update) error {
	if len(u.Vecs) != 1 || u.Vecs[0] == nil {
		return fmt.Errorf("core: client %d uploaded %d vectors, want 1", u.Client, len(u.Vecs))
	}
	v := u.Vecs[0]
	if f.Opts.ShareAllWeights {
		if len(v) != f.accAll.Len() {
			return fmt.Errorf("core: client %d uploaded %d weights, server expects %d", u.Client, len(v), f.accAll.Len())
		}
		f.accC.Accumulate(v[len(v)-f.accC.Len():], u.Weight)
		f.accAll.Accumulate(v, u.Weight)
		return nil
	}
	if len(v) != f.accC.Len() {
		return fmt.Errorf("core: client %d uploaded %d classifier weights, server expects %d", u.Client, len(v), f.accC.Len())
	}
	f.accC.Accumulate(v, u.Weight)
	return nil
}

// WireCommit merges the round's accumulated averages into the globals.
func (f *FedClassAvg) WireCommit() error {
	f.accC.CommitInto(f.globalClassifier, f.mix, nil)
	if f.Opts.ShareAllWeights {
		f.accAll.CommitInto(f.globalAll, f.mix, nil)
	}
	return nil
}
