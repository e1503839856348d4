package core

import (
	"fmt"

	"repro/internal/fl"
)

// FedClassAvg's edge-aggregator half. Classifier (and full-model)
// averaging is associative: an aggregator folds its subtree's uploads into
// one exact Σ w_c·v_c, and the root merges pre-weighted sums instead of
// per-client vectors. The ShareAllWeights tail trick survives reduction
// unchanged — the tail of an exact elementwise sum IS the exact sum of the
// tails, so the root recovers the classifier aggregate from the merged
// full-model sum just as it does from a single client's upload.
var _ fl.ReducibleWireAlgorithm = (*FedClassAvg)(nil)

// PreReduce folds the subtree's uploads into one exact weighted sum.
func (f *FedClassAvg) PreReduce(updates []*fl.Update) (*fl.AggUpdate, error) {
	return f.pre.PreReduce(updates)
}

// WireApplyAggregate merges one pre-weighted subtree sum into the
// accumulators; with ShareAllWeights its tail feeds the classifier accumulator.
func (f *FedClassAvg) WireApplyAggregate(u *fl.AggUpdate) error {
	if u.Children == 0 {
		return nil
	}
	if len(u.Vecs) != 1 || u.Vecs[0] == nil {
		return fmt.Errorf("core: aggregator %d forwarded %d vectors, want 1", u.Agg, len(u.Vecs))
	}
	v := u.Vecs[0]
	if f.Opts.ShareAllWeights {
		if len(v) != f.accAll.Len() {
			return fmt.Errorf("core: aggregator %d forwarded %d weights, server expects %d", u.Agg, len(v), f.accAll.Len())
		}
		f.accC.Merge(v[len(v)-f.accC.Len():], u.Weight)
		f.accAll.Merge(v, u.Weight)
		return nil
	}
	if len(v) != f.accC.Len() {
		return fmt.Errorf("core: aggregator %d forwarded %d classifier weights, server expects %d", u.Agg, len(v), f.accC.Len())
	}
	f.accC.Merge(v, u.Weight)
	return nil
}
