package baselines

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/fl"
)

// The edge-aggregator halves of the comparison algorithms (FedAvg's are
// fl.WeightAvg's): PreReduce folds
// a subtree's updates into one exact aggregate (client side of the edge,
// no server state touched) and WireApplyAggregate folds aggregates into
// the root's accumulators. Reductions run on fl.ExactAccumulator, so any
// grouping of the same updates produces byte-identical sums — the tree is
// exact at the reduction level, not merely close.
//
// KT-pFL is deliberately absent: its commit builds a similarity matrix
// from every client's individual knowledge report, which no associative
// reduction can reconstruct from a sum. Aggregators pass its updates
// through unreduced.
var (
	_ fl.ReducibleWireAlgorithm = (*LocalOnly)(nil)
	_ fl.ReducibleWireAlgorithm = (*FedProto)(nil)
)

// ---- LocalOnly ----

// PreReduce reduces communication-free updates to a bare child count.
func (l *LocalOnly) PreReduce(updates []*fl.Update) (*fl.AggUpdate, error) {
	return &fl.AggUpdate{Children: len(updates)}, nil
}

// WireApplyAggregate has no server state to fold into.
func (l *LocalOnly) WireApplyAggregate(u *fl.AggUpdate) error { return nil }

// ---- FedProto ----

// PreReduce folds the subtree's per-class prototypes into exact per-class
// sums. The geometry comes from the updates themselves — aggregators never
// run WireSetup — and each class carries its own summed weight
// (Σ w_c·|D_c^cls|) in VecWeights, because prototype classes accumulate
// under independent weights.
func (p *FedProto) PreReduce(updates []*fl.Update) (*fl.AggUpdate, error) {
	au := &fl.AggUpdate{Children: len(updates)}
	numCls, featDim := 0, 0
	for _, u := range updates {
		if len(u.Counts) != len(u.Vecs) {
			return nil, fmt.Errorf("baselines: client %d uploaded a malformed FedProto report", u.Client)
		}
		if len(u.Vecs) > numCls {
			numCls = len(u.Vecs)
		}
		for cls, proto := range u.Vecs {
			if err := checkProtoCount(u, cls); err != nil {
				return nil, err
			}
			if proto.Nil() || u.Counts[cls] == 0 {
				continue
			}
			if featDim == 0 {
				featDim = proto.Len()
			} else if proto.Len() != featDim {
				return nil, fmt.Errorf("baselines: client %d prototype %d has %d dims, subtree peers have %d",
					u.Client, cls, proto.Len(), featDim)
			}
		}
	}
	// The accumulators are kept between rounds: a class is reset on its
	// first fold of this call, so a class nobody reported stays nil below.
	p.preW = fl.ReuseExactAccumulator(p.preW, 0)
	for len(p.preAccs) < numCls {
		p.preAccs = append(p.preAccs, nil)
	}
	accs := make([]*fl.ExactAccumulator, numCls)
	counts := make([]int, numCls)
	for _, u := range updates {
		p.preW.Fold(nil, u.Weight)
		for cls, proto := range u.Vecs {
			counts[cls] += u.Counts[cls]
			if proto.Nil() || u.Counts[cls] == 0 {
				continue
			}
			if accs[cls] == nil {
				p.preAccs[cls] = fl.ReuseExactAccumulator(p.preAccs[cls], featDim)
				accs[cls] = p.preAccs[cls]
			}
			// The same once-rounded product flat WireApply folds.
			p.preVec = proto.Decode(p.preVec)
			accs[cls].Fold(p.preVec, u.Weight*float64(u.Counts[cls]))
		}
	}
	_, au.Weight = p.preW.Round()
	if numCls > 0 {
		au.Vecs = make([]comm.Body, numCls)
		au.VecWeights = make([]float64, numCls)
		au.Counts = counts
		for cls, acc := range accs {
			if acc == nil {
				continue
			}
			sum, w := acc.Round()
			au.Vecs[cls], au.VecWeights[cls] = comm.AsF64Body(sum), w
		}
	}
	return au, nil
}

// WireApplyAggregate folds pre-weighted per-class sums into the class
// segments under their summed weights.
func (p *FedProto) WireApplyAggregate(u *fl.AggUpdate) error {
	if u.Children == 0 {
		return nil
	}
	if len(u.Vecs) > p.numClasses || len(u.VecWeights) != len(u.Vecs) || len(u.Counts) != len(u.Vecs) {
		return fmt.Errorf("baselines: aggregator %d forwarded a malformed FedProto aggregate", u.Agg)
	}
	for cls, sum := range u.Vecs {
		if sum.Nil() || u.VecWeights[cls] == 0 {
			continue
		}
		if sum.Len() != p.featDim {
			return fmt.Errorf("baselines: aggregator %d prototype sum %d has %d dims, server expects %d",
				u.Agg, cls, sum.Len(), p.featDim)
		}
		p.acc.MergeSegment(cls, sum, u.VecWeights[cls])
	}
	return nil
}
