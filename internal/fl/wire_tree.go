package fl

import (
	"fmt"
	"math"
	"slices"
)

// This file is the hierarchical half of the wire protocol: the message
// layouts an edge aggregator speaks upstream (tree join, batched dispatch,
// pre-reduced or passthrough updates) and the ReducibleWireAlgorithm
// contract that decides which algorithms may be pre-reduced at the edge.
// The envelope is the ordinary wireMsg — no protocol fork — so every tree
// frame decodes with decodeMsg and prices through the same ledger.

// AggUpdate is one aggregator's pre-reduced round contribution: the
// weighted sums of its children's update vectors (already multiplied out,
// exactly, by an ExactAccumulator) plus the summed weights the root needs
// to normalize identically to flat fan-in.
type AggUpdate struct {
	// Agg is the sending aggregator's index (set by the receiver from the
	// session; not trusted from the frame).
	Agg int
	// Version is the round the reduction answers.
	Version int
	// Children is how many child updates were folded in. Zero means the
	// whole subtree sat this round out (an empty aggregate still closes
	// the root's barrier).
	Children int
	// Weight is the exact sum of the children's update weights.
	Weight float64
	// Vecs are the pre-weighted vector sums, Σ_c w_c·v_c per slot. Nil
	// entries are first-class (unreported prototype classes).
	Vecs [][]float64
	// VecWeights carries a per-slot weight sum for segmented algorithms
	// whose slots accumulate under independent weights (FedProto's
	// per-class prototypes). Nil for monolithic algorithms, where Weight
	// governs every slot.
	VecWeights []float64
	// Counts are the children's integer counts summed slot-wise.
	Counts []int
}

// ReducibleWireAlgorithm extends WireAlgorithm for algorithms whose
// aggregation is associative: an edge aggregator may fold a subtree of
// updates into one AggUpdate (PreReduce, client side of the edge) and the
// root folds aggregates instead of updates (WireApplyAggregate). The
// contract is exactness — PreReduce must use grouping-invariant sums
// (ExactAccumulator) so that an aggregate is the same bits whatever order
// its subtree reported in. FedAvg, FedProx, FedClassAvg and FedProto qualify;
// KT-pFL's similarity matrix needs every client's individual payload and
// deliberately does not implement this interface, so aggregators pass its
// updates through unreduced.
type ReducibleWireAlgorithm interface {
	WireAlgorithm
	// PreReduce folds a subtree's updates (ascending client id) into one
	// aggregate. It must not mutate server-half state: aggregators run
	// only the client-facing reduction.
	PreReduce(updates []*Update) (*AggUpdate, error)
	// WireApplyAggregate folds one aggregate into the server's
	// accumulators, the tree counterpart of WireApply.
	WireApplyAggregate(u *AggUpdate) error
}

// TreeSplit partitions k clients across aggs edge aggregators into
// contiguous balanced ranges: aggregator a owns [bounds[a], bounds[a+1]).
// Every range is non-empty for aggs ≤ k, and contiguity is what keeps the
// root's passthrough apply order identical to flat sorted-id order.
func TreeSplit(k, aggs int) []int {
	bounds := make([]int, aggs+1)
	for a := 1; a < aggs; a++ {
		bounds[a] = a * k / aggs
	}
	bounds[aggs] = k
	return bounds
}

// encodeTreeJoin frames an aggregator's handshake: it joins the root on
// behalf of its whole child range once every child has joined it.
//
//	a      = aggregator index
//	ints   = [lo, hi, then each child's JoinInts ints (WireJoin.AppendInts)]
//	counts = per-child init-vector count
//	vecs   = the children's init payloads, concatenated
func encodeTreeJoin(agg, lo, hi int, joins []WireJoin, name string, wc *wireCodec) []byte {
	m := &wireMsg{kind: msgTreeJoin, a: uint64(agg), name: name}
	m.ints = append(m.ints, int64(lo), int64(hi))
	for _, j := range joins {
		m.ints = j.AppendInts(m.ints)
		m.counts = append(m.counts, len(j.Init))
		m.vecs = append(m.vecs, j.Init...)
	}
	return appendMsg(nil, m, wc)
}

// decodeTreeJoin parses a tree handshake and rebuilds the per-child joins.
func decodeTreeJoin(m *wireMsg) (agg, lo, hi int, joins []WireJoin, err error) {
	fail := func(format string, args ...any) (int, int, int, []WireJoin, error) {
		return 0, 0, 0, nil, fmt.Errorf("fl: tree join: "+format, args...)
	}
	if len(m.ints) < 2 {
		return fail("missing child range")
	}
	agg, lo, hi = int(m.a), int(m.ints[0]), int(m.ints[1])
	children := hi - lo
	if lo < 0 || children <= 0 {
		return fail("bad child range [%d,%d)", lo, hi)
	}
	if len(m.ints) != 2+children*JoinInts {
		return fail("%d children declared, %d ints carried", children, len(m.ints)-2)
	}
	if len(m.counts) != children {
		return fail("%d children declared, %d init counts carried", children, len(m.counts))
	}
	joins = make([]WireJoin, children)
	off := 0
	for i := range joins {
		if joins[i], err = ParseJoin(m.ints[2+i*JoinInts : 2+(i+1)*JoinInts]); err != nil {
			return fail("%v", err)
		}
		if joins[i].ID != lo+i {
			return fail("child %d carries id %d, want %d", i, joins[i].ID, lo+i)
		}
		n := m.counts[i]
		if n < 0 || n > len(m.vecs)-off {
			return fail("init vectors overrun: child %d wants %d of %d", i, n, len(m.vecs)-off)
		}
		joins[i].Init = m.vecs[off : off+n]
		off += n
	}
	if off != len(m.vecs) {
		return fail("%d trailing init vectors", len(m.vecs)-off)
	}
	return agg, lo, hi, joins, nil
}

// treeShared marks (in the b slot) a tree dispatch whose members all get one
// payload.
const treeShared = 1

// treeDispatchMsg is one round's batched broadcast for a subtree: the root
// calls WireDispatch once per cohort member and ships the payloads to the
// member's aggregator in one frame, in one of two layouts. When every
// member's payload is the same vectors (sharedPayload) — a global broadcast,
// FedAvg's, FedProx's, FedClassAvg's — the frame carries one copy:
//
//	a      = round version
//	b      = treeShared
//	ints   = cohort member ids (ascending)
//	counts = [payload vector count]
//	vecs   = the one payload every member gets
//
// Otherwise — KT-pFL's and FedProto's per-client payloads — it carries one
// per member:
//
//	a      = round version
//	b      = 0
//	ints   = cohort member ids (ascending)
//	counts = per-member payload vector count
//	vecs   = the members' dispatch payloads, concatenated
func treeDispatchMsg(version uint64, members []int, payloads [][][]float64) *wireMsg {
	m := &wireMsg{kind: msgTreeDispatch, a: version}
	for _, id := range members {
		m.ints = append(m.ints, int64(id))
	}
	if sharedPayload(payloads) {
		m.b, m.counts, m.vecs = treeShared, []int{len(payloads[0])}, payloads[0]
		return m
	}
	for _, p := range payloads {
		m.counts = append(m.counts, len(p))
		m.vecs = append(m.vecs, p...)
	}
	return m
}

// sharedPayload reports whether a subtree's payloads are one payload sent
// several times: more than one member, every payload the same vectors as the
// first (sameVecs, the test the table's broadcast cache applies), and at
// least one vector with elements to carry that identity. An empty payload or
// a table of nil entries has none — a fresh per-client table of nils looks
// exactly like a shared one — so it keeps the per-member layout.
func sharedPayload(payloads [][][]float64) bool {
	held := func(v []float64) bool { return len(v) > 0 }
	if len(payloads) < 2 || !slices.ContainsFunc(payloads[0], held) {
		return false
	}
	for _, p := range payloads[1:] {
		if !sameVecs(p, payloads[0]) {
			return false
		}
	}
	return true
}

// decodeTreeDispatch parses a batched broadcast back into per-member
// payloads; in the shared layout every member's is the same slice. Member
// ids must be strictly ascending, as TreeSplit's contiguous ranges send
// them: a repeated id would dispatch twice to one session.
func decodeTreeDispatch(m *wireMsg) (ids []int, payloads [][][]float64, err error) {
	fail := func(format string, args ...any) ([]int, [][][]float64, error) {
		return nil, nil, fmt.Errorf("fl: tree dispatch: "+format, args...)
	}
	ids = make([]int, len(m.ints))
	for i, iv := range m.ints {
		ids[i] = int(iv)
		if i > 0 && ids[i] <= ids[i-1] {
			return fail("member id %d follows %d (want strictly ascending)", ids[i], ids[i-1])
		}
	}
	payloads = make([][][]float64, len(ids))
	switch m.b {
	case treeShared:
		if len(ids) == 0 || len(m.counts) != 1 || m.counts[0] != len(m.vecs) {
			return fail("shared payload for %d members declares %v vectors, carries %d", len(ids), m.counts, len(m.vecs))
		}
		for i := range payloads {
			payloads[i] = m.vecs
		}
	case 0:
		if len(m.counts) != len(ids) {
			return fail("%d members, %d payload counts", len(ids), len(m.counts))
		}
		off := 0
		for i, n := range m.counts {
			if n < 0 || n > len(m.vecs)-off {
				return fail("payload vectors overrun at member %d", i)
			}
			payloads[i] = m.vecs[off : off+n]
			off += n
		}
		if off != len(m.vecs) {
			return fail("%d trailing vectors", len(m.vecs)-off)
		}
	default:
		return fail("unknown layout %d", m.b)
	}
	return ids, payloads, nil
}

// aggUpdateMsg is a pre-reduced aggregate.
//
//	a      = round version
//	b      = summed weight (float64 bits)
//	ints   = [children] or [children, per-vec weight bits...] when the
//	         algorithm accumulates slots under independent weights
//	counts = slot-wise summed integer counts
//	vecs   = pre-weighted vector sums (nil slots allowed)
func aggUpdateMsg(version uint64, au *AggUpdate) *wireMsg {
	m := &wireMsg{kind: msgAggUpdate, a: version, b: math.Float64bits(au.Weight)}
	m.ints = append(m.ints, int64(au.Children))
	for _, w := range au.VecWeights {
		m.ints = append(m.ints, int64(math.Float64bits(w)))
	}
	m.counts = au.Counts
	m.vecs = au.Vecs
	return m
}

// decodeAggUpdate parses a pre-reduced aggregate. Its weights are sums of
// update weights, so each must be finite and non-negative: anything else
// would reach the root's accumulators as a malformed fold, not a number.
func decodeAggUpdate(m *wireMsg) (*AggUpdate, error) {
	if len(m.ints) < 1 {
		return nil, fmt.Errorf("fl: aggregated update: missing child count")
	}
	au := &AggUpdate{
		Version:  int(m.a),
		Children: int(m.ints[0]),
		Weight:   math.Float64frombits(m.b),
		Vecs:     m.vecs,
		Counts:   m.counts,
	}
	if au.Children < 0 {
		return nil, fmt.Errorf("fl: aggregated update: negative child count %d", au.Children)
	}
	if !weightSum(au.Weight) {
		return nil, fmt.Errorf("fl: aggregated update: weight %v", au.Weight)
	}
	if len(m.ints) > 1 {
		if len(m.ints) != 1+len(m.vecs) {
			return nil, fmt.Errorf("fl: aggregated update: %d per-vector weights for %d vectors", len(m.ints)-1, len(m.vecs))
		}
		au.VecWeights = make([]float64, len(m.vecs))
		for i := range au.VecWeights {
			w := math.Float64frombits(uint64(m.ints[1+i]))
			if !weightSum(w) {
				return nil, fmt.Errorf("fl: aggregated update: vector %d weight %v", i, w)
			}
			au.VecWeights[i] = w
		}
	}
	return au, nil
}

// weightSum reports whether w can be an update weight or a sum of them:
// finite and not negative.
func weightSum(w float64) bool { return w >= 0 && !math.IsInf(w, 1) }

// treeUpdateMsg is a subtree's raw updates unreduced — the
// passthrough path for algorithms with no sound pre-reduction. The root
// applies the bundled updates in ascending id order, which (ranges being
// contiguous) reproduces flat fan-in's sorted apply order exactly.
//
//	a      = round version
//	ints   = per update: [client id, scale bits, nVecs, nCounts]
//	counts = the updates' integer counts, concatenated
//	vecs   = the updates' vectors, concatenated
func treeUpdateMsg(version uint64, ups []*Update) *wireMsg {
	m := &wireMsg{kind: msgTreeUpdate, a: version}
	for _, u := range ups {
		m.ints = append(m.ints, int64(u.Client), int64(math.Float64bits(u.Scale)),
			int64(len(u.Vecs)), int64(len(u.Counts)))
		m.counts = append(m.counts, u.Counts...)
		m.vecs = append(m.vecs, u.Vecs...)
	}
	return m
}

// decodeTreeUpdate parses a passthrough bundle back into updates. Weight
// is set to Scale, matching the sync scheduler's flat path.
func decodeTreeUpdate(m *wireMsg) ([]*Update, error) {
	if len(m.ints)%4 != 0 {
		return nil, fmt.Errorf("fl: tree update: %d header ints, want a multiple of 4", len(m.ints))
	}
	ups := make([]*Update, 0, len(m.ints)/4)
	vOff, cOff := 0, 0
	for i := 0; i < len(m.ints); i += 4 {
		scale := math.Float64frombits(uint64(m.ints[i+1]))
		if !weightSum(scale) {
			return nil, fmt.Errorf("fl: tree update: client %d weight %v", m.ints[i], scale)
		}
		nVecs, nCounts := int(m.ints[i+2]), int(m.ints[i+3])
		if nVecs < 0 || nVecs > len(m.vecs)-vOff {
			return nil, fmt.Errorf("fl: tree update: vectors overrun at update %d", i/4)
		}
		if nCounts < 0 || nCounts > len(m.counts)-cOff {
			return nil, fmt.Errorf("fl: tree update: counts overrun at update %d", i/4)
		}
		u := &Update{
			Client:  int(m.ints[i]),
			Version: int(m.a),
			Scale:   scale,
			Weight:  scale,
			Vecs:    m.vecs[vOff : vOff+nVecs],
			Counts:  m.counts[cOff : cOff+nCounts],
		}
		if len(u.Vecs) == 0 {
			u.Vecs = nil
		}
		if len(u.Counts) == 0 {
			u.Counts = nil
		}
		vOff += nVecs
		cOff += nCounts
		ups = append(ups, u)
	}
	if vOff != len(m.vecs) || cOff != len(m.counts) {
		return nil, fmt.Errorf("fl: tree update: %d trailing vectors, %d trailing counts", len(m.vecs)-vOff, len(m.counts)-cOff)
	}
	return ups, nil
}

// aggEvalInts packs per-client accuracies for the tree evaluation reply:
// [id, accuracy bits] pairs in the ints slot, never the vecs slot, so a
// lossy codec cannot quantize a metric.
func aggEvalInts(ids []int, accs map[int]uint64) []int64 {
	ints := make([]int64, 0, 2*len(ids))
	for _, id := range ids {
		ints = append(ints, int64(id), int64(accs[id]))
	}
	return ints
}

// parseAggEvalInts unpacks a tree evaluation reply.
func parseAggEvalInts(ints []int64) (map[int]float64, error) {
	if len(ints)%2 != 0 {
		return nil, fmt.Errorf("fl: tree eval reply: odd int count %d", len(ints))
	}
	accs := make(map[int]float64, len(ints)/2)
	for i := 0; i+1 < len(ints); i += 2 {
		accs[int(ints[i])] = math.Float64frombits(uint64(ints[i+1]))
	}
	return accs, nil
}
