package fl

import (
	"encoding/binary"
	"math"

	"repro/internal/comm"
	"repro/internal/tensor"
)

// ShardedAccumulator is the server-side aggregation state of every
// scheduler: a running weighted sum over a flat vector cut into segments,
// with one weight total per segment. A NewSharded vector (a model's
// weights) is one segment; NewSegmented gives structured state such as
// per-class prototypes one segment, and one weight, per class.
//
// Every call comes from the one goroutine that applies and commits updates
// (the engine goroutine, or the server node's loop), so there are no locks.
// A fold's elements may be split across the worker pool, but every element
// sees the same sequence of operations at any split, so the state — and
// every committed bit — is independent of the worker count. Checkpoints are
// taken at commit boundaries, where the accumulator is empty, so it is
// never serialized.
type ShardedAccumulator struct {
	bounds []int // segment s covers [bounds[s], bounds[s+1])
	sum    []float64
	wsum   []float64
	split  int // most pool shards a full-vector fold's elements split into
}

// NewSharded builds a one-segment accumulator over n elements whose folds
// split their elements into at most shards ranges on the worker pool.
func NewSharded(n, shards int) *ShardedAccumulator {
	return newAccumulator([]int{0, n}, shards)
}

// NewSegmented builds an accumulator with one segment per entry of segLens;
// segment s has segLens[s] elements and its own aggregation weight.
func NewSegmented(segLens []int) *ShardedAccumulator {
	bounds := make([]int, len(segLens)+1)
	for s, l := range segLens {
		bounds[s+1] = bounds[s] + l
	}
	return newAccumulator(bounds, 1)
}

func newAccumulator(bounds []int, split int) *ShardedAccumulator {
	return &ShardedAccumulator{
		bounds: bounds,
		sum:    make([]float64, bounds[len(bounds)-1]),
		wsum:   make([]float64, len(bounds)-1),
		split:  split,
	}
}

// Len returns the total element count.
func (a *ShardedAccumulator) Len() int { return len(a.sum) }

// Accumulate folds one full-length vector under weight w into every
// segment: sum[i] += w·vec[i], and each segment's weight total gains w.
func (a *ShardedAccumulator) Accumulate(vec []float64, w float64) {
	a.accumulateBody(comm.AsF64Body(vec), w)
}

// accumulateBody is Accumulate for a vector given as a body, read where it
// lies: the one fold kernel.
func (a *ShardedAccumulator) accumulateBody(b comm.Body, w float64) {
	if b.Len() != len(a.sum) {
		panic("fl: ShardedAccumulator.Accumulate length mismatch")
	}
	withF64(b, func(body []byte) {
		tensor.ParallelSharded(len(a.sum), a.split, func(_, lo, hi int) {
			axpyBody(a.sum[lo:hi], body[8*lo:8*hi], w)
		})
	})
	for s := range a.wsum {
		a.wsum[s] += w
	}
}

// withF64 hands f b's elements as a dense F64 body: b's own bytes, or for a
// body of another codec its decoding into pool scratch, which goes back to
// the pool once f has read it.
func withF64(b comm.Body, f func(body []byte)) {
	if b.Codec() == comm.F64 {
		f(b.Bytes())
		return
	}
	scratch := b.Decode(nil)
	f(comm.AsF64Body(scratch).Bytes())
	tensor.PutStorage(scratch)
}

// axpyBody adds w·v to sum, v given as a dense F64 body as long as sum. It
// loads four elements a step, with one bounds check for the four, which
// keeps the little-endian loads near a []float64 loop's speed.
func axpyBody(sum []float64, body []byte, w float64) {
	body = body[:8*len(sum)]
	for len(sum) >= 4 {
		b := body[:32]
		sum[0] += w * math.Float64frombits(binary.LittleEndian.Uint64(b[0:]))
		sum[1] += w * math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
		sum[2] += w * math.Float64frombits(binary.LittleEndian.Uint64(b[16:]))
		sum[3] += w * math.Float64frombits(binary.LittleEndian.Uint64(b[24:]))
		sum, body = sum[4:], body[32:]
	}
	for i := range sum {
		sum[i] += w * f64At(body, i)
	}
}

// addBody adds v to sum the way axpyBody adds w·v.
func addBody(sum []float64, body []byte) {
	body = body[:8*len(sum)]
	for len(sum) >= 4 {
		b := body[:32]
		sum[0] += math.Float64frombits(binary.LittleEndian.Uint64(b[0:]))
		sum[1] += math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
		sum[2] += math.Float64frombits(binary.LittleEndian.Uint64(b[16:]))
		sum[3] += math.Float64frombits(binary.LittleEndian.Uint64(b[24:]))
		sum, body = sum[4:], body[32:]
	}
	for i := range sum {
		sum[i] += f64At(body, i)
	}
}

// AccumulateSegment folds a weighted vector, given as a body, into one
// segment (for example one class prototype), as accumulateBody folds a whole
// vector. seg must have the segment's exact length.
func (a *ShardedAccumulator) AccumulateSegment(s int, seg comm.Body, w float64) {
	sum := a.segment(s, seg.Len(), "AccumulateSegment")
	withF64(seg, func(body []byte) { axpyBody(sum, body, w) })
	a.wsum[s] += w
}

// Merge folds a pre-weighted partial sum carrying weight w into every
// segment: sum[i] += vec[i], and each segment's weight total gains w. This
// is the root's half of hierarchical aggregation — an edge aggregator's
// PreReduce delivers Σ w_c·v_c with Σ w_c, already multiplied out, so the
// fold must not weight the vector again. The flat Accumulate path is the
// degenerate case Merge(w·v, w) computed exactly by the aggregator.
func (a *ShardedAccumulator) Merge(vec []float64, w float64) {
	a.mergeBody(comm.AsF64Body(vec), w)
}

// mergeBody is Merge for a partial sum given as a body, the way
// accumulateBody is Accumulate's.
func (a *ShardedAccumulator) mergeBody(b comm.Body, w float64) {
	if b.Len() != len(a.sum) {
		panic("fl: ShardedAccumulator.Merge length mismatch")
	}
	withF64(b, func(body []byte) {
		tensor.ParallelSharded(len(a.sum), a.split, func(_, lo, hi int) {
			addBody(a.sum[lo:hi], body[8*lo:8*hi])
		})
	})
	for s := range a.wsum {
		a.wsum[s] += w
	}
}

// MergeSegment folds a pre-weighted partial sum, given as a body, into one
// segment, the segmented counterpart of mergeBody (per-class prototype sums
// arriving from an aggregator with their summed weights).
func (a *ShardedAccumulator) MergeSegment(s int, seg comm.Body, w float64) {
	sum := a.segment(s, seg.Len(), "MergeSegment")
	withF64(seg, func(body []byte) { addBody(sum, body) })
	a.wsum[s] += w
}

// segment returns segment s's running sum after checking that it has n
// elements.
func (a *ShardedAccumulator) segment(s, n int, op string) []float64 {
	sum := a.sum[a.bounds[s]:a.bounds[s+1]]
	if n != len(sum) {
		panic("fl: ShardedAccumulator." + op + " length mismatch")
	}
	return sum
}

// CommitInto merges the accumulated weighted means into dst and resets the
// accumulator: every segment with positive weight commits as CommitSegment
// does, and segments that received no weight leave dst untouched. When
// touched is non-nil it must have an entry per segment and is set to whether
// each segment committed.
func (a *ShardedAccumulator) CommitInto(dst []float64, mix float64, touched []bool) {
	if len(dst) != len(a.sum) {
		panic("fl: ShardedAccumulator.CommitInto length mismatch")
	}
	for s := range a.wsum {
		ok := a.CommitSegment(s, dst[a.bounds[s]:a.bounds[s+1]], mix)
		if touched != nil {
			touched[s] = ok
		}
	}
}

// CommitSegment merges segment s's weighted mean into dst, which has the
// segment's length, and resets the segment. When the segment has positive
// weight,
//
//	dst[i] = (1-mix)·dst[i] + mix·sum[i]/wsum
//
// and it reports true; otherwise dst is left as it is (so, for example, an
// unseen prototype class keeps its previous value) and it reports false.
func (a *ShardedAccumulator) CommitSegment(s int, dst []float64, mix float64) bool {
	sum := a.segment(s, len(dst), "CommitSegment")
	w := a.wsum[s]
	if w <= 0 {
		return false
	}
	inv := 1 / w
	keep := 1 - mix
	tensor.ParallelSharded(len(sum), a.split, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = keep*dst[i] + mix*sum[i]*inv
			sum[i] = 0
		}
	})
	a.wsum[s] = 0
	return true
}
