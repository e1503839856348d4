package data

import (
	"fmt"
	"math/rand"
	"sync"
)

// LazyPartitioner is the virtual-fleet counterpart of Partition: instead of
// materializing all k client splits up front (O(dataset · k) memory for a
// million clients), it precomputes only the immutable per-class example
// pools and hands out client i's split on demand as a pure function of
// (seed, i). Determinism is per-client, not sequential: the same (ds, k,
// opts, i) always yields the same split, no matter which clients were
// asked for before — the property a lazy client store needs to rebuild an
// evicted client bit-identically.
//
// The construction necessarily differs from Partition's: the eager
// partitioner draws sequentially without replacement from shared pools (a
// stateful process that cannot be replayed per-client), so the lazy one
// draws with replacement from the immutable pools. Class mixtures follow
// the same Dirichlet/Skewed models; per-client sizes are the same
// len/k equalized volumes. The two partitioners are therefore two
// different samples of the same distribution family, not byte-equal.
type LazyPartitioner struct {
	k          int
	numClasses int
	trainPer   int
	testPer    int
	opts       PartitionOptions
	trainPools [][]Example
	testPools  [][]Example
	// skewOrder is the Skewed mode's shuffled class order, drawn once from
	// the seed so client i's class pair is a pure function of i.
	skewOrder []int
}

// NewLazyPartitioner validates options and builds the immutable pools.
func NewLazyPartitioner(ds *Dataset, k int, opts PartitionOptions) (*LazyPartitioner, error) {
	if k < 1 {
		return nil, fmt.Errorf("data: LazyPartitioner needs k >= 1, got %d", k)
	}
	if opts.Kind != Dirichlet && opts.Kind != Skewed {
		return nil, fmt.Errorf("data: unknown partition kind %d", opts.Kind)
	}
	p := &LazyPartitioner{
		k:          k,
		numClasses: ds.NumClasses,
		trainPer:   clampMin1(len(ds.Train) / k),
		testPer:    clampMin1(len(ds.Test) / k),
		opts:       opts,
		trainPools: poolByClass(ds.Train, ds.NumClasses),
		testPools:  poolByClass(ds.Test, ds.NumClasses),
	}
	if opts.Kind == Skewed {
		rng := rand.New(rand.NewSource(opts.Seed))
		p.skewOrder = rng.Perm(ds.NumClasses)
	}
	return p, nil
}

// clampMin1 keeps per-client sizes positive when k exceeds the dataset: a
// million virtual clients over a synthetic dataset alias examples rather
// than starve.
func clampMin1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// Client returns client i's split, deterministically derived from (seed, i)
// alone.
func (p *LazyPartitioner) Client(i int) ClientData {
	if i < 0 || i >= p.k {
		panic(fmt.Sprintf("data: lazy partition client %d out of range [0,%d)", i, p.k))
	}
	rng := splitRngs.Get().(*rand.Rand)
	defer splitRngs.Put(rng)
	rng.Seed(p.splitSeed(i))
	return p.split(i, rng)
}

// splitSeed seeds client i's draws.
func (p *LazyPartitioner) splitSeed(i int) int64 {
	return p.opts.Seed*1000003 + int64(i)*7919 ^ 0x70617274 // "part"
}

// split draws client i's split from rng, seeded with splitSeed(i).
func (p *LazyPartitioner) split(i int, rng *rand.Rand) ClientData {
	var props []float64
	switch p.opts.Kind {
	case Dirichlet:
		alpha := p.opts.Alpha
		if alpha <= 0 {
			alpha = 0.5
		}
		props = dirichletSample(p.numClasses, alpha, rng)
	case Skewed:
		props = make([]float64, p.numClasses)
		c1 := p.skewOrder[(2*i)%p.numClasses]
		c2 := p.skewOrder[(2*i+1)%p.numClasses]
		props[c1] = 0.5
		props[c2] += 0.5
	}
	return ClientData{
		ID:    i,
		Train: drawWithReplacement(p.trainPools, props, p.trainPer, rng),
		Test:  drawWithReplacement(p.testPools, props, p.testPer, rng),
	}
}

// splitRngs recycles Client's generators: a math/rand source is ~5 KB, and
// a reseeded one draws exactly what a fresh source of that seed would.
var splitRngs = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// NumClients returns k.
func (p *LazyPartitioner) NumClients() int { return p.k }

// drawWithReplacement draws total examples following props from immutable
// class pools. Empty requested classes fall back to the globally richest
// pool, mirroring drawByProportions' starvation policy.
func drawWithReplacement(pools [][]Example, props []float64, total int, rng *rand.Rand) []Example {
	out := make([]Example, 0, total)
	richest := -1
	for c, pool := range pools {
		if richest < 0 || len(pool) > len(pools[richest]) {
			if len(pool) > 0 {
				richest = c
			}
		}
	}
	quotas := largestRemainderQuota(props, total)
	for c, q := range quotas {
		pool := pools[c]
		if len(pool) == 0 {
			if richest < 0 {
				return out // every pool empty
			}
			pool = pools[richest]
		}
		for j := 0; j < q; j++ {
			out = append(out, pool[rng.Intn(len(pool))])
		}
	}
	return out
}
