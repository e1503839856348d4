package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minTail is how many samples must lie beyond a reported percentile: with
// fewer the percentile is one or two outliers, not a property of the run.
const minTail = 10

// percentile returns the p-th percentile (nearest rank) of xs. It refuses
// when fewer than minTail samples lie beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g out of (0,100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", p, n, n-rank, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// firstCrossing returns the index of the first point whose accuracy reaches
// target, or -1. Accuracy curves are not monotone: a later dip below the
// target does not move the crossing, and an earlier near-miss is not one.
func firstCrossing(acc []float64, target float64) int {
	for i, a := range acc {
		if a >= target {
			return i
		}
	}
	return -1
}

// trailingMean returns, for every point of xs, the mean of that point and the
// up to k-1 points before it.
func trailingMean(xs []float64, k int) []float64 {
	out := make([]float64, len(xs))
	var sum float64
	for i, x := range xs {
		sum += x
		if i >= k {
			sum -= xs[i-k]
		}
		out[i] = sum / float64(min(i+1, k))
	}
	return out
}
