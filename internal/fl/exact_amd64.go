//go:build amd64

package fl

import (
	"slices"

	"repro/internal/tensor"
)

// pairSIMD gates the AVX2 pair fold; it needs the feature set the tensor
// kernels probe for.
var pairSIMD = slices.Contains(tensor.CPUFeatures(), "avx2")

// Implemented in exact_amd64.s.
//
//go:noescape
func pairFoldAVX2(hi, lo, vec *float64, n int, w float64) int

// pairFold runs Fold's pair step over vec four cells at a time while every
// cell of a group takes its term exactly, and returns how many elements it
// folded: the group that stopped it, and a tail of fewer than four, are the
// scalar loop's.
func pairFold(hi, lo, vec []float64, w float64) int {
	if !pairSIMD || len(vec) < 4 {
		return 0
	}
	return pairFoldAVX2(&hi[0], &lo[0], &vec[0], len(vec), w)
}
