//go:build !amd64

package fl

// Non-amd64 builds fold every cell in Fold's scalar loop.
var pairSIMD = false

func pairFold(hi, lo, vec []float64, w float64) int { return 0 }
