//go:build !amd64

package tensor

import "unsafe"

// Non-amd64 builds always take the portable blocked kernels, at either
// element width: simdTierFor returns no tier, so sweepTiles is never reached.
const (
	useFMA    = false
	useAVX512 = false
)

// CPUFeatures reports no SIMD tiers: non-amd64 builds run the portable
// kernels only.
func CPUFeatures() []string { return nil }

func sweepTiles(t simdTile, rows int, c unsafe.Pointer, ldc int, a unsafe.Pointer, aRow, aStep int, bp unsafe.Pointer, pk, load int) int {
	panic("tensor: SIMD kernel unavailable")
}

// MaxPool2x2F32 reports the AVX-512 max-pool kernel unavailable on non-amd64
// builds; callers take the portable scalar loop.
func MaxPool2x2F32(x, out []float32, am []int, outH, outW, w, base int) bool { return false }

// MaxPool2x2F64 reports the AVX-512 max-pool kernel unavailable on non-amd64
// builds; callers take the portable scalar loop.
func MaxPool2x2F64(x, out []float64, am []int, outH, outW, w, base int) bool { return false }
