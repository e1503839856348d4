//go:build amd64

package tensor

import "unsafe"

// Implemented in gemm_avx512_amd64.s.

//go:noescape
func avx512Micro8x8(c *float64, ldc int, a *float64, aRow, aStep int, bp *float64, pk int, load int)

//go:noescape
func avx512Micro8x16f32(c *float32, ldc int, a *float32, aRow, aStep int, bp *float32, pk int, load int)

//go:noescape
func avx512Micro4x16f32(c *float32, ldc int, a *float32, aRow, aStep int, bp *float32, pk int, load int)

//go:noescape
func maxPool2x2f32(x, out *float32, am *int64, outH, outW, w int, base int64)

//go:noescape
func maxPool2x2f64(x, out *float64, am *int64, outH, outW, w int, base int64)

// useAVX512 reports whether the AVX-512 micro-kernels may be used: on top of
// the AVX2+FMA requirements, the CPU must expose AVX512F/DQ/BW/VL and the OS
// must have enabled opmask and ZMM state saving (XCR0 bits 5-7 alongside
// XMM/YMM). Both element widths share the requirements, so one probe gates
// the f64 8×8 and the f32 8×16/4×16 kernels alike.
var useAVX512 = detectAVX512()

func detectAVX512() bool {
	if !detectFMA() {
		return false
	}
	if eax, _ := xgetbv(); eax&0xe6 != 0xe6 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx512f = 1 << 16
	const avx512dq = 1 << 17
	const avx512bw = 1 << 30
	const avx512vl = 1 << 31
	const want = uint32(avx512f | avx512dq | avx512bw | avx512vl)
	return b7&want == want
}

// CPUFeatures names the SIMD tiers the GEMM/vector kernels will actually
// use on this host, in ascending order. Benchmark records embed it so
// cross-host comparisons can refuse to gate when the kernel tiers differ
// (a portable-vs-AVX2 delta is a host property, not a regression).
func CPUFeatures() []string {
	var f []string
	if useFMA {
		f = append(f, "avx2", "fma")
	}
	if useAVX512 {
		f = append(f, "avx512")
	}
	return f
}

// MaxPool2x2F32 runs the AVX-512 2x2 stride-2 max-pool kernel over one input
// plane of width w, writing outH*outW maxima into out and absolute input
// indices (base + row-relative offset) into am. The compare/blend chain in
// the kernel visits candidates in the exact order of the scalar loop
// (row0-even, row0-odd, row1-even, row1-odd, strict greater-than), so values
// and argmax tie-breaking are bit-identical to the portable path. Returns
// false when the AVX-512 tier is unavailable so callers fall back to the
// scalar loop.
func MaxPool2x2F32(x, out []float32, am []int, outH, outW, w, base int) bool {
	if !useAVX512 || outH == 0 || outW == 0 {
		return false
	}
	maxPool2x2f32(&x[0], &out[0], (*int64)(unsafe.Pointer(&am[0])), outH, outW, w, int64(base))
	return true
}

// MaxPool2x2F64 is the f64 twin of MaxPool2x2F32.
func MaxPool2x2F64(x, out []float64, am []int, outH, outW, w, base int) bool {
	if !useAVX512 || outH == 0 || outW == 0 {
		return false
	}
	maxPool2x2f64(&x[0], &out[0], (*int64)(unsafe.Pointer(&am[0])), outH, outW, w, int64(base))
	return true
}
