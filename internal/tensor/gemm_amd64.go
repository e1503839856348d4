//go:build amd64

package tensor

import "unsafe"

// Implemented in gemm_amd64.s.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func fmaMicro4x8(c *float64, ldc int, a *float64, aRow, aStep int, bp *float64, pk int, load int)

//go:noescape
func fmaMicro8x8f32(c *float32, ldc int, a *float32, aRow, aStep int, bp *float32, pk int, load int)

// useFMA reports whether the AVX2+FMA micro-kernels may be used: the CPU
// must expose AVX, AVX2, FMA3 and OSXSAVE, and the OS must have enabled
// XMM/YMM state saving. Both element widths share the same requirements, so
// one probe gates the f64 4×8 and the f32 8×8 kernel alike.
var useFMA = detectFMA()

func detectFMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const fma = 1 << 12
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c1&fma == 0 || c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	if eax, _ := xgetbv(); eax&0x6 != 0x6 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return b7&avx2 != 0
}

// sweepTiles runs tile t down as many whole tiles as fit in rows rows and
// returns the rows it covered. Each tile computes C (+)= A·bp over pk
// reduction steps with the kernels' byte-stride calling convention
// (gemm_amd64.s): row r's C starts r·ldc bytes after c and its A operand
// r·aRow bytes after a. c, a and bp point at elements of the kernel's type.
func sweepTiles(t simdTile, rows int, c unsafe.Pointer, ldc int, a unsafe.Pointer, aRow, aStep int, bp unsafe.Pointer, pk, load int) int {
	r := 0
	for ; r+t.mr <= rows; r += t.mr {
		cr, ar := unsafe.Add(c, r*ldc), unsafe.Add(a, r*aRow)
		switch t.kernel {
		case avx512x8x8:
			avx512Micro8x8((*float64)(cr), ldc, (*float64)(ar), aRow, aStep, (*float64)(bp), pk, load)
		case fma4x8:
			fmaMicro4x8((*float64)(cr), ldc, (*float64)(ar), aRow, aStep, (*float64)(bp), pk, load)
		case avx512x8x16f32:
			avx512Micro8x16f32((*float32)(cr), ldc, (*float32)(ar), aRow, aStep, (*float32)(bp), pk, load)
		case avx512x4x16f32:
			avx512Micro4x16f32((*float32)(cr), ldc, (*float32)(ar), aRow, aStep, (*float32)(bp), pk, load)
		case fma8x8f32:
			fmaMicro8x8f32((*float32)(cr), ldc, (*float32)(ar), aRow, aStep, (*float32)(bp), pk, load)
		case fma4x8f32:
			fmaMicro4x8f32((*float32)(cr), ldc, (*float32)(ar), aRow, aStep, (*float32)(bp), pk, load)
		}
	}
	return r
}
