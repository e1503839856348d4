// AVX2+FMA micro-kernels for the blocked GEMM driver in gemm_simd.go:
// a 4×8 float64 tile and an 8×8 float32 tile (double the lane count at
// half the element width). Only assembled on amd64; callers gate on the
// useFMA runtime check.

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func fmaMicro4x8(c *float64, ldc int, a *float64, aRow, aStep int, bp *float64, pk int, load int)
//
// Computes a 4×8 register tile C[r, 0:8] (+)= Σ_t A[r, t]·B[t, 0:8] where
// the four logical A rows start at a, a+aRow, a+2·aRow, a+3·aRow and advance
// by aStep per reduction step, and B is an 8-wide packed panel of pk rows.
// All strides are in bytes. load != 0 seeds the accumulators from C
// (accumulate); load == 0 overwrites. pk must be >= 1.
//
// The stride pair makes the same kernel serve A·B (aRow = k·8, aStep = 8),
// Aᵀ·B (aRow = 8, aStep = k·8) and A·Bᵀ with a transpose-packed panel.
TEXT ·fmaMicro4x8(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), CX
	MOVQ a+16(FP), SI
	MOVQ aRow+24(FP), R8
	MOVQ aStep+32(FP), R9
	MOVQ bp+40(FP), BX
	MOVQ pk+48(FP), DX
	MOVQ load+56(FP), AX

	LEAQ (R8)(R8*2), R13 // 3·aRow
	LEAQ (DI)(CX*1), R10 // C row 1
	LEAQ (R10)(CX*1), R11 // C row 2
	LEAQ (R11)(CX*1), R12 // C row 3

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	TESTQ AX, AX
	JZ    loop
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (R10), Y2
	VMOVUPD 32(R10), Y3
	VMOVUPD (R11), Y4
	VMOVUPD 32(R11), Y5
	VMOVUPD (R12), Y6
	VMOVUPD 32(R12), Y7

loop:
	VMOVUPD      (BX), Y8
	VMOVUPD      32(BX), Y9
	VBROADCASTSD (SI), Y10
	VBROADCASTSD (SI)(R8*1), Y11
	VBROADCASTSD (SI)(R8*2), Y12
	VBROADCASTSD (SI)(R13*1), Y13
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ         $64, BX
	ADDQ         R9, SI
	DECQ         DX
	JNZ          loop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (R10)
	VMOVUPD Y3, 32(R10)
	VMOVUPD Y4, (R11)
	VMOVUPD Y5, 32(R11)
	VMOVUPD Y6, (R12)
	VMOVUPD Y7, 32(R12)
	VZEROUPPER
	RET

// func fmaMicro8x8f32(c *float32, ldc int, a *float32, aRow, aStep int, bp *float32, pk int, load int)
//
// Computes an 8×8 register tile C[r, 0:8] (+)= Σ_t A[r, t]·B[t, 0:8] where
// the eight logical A rows start at a + r·aRow and advance by aStep per
// reduction step, and B is an 8-wide packed panel of pk float32 rows (one
// 8-lane YMM vector per reduction step). All strides are in bytes. load != 0
// seeds the accumulators from C (accumulate); load == 0 overwrites. pk must
// be >= 1.
//
// The stride pair makes the same kernel serve A·B (aRow = k·4, aStep = 4),
// Aᵀ·B (aRow = 4, aStep = k·4) and A·Bᵀ with a transpose-packed panel.
// Rows 0-3 broadcast from SI, rows 4-7 from R10 = SI + 4·aRow; both
// pointers advance by aStep per step.
TEXT ·fmaMicro8x8f32(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), CX
	MOVQ a+16(FP), SI
	MOVQ aRow+24(FP), R8
	MOVQ aStep+32(FP), R9
	MOVQ bp+40(FP), BX
	MOVQ pk+48(FP), DX
	MOVQ load+56(FP), AX

	LEAQ (R8)(R8*2), R13 // 3·aRow
	LEAQ (SI)(R8*4), R10 // A row 4

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	TESTQ AX, AX
	JZ    loop32
	MOVQ    DI, R11
	VMOVUPS (R11), Y0
	ADDQ    CX, R11
	VMOVUPS (R11), Y1
	ADDQ    CX, R11
	VMOVUPS (R11), Y2
	ADDQ    CX, R11
	VMOVUPS (R11), Y3
	ADDQ    CX, R11
	VMOVUPS (R11), Y4
	ADDQ    CX, R11
	VMOVUPS (R11), Y5
	ADDQ    CX, R11
	VMOVUPS (R11), Y6
	ADDQ    CX, R11
	VMOVUPS (R11), Y7

loop32:
	VMOVUPS      (BX), Y8
	VBROADCASTSS (SI), Y9
	VBROADCASTSS (SI)(R8*1), Y10
	VBROADCASTSS (SI)(R8*2), Y11
	VBROADCASTSS (SI)(R13*1), Y12
	VFMADD231PS  Y8, Y9, Y0
	VFMADD231PS  Y8, Y10, Y1
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y8, Y12, Y3
	VBROADCASTSS (R10), Y9
	VBROADCASTSS (R10)(R8*1), Y10
	VBROADCASTSS (R10)(R8*2), Y11
	VBROADCASTSS (R10)(R13*1), Y12
	VFMADD231PS  Y8, Y9, Y4
	VFMADD231PS  Y8, Y10, Y5
	VFMADD231PS  Y8, Y11, Y6
	VFMADD231PS  Y8, Y12, Y7
	ADDQ         $32, BX
	ADDQ         R9, SI
	ADDQ         R9, R10
	DECQ         DX
	JNZ          loop32

	MOVQ    DI, R11
	VMOVUPS Y0, (R11)
	ADDQ    CX, R11
	VMOVUPS Y1, (R11)
	ADDQ    CX, R11
	VMOVUPS Y2, (R11)
	ADDQ    CX, R11
	VMOVUPS Y3, (R11)
	ADDQ    CX, R11
	VMOVUPS Y4, (R11)
	ADDQ    CX, R11
	VMOVUPS Y5, (R11)
	ADDQ    CX, R11
	VMOVUPS Y6, (R11)
	ADDQ    CX, R11
	VMOVUPS Y7, (R11)
	VZEROUPPER
	RET
