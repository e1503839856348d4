// AVX-512 micro-kernels for the blocked GEMM driver in gemm_simd.go: an
// 8×8 float64 tile and 8×16 / 4×16 float32 tiles (one 512-bit ZMM vector of
// output columns per row). Only assembled on amd64; callers gate on the
// useAVX512 runtime check, which requires AVX512F+DQ+BW+VL with OS ZMM
// state enabled.
//
// All kernels share the AVX2 tier's calling convention (byte strides, load
// flag) and its per-element accumulation order — one fused multiply-add per
// reduction step per output element, in ascending t — so a row computed here
// is bit-identical to the same row computed by the AVX2 kernels.

#include "textflag.h"

// func avx512Micro8x8(c *float64, ldc int, a *float64, aRow, aStep int, bp *float64, pk int, load int)
//
// Computes an 8×8 float64 register tile C[r, 0:8] (+)= Σ_t A[r, t]·B[t, 0:8]
// where the eight logical A rows start at a + r·aRow and advance by aStep per
// reduction step, and B is an 8-wide packed panel of pk rows (one ZMM vector
// per reduction step — the same panel layout the AVX2 4×8 kernel streams as
// two YMM halves). All strides are in bytes. load != 0 seeds the
// accumulators from C (accumulate); load == 0 overwrites. pk must be >= 1.
//
// Rows 0-3 broadcast from SI, rows 4-7 from R10 = SI + 4·aRow; both
// pointers advance by aStep per step.
TEXT ·avx512Micro8x8(SB), NOSPLIT, $0-64
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

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7

	TESTQ AX, AX
	JZ    loop
	MOVQ    DI, R11
	VMOVUPD (R11), Z0
	ADDQ    CX, R11
	VMOVUPD (R11), Z1
	ADDQ    CX, R11
	VMOVUPD (R11), Z2
	ADDQ    CX, R11
	VMOVUPD (R11), Z3
	ADDQ    CX, R11
	VMOVUPD (R11), Z4
	ADDQ    CX, R11
	VMOVUPD (R11), Z5
	ADDQ    CX, R11
	VMOVUPD (R11), Z6
	ADDQ    CX, R11
	VMOVUPD (R11), Z7

loop:
	VMOVUPD      (BX), Z8
	VBROADCASTSD (SI), Z9
	VBROADCASTSD (SI)(R8*1), Z10
	VBROADCASTSD (SI)(R8*2), Z11
	VBROADCASTSD (SI)(R13*1), Z12
	VFMADD231PD  Z8, Z9, Z0
	VFMADD231PD  Z8, Z10, Z1
	VFMADD231PD  Z8, Z11, Z2
	VFMADD231PD  Z8, Z12, Z3
	VBROADCASTSD (R10), Z9
	VBROADCASTSD (R10)(R8*1), Z10
	VBROADCASTSD (R10)(R8*2), Z11
	VBROADCASTSD (R10)(R13*1), Z12
	VFMADD231PD  Z8, Z9, Z4
	VFMADD231PD  Z8, Z10, Z5
	VFMADD231PD  Z8, Z11, Z6
	VFMADD231PD  Z8, Z12, Z7
	ADDQ         $64, BX
	ADDQ         R9, SI
	ADDQ         R9, R10
	DECQ         DX
	JNZ          loop

	MOVQ    DI, R11
	VMOVUPD Z0, (R11)
	ADDQ    CX, R11
	VMOVUPD Z1, (R11)
	ADDQ    CX, R11
	VMOVUPD Z2, (R11)
	ADDQ    CX, R11
	VMOVUPD Z3, (R11)
	ADDQ    CX, R11
	VMOVUPD Z4, (R11)
	ADDQ    CX, R11
	VMOVUPD Z5, (R11)
	ADDQ    CX, R11
	VMOVUPD Z6, (R11)
	ADDQ    CX, R11
	VMOVUPD Z7, (R11)
	VZEROUPPER
	RET

// func avx512Micro8x16f32(c *float32, ldc int, a *float32, aRow, aStep int, bp *float32, pk int, load int)
//
// Computes an 8×16 float32 register tile C[r, 0:16] (+)= Σ_t A[r, t]·B[t, 0:16]
// where the eight logical A rows start at a + r·aRow and advance by aStep per
// reduction step, and B is a 16-wide packed panel of pk float32 rows (one
// 16-lane ZMM vector per reduction step). All strides are in bytes. load != 0
// seeds the accumulators from C (accumulate); load == 0 overwrites. pk must
// be >= 1.
TEXT ·avx512Micro8x16f32(SB), NOSPLIT, $0-64
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

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7

	TESTQ AX, AX
	JZ    loop32
	MOVQ    DI, R11
	VMOVUPS (R11), Z0
	ADDQ    CX, R11
	VMOVUPS (R11), Z1
	ADDQ    CX, R11
	VMOVUPS (R11), Z2
	ADDQ    CX, R11
	VMOVUPS (R11), Z3
	ADDQ    CX, R11
	VMOVUPS (R11), Z4
	ADDQ    CX, R11
	VMOVUPS (R11), Z5
	ADDQ    CX, R11
	VMOVUPS (R11), Z6
	ADDQ    CX, R11
	VMOVUPS (R11), Z7

loop32:
	VMOVUPS      (BX), Z8
	VBROADCASTSS (SI), Z9
	VBROADCASTSS (SI)(R8*1), Z10
	VBROADCASTSS (SI)(R8*2), Z11
	VBROADCASTSS (SI)(R13*1), Z12
	VFMADD231PS  Z8, Z9, Z0
	VFMADD231PS  Z8, Z10, Z1
	VFMADD231PS  Z8, Z11, Z2
	VFMADD231PS  Z8, Z12, Z3
	VBROADCASTSS (R10), Z9
	VBROADCASTSS (R10)(R8*1), Z10
	VBROADCASTSS (R10)(R8*2), Z11
	VBROADCASTSS (R10)(R13*1), Z12
	VFMADD231PS  Z8, Z9, Z4
	VFMADD231PS  Z8, Z10, Z5
	VFMADD231PS  Z8, Z11, Z6
	VFMADD231PS  Z8, Z12, Z7
	ADDQ         $64, BX
	ADDQ         R9, SI
	ADDQ         R9, R10
	DECQ         DX
	JNZ          loop32

	MOVQ    DI, R11
	VMOVUPS Z0, (R11)
	ADDQ    CX, R11
	VMOVUPS Z1, (R11)
	ADDQ    CX, R11
	VMOVUPS Z2, (R11)
	ADDQ    CX, R11
	VMOVUPS Z3, (R11)
	ADDQ    CX, R11
	VMOVUPS Z4, (R11)
	ADDQ    CX, R11
	VMOVUPS Z5, (R11)
	ADDQ    CX, R11
	VMOVUPS Z6, (R11)
	ADDQ    CX, R11
	VMOVUPS Z7, (R11)
	VZEROUPPER
	RET

// func avx512Micro4x16f32(c *float32, ldc int, a *float32, aRow, aStep int, bp *float32, pk int, load int)
//
// The 4-row variant of avx512Micro8x16f32, for the 4..7-row leftovers of a
// tile sweep. Same convention.
TEXT ·avx512Micro4x16f32(SB), NOSPLIT, $0-64
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

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3

	TESTQ AX, AX
	JZ    loop4x32
	VMOVUPS (DI), Z0
	VMOVUPS (R10), Z1
	VMOVUPS (R11), Z2
	VMOVUPS (R12), Z3

loop4x32:
	VMOVUPS      (BX), Z8
	VBROADCASTSS (SI), Z9
	VBROADCASTSS (SI)(R8*1), Z10
	VBROADCASTSS (SI)(R8*2), Z11
	VBROADCASTSS (SI)(R13*1), Z12
	VFMADD231PS  Z8, Z9, Z0
	VFMADD231PS  Z8, Z10, Z1
	VFMADD231PS  Z8, Z11, Z2
	VFMADD231PS  Z8, Z12, Z3
	ADDQ         $64, BX
	ADDQ         R9, SI
	DECQ         DX
	JNZ          loop4x32

	VMOVUPS Z0, (DI)
	VMOVUPS Z1, (R10)
	VMOVUPS Z2, (R11)
	VMOVUPS Z3, (R12)
	VZEROUPPER
	RET

// poolIdxEven holds the int32 lane indices [0,2,4,...,30]: both the
// VPERMI2PS selector that deinterleaves the even input columns of a 32-float
// window and the window-relative input index of each output pixel's first
// candidate.
DATA poolIdxEven<>+0x00(SB)/8, $0x0000000200000000
DATA poolIdxEven<>+0x08(SB)/8, $0x0000000600000004
DATA poolIdxEven<>+0x10(SB)/8, $0x0000000A00000008
DATA poolIdxEven<>+0x18(SB)/8, $0x0000000E0000000C
DATA poolIdxEven<>+0x20(SB)/8, $0x0000001200000010
DATA poolIdxEven<>+0x28(SB)/8, $0x0000001600000014
DATA poolIdxEven<>+0x30(SB)/8, $0x0000001A00000018
DATA poolIdxEven<>+0x38(SB)/8, $0x0000001E0000001C
GLOBL poolIdxEven<>(SB), RODATA, $64

// func maxPool2x2f32(x, out *float32, am *int64, outH, outW, w int, base int64)
//
// 2×2/stride-2 max pooling over one channel plane: x points at the plane
// (2·outH rows of w floats, w >= 2·outW), out at outH·outW maxima and am at
// the matching argmax slots, which receive absolute input indices (base is
// the plane's flat offset in the tensor). 16 output pixels per step with
// masked tails. The candidate order (row0 even, row0 odd, row1 even, row1
// odd) and strictly-greater comparisons replicate the scalar chain with
// masked blends, so values AND argmax tie-breaking are bit-identical to it.
TEXT ·maxPool2x2f32(SB), NOSPLIT, $0-56
	MOVQ x+0(FP), DI
	MOVQ out+8(FP), SI
	MOVQ am+16(FP), R8
	MOVQ outH+24(FP), BX
	MOVQ outW+32(FP), R9
	MOVQ w+40(FP), R11
	MOVQ base+48(FP), R14

	VMOVDQU32 poolIdxEven<>(SB), Z16
	MOVL      $1, AX
	VPBROADCASTD AX, Z31
	VPADDD    Z31, Z16, Z17 // odd selector/index = even + 1
	MOVL      $32, AX
	VPBROADCASTD AX, Z19    // per-chunk relative-index advance
	VPBROADCASTD R11, Z18   // row stride w as int32 lanes

poolrow:
	MOVQ DI, R12             // row0 cursor
	LEAQ (DI)(R11*4), R13    // row1 cursor
	VPBROADCASTQ R14, Z20    // absolute index of row0 start
	VMOVDQA64 Z16, Z21       // relative even indices for this chunk
	VMOVDQA64 Z17, Z22
	MOVQ R9, R15             // output pixels remaining in the row

poolchunk:
	MOVQ R15, DX
	CMPQ DX, $16
	JLE  poolmasks
	MOVQ $16, DX

poolmasks:
	LEAQ (DX)(DX*1), CX
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX        // (1<<2n)-1: masks for the 2n input floats
	KMOVW AX, K1
	SHRQ  $16, AX
	KMOVW AX, K2
	MOVQ  DX, CX
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX       // (1<<n)-1: masks for the n outputs
	KMOVW AX, K4
	KMOVB AX, K5
	SHRQ  $8, AX
	KMOVB AX, K6

	VMOVUPS.Z (R12), K1, Z0
	VMOVUPS.Z 64(R12), K2, Z1
	VMOVUPS.Z (R13), K1, Z2
	VMOVUPS.Z 64(R13), K2, Z3
	VMOVDQA64 Z16, Z4
	VPERMI2PS Z1, Z0, Z4 // v00: row0 even columns
	VMOVDQA64 Z17, Z5
	VPERMI2PS Z1, Z0, Z5 // v01: row0 odd columns
	VMOVDQA64 Z16, Z6
	VPERMI2PS Z3, Z2, Z6 // v10
	VMOVDQA64 Z17, Z7
	VPERMI2PS Z3, Z2, Z7 // v11

	VMOVAPS   Z4, Z8     // best value
	VMOVDQA64 Z21, Z9    // best relative index
	VCMPPS    $0x1E, Z8, Z5, K3 // GT_OQ, as the scalar >
	VMOVAPS   Z5, K3, Z8
	VMOVDQA32 Z22, K3, Z9
	VPADDD    Z18, Z21, Z12
	VCMPPS    $0x1E, Z8, Z6, K3
	VMOVAPS   Z6, K3, Z8
	VMOVDQA32 Z12, K3, Z9
	VPADDD    Z18, Z22, Z13
	VCMPPS    $0x1E, Z8, Z7, K3
	VMOVAPS   Z7, K3, Z8
	VMOVDQA32 Z13, K3, Z9

	VMOVUPS Z8, K4, (SI)
	VPMOVSXDQ     Y9, Z14
	VEXTRACTI64X4 $1, Z9, Y15
	VPMOVSXDQ     Y15, Z15
	VPADDQ    Z20, Z14, Z14
	VPADDQ    Z20, Z15, Z15
	VMOVDQU64 Z14, K5, (R8)
	VMOVDQU64 Z15, K6, 64(R8)

	LEAQ (SI)(DX*4), SI
	LEAQ (R8)(DX*8), R8
	LEAQ (R12)(DX*8), R12
	LEAQ (R13)(DX*8), R13
	VPADDD Z19, Z21, Z21
	VPADDD Z19, Z22, Z22
	SUBQ DX, R15
	JNZ  poolchunk

	LEAQ (DI)(R11*8), DI  // next row pair: 2w floats down
	LEAQ (R14)(R11*2), R14
	DECQ BX
	JNZ  poolrow
	VZEROUPPER
	RET

// VPERMI2PD selector that deinterleaves the even input columns of a 16-double
// window; the quadwords double as the window-relative input index of each
// output pixel's first candidate.
DATA poolIdxEvenQ<>+0x00(SB)/8, $0
DATA poolIdxEvenQ<>+0x08(SB)/8, $2
DATA poolIdxEvenQ<>+0x10(SB)/8, $4
DATA poolIdxEvenQ<>+0x18(SB)/8, $6
DATA poolIdxEvenQ<>+0x20(SB)/8, $8
DATA poolIdxEvenQ<>+0x28(SB)/8, $10
DATA poolIdxEvenQ<>+0x30(SB)/8, $12
DATA poolIdxEvenQ<>+0x38(SB)/8, $14
GLOBL poolIdxEvenQ<>(SB), RODATA, $64

// func maxPool2x2f64(x, out *float64, am *int64, outH, outW, w int, base int64)
//
// f64 twin of maxPool2x2f32: 8 output pixels per step, same candidate order
// and strictly-greater masked blends, so values and argmax tie-breaking are
// bit-identical to the scalar chain.
TEXT ·maxPool2x2f64(SB), NOSPLIT, $0-56
	MOVQ x+0(FP), DI
	MOVQ out+8(FP), SI
	MOVQ am+16(FP), R8
	MOVQ outH+24(FP), BX
	MOVQ outW+32(FP), R9
	MOVQ w+40(FP), R11
	MOVQ base+48(FP), R14

	VMOVDQU64 poolIdxEvenQ<>(SB), Z16
	MOVL      $1, AX
	VPBROADCASTQ AX, Z31
	VPADDQ    Z31, Z16, Z17 // odd selector/index = even + 1
	MOVL      $16, AX
	VPBROADCASTQ AX, Z19    // per-chunk relative-index advance
	VPBROADCASTQ R11, Z18   // row stride w as int64 lanes

poolrow64:
	MOVQ DI, R12             // row0 cursor
	LEAQ (DI)(R11*8), R13    // row1 cursor
	VPBROADCASTQ R14, Z20    // absolute index of row0 start
	VMOVDQA64 Z16, Z21       // relative even indices for this chunk
	VMOVDQA64 Z17, Z22
	MOVQ R9, R15             // output pixels remaining in the row

poolchunk64:
	MOVQ R15, DX
	CMPQ DX, $8
	JLE  poolmasks64
	MOVQ $8, DX

poolmasks64:
	LEAQ (DX)(DX*1), CX
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX        // (1<<2n)-1: masks for the 2n input doubles
	KMOVB AX, K1
	SHRQ  $8, AX
	KMOVB AX, K2
	MOVQ  DX, CX
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX       // (1<<n)-1: mask for the n outputs
	KMOVB AX, K4

	VMOVUPD.Z (R12), K1, Z0
	VMOVUPD.Z 64(R12), K2, Z1
	VMOVUPD.Z (R13), K1, Z2
	VMOVUPD.Z 64(R13), K2, Z3
	VMOVDQA64 Z16, Z4
	VPERMI2PD Z1, Z0, Z4 // v00: row0 even columns
	VMOVDQA64 Z17, Z5
	VPERMI2PD Z1, Z0, Z5 // v01: row0 odd columns
	VMOVDQA64 Z16, Z6
	VPERMI2PD Z3, Z2, Z6 // v10
	VMOVDQA64 Z17, Z7
	VPERMI2PD Z3, Z2, Z7 // v11

	VMOVAPD   Z4, Z8     // best value
	VMOVDQA64 Z21, Z9    // best relative index
	VCMPPD    $0x1E, Z8, Z5, K3 // GT_OQ, as the scalar >
	VMOVAPD   Z5, K3, Z8
	VMOVDQA64 Z22, K3, Z9
	VPADDQ    Z18, Z21, Z12
	VCMPPD    $0x1E, Z8, Z6, K3
	VMOVAPD   Z6, K3, Z8
	VMOVDQA64 Z12, K3, Z9
	VPADDQ    Z18, Z22, Z13
	VCMPPD    $0x1E, Z8, Z7, K3
	VMOVAPD   Z7, K3, Z8
	VMOVDQA64 Z13, K3, Z9

	VMOVUPD Z8, K4, (SI)
	VPADDQ    Z20, Z9, Z14
	VMOVDQU64 Z14, K4, (R8)

	LEAQ (SI)(DX*8), SI
	LEAQ (R8)(DX*8), R8
	LEAQ (R12)(DX*8), R12
	LEAQ (R12)(DX*8), R12
	LEAQ (R13)(DX*8), R13
	LEAQ (R13)(DX*8), R13
	VPADDQ Z19, Z21, Z21
	VPADDQ Z19, Z22, Z22
	SUBQ DX, R15
	JNZ  poolchunk64

	LEAQ (DI)(R11*8), DI  // next row pair: 2w doubles down
	LEAQ (DI)(R11*8), DI
	LEAQ (R14)(R11*2), R14
	DECQ BX
	JNZ  poolrow64
	VZEROUPPER
	RET
