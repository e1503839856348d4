#include "textflag.h"

// func pairFoldAVX2(hi, lo *float64, vec *byte, n int, w float64) int
//
// vec is a dense F64 body at any alignment: VMULPD's memory operand needs
// none. Fold's pair step four cells at a time: p = w·v rounded on its own (no
// fused multiply-add), TwoSum(hi, p) = (s, d), TwoSum(lo, d) = (t, r), and
// the cells become (s, t) when r is 0 in every lane. The first group with a
// lane whose r is nonzero or NaN (NEQ_UQ) stops the loop unwritten. Each
// lane runs the scalar loop's operations in its order, so the bits agree.
// Returns the elements folded, a multiple of 4.
TEXT ·pairFoldAVX2(SB), NOSPLIT, $0-48
	MOVQ         hi+0(FP), DI
	MOVQ         lo+8(FP), SI
	MOVQ         vec+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSD w+32(FP), Y15
	VXORPD       Y14, Y14, Y14
	XORQ         AX, AX
	SUBQ         $4, CX
	JL           done

loop:
	VMULPD    (DX)(AX*8), Y15, Y0 // p = w·v
	VMOVUPD   (DI)(AX*8), Y1      // a = hi
	VMOVUPD   (SI)(AX*8), Y2      // b = lo
	VADDPD    Y0, Y1, Y3          // s = a + p
	VSUBPD    Y1, Y3, Y4          // z = s - a
	VSUBPD    Y4, Y3, Y5          // s - z
	VSUBPD    Y5, Y1, Y5          // a - (s - z)
	VSUBPD    Y4, Y0, Y6          // p - z
	VADDPD    Y6, Y5, Y5          // d
	VADDPD    Y5, Y2, Y6          // t = b + d
	VSUBPD    Y2, Y6, Y7          // z = t - b
	VSUBPD    Y7, Y6, Y8          // t - z
	VSUBPD    Y8, Y2, Y8          // b - (t - z)
	VSUBPD    Y7, Y5, Y9          // d - z
	VADDPD    Y9, Y8, Y8          // r
	VCMPPD    $4, Y14, Y8, Y9     // r != 0, or unordered
	VMOVMSKPD Y9, BX
	TESTQ     BX, BX
	JNZ       done
	VMOVUPD   Y3, (DI)(AX*8)
	VMOVUPD   Y6, (SI)(AX*8)
	ADDQ      $4, AX
	CMPQ      AX, CX
	JLE       loop

done:
	MOVQ AX, ret+40(FP)
	VZEROUPPER
	RET
