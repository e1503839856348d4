package tensor

import (
	"math"
	"unsafe"
)

// Exported elementwise vector primitives for the layers' non-GEMM hot
// loops. Each has an AVX2 kernel per dtype (see vec_amd64.s) with a
// portable fallback; the vector bodies are element-independent (no
// reassociation), so results are bit-identical to the scalar loops at
// either width. These three cover the loops that profiling shows dominate
// a training step outside the GEMMs: activation masking and the col2im
// scatter-accumulate.

// VecAccumulate computes dst[i] += src[i] elementwise.
func VecAccumulate[F Float](dst, src []F) {
	if len(dst) != len(src) {
		panic("tensor: VecAccumulate length mismatch")
	}
	n := 0
	if useVec && len(dst) >= vecLanes[F]() {
		n = len(dst) &^ (vecLanes[F]() - 1)
		var z F
		if unsafe.Sizeof(z) == 4 {
			vecAdd32(p32(dst), p32(src), n)
		} else {
			vecAdd64(p64(dst), p64(src), n)
		}
	}
	for i := n; i < len(dst); i++ {
		dst[i] += src[i]
	}
}

// VecReluForward computes out[i] = x[i] if x[i] > 0 else 0 (NaN maps to 0,
// matching the scalar comparison).
func VecReluForward[F Float](out, x []F) {
	if len(out) != len(x) {
		panic("tensor: VecReluForward length mismatch")
	}
	n := 0
	if useVec && len(x) >= vecLanes[F]() {
		n = len(x) &^ (vecLanes[F]() - 1)
		var z F
		if unsafe.Sizeof(z) == 4 {
			vecReluFwd32(p32(out), p32(x), n)
		} else {
			vecReluFwd64(p64(out), p64(x), n)
		}
	}
	for i := n; i < len(x); i++ {
		if v := x[i]; v > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
}

// VecReluBackward computes dx[i] = grad[i] if y[i] > 0 else 0, the ReLU
// gradient gate against the cached forward output.
func VecReluBackward[F Float](dx, grad, y []F) {
	if len(dx) != len(grad) || len(grad) != len(y) {
		panic("tensor: VecReluBackward length mismatch")
	}
	n := 0
	if useVec && len(y) >= vecLanes[F]() {
		n = len(y) &^ (vecLanes[F]() - 1)
		var z F
		if unsafe.Sizeof(z) == 4 {
			vecReluBwd32(p32(dx), p32(grad), p32(y), n)
		} else {
			vecReluBwd64(p64(dx), p64(grad), p64(y), n)
		}
	}
	for i := n; i < len(y); i++ {
		if y[i] > 0 {
			dx[i] = grad[i]
		} else {
			dx[i] = 0
		}
	}
}

// p32/p64 reinterpret a type-parameter slice's base pointer at its concrete
// width; callers guarantee the sizeof guard, exactly as Of does for tensors.
func p32[F Float](s []F) *float32 { return (*float32)(unsafe.Pointer(&s[0])) }

func p64[F Float](s []F) *float64 { return (*float64)(unsafe.Pointer(&s[0])) }

// vecLanes reports the AVX lane count for the element type; the compile-
// time-constant sizeof folds the branch away.
func vecLanes[F Float]() int {
	var z F
	if unsafe.Sizeof(z) == 4 {
		return 8
	}
	return 4
}

// SumAcc returns acc plus the sum of seg. The float64 instantiation keeps
// strict left-to-right accumulation (the bit-frozen reference order); the
// float32 fast path uses four partial accumulators for instruction-level
// parallelism, reassociating within the fast path's accuracy budget.
func SumAcc[F Float](acc F, seg []F) F {
	var z F
	if unsafe.Sizeof(z) == 4 && len(seg) >= 16 {
		if useVec {
			n := len(seg) &^ 7
			s := F(vecSum32(p32(seg), n))
			for _, v := range seg[n:] {
				s += v
			}
			return acc + s
		}
		var a0, a1, a2, a3 F
		i := 0
		for ; i+4 <= len(seg); i += 4 {
			a0 += seg[i]
			a1 += seg[i+1]
			a2 += seg[i+2]
			a3 += seg[i+3]
		}
		for ; i < len(seg); i++ {
			a0 += seg[i]
		}
		return acc + ((a0 + a1) + (a2 + a3))
	}
	for _, v := range seg {
		acc += v
	}
	return acc
}

// SqDiffAcc returns acc plus Σ (seg[i]-mean)², with the same per-dtype
// accumulation policy as SumAcc.
func SqDiffAcc[F Float](acc F, seg []F, mean F) F {
	var z F
	if unsafe.Sizeof(z) == 4 && len(seg) >= 16 {
		if useVec {
			n := len(seg) &^ 7
			sq := F(vecSqDiff32(p32(seg), n, float32(mean)))
			for _, v := range seg[n:] {
				d := v - mean
				sq += d * d
			}
			return acc + sq
		}
		var a0, a1, a2, a3 F
		i := 0
		for ; i+4 <= len(seg); i += 4 {
			d0 := seg[i] - mean
			d1 := seg[i+1] - mean
			d2 := seg[i+2] - mean
			d3 := seg[i+3] - mean
			a0 += d0 * d0
			a1 += d1 * d1
			a2 += d2 * d2
			a3 += d3 * d3
		}
		for ; i < len(seg); i++ {
			d := seg[i] - mean
			a0 += d * d
		}
		return acc + ((a0 + a1) + (a2 + a3))
	}
	for _, v := range seg {
		d := v - mean
		acc += d * d
	}
	return acc
}

// DotSumAcc accumulates Σ g[i] and Σ g[i]·x[i] in one pass (the batch-norm
// backward reductions), with the same per-dtype accumulation policy.
func DotSumAcc[F Float](sumAcc, dotAcc F, g, x []F) (F, F) {
	var z F
	if unsafe.Sizeof(z) == 4 && len(g) >= 16 {
		if useVec {
			n := len(g) &^ 7
			sv, dv := vecDotSum32(p32(g), p32(x), n)
			s, d := F(sv), F(dv)
			for i := n; i < len(g); i++ {
				s += g[i]
				d += g[i] * x[i]
			}
			return sumAcc + s, dotAcc + d
		}
		var s0, s1, d0, d1 F
		i := 0
		for ; i+2 <= len(g); i += 2 {
			s0 += g[i]
			d0 += g[i] * x[i]
			s1 += g[i+1]
			d1 += g[i+1] * x[i+1]
		}
		for ; i < len(g); i++ {
			s0 += g[i]
			d0 += g[i] * x[i]
		}
		return sumAcc + (s0 + s1), dotAcc + (d0 + d1)
	}
	for i, v := range g {
		sumAcc += v
		dotAcc += v * x[i]
	}
	return sumAcc, dotAcc
}

// CopyRows copies rows blocks of n elements with independent strides
// (in elements): dst[r·dstStride+i] = src[r·srcStride+i] — the
// im2col/panel-packing traffic. The fused kernels use plain vector moves
// with in-kernel scalar tails; masked moves (VMASKMOV) turned out to be
// slow on several virtualized microarchitectures.
func CopyRows[F Float](dst, src []F, rows, n, dstStride, srcStride int) {
	if rows <= 0 || n <= 0 {
		return
	}
	// Short spans are call-overhead bound: the fused kernel wins. Bulk spans
	// are bandwidth bound, where memmove's aligned wide moves win.
	es := int(unsafe.Sizeof(dst[0]))
	if useVec && n*es <= 256 {
		var z F
		if unsafe.Sizeof(z) == 4 {
			copyRows32(p32(dst), p32(src), rows, n, dstStride*es, srcStride*es)
		} else {
			copyRows64(p64(dst), p64(src), rows, n, dstStride*es, srcStride*es)
		}
		return
	}
	for r := 0; r < rows; r++ {
		copy(dst[r*dstStride:r*dstStride+n], src[r*srcStride:r*srcStride+n])
	}
}

// AccumulateRows is CopyRows with += instead of =: the col2im
// scatter-accumulate primitive.
func AccumulateRows[F Float](dst, src []F, rows, n, dstStride, srcStride int) {
	if rows <= 0 || n <= 0 {
		return
	}
	if useVec {
		es := int(unsafe.Sizeof(dst[0]))
		var z F
		if unsafe.Sizeof(z) == 4 {
			addRows32(p32(dst), p32(src), rows, n, dstStride*es, srcStride*es)
		} else {
			addRows64(p64(dst), p64(src), rows, n, dstStride*es, srcStride*es)
		}
		return
	}
	for r := 0; r < rows; r++ {
		VecAccumulate(dst[r*dstStride:r*dstStride+n], src[r*srcStride:r*srcStride+n])
	}
}

// BNNormalize computes xh[i] = (x[i]-mean)·inv and out[i] = g·xh[i] + b:
// the batch-norm normalization writes. Both dtypes run AVX kernels with the
// same sub/mul/mul/add rounding sequence as the scalar loop, so results are
// bit-identical to it — the elementwise form has no accumulation order, which
// keeps the float64 golden path frozen.
func BNNormalize[F Float](x, xh, out []F, mean, inv, g, b F) {
	var z F
	n := 0
	if useVec && len(x) >= 8 {
		if unsafe.Sizeof(z) == 4 {
			n = len(x) &^ 7
			bnNorm32(p32(x), p32(xh), p32(out), n, float32(mean), float32(inv), float32(g), float32(b))
		} else {
			n = len(x) &^ 3
			bnNorm64(p64(x), p64(xh), p64(out), n, float64(mean), float64(inv), float64(g), float64(b))
		}
	}
	for i := n; i < len(x); i++ {
		nv := (x[i] - mean) * inv
		xh[i] = nv
		out[i] = g*nv + b
	}
}

// BNGrad computes dst[i] = scale·(m·gy[i] − sumDy − xh[i]·sumDyXhat): the
// batch-norm input-gradient writes, with the same per-dtype policy as
// BNNormalize.
func BNGrad[F Float](gy, xh, dst []F, scale, m, sumDy, sumDyXhat F) {
	var z F
	n := 0
	if useVec && len(gy) >= 8 {
		if unsafe.Sizeof(z) == 4 {
			n = len(gy) &^ 7
			bnGrad32(p32(gy), p32(xh), p32(dst), n, float32(scale), float32(m), float32(sumDy), float32(sumDyXhat))
		} else {
			n = len(gy) &^ 3
			bnGrad64(p64(gy), p64(xh), p64(dst), n, float64(scale), float64(m), float64(sumDy), float64(sumDyXhat))
		}
	}
	for i := n; i < len(gy); i++ {
		dst[i] = scale * (m*gy[i] - sumDy - xh[i]*sumDyXhat)
	}
}

// AdamStep applies one bias-corrected Adam update over a parameter block:
// m = β1·m + (1-β1)·g, v = β2·v + (1-β2)·g², w -= lr·(m/c1)/(√(v/c2)+eps).
// The slices must have one length. At float64 the scalar reference loop
// (bit-frozen) and its exact AVX mirror make one call over concatenated
// blocks equal one call per block; at float32 the AVX lanes fuse multiplies
// and compute (m̂/(√v̂+ε))·lr, the scalar tail lr·m̂/(√v̂+ε), so optimizers
// call it once per parameter block.
func AdamStep[F Float](w, g, m, v []F, lr, beta1, beta2, eps, c1, c2 F) {
	if len(g) != len(w) || len(m) != len(w) || len(v) != len(w) {
		panic("tensor: AdamStep slices differ in length")
	}
	var z F
	n := 0
	if useVec && len(w) >= 8 {
		if unsafe.Sizeof(z) == 4 {
			n = len(w) &^ 7
			adamStep32(p32(w), p32(g), p32(m), p32(v), n,
				float32(lr), float32(beta1), float32(1-beta1), float32(beta2), float32(1-beta2),
				float32(eps), float32(c1), float32(c2))
		} else {
			// The f64 kernel mirrors the scalar rounding sequence exactly
			// (separate multiplies, correctly rounded VSQRTPD), so the
			// golden f64 path stays bit-frozen.
			n = len(w) &^ 3
			adamStep64(p64(w), p64(g), p64(m), p64(v), n,
				float64(lr), float64(beta1), float64(1-beta1), float64(beta2), float64(1-beta2),
				float64(eps), float64(c1), float64(c2))
		}
	}
	for j := n; j < len(w); j++ {
		m[j] = beta1*m[j] + (1-beta1)*g[j]
		v[j] = beta2*v[j] + (1-beta2)*g[j]*g[j]
		mh := m[j] / c1
		vh := v[j] / c2
		w[j] -= lr * mh / (F(math.Sqrt(float64(vh))) + eps)
	}
}

// AddScalarInto computes dst[i] = src[i] + c, the bias-fused scatter of the
// convolution forward. Element-independent adds: the float32 AVX kernel is
// bit-identical to the scalar loop; float64 stays on the scalar reference.
func AddScalarInto[F Float](dst, src []F, c F) {
	var z F
	n := 0
	if useVec && len(src) >= 8 {
		if unsafe.Sizeof(z) == 4 {
			n = len(src) &^ 7
			addScalar32(p32(dst), p32(src), n, float32(c))
		} else {
			n = len(src) &^ 3
			addScalar64(p64(dst), p64(src), n, float64(c))
		}
	}
	for i := n; i < len(src); i++ {
		dst[i] = src[i] + c
	}
}
