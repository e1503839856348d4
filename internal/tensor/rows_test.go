package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// CopyRows/AccumulateRows must match the portable row loops bit for bit at
// every span length (full vectors, masked tails, sub-lane spans).
func TestRowKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, n := range []int{1, 3, 4, 5, 7, 8, 9, 11, 12, 16, 23, 144} {
		rows, dStr, sStr := 5, n+7, n+3
		src64 := make([]float64, rows*sStr+n)
		for i := range src64 {
			src64[i] = rng.NormFloat64()
		}
		want := make([]float64, rows*dStr+n)
		got := make([]float64, rows*dStr+n)
		for i := range want {
			want[i] = rng.NormFloat64()
			got[i] = want[i]
		}
		for r := 0; r < rows; r++ {
			copy(want[r*dStr:r*dStr+n], src64[r*sStr:r*sStr+n])
		}
		CopyRows(got, src64, rows, n, dStr, sStr)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("CopyRows64 n=%d differs at %d", n, i)
			}
		}
		for r := 0; r < rows; r++ {
			for i := 0; i < n; i++ {
				want[r*dStr+i] += src64[r*sStr+i]
			}
		}
		AccumulateRows(got, src64, rows, n, dStr, sStr)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("AccumulateRows64 n=%d differs at %d", n, i)
			}
		}

		src32 := make([]float32, rows*sStr+n)
		for i := range src32 {
			src32[i] = float32(rng.NormFloat64())
		}
		w32 := make([]float32, rows*dStr+n)
		g32 := make([]float32, rows*dStr+n)
		for i := range w32 {
			w32[i] = float32(rng.NormFloat64())
			g32[i] = w32[i]
		}
		for r := 0; r < rows; r++ {
			for i := 0; i < n; i++ {
				w32[r*dStr+i] += src32[r*sStr+i]
			}
		}
		AccumulateRows(g32, src32, rows, n, dStr, sStr)
		for i := range w32 {
			if w32[i] != g32[i] {
				t.Fatalf("AccumulateRows32 n=%d differs at %d", n, i)
			}
		}
		CopyRows(g32, src32, rows, n, dStr, sStr)
		for r := 0; r < rows; r++ {
			for i := 0; i < n; i++ {
				if g32[r*dStr+i] != src32[r*sStr+i] {
					t.Fatalf("CopyRows32 n=%d differs at row %d col %d", n, r, i)
				}
			}
		}
	}
}

// BNNormalize/BNGrad must match the scalar reference loops bit for bit at
// both dtypes and every span length (full vectors, tails, sub-lane spans):
// the float64 instantiation is the golden path and its bits are frozen.
func TestBNKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	check := func(n int) {
		x64 := make([]float64, n)
		gy64 := make([]float64, n)
		for i := range x64 {
			x64[i] = rng.NormFloat64()
			gy64[i] = rng.NormFloat64()
		}
		mean, inv, g, b := rng.NormFloat64(), rng.Float64()+0.5, rng.NormFloat64(), rng.NormFloat64()
		scale, m, sDy, sDyXh := rng.Float64(), float64(n), rng.NormFloat64(), rng.NormFloat64()

		runDT := func(xs, gys, xhWant, outWant, dstWant, xhGot, outGot, dstGot any) {
			switch x := xs.(type) {
			case []float64:
				xh, out, dst := xhWant.([]float64), outWant.([]float64), dstWant.([]float64)
				for i, v := range x {
					nv := (v - mean) * inv
					xh[i] = nv
					out[i] = g*nv + b
					dst[i] = scale * (m*gys.([]float64)[i] - sDy - nv*sDyXh)
				}
				BNNormalize(x, xhGot.([]float64), outGot.([]float64), mean, inv, g, b)
				BNGrad(gys.([]float64), xhGot.([]float64), dstGot.([]float64), scale, m, sDy, sDyXh)
			case []float32:
				xh, out, dst := xhWant.([]float32), outWant.([]float32), dstWant.([]float32)
				m32, mean32, inv32, g32, b32 := float32(m), float32(mean), float32(inv), float32(g), float32(b)
				scale32, sDy32, sDyXh32 := float32(scale), float32(sDy), float32(sDyXh)
				for i, v := range x {
					nv := (v - mean32) * inv32
					xh[i] = nv
					out[i] = g32*nv + b32
					dst[i] = scale32 * (m32*gys.([]float32)[i] - sDy32 - nv*sDyXh32)
				}
				BNNormalize(x, xhGot.([]float32), outGot.([]float32), mean32, inv32, g32, b32)
				BNGrad(gys.([]float32), xhGot.([]float32), dstGot.([]float32), scale32, m32, sDy32, sDyXh32)
			}
		}

		xhW, outW, dstW := make([]float64, n), make([]float64, n), make([]float64, n)
		xhG, outG, dstG := make([]float64, n), make([]float64, n), make([]float64, n)
		runDT(x64, gy64, xhW, outW, dstW, xhG, outG, dstG)
		for i := 0; i < n; i++ {
			if xhW[i] != xhG[i] || outW[i] != outG[i] || dstW[i] != dstG[i] {
				t.Fatalf("f64 BN kernel n=%d differs at %d", n, i)
			}
		}

		x32, gy32 := make([]float32, n), make([]float32, n)
		for i := range x32 {
			x32[i] = float32(x64[i])
			gy32[i] = float32(gy64[i])
		}
		xhW32, outW32, dstW32 := make([]float32, n), make([]float32, n), make([]float32, n)
		xhG32, outG32, dstG32 := make([]float32, n), make([]float32, n), make([]float32, n)
		runDT(x32, gy32, xhW32, outW32, dstW32, xhG32, outG32, dstG32)
		for i := 0; i < n; i++ {
			if xhW32[i] != xhG32[i] || outW32[i] != outG32[i] || dstW32[i] != dstG32[i] {
				t.Fatalf("f32 BN kernel n=%d differs at %d", n, i)
			}
		}
	}
	for _, n := range []int{1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 31, 32, 144, 1153} {
		check(n)
	}
}

// TestAdamStep64MatchesScalar locks the vectorized f64 Adam kernel to the
// scalar update bit-for-bit: the kernel mirrors the scalar rounding sequence
// (separate multiplies, correctly rounded sqrt and divides), so the f64
// golden path stays frozen. The f32 tier is allowed an ulp of sqrt drift and
// is checked to a tolerance instead.
func TestAdamStep64MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 31, 32, 144, 1153} {
		w := make([]float64, n)
		g := make([]float64, n)
		m := make([]float64, n)
		v := make([]float64, n)
		wantW := make([]float64, n)
		wantM := make([]float64, n)
		wantV := make([]float64, n)
		for i := 0; i < n; i++ {
			w[i] = rng.NormFloat64()
			g[i] = rng.NormFloat64()
			m[i] = rng.NormFloat64()
			v[i] = rng.Float64() // second moment stays non-negative
			wantW[i], wantM[i], wantV[i] = w[i], m[i], v[i]
		}
		lr, b1, b2, eps := 1e-3, 0.9, 0.999, 1e-8
		c1, c2 := 1-math.Pow(b1, 3), 1-math.Pow(b2, 3)
		for j := 0; j < n; j++ {
			wantM[j] = b1*wantM[j] + (1-b1)*g[j]
			wantV[j] = b2*wantV[j] + (1-b2)*g[j]*g[j]
			mh := wantM[j] / c1
			vh := wantV[j] / c2
			wantW[j] -= lr * mh / (math.Sqrt(vh) + eps)
		}
		AdamStep(w, g, m, v, lr, b1, b2, eps, c1, c2)
		for j := 0; j < n; j++ {
			if w[j] != wantW[j] || m[j] != wantM[j] || v[j] != wantV[j] {
				t.Fatalf("n=%d elem %d: got (w=%v m=%v v=%v) want (w=%v m=%v v=%v)",
					n, j, w[j], m[j], v[j], wantW[j], wantM[j], wantV[j])
			}
		}
	}
}

// The parameter arena relies on this: an f64 AdamStep over a concatenation
// of blocks is bit-identical to one call per block, since every element is
// updated by the same scalar-exact sequence wherever it falls. The f32 fast
// path has no such property (its tail rounds differently; see AdamStep), so
// optimizers call it per block; the test reports how many f32 elements
// differ on this host.
func TestAdamStepConcatenatedBlocks(t *testing.T) {
	blocks := []int{10, 6, 13, 3}
	one, per := adamBlocks[float64](blocks, false), adamBlocks[float64](blocks, true)
	for i := range one {
		if math.Float64bits(one[i]) != math.Float64bits(per[i]) {
			t.Fatalf("f64: element %d of w‖m‖v is %v in one call, %v per block", i, one[i], per[i])
		}
	}
	one32, per32 := adamBlocks[float32](blocks, false), adamBlocks[float32](blocks, true)
	differ := 0
	for i := range one32 {
		if one32[i] != per32[i] {
			differ++
		}
	}
	t.Logf("f32: one call and per-block calls differ on %d of %d elements of w‖m‖v", differ, len(one32))
}

// adamBlocks runs one Adam step over seeded operands laid out as the given
// blocks — one call over all of them, or one per block — and returns w‖m‖v.
func adamBlocks[F Float](blocks []int, perBlock bool) []F {
	n := 0
	for _, b := range blocks {
		n += b
	}
	rng := rand.New(rand.NewSource(37))
	w, g, m, v := make([]F, n), make([]F, n), make([]F, n), make([]F, n)
	for i := range w {
		w[i], g[i], m[i], v[i] = F(rng.NormFloat64()), F(rng.NormFloat64()), F(rng.NormFloat64()), F(rng.Float64())
	}
	c1, c2 := F(1-math.Pow(0.9, 3)), F(1-math.Pow(0.999, 3))
	if !perBlock {
		blocks = []int{n}
	}
	off := 0
	for _, b := range blocks {
		lo, hi := off, off+b
		AdamStep(w[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi], 1e-3, 0.9, 0.999, 1e-8, c1, c2)
		off = hi
	}
	return append(append(w, m...), v...)
}

// AdamStep refuses slices of different lengths before any kernel reads
// through them.
func TestAdamStepLengthMismatchPanics(t *testing.T) {
	long, short := make([]float64, 16), make([]float64, 8)
	for i, args := range [][4][]float64{{long, long, short, long}, {long, short, long, long}, {long, long, long, short}, {short, long, long, long}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: mismatched lengths did not panic", i)
				}
			}()
			AdamStep(args[0], args[1], args[2], args[3], 1e-3, 0.9, 0.999, 1e-8, 0.1, 0.001)
		}()
	}
}

// TestAddScalarIntoMatchesScalar locks both dtypes of the broadcast-add
// kernel to the scalar loop bit-for-bit (element-independent adds).
func TestAddScalarIntoMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 144, 1153} {
		src := make([]float64, n)
		for i := range src {
			src[i] = rng.NormFloat64()
		}
		c := rng.NormFloat64()
		dst := make([]float64, n)
		AddScalarInto(dst, src, c)
		for i := range src {
			if dst[i] != src[i]+c {
				t.Fatalf("f64 n=%d elem %d: got %v want %v", n, i, dst[i], src[i]+c)
			}
		}
		src32 := make([]float32, n)
		for i := range src32 {
			src32[i] = float32(src[i])
		}
		dst32 := make([]float32, n)
		AddScalarInto(dst32, src32, float32(c))
		for i := range src32 {
			if dst32[i] != src32[i]+float32(c) {
				t.Fatalf("f32 n=%d elem %d: got %v want %v", n, i, dst32[i], src32[i]+float32(c))
			}
		}
	}
}
