//go:build amd64

package tensor

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// Differential kernel harness: every asm tier is checked against an exact
// scalar mimic (or against its sibling tier) on randomized shapes, so a
// wrong assembly offset fails `go test` directly instead of surfacing as a
// downstream metric drift.
//
// What "exact" means per tier:
//   - portable: every element is a plain mul+add chain in ascending
//     reduction order, reproduced bit-for-bit by a naive scalar loop;
//   - AVX2/AVX-512: fused rows (the tile-aligned multiple-of-4 prefix of
//     each shard) are FMA chains, one rounding per step, tail rows mul+add —
//     both mimicked exactly in scalar code, the f32 FMA through an exact
//     big.Float sum rounded once to float32.

// tierState saves and force-sets the kernel dispatch tiers.
type tierState struct{ fma, a512 bool }

func setTiers(fma, avx512 bool) tierState {
	s := tierState{useFMA, useAVX512}
	useFMA, useAVX512 = fma, avx512
	return s
}

func (s tierState) restore() { useFMA, useAVX512 = s.fma, s.a512 }

// tierCase is one kernel tier a test forces with setTiers.
type tierCase struct {
	name        string
	fma, avx512 bool
}

// hostTiers lists the tiers this host can run, portable first.
func hostTiers() []tierCase {
	tiers := []tierCase{{"portable", false, false}}
	if detectFMA() {
		tiers = append(tiers, tierCase{"avx2", true, false})
	}
	if detectAVX512() {
		tiers = append(tiers, tierCase{"avx512", true, true})
	}
	return tiers
}

// runForm invokes the public driver for the form. a is m×k; b is k×n (NN),
// m×n (ATB: out is k×n), or n×k (ABT: out is m×n).
func runForm(form gemmForm, out, a, b *Tensor, acc bool) {
	switch {
	case form == formNN && !acc:
		MatMulInto(out, a, b)
	case form == formNN && acc:
		gemm(opNN, out, a, b, true)
	case form == formATB && !acc:
		MatMulATBInto(out, a, b)
	case form == formATB && acc:
		MatMulATBAcc(out, a, b)
	case form == formABT && !acc:
		MatMulABTInto(out, a, b)
	default:
		MatMulABTAcc(out, a, b)
	}
}

// mimicF64 reproduces the blocked drivers' f64 arithmetic exactly in scalar
// code: the same shard plan, the same fused-row classes when fused is true
// (asm tiers), plain mul+add everywhere when false (portable tier).
func mimicF64(form gemmForm, out, a, b []float64, m, k, n int, acc, fused bool) {
	mimic(form, out, a, b, m, k, n, acc, fused, math.FMA)
}

// mimicF32 is mimicF64 at float32.
func mimicF32(form gemmForm, out, a, b []float32, m, k, n int, acc, fused bool) {
	mimic(form, out, a, b, m, k, n, acc, fused, fma32)
}

// fma32 is float32's fused multiply-add: x·y+z summed exactly, then rounded
// once to nearest even. 1024 bits hold any float32 product plus any float32
// addend without rounding.
func fma32(x, y, z float32) float32 {
	s := new(big.Float).SetPrec(1024).SetFloat64(float64(x))
	s.Mul(s, big.NewFloat(float64(y)))
	s.Add(s, big.NewFloat(float64(z)))
	f, _ := s.Float32()
	return f
}

func mimic[F Float](form gemmForm, out, a, b []F, m, k, n int, acc, fused bool, fma func(x, y, z F) F) {
	rows, red := m, k
	if form == formATB {
		rows, red = k, m
	}
	cols := n
	chunk, nsh := opShardPlan(rows, m*k*n)
	for s := 0; s < nsh; s++ {
		lo := s * chunk
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		fmaHi := lo + ((hi-lo)/4)*4
		for r := lo; r < hi; r++ {
			rowFused := fused && r < fmaHi
			for j := 0; j < cols; j++ {
				var c F
				if acc {
					c = out[r*cols+j]
				}
				for t := 0; t < red; t++ {
					var av, bv F
					switch form {
					case formNN:
						av, bv = a[r*k+t], b[t*n+j]
					case formATB:
						av, bv = a[t*k+r], b[t*n+j]
					case formABT:
						av, bv = a[r*k+t], b[j*k+t]
					}
					if rowFused {
						c = fma(av, bv, c)
					} else {
						c += av * bv
					}
				}
				out[r*cols+j] = c
			}
		}
	}
}

// diffShapes is the randomized shape set: micro-kernel boundary cases (tile
// widths 4/8/16 and their neighbours) plus a few larger blocks crossing the
// gemmKC panel boundary via k.
func diffShapes(rng *rand.Rand) [][3]int {
	shapes := [][3]int{
		{1, 1, 1}, {2, 3, 4}, {4, 5, 8}, {5, 7, 9}, {7, 8, 15},
		{8, 8, 16}, {9, 16, 17}, {12, 300, 5}, {16, 31, 16}, {17, 33, 23},
		{24, 16, 33}, {33, 257, 31},
	}
	for i := 0; i < 6; i++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(40), 1 + rng.Intn(40), 1 + rng.Intn(40)})
	}
	return shapes
}

// fillNonzero fills t with nonzero uniform values (the portable ATB kernel
// skips zero multiplicands, which the mimics do not model).
func fillNonzero(t *Tensor, rng *rand.Rand) {
	t.FillUniform(rng, -1, 1)
	if t.DT.Backing() == F32 {
		for i, v := range t.F32 {
			if v == 0 {
				t.F32[i] = 0.5
			}
		}
		return
	}
	for i, v := range t.Data {
		if v == 0 {
			t.Data[i] = 0.5
		}
	}
}

func TestGEMMDifferentialF64(t *testing.T) {
	if !detectFMA() {
		t.Skip("no AVX2+FMA on this host")
	}
	defer setTiers(false, false).restore()
	rng := rand.New(rand.NewSource(41))
	tiers := []struct {
		name        string
		fma, avx512 bool
	}{{"portable", false, false}, {"avx2", true, false}}
	if detectAVX512() {
		tiers = append(tiers, struct {
			name        string
			fma, avx512 bool
		}{"avx512", true, true})
	}
	for _, shape := range diffShapes(rng) {
		m, k, n := shape[0], shape[1], shape[2]
		for form := formNN; form <= formABT; form++ {
			ar, ac, br, bc, orr, oc := operandShapes(form, m, k, n)
			a := New(ar, ac)
			b := New(br, bc)
			fillNonzero(a, rng)
			fillNonzero(b, rng)
			for _, acc := range []bool{false, true} {
				seed := New(orr, oc)
				fillNonzero(seed, rng)
				for _, tier := range tiers {
					setTiers(tier.fma, tier.avx512)
					got := seed.Clone()
					runForm(form, got, a, b, acc)
					ref := make([]float64, orr*oc)
					if acc {
						copy(ref, seed.Data)
					}
					mimicF64(form, ref, a.Data, b.Data, m, k, n, acc, tier.fma)
					for i := range ref {
						if math.Float64bits(ref[i]) != math.Float64bits(got.Data[i]) {
							t.Fatalf("%s form=%d m=%d k=%d n=%d acc=%v: element %d = %x, mimic %x",
								tier.name, form, m, k, n, acc, i,
								math.Float64bits(got.Data[i]), math.Float64bits(ref[i]))
						}
					}
				}
			}
		}
	}
}

func TestGEMMDifferentialF32(t *testing.T) {
	if !detectFMA() {
		t.Skip("no AVX2+FMA on this host")
	}
	defer setTiers(false, false).restore()
	rng := rand.New(rand.NewSource(43))
	for _, shape := range diffShapes(rng) {
		m, k, n := shape[0], shape[1], shape[2]
		for form := formNN; form <= formABT; form++ {
			ar, ac, br, bc, orr, oc := operandShapes(form, m, k, n)
			a := NewOf(F32, ar, ac)
			b := NewOf(F32, br, bc)
			fillNonzero(a, rng)
			fillNonzero(b, rng)
			for _, acc := range []bool{false, true} {
				seed := NewOf(F32, orr, oc)
				fillNonzero(seed, rng)
				for _, tier := range hostTiers() {
					setTiers(tier.fma, tier.avx512)
					got := seed.Clone()
					runForm(form, got, a, b, acc)
					ref := make([]float32, orr*oc)
					if acc {
						copy(ref, seed.F32)
					}
					mimicF32(form, ref, a.F32, b.F32, m, k, n, acc, tier.fma)
					for i := range ref {
						if math.Float32bits(ref[i]) != math.Float32bits(got.F32[i]) {
							t.Fatalf("%s form=%d m=%d k=%d n=%d acc=%v: element %d = %x, mimic %x",
								tier.name, form, m, k, n, acc, i,
								math.Float32bits(got.F32[i]), math.Float32bits(ref[i]))
						}
					}
				}
			}
		}
	}
}

// runBatchForm is runForm's batched counterpart.
func runBatchForm(form gemmForm, outs, as, bs []*Tensor, acc bool) {
	switch {
	case form == formNN && !acc:
		MatMulBatchInto(outs, as, bs)
	case form == formNN && acc:
		batchGemm(opNN, outs, as, bs, true)
	case form == formATB && !acc:
		MatMulBatchATBInto(outs, as, bs)
	case form == formATB && acc:
		MatMulBatchATBAcc(outs, as, bs)
	case form == formABT && !acc:
		MatMulBatchABTInto(outs, as, bs)
	default:
		MatMulBatchABTAcc(outs, as, bs)
	}
}

// An empty reduction — k = 0 for A·B and A·Bᵀ, m = 0 for Aᵀ·B — zeroes out
// for Into and leaves it untouched for Acc, on every tier, form and dtype,
// standalone and batched.
func TestGEMMEmptyReduction(t *testing.T) {
	defer setTiers(useFMA, useAVX512).restore()
	for _, tier := range hostTiers() {
		setTiers(tier.fma, tier.avx512)
		for _, dt := range []DType{F64, F32} {
			for form := formNN; form <= formABT; form++ {
				m, k, n := 5, 0, 19
				if form == formATB {
					m, k = 0, 5
				}
				ar, ac, br, bc, orr, oc := operandShapes(form, m, k, n)
				a, b := NewOf(dt, ar, ac), NewOf(dt, br, bc)
				for _, acc := range []bool{false, true} {
					for _, batched := range []bool{false, true} {
						outs := []*Tensor{NewOf(dt, orr, oc), NewOf(dt, orr, oc)}
						for _, o := range outs {
							o.Fill(7)
						}
						if batched {
							runBatchForm(form, outs, []*Tensor{a, a}, []*Tensor{b, b}, acc)
						} else {
							runForm(form, outs[0], a, b, acc)
							outs = outs[:1]
						}
						want := 0.0
						if acc {
							want = 7
						}
						for _, o := range outs {
							for r := 0; r < orr; r++ {
								for j := 0; j < oc; j++ {
									if got := o.At(r, j); got != want {
										t.Fatalf("%s %v form=%d acc=%v batched=%v: out[%d,%d] = %v, want %v",
											tier.name, dt, form, acc, batched, r, j, got, want)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// The portable and FMA f32 kernels must agree closely on the same inputs
// (FMA fuses the multiply-add, so results are not bit-identical, but they
// share the ascending accumulation order).
func TestF32KernelsAgreeAcrossDispatch(t *testing.T) {
	if !useFMA {
		t.Skip("no AVX2+FMA on this host")
	}
	rng := rand.New(rand.NewSource(11))
	for _, s := range [][3]int{{8, 16, 8}, {13, 29, 21}, {64, 64, 64}} {
		m, k, n := s[0], s[1], s[2]
		a := randTensorOf(F32, rng, m, k)
		b := randTensorOf(F32, rng, k, n)
		fma := NewOf(F32, m, n)
		simdRange(opNN, &avx2F32, fma.F32, a.F32, b.F32, m, k, n, 0, m, false)
		portable := NewOf(F32, m, n)
		gemmNNRange[float32](portable.F32, a.F32, b.F32, k, n, 0, m, false)
		if !ApproxEqual(fma, portable, 1e-4*math.Sqrt(float64(k))) {
			t.Errorf("FMA and portable f32 kernels diverge at %v", s)
		}
	}
}

// The f32 transpose pack must agree exactly with the generic scalar pack at
// every pk (vector blocks + scalar tails) and jw (partial widths fall back).
func TestPackPanelCols32MatchesGeneric(t *testing.T) {
	if !useFMA {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(14))
	const ld = 37
	src := make([]float32, 16*ld)
	for i := range src {
		src[i] = float32(rng.NormFloat64())
	}
	for _, pk := range []int{1, 7, 8, 9, 16, 23, 32} {
		for _, jw := range []int{8, 5} {
			want := make([]float32, gemmKC*fmaNR)
			got := make([]float32, gemmKC*fmaNR)
			packPanelCols(want, src, 2, ld, 3, jw, pk)
			packPanelCols32(got, src, 2, ld, 3, jw, pk)
			for i := 0; i < pk*fmaNR; i++ {
				if want[i] != got[i] {
					t.Fatalf("pk=%d jw=%d: element %d differs (%v vs %v)", pk, jw, i, got[i], want[i])
				}
			}
		}
	}
}
