package tensor

import (
	"sync"
	"unsafe"
)

// parallelThreshold is the number of scalar multiply-adds below which the
// GEMM drivers run single-threaded; tiny products are faster without any
// dispatch overhead.
const parallelThreshold = 64 * 1024

// Cache-blocking parameters of the A·B kernel. B is packed into panels of
// gemmKC×gemmNR elements (L1-resident) that a register tile of gemmMR rows
// streams through. gemmMR×gemmNR accumulators plus the panel and A operands
// stay within the amd64 register budget.
const (
	gemmKC = 256
	gemmMR = 2
	gemmNR = 4
)

// fmaNR is the packed-panel width of the AVX2+FMA tiers and of the AVX-512
// f64 tier: 8 lanes, two 4-lane vectors of float64, one 8-lane vector of
// float32, or one 512-bit vector of float64 (see gemm_simd.go). It is
// declared here so the shared panel scratch can size for either kernel on
// every platform.
const fmaNR = 8

// avx512NR is the packed-panel width of the AVX-512 float32 tier: 16 lanes,
// one 512-bit ZMM vector per panel row. Only the float32 scratch sizes for
// this width.
const avx512NR = 16

// panelScratch64/panelScratch32 recycle the packed-B panels across GEMM
// calls so the blocked kernels allocate nothing in steady state. Panels are
// sized for the widest kernel of their dtype; narrower kernels reslice.
var panelScratch64 = sync.Pool{
	New: func() any {
		s := make([]float64, gemmKC*fmaNR)
		return &s
	},
}

var panelScratch32 = sync.Pool{
	New: func() any {
		s := make([]float32, gemmKC*avx512NR)
		return &s
	},
}

// getPanel fetches the panel scratch for the instantiated element type. The
// sync.Pool interface already holds a pointer, so the round trip performs no
// boxing allocation.
func getPanel[F Float]() *[]F {
	var z F
	if unsafe.Sizeof(z) == 4 {
		return panelScratch32.Get().(*[]F)
	}
	return panelScratch64.Get().(*[]F)
}

func putPanel[F Float](p *[]F) {
	var z F
	if unsafe.Sizeof(z) == 4 {
		panelScratch32.Put(any(p).(*[]float32))
		return
	}
	panelScratch64.Put(any(p).(*[]float64))
}

// gemmShards picks the shard count for a kernel of the given output rows and
// total multiply-add count.
func gemmShards(rows, work int) int {
	if work < parallelThreshold || poolWorkers < 2 || rows < 2 {
		return 1
	}
	s := poolWorkers
	if limit := work / (parallelThreshold / 2); s > limit {
		s = limit
	}
	if s > rows {
		s = rows
	}
	if s < 1 {
		s = 1
	}
	return s
}

// shardRanges splits [0,rows) into ranges whose boundaries are multiples of
// the widest micro-kernel tile height (fmaNR covers the 8-row, 4-row and
// 2-row portable tiles alike). Tile-aligned boundaries make a row's tile
// membership — and therefore its FMA-vs-tail rounding — a function of the
// row index alone, so GEMM results are bit-identical at every worker count
// and shard layout, not merely at every concurrency cap.
func shardRanges(rows, shards int) (chunk, nShards int) {
	chunk = (rows + shards - 1) / shards
	chunk = (chunk + fmaNR - 1) &^ (fmaNR - 1)
	nShards = (rows + chunk - 1) / chunk
	return chunk, nShards
}

// opShardPlan is every product's shard geometry: the tile-aligned chunk size
// and shard count for the given output rows and multiply-add count.
func opShardPlan(rows, work int) (chunk, nsh int) {
	shards := gemmShards(rows, work)
	if shards <= 1 {
		return rows, 1
	}
	chunk, nsh = shardRanges(rows, shards)
	if nsh <= 1 {
		return rows, 1
	}
	return chunk, nsh
}

// gemmOp names one of the three product forms every GEMM entry point lowers
// to.
type gemmOp uint8

const (
	opNN  gemmOp = iota // out = a·b:  a m×k, b k×n, out m×n
	opATB               // out = aᵀ·b: a m×k, b m×n, out k×n
	opABT               // out = a·bᵀ: a m×k, b n×k, out m×n
)

var gemmOpNames = [...]string{"MatMul", "MatMulATB", "MatMulABT"}

// gemmDims validates one product's operands and returns its output rows,
// reduction length and output columns.
func gemmDims(op gemmOp, out, a, b *Tensor) (rows, red, cols int) {
	m, k := a.Shape[0], a.Shape[1]
	var inner int // b's dimension that must match the reduction
	switch op {
	case opNN:
		rows, red, cols, inner = m, k, b.Shape[1], b.Shape[0]
	case opATB:
		rows, red, cols, inner = k, m, b.Shape[1], b.Shape[0]
	default:
		rows, red, cols, inner = m, k, b.Shape[0], b.Shape[1]
	}
	if inner != red || out.Shape[0] != rows || out.Shape[1] != cols {
		panic("tensor: " + gemmOpNames[op] + " shape mismatch")
	}
	if dt := out.DT.Backing(); a.DT.Backing() != dt || b.DT.Backing() != dt {
		panic("tensor: " + gemmOpNames[op] + " operands of mixed dtypes")
	}
	return rows, red, cols
}

// gemm computes out = op(a, b) (acc=false) or out += op(a, b) (acc=true)
// with a cache-blocked, register-tiled kernel, sharding output rows across
// the worker pool. The operands' common dtype selects the instantiation and
// simdTierFor the kernel tier.
func gemm(op gemmOp, out, a, b *Tensor, acc bool) {
	rows, red, cols := gemmDims(op, out, a, b)
	runGemm(op, gemmSet{out: out, a: a, b: b}, rows, red, cols, acc)
}

// gemmSet is the products of one launch — a standalone product in out, a, b,
// or a batch in outs, as, bs — all of one geometry and dtype. The launch
// closure captures it by value, so a standalone product costs no allocation
// beyond the pool dispatch itself.
type gemmSet struct {
	out, a, b    *Tensor
	outs, as, bs []*Tensor
}

func (s gemmSet) count() int {
	if s.outs == nil {
		return 1
	}
	return len(s.outs)
}

func (s gemmSet) at(g int) (out, a, b *Tensor) {
	if s.outs == nil {
		return s.out, s.a, s.b
	}
	return s.outs[g], s.as[g], s.bs[g]
}

// runGemm is the one sharded runner behind every GEMM entry point. An empty
// output is left alone; an empty reduction zeroes out for Into and leaves it
// untouched for Acc, on every tier and form.
func runGemm(op gemmOp, s gemmSet, rows, red, cols int, acc bool) {
	out, _, _ := s.at(0)
	switch {
	case rows == 0 || cols == 0:
	case red == 0 && acc:
	case red == 0:
		for g := 0; g < s.count(); g++ {
			out, _, _ = s.at(g)
			out.Zero()
		}
	case out.DT.Backing() == F32:
		launch[float32](op, s, rows, red, cols, acc)
	default:
		launch[float64](op, s, rows, red, cols, acc)
	}
}

// launch runs every (product, shard) unit of a launch on one tier and one
// shard plan — the plan the product would get alone, so a batched product
// is computed bit for bit as its standalone call — inline, in unit order,
// when there is a single unit or a single goroutine to run them, across the
// worker pool otherwise. Neither path allocates: the inline one keeps its
// launchState on the stack, the pooled one takes a state whose range
// function is already bound, so a caller may split its work into as many
// launches as it likes.
func launch[F Float](op gemmOp, s gemmSet, rows, red, cols int, acc bool) {
	chunk, nsh := opShardPlan(rows, rows*red*cols)
	plan := launchState[F]{op: op, t: simdTierFor[F](cols), s: s,
		rows: rows, red: red, cols: cols, chunk: chunk, nsh: nsh, acc: acc}
	units := s.count() * nsh
	if units == 1 || curWorkers() == 1 {
		plan.run(0, 0, units)
		return
	}
	l := getLaunch[F]()
	plan.units = l.units
	*l = plan
	ParallelSharded(units, curWorkers(), l.units)
	*l = launchState[F]{units: l.units} // hold no operands while pooled
	putLaunch(l)
}

// launchState is one launch's plan. units is run bound to the state, built
// once per pooled state.
type launchState[F Float] struct {
	op                          gemmOp
	t                           *simdTier[F]
	s                           gemmSet
	rows, red, cols, chunk, nsh int
	acc                         bool
	units                       func(shard, ulo, uhi int)
}

// run computes units [ulo,uhi): unit u is shard u mod nsh of product u/nsh.
func (l *launchState[F]) run(_, ulo, uhi int) {
	for u := ulo; u < uhi; u++ {
		out, a, b := l.s.at(u / l.nsh)
		lo := u % l.nsh * l.chunk
		gemmRange(l.op, l.t, Of[F](out), Of[F](a), Of[F](b), l.rows, l.red, l.cols, lo, min(lo+l.chunk, l.rows), l.acc)
	}
}

var launchStates64 = sync.Pool{New: func() any {
	l := new(launchState[float64])
	l.units = l.run
	return l
}}

var launchStates32 = sync.Pool{New: func() any {
	l := new(launchState[float32])
	l.units = l.run
	return l
}}

func getLaunch[F Float]() *launchState[F] {
	var z F
	if unsafe.Sizeof(z) == 4 {
		return launchStates32.Get().(*launchState[F])
	}
	return launchStates64.Get().(*launchState[F])
}

func putLaunch[F Float](l *launchState[F]) {
	var z F
	if unsafe.Sizeof(z) == 4 {
		launchStates32.Put(any(l).(*launchState[float32]))
		return
	}
	launchStates64.Put(any(l).(*launchState[float64]))
}

// gemmRange computes output rows [lo,hi) of op on tier t, or on the portable
// kernels when t is nil.
func gemmRange[F Float](op gemmOp, t *simdTier[F], out, a, b []F, rows, red, cols, lo, hi int, acc bool) {
	switch {
	case t != nil:
		simdRange(op, t, out, a, b, rows, red, cols, lo, hi, acc)
	case op == opNN:
		gemmNNRange(out, a, b, red, cols, lo, hi, acc)
	case op == opATB:
		gemmATRange(out, a, b, red, rows, cols, lo, hi, acc)
	default:
		gemmABTRange(out, a, b, red, cols, lo, hi, acc)
	}
}

// MatMul returns a·b for rank-2 tensors a (m×k) and b (k×n).
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 operands")
	}
	out := NewOf(a.DT, a.Shape[0], b.Shape[1])
	gemm(opNN, out, a, b, false)
	return out
}

// MatMulInto computes out = a·b, reusing out's storage. out must be m×n and
// may not alias a or b.
func MatMulInto(out, a, b *Tensor) { gemm(opNN, out, a, b, false) }

// gemmNNRange computes rows [lo,hi) of out = a·b. For each k-block it packs
// a gemmNR-wide B panel once and streams gemmMR-row register tiles through
// it; the panel is reused by every row tile of the shard.
func gemmNNRange[F Float](out, a, b []F, k, n, lo, hi int, acc bool) {
	pp := getPanel[F]()
	panel := *pp
	for pc := 0; pc < k; pc += gemmKC {
		pk := k - pc
		if pk > gemmKC {
			pk = gemmKC
		}
		load := acc || pc > 0
		for j0 := 0; j0 < n; j0 += gemmNR {
			jw := n - j0
			if jw > gemmNR {
				jw = gemmNR
			}
			bp := panel[:pk*gemmNR]
			if jw == gemmNR {
				for p := 0; p < pk; p++ {
					brow := b[(pc+p)*n+j0 : (pc+p)*n+j0+gemmNR]
					q := p * gemmNR
					bp[q] = brow[0]
					bp[q+1] = brow[1]
					bp[q+2] = brow[2]
					bp[q+3] = brow[3]
				}
			} else {
				for p := 0; p < pk; p++ {
					brow := b[(pc+p)*n+j0 : (pc+p)*n+j0+jw]
					q := p * gemmNR
					for j := 0; j < gemmNR; j++ {
						if j < jw {
							bp[q+j] = brow[j]
						} else {
							bp[q+j] = 0
						}
					}
				}
			}
			i := lo
			for ; i+gemmMR <= hi; i += gemmMR {
				a0 := a[i*k+pc : i*k+pc+pk]
				a1 := a[(i+1)*k+pc:][:pk]
				o0 := out[i*n+j0 : i*n+j0+jw]
				o1 := out[(i+1)*n+j0 : (i+1)*n+j0+jw]
				var c00, c01, c02, c03, c10, c11, c12, c13 F
				if load {
					c00 = o0[0]
					c10 = o1[0]
					if jw > 1 {
						c01, c11 = o0[1], o1[1]
					}
					if jw > 2 {
						c02, c12 = o0[2], o1[2]
					}
					if jw > 3 {
						c03, c13 = o0[3], o1[3]
					}
				}
				for p := 0; p < pk; p++ {
					bq := bp[4*p : 4*p+4 : 4*p+4]
					av0 := a0[p]
					av1 := a1[p]
					b0, b1, b2, b3 := bq[0], bq[1], bq[2], bq[3]
					c00 += av0 * b0
					c01 += av0 * b1
					c02 += av0 * b2
					c03 += av0 * b3
					c10 += av1 * b0
					c11 += av1 * b1
					c12 += av1 * b2
					c13 += av1 * b3
				}
				o0[0] = c00
				o1[0] = c10
				if jw > 1 {
					o0[1], o1[1] = c01, c11
				}
				if jw > 2 {
					o0[2], o1[2] = c02, c12
				}
				if jw > 3 {
					o0[3], o1[3] = c03, c13
				}
			}
			for ; i < hi; i++ {
				a0 := a[i*k+pc : i*k+pc+pk]
				o0 := out[i*n+j0 : i*n+j0+jw]
				var c0, c1, c2, c3 F
				if load {
					c0 = o0[0]
					if jw > 1 {
						c1 = o0[1]
					}
					if jw > 2 {
						c2 = o0[2]
					}
					if jw > 3 {
						c3 = o0[3]
					}
				}
				for p := 0; p < pk; p++ {
					bq := bp[4*p : 4*p+4 : 4*p+4]
					av := a0[p]
					c0 += av * bq[0]
					c1 += av * bq[1]
					c2 += av * bq[2]
					c3 += av * bq[3]
				}
				o0[0] = c0
				if jw > 1 {
					o0[1] = c1
				}
				if jw > 2 {
					o0[2] = c2
				}
				if jw > 3 {
					o0[3] = c3
				}
			}
		}
	}
	putPanel(pp)
}

// MatMulATB returns aᵀ·b without materializing the transpose of a.
// a is m×k, b is m×n; the result is k×n.
func MatMulATB(a, b *Tensor) *Tensor {
	out := NewOf(a.DT, a.Shape[1], b.Shape[1])
	gemm(opATB, out, a, b, true)
	return out
}

// MatMulATBInto computes out = aᵀ·b, reusing out's storage (k×n).
func MatMulATBInto(out, a, b *Tensor) { gemm(opATB, out, a, b, false) }

// MatMulATBAcc computes out += aᵀ·b, accumulating into out (k×n). It lets
// backward passes accumulate weight gradients without a scratch product.
func MatMulATBAcc(out, a, b *Tensor) { gemm(opATB, out, a, b, true) }

// gemmATRange computes output rows [plo,phi) of out = aᵀ·b by streaming b
// row-wise and scattering each a[i,p] as a 4-row axpy block.
func gemmATRange[F Float](out, a, b []F, m, k, n, plo, phi int, acc bool) {
	if !acc {
		seg := out[plo*n : phi*n]
		for i := range seg {
			seg[i] = 0
		}
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : i*k+k]
		brow := b[i*n : i*n+n]
		p := plo
		for ; p+4 <= phi; p += 4 {
			a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			o0 := out[p*n : p*n+n]
			o1 := out[(p+1)*n : (p+1)*n+n]
			o2 := out[(p+2)*n : (p+2)*n+n]
			o3 := out[(p+3)*n : (p+3)*n+n]
			for j, bv := range brow {
				o0[j] += a0 * bv
				o1[j] += a1 * bv
				o2[j] += a2 * bv
				o3[j] += a3 * bv
			}
		}
		for ; p < phi; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			o := out[p*n : p*n+n]
			for j, bv := range brow {
				o[j] += av * bv
			}
		}
	}
}

// MatMulABT returns a·bᵀ without materializing the transpose of b.
// a is m×k, b is n×k; the result is m×n.
func MatMulABT(a, b *Tensor) *Tensor {
	out := NewOf(a.DT, a.Shape[0], b.Shape[0])
	gemm(opABT, out, a, b, true)
	return out
}

// MatMulABTInto computes out = a·bᵀ, reusing out's storage (m×n).
func MatMulABTInto(out, a, b *Tensor) { gemm(opABT, out, a, b, false) }

// MatMulABTAcc computes out += a·bᵀ, accumulating into out (m×n).
func MatMulABTAcc(out, a, b *Tensor) { gemm(opABT, out, a, b, true) }

// gemmABTRange computes rows [ilo,ihi) of out = a·bᵀ as 2×4 register tiles
// of dot products, reading each pair of a rows and quad of b rows once. Into
// clears the rows first and every accumulator starts from out's element, so
// an Into followed by Accs over consecutive slices of the reduction is one
// mul+add chain per element, as on the SIMD tiers.
func gemmABTRange[F Float](out, a, b []F, k, n, ilo, ihi int, acc bool) {
	if !acc {
		clear(out[ilo*n : ihi*n])
	}
	i := ilo
	for ; i+2 <= ihi; i += 2 {
		a0 := a[i*k : i*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k]
		o0 := out[i*n : i*n+n]
		o1 := out[(i+1)*n : (i+1)*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k : j*k+k]
			b1 := b[(j+1)*k : (j+1)*k+k]
			b2 := b[(j+2)*k : (j+2)*k+k]
			b3 := b[(j+3)*k : (j+3)*k+k]
			c00, c01, c02, c03 := o0[j], o0[j+1], o0[j+2], o0[j+3]
			c10, c11, c12, c13 := o1[j], o1[j+1], o1[j+2], o1[j+3]
			for p := 0; p < k; p++ {
				av0, av1 := a0[p], a1[p]
				bv := b0[p]
				c00 += av0 * bv
				c10 += av1 * bv
				bv = b1[p]
				c01 += av0 * bv
				c11 += av1 * bv
				bv = b2[p]
				c02 += av0 * bv
				c12 += av1 * bv
				bv = b3[p]
				c03 += av0 * bv
				c13 += av1 * bv
			}
			o0[j], o0[j+1], o0[j+2], o0[j+3] = c00, c01, c02, c03
			o1[j], o1[j+1], o1[j+2], o1[j+3] = c10, c11, c12, c13
		}
		for ; j < n; j++ {
			brow := b[j*k : j*k+k]
			c0, c1 := o0[j], o1[j]
			for p, bv := range brow {
				c0 += a0[p] * bv
				c1 += a1[p] * bv
			}
			o0[j], o1[j] = c0, c1
		}
	}
	for ; i < ihi; i++ {
		a0 := a[i*k : i*k+k]
		o0 := out[i*n : i*n+n]
		for j := 0; j < n; j++ {
			brow := b[j*k : j*k+k]
			c0 := o0[j]
			for p, bv := range brow {
				c0 += a0[p] * bv
			}
			o0[j] = c0
		}
	}
}
