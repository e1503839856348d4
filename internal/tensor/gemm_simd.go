package tensor

import "unsafe"

// The SIMD GEMM tiers. Each tier at each element type is one row of a table:
// the packed-panel width, the register tiles it streams that panel through,
// the Go loop that finishes the rows no tile covers, and the packer that
// transposes B for A·Bᵀ. One blocked driver, simdRange, runs every row for
// all three product forms; the assembly micro-kernels behind the tiles live
// in gemm_amd64.s and gemm_avx512_amd64.s.

// tileKernel names one assembly micro-kernel. The driver reaches the kernels
// through sweepTiles's switch rather than through func values: an indirect
// call would make the partial-tile staging block escape to the heap.
type tileKernel uint8

const (
	fma4x8         tileKernel = iota // fmaMicro4x8: f64, AVX2+FMA
	avx512x8x8                       // avx512Micro8x8: f64, AVX-512
	fma8x8f32                        // fmaMicro8x8f32: f32, AVX2+FMA
	fma4x8f32                        // fmaMicro4x8f32: f32, AVX2+FMA
	avx512x8x16f32                   // avx512Micro8x16f32: f32, AVX-512
	avx512x4x16f32                   // avx512Micro4x16f32: f32, AVX-512
)

// simdTile is one register tile: mr output rows by the tier's panel width.
type simdTile struct {
	mr     int
	kernel tileKernel
}

// simdTier is one row of the tier table.
type simdTier[F Float] struct {
	nr    int        // packed-panel width, in elements
	tiles []simdTile // register tiles, tallest first
	// tail computes one output row of a panel in Go: c (jw wide) (+)= the
	// pk steps a[t·aStep]·bp[t·nr : t·nr+nr].
	tail func(c []F, jw int, a []F, aStep, pk int, bp []F, load bool)
	// packCols transpose-packs rows j0..j0+jw of src (row stride ld),
	// columns p0..p0+pk, into an nr-wide panel.
	packCols func(panel, src []F, j0, ld, p0, jw, pk int)
}

// The tier table. Every row fuses each tile row's multiply-adds one step at a
// time in ascending reduction order and leaves the tail rows to plain
// mul+add, so the rows of a product come out bit-identical on every tier
// (the AVX-512 f64 row borrows the AVX2 4×8 tile for its 4..7-row leftovers
// for exactly that reason).
var (
	avx2F64 = simdTier[float64]{fmaNR, []simdTile{{4, fma4x8}},
		fmaRowTail[float64], packPanelCols[float64]}
	avx512F64 = simdTier[float64]{fmaNR, []simdTile{{8, avx512x8x8}, {4, fma4x8}},
		fmaRowTail[float64], packPanelCols[float64]}
	avx2F32 = simdTier[float32]{fmaNR, []simdTile{{8, fma8x8f32}, {4, fma4x8f32}},
		fmaRowTail[float32], packPanelCols32}
	avx512F32 = simdTier[float32]{avx512NR, []simdTile{{8, avx512x8x16f32}, {4, avx512x4x16f32}},
		avx512RowTail, packPanel16Cols}
)

// simdTierFor picks the table row that carries a product of n output columns
// at element type F, or nil for the portable kernels. The f32 AVX-512 row
// needs one full 16-lane panel: below that the wider tile buys nothing and
// its packing and tail overhead cost ~30% on the small dense products of a
// training step, so narrow products stay on the 8-wide AVX2 row. Purely a
// speed choice: every row produces the same bits (the differential harness
// enforces it), so the crossover can move without touching any golden.
func simdTierFor[F Float](n int) *simdTier[F] {
	var t any
	switch {
	case DTypeOf[F]() == F64 && useAVX512:
		t = &avx512F64
	case DTypeOf[F]() == F64 && useFMA:
		t = &avx2F64
	case DTypeOf[F]() == F64:
		return nil
	case useAVX512 && n >= avx512NR:
		t = &avx512F32
	case useFMA:
		t = &avx2F32
	default:
		return nil
	}
	return t.(*simdTier[F])
}

// simdRange computes output rows [lo,hi) of op on tier t. For each gemmKC
// block of the reduction and each nr-wide column panel it packs B once, runs
// the tier's tiles down the rows, tallest first, and finishes the remaining
// rows with the tier's Go tail. A's element at output row r and reduction
// step s is a[r·rs + s·ts]: (rs, ts) = (red, 1) for A·B and A·Bᵀ, (1, rows)
// for Aᵀ·B, whose output rows are A's columns.
func simdRange[F Float](op gemmOp, t *simdTier[F], out, a, b []F, rows, red, cols, lo, hi int, acc bool) {
	rs, ts := red, 1
	if op == opATB {
		rs, ts = 1, rows
	}
	var z F
	es := int(unsafe.Sizeof(z))
	nr := t.nr
	pp := getPanel[F]()
	panel := (*pp)[:gemmKC*nr]
	bp := unsafe.Pointer(&panel[0])
	var stage [8 * avx512NR]F // a partial tile's C block: ≤ 8 rows, nr-strided
	for pc := 0; pc < red; pc += gemmKC {
		pk := min(red-pc, gemmKC)
		load := acc || pc > 0
		for j0 := 0; j0 < cols; j0 += nr {
			jw := min(cols-j0, nr)
			if op == opABT {
				t.packCols(panel, b, j0, red, pc, jw, pk)
			} else {
				packRows(panel, b, pc, cols, j0, jw, pk, nr)
			}
			i := lo
			for _, tile := range t.tiles {
				if jw == nr && i+tile.mr <= hi {
					i += sweepTiles(tile, hi-i, unsafe.Pointer(&out[i*cols+j0]), cols*es,
						unsafe.Pointer(&a[i*rs+pc*ts]), rs*es, ts*es, bp, pk, b2i(load))
				}
				// A partial panel runs each tile on a copy of its C block.
				for ; i+tile.mr <= hi; i += tile.mr {
					c := i*cols + j0
					if load {
						for r := 0; r < tile.mr; r++ {
							copy(stage[r*nr:r*nr+jw], out[c+r*cols:])
						}
					}
					sweepTiles(tile, tile.mr, unsafe.Pointer(&stage[0]), nr*es,
						unsafe.Pointer(&a[i*rs+pc*ts]), rs*es, ts*es, bp, pk, b2i(load))
					for r := 0; r < tile.mr; r++ {
						copy(out[c+r*cols:c+r*cols+jw], stage[r*nr:])
					}
				}
			}
			for ; i < hi; i++ {
				t.tail(out[i*cols+j0:i*cols+j0+jw], jw, a[i*rs+pc*ts:], ts, pk, panel, load)
			}
		}
	}
	putPanel(pp)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// packRows packs src[(r0+t)·ld + j0 : … + j0+jw] for t in [0,pk) into an
// nr-wide zero-padded panel: panel[t·nr+j] = src row r0+t, column j0+j.
func packRows[F Float](panel, src []F, r0, ld, j0, jw, pk, nr int) {
	if jw == nr {
		CopyRows(panel, src[r0*ld+j0:], pk, nr, nr, ld)
		return
	}
	for t := 0; t < pk; t++ {
		q := panel[nr*t : nr*t+nr]
		copy(q, src[(r0+t)*ld+j0:(r0+t)*ld+j0+jw])
		clear(q[jw:])
	}
}

// packPanelCols transpose-packs src rows j0..j0+jw (each of length ≥ p0+pk)
// into an 8-wide panel: panel[t·8+j] = src[(j0+j)·ld + p0+t].
func packPanelCols[F Float](panel, src []F, j0, ld, p0, jw, pk int) {
	if jw == fmaNR {
		// One panel row per step from eight row slices: about twice the
		// speed of the column walk below, whose stride-8 stores also swing
		// with code placement.
		s := src[j0*ld+p0:]
		r0, r1, r2, r3 := s[:pk], s[ld:ld+pk], s[2*ld:2*ld+pk], s[3*ld:3*ld+pk]
		r4, r5, r6, r7 := s[4*ld:4*ld+pk], s[5*ld:5*ld+pk], s[6*ld:6*ld+pk], s[7*ld:7*ld+pk]
		for t := range r0 {
			q := panel[fmaNR*t : fmaNR*t+fmaNR : fmaNR*t+fmaNR]
			q[0], q[1], q[2], q[3] = r0[t], r1[t], r2[t], r3[t]
			q[4], q[5], q[6], q[7] = r4[t], r5[t], r6[t], r7[t]
		}
		return
	}
	for j := 0; j < fmaNR; j++ {
		if j >= jw {
			for t := 0; t < pk; t++ {
				panel[fmaNR*t+j] = 0
			}
			continue
		}
		col := src[(j0+j)*ld+p0 : (j0+j)*ld+p0+pk]
		for t, v := range col {
			panel[fmaNR*t+j] = v
		}
	}
}

// packPanelCols32 is the f32 transpose pack: full-width panels transpose
// through the 8×8 AVX shuffle kernel in blocks of eight reduction steps,
// with scalar fill for the t tail and for partial widths.
func packPanelCols32(panel, src []float32, j0, ld, p0, jw, pk int) {
	if jw == fmaNR {
		t0 := 0
		for ; t0+8 <= pk; t0 += 8 {
			transpose8x8f32(&panel[fmaNR*t0], &src[j0*ld+p0+t0], ld*4)
		}
		for j := 0; j < fmaNR && t0 < pk; j++ {
			col := src[(j0+j)*ld+p0+t0 : (j0+j)*ld+p0+pk]
			for t, v := range col {
				panel[fmaNR*(t0+t)+j] = v
			}
		}
		return
	}
	packPanelCols(panel, src, j0, ld, p0, jw, pk)
}

// packPanel16Cols transpose-packs src rows j0..j0+jw into a 16-wide panel:
// panel[t·16+j] = src[(j0+j)·ld + p0+t]. Scalar: the 8×8 shuffle transpose
// has a fixed 8-wide destination stride, so the 16-wide panel fills by
// rows instead. Pack cost is amortized over the row sweep exactly like the
// other panels.
func packPanel16Cols(panel, src []float32, j0, ld, p0, jw, pk int) {
	// Panel-row-major fill: writes stream sequentially through the panel
	// and the reads touch one hot cache line per source row (the next t
	// rereads the same lines one element over). The transposed order —
	// column walks with stride-16 writes — touches pk distinct lines per
	// column and was the top cost of f32 conv backward.
	var rows [avx512NR][]float32
	for j := 0; j < jw; j++ {
		rows[j] = src[(j0+j)*ld+p0 : (j0+j)*ld+p0+pk]
	}
	for t := 0; t < pk; t++ {
		q := panel[avx512NR*t : avx512NR*t+avx512NR]
		for j := 0; j < jw; j++ {
			q[j] = rows[j][t]
		}
		for j := jw; j < avx512NR; j++ {
			q[j] = 0
		}
	}
}

// fmaRowTail is the 8-wide tiers' Go tail: eight scalar accumulators, one
// mul+add per panel column per step.
func fmaRowTail[F Float](c []F, jw int, a []F, aStep, pk int, bp []F, load bool) {
	var c0, c1, c2, c3, c4, c5, c6, c7 F
	if load {
		c0 = c[0]
		if jw > 1 {
			c1 = c[1]
		}
		if jw > 2 {
			c2 = c[2]
		}
		if jw > 3 {
			c3 = c[3]
		}
		if jw > 4 {
			c4 = c[4]
		}
		if jw > 5 {
			c5 = c[5]
		}
		if jw > 6 {
			c6 = c[6]
		}
		if jw > 7 {
			c7 = c[7]
		}
	}
	for t := 0; t < pk; t++ {
		av := a[t*aStep]
		bq := bp[fmaNR*t : fmaNR*t+fmaNR : fmaNR*t+fmaNR]
		c0 += av * bq[0]
		c1 += av * bq[1]
		c2 += av * bq[2]
		c3 += av * bq[3]
		c4 += av * bq[4]
		c5 += av * bq[5]
		c6 += av * bq[6]
		c7 += av * bq[7]
	}
	c[0] = c0
	if jw > 1 {
		c[1] = c1
	}
	if jw > 2 {
		c[2] = c2
	}
	if jw > 3 {
		c[3] = c3
	}
	if jw > 4 {
		c[4] = c4
	}
	if jw > 5 {
		c[5] = c5
	}
	if jw > 6 {
		c[6] = c6
	}
	if jw > 7 {
		c[7] = c7
	}
}

// avx512RowTail is the 16-wide f32 tier's Go tail: the same per-element
// mul+add chain as fmaRowTail, so tail rows stay bit-identical between the
// AVX2 and AVX-512 tiers regardless of panel width.
func avx512RowTail(c []float32, jw int, a []float32, aStep, pk int, bp []float32, load bool) {
	var acc [avx512NR]float32
	if load {
		copy(acc[:jw], c[:jw])
	}
	for t := 0; t < pk; t++ {
		av := a[t*aStep]
		bq := bp[avx512NR*t : avx512NR*t+avx512NR : avx512NR*t+avx512NR]
		for j := 0; j < avx512NR; j++ {
			acc[j] += av * bq[j]
		}
	}
	copy(c[:jw], acc[:jw])
}
