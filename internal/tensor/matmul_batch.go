package tensor

// Cross-client batched GEMM: each entry point computes G independent
// products outs[g] (+)= op(as[g], bs[g]) in one worker-pool dispatch. The
// federated engine uses these to lower a same-arch cohort's per-layer
// products — one per client — into a single launch per layer instead of G.
//
// Determinism contract (DESIGN.md §12): a batched call is byte-identical to
// the G standalone calls at every GOMAXPROCS. Both go through runGemm, so
// each product keeps the shard plan the standalone call would get — same
// kernel tier, same tile-aligned [lo,hi) ranges — and the fused dispatch
// only changes *which goroutine* runs a (product, shard) unit, never the
// arithmetic inside it. Products with non-uniform shapes or dtypes fall back
// to sequential standalone calls, which trivially preserves the contract.

// batchUniform reports whether every product in the batch shares the shapes
// and backing dtype of product 0, so one shard plan serves all of them
// (gemmDims has already matched each product's operands to its output).
func batchUniform(outs, as, bs []*Tensor) bool {
	a0, b0 := as[0], bs[0]
	dt := outs[0].DT.Backing()
	for g := 1; g < len(outs); g++ {
		if as[g].Shape[0] != a0.Shape[0] || as[g].Shape[1] != a0.Shape[1] ||
			bs[g].Shape[0] != b0.Shape[0] || bs[g].Shape[1] != b0.Shape[1] ||
			outs[g].DT.Backing() != dt {
			return false
		}
	}
	return true
}

// MatMulBatchInto computes outs[g] = as[g]·bs[g] for every g (see MatMulInto).
func MatMulBatchInto(outs, as, bs []*Tensor) { batchGemm(opNN, outs, as, bs, false) }

// MatMulBatchATBInto computes outs[g] = as[g]ᵀ·bs[g] (see MatMulATBInto).
func MatMulBatchATBInto(outs, as, bs []*Tensor) { batchGemm(opATB, outs, as, bs, false) }

// MatMulBatchATBAcc computes outs[g] += as[g]ᵀ·bs[g] (see MatMulATBAcc).
func MatMulBatchATBAcc(outs, as, bs []*Tensor) { batchGemm(opATB, outs, as, bs, true) }

// MatMulBatchABTInto computes outs[g] = as[g]·bs[g]ᵀ (see MatMulABTInto).
func MatMulBatchABTInto(outs, as, bs []*Tensor) { batchGemm(opABT, outs, as, bs, false) }

// MatMulBatchABTAcc computes outs[g] += as[g]·bs[g]ᵀ (see MatMulABTAcc).
func MatMulBatchABTAcc(outs, as, bs []*Tensor) { batchGemm(opABT, outs, as, bs, true) }

func batchGemm(op gemmOp, outs, as, bs []*Tensor, acc bool) {
	if len(outs) != len(as) || len(outs) != len(bs) {
		panic("tensor: batched GEMM length mismatch")
	}
	if len(outs) == 0 {
		return
	}
	rows, red, cols := gemmDims(op, outs[0], as[0], bs[0])
	for g := 1; g < len(outs); g++ {
		gemmDims(op, outs[g], as[g], bs[g])
	}
	if !batchUniform(outs, as, bs) {
		for g := range outs {
			gemm(op, outs[g], as[g], bs[g], acc)
		}
		return
	}
	runGemm(op, gemmSet{outs: outs, as: as, bs: bs}, rows, red, cols, acc)
}
