package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over [N, C, H, W] inputs with optional grouped
// convolution (groups > 1 partitions input and output channels, as in
// ShuffleNet). Weights are stored as [outC, (inC/groups)·kH·kW].
//
// The batch is lowered in blocks: a block is the largest run of samples
// whose im2col matrix [groups·kernelElems, block·outH·outW] fits
// convBlockElems, and each block's lowering, GEMMs and scatter (in backward:
// gather, dW, dcols and col2im) finish before the next block starts, so the
// matrix stays cache-resident between the lowering and the products that
// read it. Only the last block's columns survive a forward, so a training
// Forward keeps its input and Backward lowers each block again, as Dense
// reads its input again; a training batch that fits one block keeps the
// forward's lowering for Backward to reuse.
//
// The im2col, GEMM and gradient scratch is leased for one call, sized and
// typed to match the parameters' dtype, and handed back when the call
// returns; only the output, the input gradient and a single-block training
// lowering outlive it. Steady-state training allocates nothing. See the
// package comment for the workspace lease and the activation aliasing
// contract.
type Conv2D struct {
	ws
	InC, OutC    int
	KH, KW       int
	Stride, Pad  int
	Groups       int
	W, B         *Param
	inH, inW     int // set on Forward
	outH, outW   int
	batch        int
	blk          int // samples per block (the last block may hold fewer)
	inCPerGroup  int
	outCPerGroup int
	kernelElems  int

	// x is a training Forward's input, which Backward lowers again; an
	// evaluation Forward and release clear it. gy is Backward's output
	// gradient for the duration of the call.
	x, gy *tensor.Tensor

	// The current block: samples [b0, b0+bn) of the batch, and what the
	// per-sample range function (task) does to them.
	b0, bn int
	phase  convPhase
	task   func(shard, lo, hi int)

	// Per-call scratch, leased when Forward or Backward starts and handed
	// back when it returns. cols alone may outlive a call: a training
	// Forward whose batch fits one block keeps its lowering for Backward,
	// which hands it back. The backward-only scratch (gmat, dcols, dwt, dbs)
	// is never taken by an evaluation-mode forward.
	cols    *tensor.Tensor // [Groups·kernelElems, blk·spatial] one block's im2col matrix
	gemmOut *tensor.Tensor // [outCPerGroup, blk·spatial] per-group product
	gmat    *tensor.Tensor // [OutC, blk·spatial] one block's gathered output gradient
	dcols   *tensor.Tensor // [Groups·kernelElems, blk·spatial] column gradient; input-gradient calls only
	dwt     *tensor.Tensor // [Groups·kernelElems, outCPerGroup] transposed dW, summed over blocks
	dbs     *tensor.Tensor // [OutC] bias gradient, summed over blocks
	gather  convPhase      // Backward's gather phase: phaseLowerGather unless cols holds the forward's lowering

	out, dx *tensor.Tensor // the output and the input gradient, held past the call

	// Cached per-group views over the workspaces and weights. The weight
	// views are rebuilt on geometry changes, the weight-gradient views
	// retargeted per Backward and the block views per block, so the hot path
	// creates no tensor headers.
	wgV, dwV, dwtV []*tensor.Tensor
	colsV, gmatV   []*tensor.Tensor
	dcolsV         []*tensor.Tensor

	// Group scratch while c leads (group.go).
	ms     []*Conv2D
	launch launch
}

// convBlockElems is the im2col element budget of one block: 768 KB at
// float64, which leaves room in a 2 MB L2 for the column gradient of the
// same block. It splits the 8→8 3×3 convolution at 12×12 of a contrastive
// batch of 32 (324 Ki elements whole) into four blocks, while the 8→16 one
// at 6×6 (81 Ki) stays a single block and pays no re-lowering.
const convBlockElems = 96 << 10

// convPhase selects what Conv2D.task does to each sample of the current
// block.
type convPhase uint8

const (
	phaseLower       convPhase = iota // im2col from x
	phaseLowerGather                  // im2col from x, then phaseGather
	phaseGather                       // gather gy into gmat
	phaseCol2im                       // scatter dcols into dx
)

// NewConv2D constructs a grouped convolution layer with He-normal weights.
func NewConv2D(inC, outC, k, stride, pad, groups int, rng *rand.Rand) *Conv2D {
	if groups < 1 || inC%groups != 0 || outC%groups != 0 {
		panic(fmt.Sprintf("nn: Conv2D groups=%d must divide inC=%d and outC=%d", groups, inC, outC))
	}
	c := &Conv2D{
		InC: inC, OutC: outC, KH: k, KW: k, Stride: stride, Pad: pad, Groups: groups,
		inCPerGroup:  inC / groups,
		outCPerGroup: outC / groups,
	}
	c.kernelElems = c.inCPerGroup * k * k
	c.W, c.B = c.newParam("conv.W", outC, c.kernelElems), c.newParam("conv.B", outC)
	c.task = c.runRange
	c.init(rng)
	return c
}

// init draws He-normal kernels and zeroes the biases (see Dense.init).
func (c *Conv2D) init(rng *rand.Rand) {
	heInit(c.W.Value, c.kernelElems, rng)
	c.B.Value.Zero()
}

// OutputShape returns the spatial output size for a given input size.
func (c *Conv2D) OutputShape(h, w int) (int, int) {
	oh := (h+2*c.Pad-c.KH)/c.Stride + 1
	ow := (w+2*c.Pad-c.KW)/c.Stride + 1
	return oh, ow
}

// blockSamples is the block rule: as many samples as fit convBlockElems
// columns of the lowering, at least one, at most the batch.
func (c *Conv2D) blockSamples(n int) int {
	return min(n, max(1, convBlockElems/(c.Groups*c.kernelElems*c.outH*c.outW)))
}

// blocks reports how many blocks the current batch lowers in.
func (c *Conv2D) blocks() int { return (c.batch + c.blk - 1) / c.blk }

// ensureWorkspace sets the block geometry and rebuilds the weight views when
// the input geometry (or the model dtype) changes; with a stable geometry
// it is a cheap no-op.
func (c *Conv2D) ensureWorkspace(n, h, w int) {
	dt := c.W.Value.DT
	oh, ow := c.OutputShape(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: Conv2D output %dx%d not positive for input %dx%d", oh, ow, h, w))
	}
	if n == c.batch && h == c.inH && w == c.inW && len(c.wgV) == c.Groups && c.wgV[0].DT == dt {
		return
	}
	c.batch, c.inH, c.inW, c.outH, c.outW = n, h, w, oh, ow
	c.blk = c.blockSamples(n)
	ke := c.kernelElems
	if len(c.wgV) != c.Groups {
		c.wgV = make([]*tensor.Tensor, c.Groups)
		c.dwV = make([]*tensor.Tensor, c.Groups)
		c.dwtV = make([]*tensor.Tensor, c.Groups)
		c.colsV = make([]*tensor.Tensor, c.Groups)
		c.gmatV = make([]*tensor.Tensor, c.Groups)
		c.dcolsV = make([]*tensor.Tensor, c.Groups)
	}
	for g := 0; g < c.Groups; g++ {
		wlo, whi := g*c.outCPerGroup*ke, (g+1)*c.outCPerGroup*ke
		setView(&c.wgV[g], c.W.Value, wlo, whi, c.outCPerGroup, ke)
	}
}

// leaseForward takes a forward call's scratch, sized to the current
// geometry: the lowering (unless a single-block training forward left it)
// and the product.
func (c *Conv2D) leaseForward() {
	dt, sp := c.W.Value.DT, c.blk*c.outH*c.outW
	c.cols = c.ensure(dt, c.cols, c.Groups*c.kernelElems, sp)
	c.gemmOut = c.ensure(dt, c.gemmOut, c.outCPerGroup, sp)
}

// leaseBackward takes a backward call's scratch, sized to the geometry of
// the preceding Forward, and points the weight-gradient views at it. When
// the forward's lowering is gone (a multi-block batch, or a second Backward)
// the gather lowers each block again into fresh columns. Only a call that
// computes the input gradient takes the column gradient.
func (c *Conv2D) leaseBackward(inputGrad bool) {
	dt := c.W.Value.DT
	ke, ocg := c.kernelElems, c.outCPerGroup
	sp := c.blk * c.outH * c.outW
	c.gather = phaseGather
	if c.cols == nil {
		c.cols = c.ensure(dt, nil, c.Groups*ke, sp)
		c.gather = phaseLowerGather
	}
	c.gmat = c.ensure(dt, c.gmat, c.OutC, sp)
	if inputGrad {
		c.dcols = c.ensure(dt, c.dcols, c.Groups*ke, sp)
	}
	c.dwt = c.ensure(dt, c.dwt, c.Groups*ke, ocg)
	c.dbs = c.ensure(dt, c.dbs, c.OutC)
	useGrads(c.W)
	for g := 0; g < c.Groups; g++ {
		setView(&c.dwV[g], c.W.Grad, g*ocg*ke, (g+1)*ocg*ke, ocg, ke)
		setView(&c.dwtV[g], c.dwt, g*ke*ocg, (g+1)*ke*ocg, ke, ocg)
	}
}

// hasBlock reports whether block b holds any of the batch's samples.
func (c *Conv2D) hasBlock(b int) bool { return b*c.blk < c.batch }

// setBlock makes block b current: samples [b·blk, min((b+1)·blk, N)), with
// the group views of the lowering (and, in backward, of the gradient
// workspaces) retargeted at its width.
func (c *Conv2D) setBlock(b int, backward bool) {
	c.b0 = b * c.blk
	c.bn = min(c.blk, c.batch-c.b0)
	ke, ocg, w := c.kernelElems, c.outCPerGroup, c.bn*c.outH*c.outW
	for g := 0; g < c.Groups; g++ {
		setView(&c.colsV[g], c.cols, g*ke*w, (g+1)*ke*w, ke, w)
		if backward {
			if c.dcols != nil {
				setView(&c.dcolsV[g], c.dcols, g*ke*w, (g+1)*ke*w, ke, w)
			}
			setView(&c.gmatV[g], c.gmat, g*ocg*w, (g+1)*ocg*w, ocg, w)
		}
	}
	if !backward {
		c.gemmOut = c.ensure(c.gemmOut.DT, c.gemmOut, ocg, w)
	}
}

// runPhase runs the current phase over every sample of the current block on
// the worker pool. task is built once per layer, so a dispatch allocates
// nothing however many blocks a batch has.
func (c *Conv2D) runPhase(p convPhase) {
	c.phase = p
	tensor.ParallelSharded(c.bn, tensor.Workers(), c.task)
}

// runRange is task: the current phase over samples [lo,hi) of the current
// block.
func (c *Conv2D) runRange(_, lo, hi int) {
	if c.cols.DT.Backing() == tensor.F32 {
		convRange[float32](c, lo, hi)
	} else {
		convRange[float64](c, lo, hi)
	}
}

func convRange[F tensor.Float](c *Conv2D, lo, hi int) {
	w := c.bn * c.outH * c.outW
	for j := lo; j < hi; j++ {
		i := c.b0 + j
		switch c.phase {
		case phaseLower:
			im2col(c, tensor.Of[F](c.x), tensor.Of[F](c.cols), i, j, w)
		case phaseLowerGather:
			im2col(c, tensor.Of[F](c.x), tensor.Of[F](c.cols), i, j, w)
			convGatherGrad(c, tensor.Of[F](c.gy), tensor.Of[F](c.gmat), i, j, w)
		case phaseGather:
			convGatherGrad(c, tensor.Of[F](c.gy), tensor.Of[F](c.gmat), i, j, w)
		case phaseCol2im:
			col2im(c, tensor.Of[F](c.dcols), tensor.Of[F](c.dx), i, j, w)
		}
	}
}

// setView retargets a cached rank-2 view header at elements [lo,hi) of a
// workspace tensor, allocating the header only once per group.
func setView(vp **tensor.Tensor, src *tensor.Tensor, lo, hi, r, cols int) {
	v := *vp
	if v == nil {
		v = &tensor.Tensor{}
		*vp = v
	}
	tensor.ViewInto(v, src, lo, hi, r, cols)
}

// Forward computes the convolution for a batch [N, C, H, W], as a group of
// one.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	cs, acts := [1]*Conv2D{c}, [1]*tensor.Tensor{x}
	convForward(cs[:], acts[:], train)
	return acts[0]
}

func (c *Conv2D) forwardGroup(ls []Layer, acts []*tensor.Tensor, train bool) {
	convForward(members(&c.ms, ls), acts, train)
	drop(&c.ms)
}

// convForward is the forward block driver, the group step: for each block
// index, every member lowers its block, then per channel group the members'
// products run as fused launches and each member scatters its product,
// bias fused, into its output. The output columns are independent, so the
// blocks change no bit of the whole-batch product. The members' scratch goes
// back to the arena together after the last block, since a fused launch reads
// every member's block at once.
func convForward(cs []*Conv2D, acts []*tensor.Tensor, train bool) {
	nb := 0
	for g, c := range cs {
		x := acts[g]
		if c.Groups != cs[0].Groups {
			panic("nn: Conv2D group members differ in channel groups")
		}
		if x.Rank() != 4 || x.Dim(1) != c.InC {
			panic(fmt.Sprintf("nn: Conv2D.Forward input shape %v, want [N,%d,H,W]", x.Shape, c.InC))
		}
		if x.DT != c.W.Value.DT {
			panic(fmt.Sprintf("nn: Conv2D.Forward input dtype %v, model is %v (cast inputs at the model boundary)", x.DT, c.W.Value.DT))
		}
		n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
		c.ensureWorkspace(n, h, w)
		c.leaseForward()
		c.x = x
		c.out = c.ensure(x.DT, c.out, n, c.OutC, c.outH, c.outW)
		acts[g] = c.out
		nb = max(nb, c.blocks())
	}
	l := &cs[0].launch
	for b := 0; b < nb; b++ {
		for _, c := range cs {
			if c.hasBlock(b) {
				c.setBlock(b, false)
				c.runPhase(phaseLower)
			}
		}
		for grp := 0; grp < cs[0].Groups; grp++ {
			l.run(cs, b, productW, grp)
			for g, c := range cs {
				if !c.hasBlock(b) {
					continue
				}
				if y := acts[g]; y.DT.Backing() == tensor.F32 {
					convScatterGroup(c, tensor.Of[float32](y), tensor.Of[float32](c.gemmOut), tensor.Of[float32](c.B.Value), grp)
				} else {
					convScatterGroup(c, y.Data, c.gemmOut.Data, c.B.Value.Data, grp)
				}
			}
		}
	}
	for _, c := range cs {
		putBack(&c.gemmOut)
		if !train || c.blocks() > 1 {
			putBack(&c.cols)
		}
		if !train {
			c.x = nil
		}
	}
}

// convScatterGroup scatters one group's [outCPerGroup, bn·spatial] product
// of the current block back to the per-sample layout, fusing the bias add.
func convScatterGroup[F tensor.Float](c *Conv2D, outd, gemmOutd, bias []F, g int) {
	spatial := c.outH * c.outW
	w := c.bn * spatial
	for oc := 0; oc < c.outCPerGroup; oc++ {
		ch := g*c.outCPerGroup + oc
		b := bias[ch]
		src := gemmOutd[oc*w : (oc+1)*w]
		for j := 0; j < c.bn; j++ {
			i := c.b0 + j
			tensor.AddScalarInto(outd[(i*c.OutC+ch)*spatial:(i*c.OutC+ch+1)*spatial],
				src[j*spatial:(j+1)*spatial], b)
		}
	}
}

// convInitsDX reports whether col2im's same-size fast path initializes every
// dx channel plane itself (first tap writes, later taps accumulate); callers
// only pre-zero dx when it does not.
func (c *Conv2D) convInitsDX() bool {
	return c.Stride == 1 && c.outW == c.inW && c.outH == c.inH
}

// Backward accumulates dW, dB and returns dX, as a group of one. It lowers
// each block of the preceding training Forward's input again (the first
// Backward after a single-block training Forward reuses its lowering), so
// it must follow a training-mode Forward.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	cs, acts := [1]*Conv2D{c}, [1]*tensor.Tensor{grad}
	convBackward(cs[:], acts[:], true)
	return acts[0]
}

func (c *Conv2D) backwardGroup(ls []Layer, acts []*tensor.Tensor) {
	convBackward(members(&c.ms, ls), acts, true)
	drop(&c.ms)
}

func (c *Conv2D) backwardParamsGroup(ls []Layer, grads []*tensor.Tensor) {
	convBackward(members(&c.ms, ls), grads, false)
	drop(&c.ms)
}

// convBackward is the backward block driver, the group step. Per block,
// every member re-lowers its block and gathers the output gradient into
// channel-major order, then per channel group the dW and dcols products run
// as fused launches, then every member scatters its column gradient into
// dx. dW is the one reduction over samples: dWᵀ = cols·gmatᵀ is an Into at
// block 0 and an Acc after, in ascending sample order, and the kernels run
// one multiply-add chain per element across those calls, so the sum is the
// whole-batch product's bit for bit. It and the bias sums reach the
// parameter gradients once, after the last block, and the members' scratch
// goes back to the arena together. Without inputGrad the members compute
// parameter gradients alone: no dx or dcols is leased, no dx cleared or
// scattered into, no dcols product runs, and acts is left as it is.
func convBackward(cs []*Conv2D, acts []*tensor.Tensor, inputGrad bool) {
	nb := 0
	for g, c := range cs {
		grad := acts[g]
		if c.x == nil {
			panic("nn: Conv2D.Backward without a training-mode Forward: an evaluation Forward keeps no input to lower again")
		}
		if grad.Rank() != 4 || grad.Dim(0) != c.batch || grad.Dim(1) != c.OutC {
			panic(fmt.Sprintf("nn: Conv2D.Backward grad shape %v does not match forward batch %d", grad.Shape, c.batch))
		}
		c.leaseBackward(inputGrad)
		c.gy = grad
		if inputGrad {
			c.dx = c.ensure(grad.DT, c.dx, c.batch, c.InC, c.inH, c.inW)
			if !c.convInitsDX() {
				c.dx.Zero()
			}
			acts[g] = c.dx
		}
		nb = max(nb, c.blocks())
	}
	l := &cs[0].launch
	for b := 0; b < nb; b++ {
		for _, c := range cs {
			if c.hasBlock(b) {
				c.setBlock(b, true)
				c.runPhase(c.gather)
				if c.dbs.DT.Backing() == tensor.F32 {
					convBiasSums(c, tensor.Of[float32](c.gmat), tensor.Of[float32](c.dbs), b == 0)
				} else {
					convBiasSums(c, c.gmat.Data, c.dbs.Data, b == 0)
				}
			}
		}
		dw := productDWInto
		if b > 0 {
			dw = productDWAcc
		}
		for grp := 0; grp < cs[0].Groups; grp++ {
			l.run(cs, b, dw, grp)
			if inputGrad {
				l.run(cs, b, productDCols, grp)
			}
		}
		if !inputGrad {
			continue
		}
		for _, c := range cs {
			if c.hasBlock(b) {
				c.runPhase(phaseCol2im)
			}
		}
	}
	for _, c := range cs {
		if c.dbs.DT.Backing() == tensor.F32 {
			convApplyGrads(c, tensor.Of[float32](c.B.Grad), tensor.Of[float32](c.dbs))
		} else {
			convApplyGrads(c, c.B.Grad.Data, c.dbs.Data)
		}
		c.gy = nil
		putBack(&c.cols, &c.gmat, &c.dcols, &c.dwt, &c.dbs)
	}
}

// convGatherGrad copies sample i of the output gradient into column block
// j of the [OutC, w] channel-major gather, so the weight and column
// gradients are one GEMM per group each.
func convGatherGrad[F tensor.Float](c *Conv2D, gradd, gm []F, i, j, w int) {
	spatial := c.outH * c.outW
	src := gradd[i*c.OutC*spatial : (i+1)*c.OutC*spatial]
	for ch := 0; ch < c.OutC; ch++ {
		copy(gm[ch*w+j*spatial:ch*w+(j+1)*spatial], src[ch*spatial:(ch+1)*spatial])
	}
}

// convBiasSums folds the current block's gathered gradient into the
// per-channel running sums, one addition chain per channel in ascending
// sample order; the first block starts the chains.
func convBiasSums[F tensor.Float](c *Conv2D, gm, dbs []F, first bool) {
	w := c.bn * c.outH * c.outW
	for ch := 0; ch < c.OutC; ch++ {
		var s F
		if !first {
			s = dbs[ch]
		}
		for _, v := range gm[ch*w : (ch+1)*w] {
			s += v
		}
		dbs[ch] = s
	}
}

// convApplyGrads adds the summed bias gradient and the transposed weight
// gradient, each once, to the parameter gradients. dW is zero on entry
// (a step's gradients come into use zeroed), so scattering the transpose
// is bit-identical to accumulating the direct product.
func convApplyGrads[F tensor.Float](c *Conv2D, db, dbs []F) {
	for ch, s := range dbs {
		db[ch] += s
	}
	for g := 0; g < c.Groups; g++ {
		addTransposed(tensor.Of[F](c.dwV[g]), tensor.Of[F](c.dwtV[g]), c.outCPerGroup, c.kernelElems)
	}
}

// convProduct names the GEMMs of a block, per channel group g.
type convProduct uint8

const (
	productW      convProduct = iota // gemmOut = W_g · cols_g
	productDWInto                    // dWᵀ_g = cols_g · gmat_gᵀ, the first block
	productDWAcc                     // dWᵀ_g += cols_g · gmat_gᵀ, every later block
	productDCols                     // dcols_g = W_gᵀ · gmat_g
)

// operands returns product p's output and operands for group g of the
// current block. dWᵀ rather than dW: the A·Bᵀ kernel transpose-packs its
// second operand, and gmat_g (outCPerGroup rows) is an order of magnitude
// shorter than cols_g (kernelElems rows), so this form packs ~10× fewer
// elements and reuses each panel across every kernelElems output row.
func (c *Conv2D) operands(p convProduct, g int) (out, a, b *tensor.Tensor) {
	switch p {
	case productW:
		return c.gemmOut, c.wgV[g], c.colsV[g]
	case productDCols:
		return c.dcolsV[g], c.wgV[g], c.gmatV[g]
	default:
		return c.dwtV[g], c.colsV[g], c.gmatV[g]
	}
}

// run issues product p for group g of block b of every member that has the
// block: members whose block widths match share one batched launch, which
// computes each product bit for bit as its standalone call.
func (l *launch) run(cs []*Conv2D, b int, p convProduct, g int) {
	fused := sized(&l.fused, len(cs))
	clear(fused)
	for lead, c0 := range cs {
		if fused[lead] || !c0.hasBlock(b) {
			continue
		}
		l.reset()
		for m := lead; m < len(cs); m++ {
			c := cs[m]
			if fused[m] || !c.hasBlock(b) || c.bn*c.outH*c.outW != c0.bn*c0.outH*c0.outW {
				continue
			}
			fused[m] = true
			l.add(c.operands(p, g))
		}
		runProducts(p, l.outs, l.as, l.bs)
	}
}

func runProducts(p convProduct, outs, as, bs []*tensor.Tensor) {
	switch p {
	case productW:
		tensor.MatMulBatchInto(outs, as, bs)
	case productDWInto:
		tensor.MatMulBatchABTInto(outs, as, bs)
	case productDWAcc:
		tensor.MatMulBatchABTAcc(outs, as, bs)
	default:
		tensor.MatMulBatchATBInto(outs, as, bs)
	}
}

// addTransposed accumulates dst += srcᵀ where dst is m×n and src is n×m,
// both row-major. Reads src sequentially; the strided writes touch only the
// small dst (a per-group weight-gradient block).
func addTransposed[F tensor.Float](dst, src []F, m, n int) {
	for j := 0; j < n; j++ {
		col := src[j*m : (j+1)*m]
		for i, v := range col {
			dst[i*n+j] += v
		}
	}
}

// Params returns the kernel and bias parameters.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// release also forgets the geometry and the retained input, so the next
// Forward rebuilds every group view, and a Backward before it fails. The
// per-call scratch is already back in the arena.
func (c *Conv2D) release() {
	dropGrads(c.W)
	putBack(&c.out, &c.cols, &c.dx)
	for _, vs := range [][]*tensor.Tensor{c.wgV, c.dwV, c.dwtV, c.colsV, c.gmatV, c.dcolsV} {
		dropViews(vs)
	}
	c.x, c.gy = nil, nil
	c.batch = 0
	c.launch.release()
}

func (c *Conv2D) releaseGrad() { putBack(&c.dx) }

// im2col unrolls sample i of x into column block j of the current block's
// im2col matrix, whose rows are ns wide: cols[row, j·spatial + p] holds the
// receptive-field element `row` of output pixel p. Every position is
// written, so the workspace needs no zeroing between blocks. For stride 1
// (every convolution in the model zoo) each output row is zero-pad, one
// contiguous copy, zero-pad — a memmove instead of a bounds check per pixel,
// which matters twice over on the float32 path where the same move touches
// half the bytes.
func im2col[F tensor.Float](c *Conv2D, xd, colsd []F, i, j, ns int) {
	spatial := c.outH * c.outW
	chanSize := c.inH * c.inW
	base := i * c.InC * chanSize
	for ch := 0; ch < c.InC; ch++ {
		g := ch / c.inCPerGroup
		chInG := ch % c.inCPerGroup
		src := xd[base+ch*chanSize : base+(ch+1)*chanSize]
		for kh := 0; kh < c.KH; kh++ {
			ihOff := kh - c.Pad
			for kw := 0; kw < c.KW; kw++ {
				rowIdx := g*c.kernelElems + (chInG*c.KH+kh)*c.KW + kw
				dst := colsd[rowIdx*ns+j*spatial : rowIdx*ns+(j+1)*spatial]
				if c.Stride == 1 {
					off := kw - c.Pad
					if ihOff == 0 && off == 0 && c.outW == c.inW && c.outH == c.inH {
						// The center (or 1×1) tap of a same-size convolution
						// reads the whole channel verbatim: one memmove.
						copy(dst, src)
						continue
					}
					lo, hi, _ := rowSpan(c.outW, c.inW, off)
					ohLo, ohHi := rowBand(c.outH, c.inH, ihOff)
					if c.outW == c.inW && c.outH == c.inH {
						// Same-size tap: dst[oh·W+ow] = src[(oh+dy)·W+ow+dx]
						// is one plane-wide shift, so the whole valid region
						// copies as a single memmove. The elements that wrap
						// across row boundaries land exactly on the zero-pad
						// columns and are overwritten below.
						shift := ihOff*c.inW + off
						dlo := 0
						if shift < 0 {
							dlo = -shift
						}
						dhi := len(dst)
						if limit := len(dst) - shift; dhi > limit {
							dhi = limit
						}
						copy(dst[dlo:dhi], src[dlo+shift:dhi+shift])
						zeroSpan(dst[:ohLo*c.outW])
						zeroSpan(dst[ohHi*c.outW:])
						zeroCols(dst[ohLo*c.outW:ohHi*c.outW], c.outW, lo, hi)
						continue
					}
					// Valid output rows form one contiguous band; everything
					// in the band copies as one strided-rows kernel call and
					// the zero padding splits into the boundary rows (one
					// contiguous memclr each) plus the row edges.
					zeroSpan(dst[:ohLo*c.outW])
					zeroSpan(dst[ohHi*c.outW:])
					for oh := ohLo; oh < ohHi; oh++ {
						zeroSpan(dst[oh*c.outW : oh*c.outW+lo])
						zeroSpan(dst[oh*c.outW+hi : (oh+1)*c.outW])
					}
					if ohHi > ohLo && hi > lo {
						tensor.CopyRows(dst[ohLo*c.outW+lo:], src[(ohLo+ihOff)*c.inW+off+lo:],
							ohHi-ohLo, hi-lo, c.outW, c.inW)
					}
					continue
				}
				p := 0
				for oh := 0; oh < c.outH; oh++ {
					ih := oh*c.Stride - c.Pad + kh
					if ih < 0 || ih >= c.inH {
						row := dst[p : p+c.outW]
						for j := range row {
							row[j] = 0
						}
						p += c.outW
						continue
					}
					rowBase := ih * c.inW
					for ow := 0; ow < c.outW; ow++ {
						iw := ow*c.Stride - c.Pad + kw
						if iw >= 0 && iw < c.inW {
							dst[p] = src[rowBase+iw]
						} else {
							dst[p] = 0
						}
						p++
					}
				}
			}
		}
	}
}

// rowSpan returns the [lo,hi) range of output columns whose input column
// iw = ow + off lies in [0, inW), for a stride-1 row.
func rowSpan(outW, inW, off int) (lo, hi, offOut int) {
	lo = 0
	if off < 0 {
		lo = -off
	}
	hi = outW
	if limit := inW - off; hi > limit {
		hi = limit
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi, off
}

// rowBand returns the [ohLo,ohHi) range of output rows whose input row
// ih = oh + ihOff lies in [0, inH), clamped to [0, outH).
func rowBand(outH, inH, ihOff int) (ohLo, ohHi int) {
	ohLo = 0
	if ihOff < 0 {
		ohLo = -ihOff
	}
	if ohLo > outH {
		ohLo = outH
	}
	ohHi = outH
	if limit := inH - ihOff; ohHi > limit {
		ohHi = limit
	}
	if ohHi < ohLo {
		ohHi = ohLo
	}
	return ohLo, ohHi
}

// zeroSpan clears a slice (compiled to a memclr).
func zeroSpan[F tensor.Float](s []F) {
	for i := range s {
		s[i] = 0
	}
}

// zeroCols clears columns [0,lo) and [hi,w) of every w-wide row of plane.
// The one-column edges of a 3×3/pad-1 tap compile to a single strided store
// per row instead of a subslice per row.
func zeroCols[F tensor.Float](plane []F, w, lo, hi int) {
	if lo == 1 {
		for q := 0; q < len(plane); q += w {
			plane[q] = 0
		}
	} else if lo > 1 {
		for base := 0; base < len(plane); base += w {
			for q := base; q < base+lo; q++ {
				plane[q] = 0
			}
		}
	}
	if hi == w-1 {
		for q := w - 1; q < len(plane); q += w {
			plane[q] = 0
		}
	} else if hi < w-1 {
		for base := 0; base < len(plane); base += w {
			for q := base + hi; q < base+w; q++ {
				plane[q] = 0
			}
		}
	}
}

// col2im scatters column block j of the current block's gradient matrix
// (rows ns wide) back into sample i of dx, accumulating where receptive
// fields overlap. Stride-1 rows accumulate over one contiguous span with no
// per-pixel bounds checks. In the same-size geometry the first tap
// initializes each channel plane (copy plus edge clears), so callers skip
// zeroing dx beforehand; every other geometry accumulates into a
// caller-zeroed dx (see convInitsDX).
func col2im[F tensor.Float](c *Conv2D, dcolsd, dxd []F, i, j, ns int) {
	spatial := c.outH * c.outW
	chanSize := c.inH * c.inW
	base := i * c.InC * chanSize
	fast := c.convInitsDX()
	for ch := 0; ch < c.InC; ch++ {
		g := ch / c.inCPerGroup
		chInG := ch % c.inCPerGroup
		dst := dxd[base+ch*chanSize : base+(ch+1)*chanSize]
		init := fast
		for kh := 0; kh < c.KH; kh++ {
			ihOff := kh - c.Pad
			for kw := 0; kw < c.KW; kw++ {
				rowIdx := g*c.kernelElems + (chInG*c.KH+kh)*c.KW + kw
				src := dcolsd[rowIdx*ns+j*spatial : rowIdx*ns+(j+1)*spatial]
				if c.Stride == 1 {
					off := kw - c.Pad
					if ihOff == 0 && off == 0 && c.outW == c.inW && c.outH == c.inH {
						// Center/1×1 tap: one whole-channel accumulate.
						if init {
							copy(dst, src)
							init = false
						} else {
							tensor.VecAccumulate(dst, src)
						}
						continue
					}
					lo, hi, _ := rowSpan(c.outW, c.inW, off)
					ohLo, ohHi := rowBand(c.outH, c.inH, ihOff)
					if c.outW == c.inW && c.outH == c.inH {
						// Same-size tap: the scatter dst[q+shift] += src[q]
						// is one plane-wide accumulate. src is the dcols
						// scratch (rebuilt by the next backward), so the pad
						// columns can be zeroed in place first; the positions
						// that would wrap across row boundaries read exactly
						// those zeroed elements and the out-of-band rows clip
						// against the plane bounds.
						shift := ihOff*c.inW + off
						zeroCols(src, c.outW, lo, hi)
						qlo := 0
						if shift < 0 {
							qlo = -shift
						}
						qhi := len(src)
						if limit := len(src) - shift; qhi > limit {
							qhi = limit
						}
						if init {
							// First tap of the channel plane: write instead
							// of accumulate and clear the clipped margins, so
							// dx needs no up-front zeroing.
							zeroSpan(dst[:qlo+shift])
							copy(dst[qlo+shift:qhi+shift], src[qlo:qhi])
							zeroSpan(dst[qhi+shift:])
							init = false
						} else {
							tensor.VecAccumulate(dst[qlo+shift:qhi+shift], src[qlo:qhi])
						}
						continue
					}
					if ohHi > ohLo && hi > lo {
						tensor.AccumulateRows(dst[(ohLo+ihOff)*c.inW+off+lo:], src[ohLo*c.outW+lo:],
							ohHi-ohLo, hi-lo, c.inW, c.outW)
					}
					continue
				}
				p := 0
				for oh := 0; oh < c.outH; oh++ {
					ih := oh*c.Stride - c.Pad + kh
					if ih < 0 || ih >= c.inH {
						p += c.outW
						continue
					}
					rowBase := ih * c.inW
					for ow := 0; ow < c.outW; ow++ {
						iw := ow*c.Stride - c.Pad + kw
						if iw >= 0 && iw < c.inW {
							dst[rowBase+iw] += src[p]
						}
						p++
					}
				}
			}
		}
	}
}
