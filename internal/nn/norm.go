package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Batch normalization's per-element state (the normalized cache, outputs and
// gradients) is dtype-bound and flows in the model's element type; the
// per-channel statistics (batch and running mean/variance, inverse stddev)
// are scalars per channel, not per element, so they stay float64 bookkeeping
// at every dtype — the conversion to the compute dtype happens once per
// channel, off the per-element hot path (DESIGN.md §7).

// BatchNorm2D normalizes each channel of [N, C, H, W] activations over the
// batch and spatial dimensions, with learnable scale (gamma) and shift
// (beta). Running statistics are tracked for evaluation mode.
type BatchNorm2D struct {
	ws
	C           int
	Eps         float64
	Momentum    float64
	Gamma, Beta *Param

	RunningMean []float64
	RunningVar  []float64

	// caches for backward (reused across the iterations of a pass)
	xhat           *tensor.Tensor
	invStd         []float64
	inShape        []int
	usedBatchStats bool
	out, dx        *tensor.Tensor
}

// NewBatchNorm2D builds a batch-norm layer for c channels.
func NewBatchNorm2D(c int) *BatchNorm2D {
	bn := &BatchNorm2D{
		C:           c,
		Eps:         1e-5,
		Momentum:    0.9,
		RunningMean: make([]float64, c),
		RunningVar:  make([]float64, c),
	}
	bn.Gamma, bn.Beta = bn.newParam("bn2d.gamma", c), bn.newParam("bn2d.beta", c)
	bn.init(nil)
	return bn
}

// init sets the identity transform — scale 1, shift 0 — and the running
// statistics of a unit normal. It draws nothing.
func (bn *BatchNorm2D) init(*rand.Rand) {
	bn.Gamma.Value.Fill(1)
	bn.Beta.Value.Zero()
	for i := range bn.RunningVar {
		bn.RunningMean[i], bn.RunningVar[i] = 0, 1
	}
}

// Forward normalizes with batch statistics in training mode and running
// statistics in evaluation mode.
func (bn *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != bn.C {
		panic(fmt.Sprintf("nn: BatchNorm2D input shape %v, want [N,%d,H,W]", x.Shape, bn.C))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	bn.inShape = append(bn.inShape[:0], n, c, h, w)
	bn.out = bn.ensure(x.DT, bn.out, n, c, h, w)
	out := bn.out
	bn.xhat = bn.ensure(x.DT, bn.xhat, n, c, h, w)
	if cap(bn.invStd) < c {
		bn.invStd = make([]float64, c)
	}
	bn.invStd = bn.invStd[:c]
	bn.usedBatchStats = train
	if x.DT.Backing() == tensor.F32 {
		bn2dForward(bn, tensor.Of[float32](x), tensor.Of[float32](out), tensor.Of[float32](bn.xhat),
			tensor.Of[float32](bn.Gamma.Value), tensor.Of[float32](bn.Beta.Value), n, c, h, w, train)
	} else {
		bn2dForward(bn, x.Data, out.Data, bn.xhat.Data, bn.Gamma.Value.Data, bn.Beta.Value.Data, n, c, h, w, train)
	}
	return out
}

func bn2dForward[F tensor.Float](bn *BatchNorm2D, xd, outd, xhd, gamma, beta []F, n, c, h, w int, train bool) {
	m := float64(n * h * w)
	for ch := 0; ch < c; ch++ {
		var mean, variance float64
		if train {
			// Reductions accumulate in the element type: bit-identical on the
			// float64 path, and free of per-element widening on float32 (the
			// batch statistics still land in the float64 running buffers).
			var s F
			for i := 0; i < n; i++ {
				s = tensor.SumAcc(s, xd[(i*c+ch)*h*w:(i*c+ch+1)*h*w])
			}
			mean = float64(s) / m
			var sq F
			meanN := F(mean)
			for i := 0; i < n; i++ {
				sq = tensor.SqDiffAcc(sq, xd[(i*c+ch)*h*w:(i*c+ch+1)*h*w], meanN)
			}
			variance = float64(sq) / m
			bn.RunningMean[ch] = bn.Momentum*bn.RunningMean[ch] + (1-bn.Momentum)*mean
			bn.RunningVar[ch] = bn.Momentum*bn.RunningVar[ch] + (1-bn.Momentum)*variance
		} else {
			mean, variance = bn.RunningMean[ch], bn.RunningVar[ch]
		}
		inv := 1 / math.Sqrt(variance+bn.Eps)
		bn.invStd[ch] = inv
		g, b := gamma[ch], beta[ch]
		meanF, invF := F(mean), F(inv)
		for i := 0; i < n; i++ {
			lo, hi := (i*c+ch)*h*w, (i*c+ch+1)*h*w
			tensor.BNNormalize(xd[lo:hi], xhd[lo:hi], outd[lo:hi], meanF, invF, g, b)
		}
	}
}

// Backward implements the standard batch-norm gradient. For each channel
// with m elements: dx = γ·invStd/m · (m·dy − Σdy − x̂·Σ(dy·x̂)).
func (bn *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := bn.inShape[0], bn.inShape[1], bn.inShape[2], bn.inShape[3]
	useGrads(bn.Gamma)
	bn.dx = bn.ensure(grad.DT, bn.dx, n, c, h, w)
	if grad.DT.Backing() == tensor.F32 {
		bn2dBackward(bn, tensor.Of[float32](grad), tensor.Of[float32](bn.xhat), tensor.Of[float32](bn.dx),
			tensor.Of[float32](bn.Gamma.Value), tensor.Of[float32](bn.Gamma.Grad), tensor.Of[float32](bn.Beta.Grad), n, c, h, w)
	} else {
		bn2dBackward(bn, grad.Data, bn.xhat.Data, bn.dx.Data,
			bn.Gamma.Value.Data, bn.Gamma.Grad.Data, bn.Beta.Grad.Data, n, c, h, w)
	}
	return bn.dx
}

func bn2dBackward[F tensor.Float](bn *BatchNorm2D, gradd, xhd, dxd, gamma, dGamma, dBeta []F, n, c, h, w int) {
	m := float64(n * h * w)
	for ch := 0; ch < c; ch++ {
		var sumDy, sumDyXhat F
		for i := 0; i < n; i++ {
			sumDy, sumDyXhat = tensor.DotSumAcc(sumDy, sumDyXhat,
				gradd[(i*c+ch)*h*w:(i*c+ch+1)*h*w], xhd[(i*c+ch)*h*w:(i*c+ch+1)*h*w])
		}
		dGamma[ch] += sumDyXhat
		dBeta[ch] += sumDy
		if !bn.usedBatchStats {
			// Running statistics were constants in Forward, so the
			// normalization is an affine map: dx = γ·invStd·dy.
			scale := F(float64(gamma[ch]) * bn.invStd[ch])
			for i := 0; i < n; i++ {
				gy := gradd[(i*c+ch)*h*w : (i*c+ch+1)*h*w]
				dst := dxd[(i*c+ch)*h*w : (i*c+ch+1)*h*w]
				for p, v := range gy {
					dst[p] = scale * v
				}
			}
			continue
		}
		scale := F(float64(gamma[ch]) * bn.invStd[ch] / m)
		mF := F(m)
		for i := 0; i < n; i++ {
			lo, hi := (i*c+ch)*h*w, (i*c+ch+1)*h*w
			tensor.BNGrad(gradd[lo:hi], xhd[lo:hi], dxd[lo:hi], scale, mF, sumDy, sumDyXhat)
		}
	}
}

// Params returns gamma and beta.
func (bn *BatchNorm2D) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

func (bn *BatchNorm2D) release() {
	dropGrads(bn.Gamma)
	putBack(&bn.out, &bn.xhat, &bn.dx)
}

func (bn *BatchNorm2D) releaseGrad() { putBack(&bn.dx) }

// Buffers returns the running statistics, the layer's non-trainable state.
func (bn *BatchNorm2D) Buffers() [][]float64 {
	return [][]float64{bn.RunningMean, bn.RunningVar}
}
