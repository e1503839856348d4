package data

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Augmenter produces the stochastic perturbed views x' and x” used by the
// supervised contrastive loss: random integer shifts, optional horizontal
// flips, and additive Gaussian pixel noise. It mirrors the light geometric +
// photometric augmentations the paper applies.
type Augmenter struct {
	C, H, W  int
	MaxShift int     // maximum absolute shift in pixels per axis
	Flip     bool    // enable horizontal flips (used for the CIFAR stand-in)
	NoiseStd float64 // additive Gaussian pixel noise
}

// NewAugmenter builds an augmenter with the defaults used throughout the
// experiments (shift ±1, noise 0.05; flips enabled for RGB datasets).
func NewAugmenter(c, h, w int) *Augmenter {
	return &Augmenter{C: c, H: h, W: w, MaxShift: 1, Flip: c == 3, NoiseStd: 0.05}
}

// Apply returns a fresh augmented copy of x (length C·H·W).
func (a *Augmenter) Apply(x []float64, rng *rand.Rand) []float64 {
	out := make([]float64, len(x))
	augment(a, out, x, rng, func(v float64) float64 { return v })
	return out
}

// TwoViews returns two independent augmentations of x.
func (a *Augmenter) TwoViews(x []float64, rng *rand.Rand) ([]float64, []float64) {
	return a.Apply(x, rng), a.Apply(x, rng)
}

// WriteAt writes one augmentation of x into dst's elements [off,
// off+len(x)), narrowing each pixel to dst's dtype as WriteFloat64sAt does:
// the same bytes as WriteFloat64sAt(off, Apply(x, rng)), from the same rng
// draws, without the intermediate slice.
func (a *Augmenter) WriteAt(dst *tensor.Tensor, off int, x []float64, rng *rand.Rand) {
	switch dst.DT {
	case tensor.F32:
		augment(a, dst.F32[off:off+len(x)], x, rng, func(v float64) float32 { return float32(v) })
	case tensor.BF16:
		augment(a, dst.F32[off:off+len(x)], x, rng, func(v float64) float32 { return tensor.RoundBF16(float32(v)) })
	default:
		augment(a, dst.Data[off:off+len(x)], x, rng, func(v float64) float64 { return v })
	}
}

// augment is the one augmentation: a random integer shift, an optional
// horizontal flip and Gaussian pixel noise, in float64, each pixel clamped
// and narrowed into out. The draws are the shift, the flip, then one normal
// per pixel in C·H·W order.
func augment[F tensor.Float](a *Augmenter, out []F, x []float64, rng *rand.Rand, narrow func(float64) F) {
	dy := 0
	dx := 0
	if a.MaxShift > 0 {
		dy = rng.Intn(2*a.MaxShift+1) - a.MaxShift
		dx = rng.Intn(2*a.MaxShift+1) - a.MaxShift
	}
	flip := a.Flip && rng.Intn(2) == 1
	for c := 0; c < a.C; c++ {
		base := c * a.H * a.W
		for i := 0; i < a.H; i++ {
			si := i + dy
			for j := 0; j < a.W; j++ {
				sj := j + dx
				if flip {
					sj = a.W - 1 - sj
				}
				var v float64
				if si >= 0 && si < a.H && sj >= 0 && sj < a.W {
					v = x[base+si*a.W+sj]
				}
				if a.NoiseStd > 0 {
					v += rng.NormFloat64() * a.NoiseStd
				}
				out[base+i*a.W+j] = narrow(clamp(v, -1.5, 1.5))
			}
		}
	}
}

func clamp(v, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, v))
}

// Helper math wrappers used by the partitioner's Gamma sampler; isolated
// here so partition.go stays free of direct math imports in hot loops.

func sqrtf(x float64) float64 { return math.Sqrt(x) }
func logf(x float64) float64  { return math.Log(x) }
func powf(x, y float64) float64 {
	return math.Pow(x, y)
}
