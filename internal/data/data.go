// Package data provides the synthetic stand-ins for CIFAR-10, Fashion-MNIST
// and EMNIST Letters used by the reproduction, together with the two
// non-iid partitioners from the paper (Dirichlet label distribution and
// skewed two-class distribution), the augmentation pipeline that produces
// the two contrastive views, and batching utilities.
//
// A synthetic dataset draws, for every class, a latent prototype vector;
// examples are noisy latent samples pushed through a fixed random affine map
// followed by tanh into C×H×W image space. The mapping is fixed per dataset
// seed, so train and test examples share structure, classes overlap in
// proportion to the noise level, and convolutional as well as dense models
// can learn the task. This preserves the experimental variables the paper
// manipulates — label skew, class count, dataset difficulty — while being
// tractable for pure-Go CPU training (see DESIGN.md for the substitution
// rationale).
package data

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/tensor"
)

// Example is one labeled image, stored flat in C·H·W order.
type Example struct {
	X []float64
	Y int
}

// Dataset is a complete synthetic dataset with train and test splits.
type Dataset struct {
	Name       string
	C, H, W    int
	NumClasses int
	Train      []Example
	Test       []Example
}

// InputDim returns C·H·W.
func (d *Dataset) InputDim() int { return d.C * d.H * d.W }

// Spec configures the synthetic generator.
type Spec struct {
	Name       string
	C, H, W    int
	NumClasses int
	LatentDim  int
	// Modes is the number of latent prototype clusters per class. Values
	// above one make classes multi-modal: a learner that has seen only a
	// few samples of a class has likely seen only a subset of its modes and
	// cannot generalize to the rest — the structural property that gives
	// collaborative training its edge over local-only training, mirroring
	// the intra-class variety of natural image classes.
	Modes int
	// NoiseStd controls intra-class spread in latent space; larger values
	// make classes overlap more (harder task).
	NoiseStd float64
	// PrototypeSpread scales class prototype separation; smaller values
	// make classes more confusable.
	PrototypeSpread float64
	TrainPerClass   int
	TestPerClass    int
	Seed            int64
}

// Presets mirroring the paper's three benchmarks. Sizes are scaled down for
// single-CPU pure-Go training; shapes, channel counts and class counts keep
// the original relationships (CIFAR: RGB and hardest; EMNIST: most classes).

// SynthCIFAR returns the CIFAR-10 stand-in spec (RGB, 10 classes, hardest).
func SynthCIFAR(trainPerClass, testPerClass int, seed int64) Spec {
	return Spec{
		Name: "synth-cifar10", C: 3, H: 12, W: 12, NumClasses: 10,
		LatentDim: 16, Modes: 3, NoiseStd: 0.8, PrototypeSpread: 1.0,
		TrainPerClass: trainPerClass, TestPerClass: testPerClass, Seed: seed,
	}
}

// SynthFashion returns the Fashion-MNIST stand-in spec (grayscale, 10 classes).
func SynthFashion(trainPerClass, testPerClass int, seed int64) Spec {
	return Spec{
		Name: "synth-fashion", C: 1, H: 12, W: 12, NumClasses: 10,
		LatentDim: 16, Modes: 3, NoiseStd: 0.6, PrototypeSpread: 1.2,
		TrainPerClass: trainPerClass, TestPerClass: testPerClass, Seed: seed,
	}
}

// SynthEMNIST returns the EMNIST Letters stand-in spec (grayscale, 26 classes).
func SynthEMNIST(trainPerClass, testPerClass int, seed int64) Spec {
	return Spec{
		Name: "synth-emnist", C: 1, H: 12, W: 12, NumClasses: 26,
		LatentDim: 20, Modes: 2, NoiseStd: 0.5, PrototypeSpread: 1.3,
		TrainPerClass: trainPerClass, TestPerClass: testPerClass, Seed: seed,
	}
}

// Generate materializes a dataset from a spec. The same spec always yields
// the same dataset.
func Generate(spec Spec) *Dataset {
	if spec.NumClasses < 2 || spec.LatentDim < 1 {
		panic(fmt.Sprintf("data: invalid spec %+v", spec))
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	dim := spec.C * spec.H * spec.W
	modes := spec.Modes
	if modes < 1 {
		modes = 1
	}

	// Per-class, per-mode prototypes in latent space. Modes of one class are
	// unrelated points, so knowing one mode says nothing about the others.
	protos := make([][][]float64, spec.NumClasses)
	for c := range protos {
		protos[c] = make([][]float64, modes)
		for m := range protos[c] {
			p := make([]float64, spec.LatentDim)
			for j := range p {
				p[j] = rng.NormFloat64() * spec.PrototypeSpread
			}
			protos[c][m] = p
		}
	}
	// Fixed random two-layer nonlinear map latent → image, so classes are
	// not linearly separable in pixel space.
	hiddenDim := 2 * spec.LatentDim
	proj1 := tensor.New(spec.LatentDim, hiddenDim)
	proj1.FillRandn(rng, 1/math.Sqrt(float64(spec.LatentDim)))
	proj2 := tensor.New(hiddenDim, dim)
	proj2.FillRandn(rng, 1.2/math.Sqrt(float64(hiddenDim)))
	bias := make([]float64, dim)
	for j := range bias {
		bias[j] = rng.NormFloat64() * 0.1
	}

	sample := func(class int) Example {
		mode := rng.Intn(modes)
		lat := make([]float64, spec.LatentDim)
		for j := range lat {
			lat[j] = protos[class][mode][j] + rng.NormFloat64()*spec.NoiseStd
		}
		hidden := make([]float64, hiddenDim)
		for j := 0; j < hiddenDim; j++ {
			var s float64
			for k := 0; k < spec.LatentDim; k++ {
				s += lat[k] * proj1.At(k, j)
			}
			hidden[j] = math.Tanh(s)
		}
		x := make([]float64, dim)
		for j := 0; j < dim; j++ {
			var s float64
			for k := 0; k < hiddenDim; k++ {
				s += hidden[k] * proj2.At(k, j)
			}
			x[j] = math.Tanh(s + bias[j])
		}
		return Example{X: x, Y: class}
	}

	ds := &Dataset{
		Name: spec.Name, C: spec.C, H: spec.H, W: spec.W,
		NumClasses: spec.NumClasses,
	}
	for c := 0; c < spec.NumClasses; c++ {
		for i := 0; i < spec.TrainPerClass; i++ {
			ds.Train = append(ds.Train, sample(c))
		}
		for i := 0; i < spec.TestPerClass; i++ {
			ds.Test = append(ds.Test, sample(c))
		}
	}
	// Shuffle so class order carries no information.
	rng.Shuffle(len(ds.Train), func(i, j int) { ds.Train[i], ds.Train[j] = ds.Train[j], ds.Train[i] })
	rng.Shuffle(len(ds.Test), func(i, j int) { ds.Test[i], ds.Test[j] = ds.Test[j], ds.Test[i] })
	return ds
}

// PublicSplit generates extra unlabeled-use examples from the same
// generative process (fresh seed), used as KT-pFL's public dataset. The
// returned examples carry labels but callers treat them as unlabeled.
func PublicSplit(spec Spec, n int, seed int64) []Example {
	s := spec
	s.Seed = seed
	perClass := n/s.NumClasses + 1
	s.TrainPerClass = perClass
	s.TestPerClass = 0
	ds := Generate(s)
	if len(ds.Train) > n {
		ds.Train = ds.Train[:n]
	}
	return ds.Train
}

// BatchTensor packs examples into a float64 [N, C, H, W] tensor plus label
// slice.
func BatchTensor(examples []Example, c, h, w int) (*tensor.Tensor, []int) {
	return BatchTensorOf(tensor.F64, examples, c, h, w)
}

// BatchTensorOf packs examples into a [N, C, H, W] tensor of the given
// dtype plus label slice. Examples store pixels as float64 bookkeeping;
// narrowing happens here, once per batch, at the model boundary.
func BatchTensorOf(dt tensor.DType, examples []Example, c, h, w int) (*tensor.Tensor, []int) {
	n := len(examples)
	x := tensor.NewOf(dt, n, c, h, w)
	y := make([]int, n)
	dim := c * h * w
	for i, ex := range examples {
		x.WriteFloat64sAt(i*dim, ex.X)
		y[i] = ex.Y
	}
	return x, y
}

// Batches shuffles examples with rng and returns contiguous mini-batches of
// at most batchSize examples (the final batch may be smaller but never has
// fewer than two examples, which the contrastive loss needs; a one-example
// remainder is folded into the previous batch).
func Batches(examples []Example, batchSize int, rng *rand.Rand) [][]Example {
	return new(Schedule).Draw(examples, batchSize, rng)
}

// Schedule is the storage of a batch schedule, kept across epochs: Draw
// deals the batches Batches deals, from the same rng draws, into the
// Schedule's own slices, so a warm Draw allocates nothing.
type Schedule struct {
	perm     []int
	shuffled []Example
	batches  [][]Example
}

// Draw is Batches into s's storage. The batches are valid until s's next
// Draw.
func (s *Schedule) Draw(examples []Example, batchSize int, rng *rand.Rand) [][]Example {
	s.perm = perm(s.perm, len(examples), rng)
	s.shuffled = s.shuffled[:0]
	for _, j := range s.perm {
		s.shuffled = append(s.shuffled, examples[j])
	}
	shuffled := s.shuffled
	out := s.batches[:0]
	for lo := 0; lo < len(shuffled); lo += batchSize {
		hi := lo + batchSize
		if hi > len(shuffled) {
			hi = len(shuffled)
		}
		out = append(out, shuffled[lo:hi])
	}
	if len(out) >= 2 && len(out[len(out)-1]) == 1 {
		// Merge a singleton tail into the previous batch.
		last := len(out) - 1
		out[last-1] = shuffled[len(shuffled)-batchSize-1 : len(shuffled)]
		out = out[:last]
	}
	s.batches = out
	return out
}

// perm is rng.Perm(n) written into idx's storage: the same draws give the
// same permutation. A dirty idx is fine, since the shuffle reads no element
// before writing it.
func perm(idx []int, n int, rng *rand.Rand) []int {
	idx = slices.Grow(idx[:0], n)[:n]
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		idx[i] = idx[j]
		idx[j] = i
	}
	return idx
}
