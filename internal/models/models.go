// Package models defines the split extractor/classifier models of the
// FedClassAvg reproduction. Every model is f = C ∘ F: an architecture-
// specific feature extractor F ending in a fully connected layer that
// produces a shared feature dimension, and a single fully connected
// classifier C whose shape is identical across all clients — the part
// FedClassAvg aggregates.
//
// The four heterogeneous architectures are miniature but structurally
// faithful counterparts of the paper's backbones: MiniResNet (residual
// blocks), MiniShuffleNet (grouped convolutions + channel shuffle),
// MiniGoogLeNet (inception branches) and MiniAlexNet (a plain convolution
// stack). See DESIGN.md for the scaling rationale.
package models

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Arch identifies a model architecture.
type Arch int

// The available architectures.
const (
	ArchMLP Arch = iota
	ArchAlexNet
	ArchResNet
	ArchShuffleNet
	ArchGoogLeNet
	ArchCNN2 // FedProto-style two-layer CNN (channel width varies per client)
)

// String names the architecture.
func (a Arch) String() string {
	switch a {
	case ArchMLP:
		return "MLP"
	case ArchAlexNet:
		return "MiniAlexNet"
	case ArchResNet:
		return "MiniResNet"
	case ArchShuffleNet:
		return "MiniShuffleNet"
	case ArchGoogLeNet:
		return "MiniGoogLeNet"
	case ArchCNN2:
		return "CNN2"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// ParseArch maps a flag value to an Arch. Both the short rotation names
// ("resnet") and the mini model names ("MiniResNet", case-insensitive) are
// accepted.
func ParseArch(s string) (Arch, error) {
	switch strings.TrimPrefix(strings.ToLower(s), "mini") {
	case "mlp":
		return ArchMLP, nil
	case "alexnet":
		return ArchAlexNet, nil
	case "resnet":
		return ArchResNet, nil
	case "shufflenet":
		return ArchShuffleNet, nil
	case "googlenet":
		return ArchGoogLeNet, nil
	case "cnn2":
		return ArchCNN2, nil
	}
	return ArchMLP, fmt.Errorf("models: unknown architecture %q (want mlp | alexnet | resnet | shufflenet | googlenet | cnn2)", s)
}

// HeterogeneousSet is the paper's four-architecture rotation; client k
// receives HeterogeneousSet[k % 4], matching "models were equally
// distributed among the clients".
var HeterogeneousSet = []Arch{ArchResNet, ArchShuffleNet, ArchGoogLeNet, ArchAlexNet}

// Config describes the input geometry, head sizes and numeric precision of
// a model.
type Config struct {
	Arch          Arch
	InC, InH, InW int
	FeatDim       int // paper: 512; scaled defaults are smaller
	NumClasses    int
	// Width scales channel counts; 1 is the default miniature size. ArchCNN2
	// uses Width to emulate FedProto's per-client channel heterogeneity.
	Width int
	// Hidden is the MLP hidden width (ArchMLP only).
	Hidden int
	// DType is the element type the model trains in. The zero value is
	// float64, the golden reference path; tensor.F32 halves the working set
	// and doubles SIMD width on the GEMM/conv hot paths.
	DType tensor.DType
}

// SplitModel is a model split into feature extractor and classifier.
type SplitModel struct {
	Name       string
	Cfg        Config
	Extractor  *nn.Sequential
	Classifier *nn.Dense

	// xcast is the model-dtype staging buffer for inputs arriving in a
	// different dtype (dataset tensors are always float64 bookkeeping).
	// It is overwritten by the next cast, matching the layer buffer
	// contract: an input is consumed by the forward/backward pair it feeds.
	// Like the layer workspaces it is leased from the pass's arena.
	xcast *tensor.Tensor
	// params is Params(), in the order of the model's slabs; buffers is
	// Buffers().
	params  []*nn.Param
	buffers [][]float64
}

// free holds recycled models by normalized Config: what New takes before it
// builds. Every eviction returns one model and every build takes one, so a
// config's list never holds more than its resident high-water mark.
var free = struct {
	sync.Mutex
	models map[Config][]*SplitModel
}{models: make(map[Config][]*SplitModel)}

// Recycle ends m's life: its workspaces go back to their arena
// (ReleaseWorkspaces) and the model itself — layers, parameter slabs,
// running statistics, cached lists — to a free list, from which the next
// New of its Config takes it and initializes it again. Nothing may use m,
// or any tensor or list it handed out, afterwards.
func (m *SplitModel) Recycle() {
	m.ReleaseWorkspaces()
	free.Lock()
	free.models[m.Cfg] = append(free.models[m.Cfg], m)
	free.Unlock()
}

// takeFree returns a recycled model of config cfg, or nil when there is none.
func takeFree(cfg Config) *SplitModel {
	free.Lock()
	defer free.Unlock()
	ms := free.models[cfg]
	if len(ms) == 0 {
		return nil
	}
	m := ms[len(ms)-1]
	ms[len(ms)-1] = nil
	free.models[cfg] = ms[:len(ms)-1]
	return m
}

// New builds a model for the given config with weights drawn from the
// serializable source, so initialization is snapshot-reproducible exactly
// like sampling and augmentation streams. Weights are always drawn in
// float64 — a given seed yields the same draw sequence at every dtype — and
// narrowed into Config.DType slabs (nn.Pack), classifier last, which makes
// f32-vs-f64 parity runs start from identical weights. A recycled model of
// the same config (Recycle) is initialized again in place instead of built:
// nn.Init makes the constructors' draws, in their order, into its slabs and
// resets its running statistics, and its gradients are zeroed, so it is
// bit-identical to a model built from scratch.
func New(cfg Config, src *xrand.Source) *SplitModel {
	if cfg.Width <= 0 {
		cfg.Width = 1
	}
	if cfg.FeatDim <= 0 {
		cfg.FeatDim = 32
	}
	rng := rand.New(src)
	if m := takeFree(cfg); m != nil {
		nn.Init(m.Extractor, rng)
		nn.Init(m.Classifier, rng)
		nn.ZeroGrads(m.params)
		return m
	}
	var ext *nn.Sequential
	switch cfg.Arch {
	case ArchMLP:
		ext = buildMLP(cfg, rng)
	case ArchAlexNet:
		ext = buildAlexNet(cfg, rng)
	case ArchResNet:
		ext = buildResNet(cfg, rng)
	case ArchShuffleNet:
		ext = buildShuffleNet(cfg, rng)
	case ArchGoogLeNet:
		ext = buildGoogLeNet(cfg, rng)
	case ArchCNN2:
		ext = buildCNN2(cfg, rng)
	default:
		panic(fmt.Sprintf("models: unknown arch %v", cfg.Arch))
	}
	m := &SplitModel{
		Name:       cfg.Arch.String(),
		Cfg:        cfg,
		Extractor:  ext,
		Classifier: nn.NewDense(cfg.FeatDim, cfg.NumClasses, rng),
	}
	nn.Bind(ext, m.Classifier)
	m.params = append(ext.Params(), m.Classifier.Params()...)
	m.buffers = ext.Buffers()
	nn.Pack(m.params, cfg.DType)
	return m
}

// DType reports the element type the model trains in.
func (m *SplitModel) DType() tensor.DType { return m.Cfg.DType }

// CastInput returns x in the model dtype, staging through a cached buffer
// when a conversion is needed. The returned tensor is valid until the next
// CastInput or ReleaseWorkspaces call on this model.
func (m *SplitModel) CastInput(x *tensor.Tensor) *tensor.Tensor {
	if x.DT == m.Cfg.DType {
		return x
	}
	m.xcast = nn.ArenaOf(m.Extractor).Ensure(m.Cfg.DType, m.xcast, x.Shape...)
	tensor.ConvertInto(m.xcast, x)
	return m.xcast
}

// Features runs the extractor on a batch [N, C, H, W], casting the input to
// the model dtype if needed.
func (m *SplitModel) Features(x *tensor.Tensor, train bool) *tensor.Tensor {
	return m.Extractor.Forward(m.CastInput(x), train)
}

// Forward runs the full model, returning features and logits (in the model
// dtype).
func (m *SplitModel) Forward(x *tensor.Tensor, train bool) (feats, logits *tensor.Tensor) {
	feats = m.Extractor.Forward(m.CastInput(x), train)
	logits = m.Classifier.Forward(feats, train)
	return feats, logits
}

// ReleaseWorkspaces ends a pass: the input staging buffer and the
// extractor's and the classifier's layer workspaces go back to the model's
// arena, and the arena to the free list (nn.Release), so a model between
// passes holds only its parameters, gradients and running statistics.
// Every tensor Forward or Features returned is invalid afterwards, and so
// is every other lease of the pass (nn.ArenaOf). The pass drivers —
// fl.TrainEpochs, fl.Client.EvalAccuracy, KT-pFL's distillation — call it
// when they return; any other Forward caller's arena stays the model's
// until its next pass ends.
func (m *SplitModel) ReleaseWorkspaces() {
	tensor.PutTensor(m.xcast)
	m.xcast = nil
	nn.Release(m.Extractor, m.Classifier)
}

// Params returns all trainable parameters (extractor then classifier) —
// the model's own list, which callers must not modify.
func (m *SplitModel) Params() []*nn.Param { return m.params }

// ClassifierParams returns only the classifier parameters — the payload
// FedClassAvg exchanges, and the tail of the model's slabs: the tail of
// Params(), which callers must not modify either.
func (m *SplitModel) ClassifierParams() []*nn.Param {
	return m.params[len(m.params)-len(m.Classifier.Params()):]
}

// Buffers returns the model's non-trainable state (batch-norm running
// statistics), which checkpoints capture alongside Params — the model's own
// list, which callers must not modify. The classifier is a single dense
// layer and contributes none.
func (m *SplitModel) Buffers() [][]float64 { return m.buffers }

// buildMLP: Flatten → Dense(hidden) → ReLU → Dense(featDim).
func buildMLP(cfg Config, rng *rand.Rand) *nn.Sequential {
	hidden := cfg.Hidden
	if hidden <= 0 {
		hidden = 64 * cfg.Width
	}
	dim := cfg.InC * cfg.InH * cfg.InW
	return nn.NewSequential(
		nn.NewFlatten(),
		nn.NewDense(dim, hidden, rng),
		nn.NewReLU(),
		nn.NewDense(hidden, cfg.FeatDim, rng),
	)
}

// buildAlexNet: two plain conv+pool stages then the FC feature layer, the
// AlexNet pattern (convolutions without shortcuts, large pooling).
func buildAlexNet(cfg Config, rng *rand.Rand) *nn.Sequential {
	w := cfg.Width
	c1, c2 := 8*w, 16*w
	oh, ow := cfg.InH/2/2, cfg.InW/2/2
	return nn.NewSequential(
		nn.NewConv2D(cfg.InC, c1, 3, 1, 1, 1, rng),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2),
		nn.NewConv2D(c1, c2, 3, 1, 1, 1, rng),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2),
		nn.NewFlatten(),
		nn.NewDense(c2*oh*ow, cfg.FeatDim, rng),
	)
}

// buildResNet: stem + identity residual block + pooled projection residual
// block + global average pooling, the ResNet-18 pattern in miniature.
func buildResNet(cfg Config, rng *rand.Rand) *nn.Sequential {
	w := cfg.Width
	c1, c2 := 8*w, 16*w
	stem := []nn.Layer{
		nn.NewConv2D(cfg.InC, c1, 3, 1, 1, 1, rng),
		nn.NewBatchNorm2D(c1),
		nn.NewReLU(),
	}
	res1 := nn.NewResidual(nn.NewSequential(
		nn.NewConv2D(c1, c1, 3, 1, 1, 1, rng),
		nn.NewBatchNorm2D(c1),
		nn.NewReLU(),
		nn.NewConv2D(c1, c1, 3, 1, 1, 1, rng),
		nn.NewBatchNorm2D(c1),
	), nil)
	res2 := nn.NewResidual(nn.NewSequential(
		nn.NewConv2D(c1, c2, 3, 1, 1, 1, rng),
		nn.NewBatchNorm2D(c2),
		nn.NewReLU(),
		nn.NewConv2D(c2, c2, 3, 1, 1, 1, rng),
		nn.NewBatchNorm2D(c2),
	), nn.NewSequential(
		nn.NewConv2D(c1, c2, 1, 1, 0, 1, rng),
		nn.NewBatchNorm2D(c2),
	))
	seq := nn.NewSequential(stem...)
	seq.Append(
		res1,
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2),
		res2,
		nn.NewReLU(),
		nn.NewGlobalAvgPool(),
		nn.NewDense(c2, cfg.FeatDim, rng),
	)
	return seq
}

// buildShuffleNet: stem + pointwise group conv, channel shuffle, grouped
// 3×3 conv — the ShuffleNetV2 information-mixing pattern in miniature.
func buildShuffleNet(cfg Config, rng *rand.Rand) *nn.Sequential {
	w := cfg.Width
	c1, c2 := 8*w, 16*w
	return nn.NewSequential(
		nn.NewConv2D(cfg.InC, c1, 3, 1, 1, 1, rng),
		nn.NewBatchNorm2D(c1),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2),
		nn.NewConv2D(c1, c2, 1, 1, 0, 2, rng), // pointwise group conv
		nn.NewBatchNorm2D(c2),
		nn.NewReLU(),
		nn.NewChannelShuffle(2),
		nn.NewConv2D(c2, c2, 3, 1, 1, 4, rng), // grouped spatial conv
		nn.NewBatchNorm2D(c2),
		nn.NewReLU(),
		nn.NewGlobalAvgPool(),
		nn.NewDense(c2, cfg.FeatDim, rng),
	)
}

// buildGoogLeNet: stem + two inception blocks (1×1 and 1×1→3×3 branches),
// the GoogLeNet multi-scale pattern in miniature.
func buildGoogLeNet(cfg Config, rng *rand.Rand) *nn.Sequential {
	w := cfg.Width
	c1 := 8 * w
	incept2 := func(in int) *nn.Inception {
		return nn.NewInception(
			nn.NewSequential( // 1×1 branch
				nn.NewConv2D(in, 4*w, 1, 1, 0, 1, rng),
				nn.NewReLU(),
			),
			nn.NewSequential( // 1×1 → 3×3 branch
				nn.NewConv2D(in, 4*w, 1, 1, 0, 1, rng),
				nn.NewReLU(),
				nn.NewConv2D(4*w, 8*w, 3, 1, 1, 1, rng),
				nn.NewReLU(),
			),
		)
	}
	out1 := 12 * w // 4w + 8w
	return nn.NewSequential(
		nn.NewConv2D(cfg.InC, c1, 3, 1, 1, 1, rng),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2),
		incept2(c1),
		incept2(out1),
		nn.NewGlobalAvgPool(),
		nn.NewDense(out1, cfg.FeatDim, rng),
	)
}

// buildCNN2: the FedProto-style two-convolution network; Width varies the
// channel counts across clients to emulate FedProto's milder heterogeneity.
func buildCNN2(cfg Config, rng *rand.Rand) *nn.Sequential {
	w := cfg.Width
	c1, c2 := 4+2*w, 8+2*w
	oh, ow := cfg.InH/2/2, cfg.InW/2/2
	return nn.NewSequential(
		nn.NewConv2D(cfg.InC, c1, 3, 1, 1, 1, rng),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2),
		nn.NewConv2D(c1, c2, 3, 1, 1, 1, rng),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2),
		nn.NewFlatten(),
		nn.NewDense(c2*oh*ow, cfg.FeatDim, rng),
	)
}
