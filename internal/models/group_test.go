package models

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// TestGroupOfNMatchesGroupsOfOne is the layer-level grouping-invariance
// gate: every architecture's extractor and classifier stepped as one group
// of three through the nn group entry points must match the same three
// models stepped as groups of one (Forward and Backward) bit for bit —
// features, logits, input gradients, parameter gradients and batch-norm
// running statistics — at every dtype, for uniform and ragged batches,
// through two training steps and an evaluation forward. At 12×12 an 8→8
// 3×3 convolution lowers 9 samples per block, so the uniform members lower
// it in two blocks and the ragged one in three: each block's launches fuse
// the members that have it, and the ragged member's products take the
// batched GEMM's non-uniform path.
func TestGroupOfNMatchesGroupsOfOne(t *testing.T) {
	const g = 3
	for _, a := range allArchs() {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32, tensor.BF16} {
			for _, ragged := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/%v/ragged=%v", a, dt, ragged), func(t *testing.T) {
					cfg := cfgFor(a)
					cfg.DType = dt
					rng := rand.New(rand.NewSource(5))
					alone, group := make([]*SplitModel, g), make([]*SplitModel, g)
					exts, clfs := make([]*nn.Sequential, g), make([]*nn.Dense, g)
					xs, gs := make([]*tensor.Tensor, g), make([]*tensor.Tensor, g)
					for i := range group {
						alone[i], group[i] = New(cfg, xrand.New(int64(i+1))), New(cfg, xrand.New(int64(i+1)))
						exts[i], clfs[i] = group[i].Extractor, group[i].Classifier
						n := 10
						if ragged && i == g-1 {
							n = 19
						}
						xs[i] = tensor.NewOf(dt, n, cfg.InC, cfg.InH, cfg.InW)
						xs[i].FillUniform(rng, -1, 1)
						gs[i] = tensor.NewOf(dt, n, cfg.NumClasses)
						gs[i].FillUniform(rng, -1, 1)
					}
					for step := 0; step < 3; step++ {
						train := step < 2
						feats := nn.SequentialForwardBatch(exts, xs, train)
						logits := nn.DenseForwardBatch(clfs, feats, train)
						for i, m := range alone {
							ctx := fmt.Sprintf("step %d member %d", step, i)
							f := m.Extractor.Forward(xs[i], train)
							sameBits(t, ctx+" features", feats[i], f)
							sameBits(t, ctx+" logits", logits[i], m.Classifier.Forward(f, train))
						}
						if train {
							dxs := nn.SequentialBackwardBatch(exts, nn.DenseBackwardBatch(clfs, gs))
							for i, m := range alone {
								ctx := fmt.Sprintf("step %d member %d", step, i)
								sameBits(t, ctx+" input gradient", dxs[i], m.Extractor.Backward(m.Classifier.Backward(gs[i])))
							}
						}
						for i, m := range alone {
							ctx := fmt.Sprintf("step %d member %d", step, i)
							_, got := nn.Flat(group[i].Params())
							_, want := nn.Flat(m.Params())
							sameBits(t, ctx+" parameter gradients", &got, &want)
							if !slices.Equal(bits(nn.AppendFlatBuffers(nil, group[i].Buffers())), bits(nn.AppendFlatBuffers(nil, m.Buffers()))) {
								t.Fatalf("%s: running statistics differ", ctx)
							}
						}
					}
					for i := range group {
						group[i].ReleaseWorkspaces()
						alone[i].ReleaseWorkspaces()
					}
				})
			}
		}
	}
}

func sameBits(t *testing.T, ctx string, got, want *tensor.Tensor) {
	t.Helper()
	if !slices.Equal(got.Shape, want.Shape) || !slices.Equal(bits(got.AppendFloat64s(nil)), bits(want.AppendFloat64s(nil))) {
		t.Fatalf("%s: the group's bits differ from the groups of one", ctx)
	}
}

// TestBackwardParamsMatchesFullWalk: the reverse walk for callers that read
// no input gradient (SequentialBackwardParams, what every training step
// runs) leaves every parameter gradient bit-identical to the full walk's,
// for every architecture at every dtype, alone and in a group of three,
// through two steps whose gradients accumulate. The first layer with
// weights leases no input-gradient buffer in it.
func TestBackwardParamsMatchesFullWalk(t *testing.T) {
	for _, a := range allArchs() {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32, tensor.BF16} {
			for _, g := range []int{1, 3} {
				t.Run(fmt.Sprintf("%v/%v/group=%d", a, dt, g), func(t *testing.T) {
					cfg := cfgFor(a)
					cfg.DType = dt
					rng := rand.New(rand.NewSource(9))
					full, short := make([]*SplitModel, g), make([]*SplitModel, g)
					xs, gs := make([]*tensor.Tensor, g), make([]*tensor.Tensor, g)
					for i := range full {
						full[i], short[i] = New(cfg, xrand.New(int64(i+1))), New(cfg, xrand.New(int64(i+1)))
						xs[i] = tensor.NewOf(dt, 10+i, cfg.InC, cfg.InH, cfg.InW)
						xs[i].FillUniform(rng, -1, 1)
						gs[i] = tensor.NewOf(dt, 10+i, cfg.NumClasses)
						gs[i].FillUniform(rng, -1, 1)
					}
					step := func(ms []*SplitModel, walk func([]*nn.Sequential, []*tensor.Tensor)) {
						exts, clfs := make([]*nn.Sequential, g), make([]*nn.Dense, g)
						for i, m := range ms {
							exts[i], clfs[i] = m.Extractor, m.Classifier
						}
						nn.DenseForwardBatch(clfs, nn.SequentialForwardBatch(exts, xs, true), true)
						walk(exts, nn.DenseBackwardBatch(clfs, gs))
					}
					for s := 0; s < 2; s++ {
						step(full, func(exts []*nn.Sequential, grads []*tensor.Tensor) { nn.SequentialBackwardBatch(exts, grads) })
						step(short, nn.SequentialBackwardParams)
						for i := range full {
							_, got := nn.Flat(short[i].Params())
							_, want := nn.Flat(full[i].Params())
							sameBits(t, fmt.Sprintf("step %d member %d parameter gradients", s, i), &got, &want)
							dx, ok := firstWeightsDX(short[i].Extractor)
							if dx != nil {
								t.Fatalf("step %d member %d: the first layer with weights leased an input gradient of shape %v", s, i, dx.Shape)
							}
							if dx, _ := firstWeightsDX(full[i].Extractor); ok && dx == nil {
								t.Fatalf("step %d member %d: the full walk leased no input gradient to compare with", s, i)
							}
						}
					}
					for i := range full {
						full[i].ReleaseWorkspaces()
						short[i].ReleaseWorkspaces()
					}
				})
			}
		}
	}
}

// firstWeightsDX returns the input-gradient buffer of s's first layer with
// parameters, and whether that layer is a Dense or a Conv2D.
func firstWeightsDX(s *nn.Sequential) (*tensor.Tensor, bool) {
	for _, l := range s.Layers {
		switch l := l.(type) {
		case *nn.Dense, *nn.Conv2D:
			dx := reflect.ValueOf(l).Elem().FieldByName("dx")
			return (*tensor.Tensor)(dx.UnsafePointer()), true
		}
		if len(l.Params()) > 0 {
			return nil, false
		}
	}
	return nil, false
}
