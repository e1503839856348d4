package models

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Every model New builds, at every dtype, keeps two slabs. Each Value views
// its block of one exact-length value slab, the blocks follow Params()
// order without gaps, the slab holds what FlattenParams returns and
// ClassifierParams is its tail; once the model steps, each M and V views
// its block of one moment slab, every m then every v in the same order.
// Between steps no Grad holds storage. Inside a step the gradients are one
// contiguous lease (nn.Flat's check) of the pass's arena, which the
// optimizer step hands back: the scrubbed arena overwrites it.
func TestParamsAreOneArena(t *testing.T) {
	for _, a := range allArchs() {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32, tensor.BF16} {
			t.Run(fmt.Sprintf("%v/%v", a, dt), func(t *testing.T) {
				cfg := cfgFor(a)
				cfg.DType = dt
				checkArena(t, New(cfg, xrand.New(31)))
			})
		}
	}
}

func checkArena(t *testing.T, m *SplitModel) {
	t.Helper()
	params := m.Params()
	n := nn.NumParams(params)
	vals, grads := nn.Flat(params)
	if vals.Size() != n || slabCap(params[0].Value) != n {
		t.Fatalf("value slab of %d values (capacity %d), want exactly %d", vals.Size(), slabCap(params[0].Value), n)
	}
	if grads.Size() != 0 {
		t.Fatalf("a model that has not stepped holds %d gradients", grads.Size())
	}
	eachBlock(t, params, "value", &vals, func(p *nn.Param) *tensor.Tensor { return p.Value })
	slab := vals.AppendFloat64s(nil)
	for i, x := range nn.FlattenParams(params) {
		if math.Float64bits(x) != math.Float64bits(slab[i]) {
			t.Fatalf("FlattenParams[%d] = %v, slab holds %v", i, x, slab[i])
		}
	}
	cv, _ := nn.Flat(m.ClassifierParams())
	if cv.Size() == 0 || !sameFirst(&cv, &vals, vals.Size()-cv.Size()) {
		t.Fatal("the classifier is not the value slab's tail")
	}

	x, g := releaseInput(m.DType(), m.Cfg.NumClasses)
	_, _ = m.Forward(x, true)
	m.Extractor.Backward(m.Classifier.Backward(g))
	_, grads = nn.Flat(params)
	if grads.Size() != n || grads.DT != m.DType() {
		t.Fatalf("a step's gradients are %d %v values, want %d %v", grads.Size(), grads.DT, n, m.DType())
	}
	eachBlock(t, params, "gradient", &grads, func(p *nn.Param) *tensor.Tensor { return p.Grad })
	_, cg := nn.Flat(m.ClassifierParams())
	if !sameFirst(&cg, &grads, n-cg.Size()) {
		t.Fatal("the classifier's gradients are not the lease's tail")
	}
	stop := tensor.ScrubFreed(math.NaN())
	opt.NewAdam(0.01).Step(params)
	stop()
	for i, v := range grads.AppendFloat64s(nil) {
		if !math.IsNaN(v) {
			t.Fatalf("gradient %d is %v after the step: its range did not go back to the arena", i, v)
		}
	}
	if _, after := nn.Flat(params); after.Size() != 0 {
		t.Fatalf("%d gradients outlive the optimizer step", after.Size())
	}
	ms, vs := slabFrom(params[0].M, 0), slabFrom(params[0].M, n)
	if ms.Size() != 2*n || ms.DT != m.DType().Backing() {
		t.Fatalf("moment slab of %d %v values, want %d %v", ms.Size(), ms.DT, 2*n, m.DType().Backing())
	}
	eachBlock(t, params, "m", &ms, func(p *nn.Param) *tensor.Tensor { return p.M })
	eachBlock(t, params, "v", &vs, func(p *nn.Param) *tensor.Tensor { return p.V })
	m.ReleaseWorkspaces()
}

// eachBlock checks that the tensors of params that of returns are the
// blocks of flat in order, each of its parameter's shape and dtype.
func eachBlock(t *testing.T, params []*nn.Param, what string, flat *tensor.Tensor, of func(*nn.Param) *tensor.Tensor) {
	t.Helper()
	off := 0
	for _, p := range params {
		b := of(p)
		if b.DT != flat.DT || b.Size() != p.Value.Size() || !sameFirst(b, flat, off) {
			t.Fatalf("%s's %s is not the %v block at offset %d", p.Name, what, flat.DT, off)
		}
		off += p.Value.Size()
	}
}

// slabFrom returns the storage t begins from element off to its capacity,
// flat: for the first parameter's M, the moment slab.
func slabFrom(t *tensor.Tensor, off int) tensor.Tensor {
	if t.DT.Backing() == tensor.F32 {
		return tensor.Tensor{DT: t.DT, F32: t.F32[off:cap(t.F32)]}
	}
	return tensor.Tensor{DT: t.DT, Data: t.Data[off:cap(t.Data)]}
}

// slabCap is the capacity of t's storage: for the first parameter, the
// length of the slab it begins.
func slabCap(t *tensor.Tensor) int {
	if t.DT.Backing() == tensor.F32 {
		return cap(t.F32)
	}
	return cap(t.Data)
}

// sameFirst reports whether t's first element is element off of flat.
func sameFirst(t, flat *tensor.Tensor, off int) bool {
	if t.DT.Backing() == tensor.F32 {
		return &t.F32[0] == &flat.F32[off]
	}
	return &t.Data[0] == &flat.Data[off]
}
