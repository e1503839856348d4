package models

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Every model New builds, at every dtype, keeps its parameters in one
// arena: each Value and Grad views its block of one exact-length value slab
// and one gradient slab, the blocks follow Params() order without gaps, the
// slabs hold what FlattenParams returns, and ClassifierParams is the tail.
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
	vals, grads := nn.Flat(params)
	n := nn.NumParams(params)
	if vals.Size() != n || slabCap(params[0].Value) != n || slabCap(params[0].Grad) != n {
		t.Fatalf("slabs of %d values (capacity %d/%d), want exactly %d", vals.Size(), slabCap(params[0].Value), slabCap(params[0].Grad), n)
	}
	off := 0
	for _, p := range params {
		if p.Value.DT != m.DType() || p.Grad.DT != m.DType() {
			t.Fatalf("%s is %v/%v in a %v model", p.Name, p.Value.DT, p.Grad.DT, m.DType())
		}
		if !sameFirst(p.Value, &vals, off) || !sameFirst(p.Grad, &grads, off) || p.Grad.Size() != p.Value.Size() {
			t.Fatalf("%s is not the block of the slabs at offset %d", p.Name, off)
		}
		off += p.Value.Size()
	}
	if off != vals.Size() {
		t.Fatalf("the parameters cover %d of %d slab values", off, vals.Size())
	}
	slab := vals.AppendFloat64s(nil)
	for i, x := range nn.FlattenParams(params) {
		if math.Float64bits(x) != math.Float64bits(slab[i]) {
			t.Fatalf("FlattenParams[%d] = %v, slab holds %v", i, x, slab[i])
		}
	}
	cv, cg := nn.Flat(m.ClassifierParams())
	tail := vals.Size() - cv.Size()
	if cv.Size() == 0 || !sameFirst(&cv, &vals, tail) || !sameFirst(&cg, &grads, tail) {
		t.Fatal("the classifier is not the slabs' tail")
	}
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
