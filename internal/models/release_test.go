package models

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

var (
	tensorPtr = reflect.TypeOf((*tensor.Tensor)(nil))
	paramPtr  = reflect.TypeOf((*nn.Param)(nil))
)

// walkTensors calls visit for every *tensor.Tensor slot a model reaches
// outside its parameters: struct fields (leases, or references into
// another layer's lease) with view false, and cached view
// headers — elements of tensor slices and of the shape layers' view rings —
// with view true. Reflection reaches every layer type, including ones added
// later, so none can escape the checks below.
func walkTensors(v reflect.Value, path string, view bool, visit func(path string, t reflect.Value, view bool)) {
	switch v.Kind() {
	case reflect.Pointer:
		switch {
		case v.Type() == tensorPtr:
			visit(path, v, view)
		case v.Type() == paramPtr || v.IsNil():
		default:
			walkTensors(v.Elem(), path, view, visit)
		}
	case reflect.Interface:
		if !v.IsNil() {
			walkTensors(v.Elem(), path, view, visit)
		}
	case reflect.Struct:
		view = view || v.Type().Name() == "viewRing2"
		for i := 0; i < v.NumField(); i++ {
			walkTensors(v.Field(i), path+"."+v.Type().Field(i).Name, view, visit)
		}
	case reflect.Slice, reflect.Array:
		if numeric(v.Type().Elem()) {
			return // an arena's chunks, say: nothing in them points anywhere
		}
		for i := 0; i < v.Len(); i++ {
			el := v.Index(i)
			walkTensors(el, fmt.Sprintf("%s[%d]", path, i), view || (v.Kind() == reflect.Slice && el.Type() == tensorPtr), visit)
		}
	}
}

// numeric reports whether t is a number type, which holds no pointer.
func numeric(t reflect.Type) bool {
	return t.Kind() >= reflect.Int && t.Kind() <= reflect.Complex128
}

// walkParams calls visit for every *nn.Param slot a model reaches by
// reflection, so a parameter some layer's Params leaves out is found too.
func walkParams(v reflect.Value, path string, visit func(path string, p reflect.Value)) {
	switch v.Kind() {
	case reflect.Pointer:
		switch {
		case v.IsNil() || v.Type() == tensorPtr:
		case v.Type() == paramPtr:
			visit(path, v)
		default:
			walkParams(v.Elem(), path, visit)
		}
	case reflect.Interface:
		if !v.IsNil() {
			walkParams(v.Elem(), path, visit)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			walkParams(v.Field(i), path+"."+v.Type().Field(i).Name, visit)
		}
	case reflect.Slice, reflect.Array:
		if numeric(v.Type().Elem()) {
			return
		}
		for i := 0; i < v.Len(); i++ {
			walkParams(v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
	}
}

// holdsStorage reports whether a *tensor.Tensor slot points at any storage.
func holdsStorage(t reflect.Value) bool {
	if t.IsNil() {
		return false
	}
	e := t.Elem()
	return !e.FieldByName("Data").IsNil() || !e.FieldByName("F32").IsNil()
}

// leases counts the buffers m holds in struct fields.
func leases(m *SplitModel) int {
	n := 0
	walkTensors(reflect.ValueOf(m), "model", false, func(_ string, t reflect.Value, view bool) {
		if !view && !t.IsNil() {
			n++
		}
	})
	return n
}

// releaseInput returns the fixed operands of the release tests: an input
// batch and a gradient for the logits.
func releaseInput(dt tensor.DType, classes int) (x, g *tensor.Tensor) {
	rng := rand.New(rand.NewSource(11))
	x = tensor.New(4, 1, 12, 12)
	x.FillRandn(rng, 1)
	g = tensor.NewOf(dt, 4, classes)
	g.FillRandn(rng, 0.1)
	return x, g
}

// trainStep runs one train-mode forward and backward and returns the
// logits' and the gradients' bits.
func trainStep(m *SplitModel, x, g *tensor.Tensor) (logits, grads []uint64) {
	_, l := m.Forward(x, true)
	m.Extractor.Backward(m.Classifier.Backward(g))
	_, gs := nn.Flat(m.Params())
	return bits(l.AppendFloat64s(nil)), bits(gs.AppendFloat64s(nil))
}

// evalLogits runs one eval-mode forward and returns the logits' bits.
func evalLogits(m *SplitModel, x *tensor.Tensor) []uint64 {
	_, l := m.Forward(x, false)
	return bits(l.AppendFloat64s(nil))
}

func bits(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, f := range v {
		out[i] = math.Float64bits(f)
	}
	return out
}

// TestReleasedWorkspacesAreScratch guards the lease contract: pooled buffers
// arrive dirty, so every layer must write each element before it reads it.
// A probe pass leaves the pool holding every buffer a pass takes at once;
// the reference model then runs with every buffer the pool holds free or
// takes back zero-filled (what a fresh allocation gives) and the model under
// test with every one NaN-filled, through a train-mode step, a release and
// an eval-mode forward. Scrubbing at the pool, rather than the buffers a
// model holds after the step, reaches the scratch leased for one call and
// the gradients handed back mid-walk too, each time the pass leases them
// again. Any read of an unwritten element shows as a NaN, or as any other
// bit difference.
func TestReleasedWorkspacesAreScratch(t *testing.T) {
	for _, a := range allArchs() {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			t.Run(fmt.Sprintf("%v/%v", a, dt), func(t *testing.T) {
				cfg := cfgFor(a)
				cfg.DType = dt
				x, g := releaseInput(dt, cfg.NumClasses)

				probe := New(cfg, xrand.New(21))
				trainStep(probe, x, g)
				probe.ReleaseWorkspaces()

				run := func(fill float64) (logits, grads, eval []uint64) {
					m := New(cfg, xrand.New(21))
					defer tensor.ScrubFreed(fill)()
					logits, grads = trainStep(m, x, g)
					m.ReleaseWorkspaces()
					eval = evalLogits(m, x)
					m.ReleaseWorkspaces()
					return logits, grads, eval
				}
				wantL, wantG, wantE := run(0)
				gotL, gotG, gotE := run(math.NaN())
				if !slices.Equal(gotL, wantL) {
					t.Error("train-mode logits differ on dirty buffers")
				}
				if !slices.Equal(gotG, wantG) {
					t.Error("gradients differ on dirty buffers")
				}
				if !slices.Equal(gotE, wantE) {
					t.Error("eval-mode logits differ on dirty buffers")
				}
			})
		}
	}
}

// TestReleaseCoversEveryLayer checks that ReleaseWorkspaces leaves nothing
// behind: after a step, every tensor field of every layer New builds is
// nil, and every cached view header points at no storage, so no
// layer can keep a buffer the pool has handed to another model. And every
// parameter anywhere in the model is one of Params(), whose slabs a recycled
// model's re-initialization zeroes and narrows into.
func TestReleaseCoversEveryLayer(t *testing.T) {
	for _, a := range allArchs() {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			t.Run(fmt.Sprintf("%v/%v", a, dt), func(t *testing.T) {
				cfg := cfgFor(a)
				cfg.DType = dt
				x, g := releaseInput(dt, cfg.NumClasses)
				m := New(cfg, xrand.New(22))
				trainStep(m, x, g)
				if leases(m) == 0 {
					t.Fatal("the walk found no buffers after a step")
				}
				m.ReleaseWorkspaces()
				walkTensors(reflect.ValueOf(m), "model", false, func(path string, tv reflect.Value, view bool) {
					if !view && !tv.IsNil() {
						t.Errorf("%s still holds a tensor after ReleaseWorkspaces", path)
					} else if holdsStorage(tv) {
						t.Errorf("view %s still points at storage after ReleaseWorkspaces", path)
					}
				})
				found := 0
				walkParams(reflect.ValueOf(m), "model", func(path string, p reflect.Value) {
					found++
					if !slices.ContainsFunc(m.Params(), func(q *nn.Param) bool { return reflect.ValueOf(q).Pointer() == p.Pointer() }) {
						t.Errorf("%s is not among the model's Params()", path)
					}
				})
				if found == 0 {
					t.Fatal("the walk found no parameters")
				}
			})
		}
	}
}
