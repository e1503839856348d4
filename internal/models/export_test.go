package models

import (
	"math"
	"reflect"
	"unsafe"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// DrainFree empties the recycled-model free list, so the next New of any
// config builds from scratch.
func DrainFree() {
	free.Lock()
	clear(free.models)
	free.Unlock()
}

// PrimeNaN dirties everything a model keeps for its next life: the value
// and gradient slabs and the running statistics turn NaN, and so does every
// float slice a layer retains (batch-norm caches); every int slice (pooling
// argmax, cached shapes) turns −1; and every tensor header still reachable
// — a recycled model's view headers — points at NaN storage. A model built
// again from it that reads any of these before writing shows it.
func PrimeNaN(m *SplitModel) {
	vals, grads := nn.Flat(m.params)
	vals.Fill(math.NaN())
	grads.Fill(math.NaN())
	prime(reflect.ValueOf(m).Elem())
}

func prime(v reflect.Value) {
	if v.CanAddr() { // lift the read-only flag of unexported fields
		v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	}
	switch v.Kind() {
	case reflect.Pointer:
		switch {
		case v.IsNil() || v.Type() == paramPtr: // parameters are the slabs
		case v.Type() == tensorPtr:
			t := v.Interface().(*tensor.Tensor)
			n := 1
			for _, d := range t.Shape {
				n *= d
			}
			if t.DT.Backing() == tensor.F32 {
				t.Data, t.F32 = nil, make([]float32, n)
				for i := range t.F32 {
					t.F32[i] = float32(math.NaN())
				}
			} else {
				t.Data, t.F32 = make([]float64, n), nil
				for i := range t.Data {
					t.Data[i] = math.NaN()
				}
			}
		default:
			prime(v.Elem())
		}
	case reflect.Interface:
		if !v.IsNil() {
			prime(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			prime(v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		switch v.Type().Elem().Kind() {
		case reflect.Float64:
			for i := 0; i < v.Len(); i++ {
				v.Index(i).SetFloat(math.NaN())
			}
		case reflect.Int:
			for i := 0; i < v.Len(); i++ {
				v.Index(i).SetInt(-1)
			}
		default:
			for i := 0; i < v.Len(); i++ {
				prime(v.Index(i))
			}
		}
	}
}
