package core_test

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Storage from the pool is scratch: TestLocalStepPinned's hash holds with
// the pool primed with NaN-filled storage at every length its fleets keep —
// each parameter's value, gradient and two Adam moments at f64 and f32, and
// the upload vector, once per client of each fleet — so the first fleets
// built, stepped and uploaded take dirty storage.
func TestLocalStepPinnedOnDirtyStorage(t *testing.T) {
	put := func(n int) {
		v, w := make([]float64, n), make([]float32, n)
		for i := range v {
			v[i], w[i] = math.NaN(), float32(math.NaN())
		}
		tensor.PutStorage(v)
		tensor.PutStorage(w)
	}
	for _, fleet := range []string{"heterogeneous", "homogeneous"} {
		build, _, err := experiments.NewFleetBuilder(experiments.Fashion, data.Dirichlet, fleet, 8, experiments.Tiny())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			params := build(i).Model.Params()
			for _, p := range params {
				for range 4 {
					put(p.Value.Size())
				}
			}
			put(nn.NumParams(params))
		}
	}
	TestLocalStepPinned(t)
}
