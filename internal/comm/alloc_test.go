package comm

import (
	"math/rand"
	"testing"
)

// The codec hot path runs once per client per round, with payloads up to
// full model size.

func codecPayload(n int) []float64 {
	rng := rand.New(rand.NewSource(11))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// The spec-aware paths with reused buffers, scratch and refs must reach
// zero steady-state allocations — this is the hot loop of every node-mode
// send and receive.
func TestSpecCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime drops sync.Pool puts; the zero-alloc gate runs without -race")
	}
	// Every spec at 4096 elements, and the sparse ones again at the wire
	// benchmark's 107 722, where a vector of scratch is 862 KB and a pool
	// miss cannot hide. The last spec is the one that benchmark negotiates.
	for _, n := range []int{4096, 107722} {
		payload := codecPayload(n)
		for _, spec := range []Spec{
			{},
			{Value: F32},
			{Value: I8},
			{Value: BF16},
			NewSpec(I8, 0, true),
			NewSpec(F32, 0.05, false),
			NewSpec(I8, 0.05, true),
			NewSpec(F32, 0.05, true),
		} {
			if n > 4096 && !spec.Sparse() {
				continue
			}
			enc, dec, sim := &DeltaRef{}, &DeltaRef{}, &DeltaRef{}
			var dst []byte
			var scratch, rt []float64
			step := func() {
				dst = MarshalSpecInto(dst[:0], spec, 1, payload, enc)
				_, v, err := DecodeSpec(scratch, dst, dec)
				if err != nil {
					t.Fatal(err)
				}
				scratch = v
				rt = append(rt[:0], payload...)
				RoundTripSpec(spec, rt, sim)
			}
			for i := 0; i < 3; i++ { // warm the pool, refs and buffers
				step()
			}
			if avg := testing.AllocsPerRun(20, step); avg > 0 {
				t.Fatalf("%v at %d elements: marshal+decode+model allocates %.1f objects/op, want 0", spec, n, avg)
			}
		}
	}
}
