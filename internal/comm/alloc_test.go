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
	payload := codecPayload(4096)
	for _, spec := range []Spec{
		{},
		{Value: F32},
		{Value: I8},
		{Value: BF16},
		NewSpec(I8, 0, true),
		NewSpec(F32, 0.05, false),
		NewSpec(I8, 0.05, true),
	} {
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
			t.Fatalf("%v marshal+decode+model allocates %.1f objects/op, want 0", spec, avg)
		}
	}
}
