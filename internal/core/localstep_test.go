package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestLocalStepPinned pins every method's local training bit for bit: one
// SHA-256 over the per-round MeanAcc/StdAcc/PerClient bits and byte counts
// and every client's final flat parameters, across the ten methods of the
// paper's tables × the three schedulers × f64/f32, on Tiny-scale fleets of 8
// where model configurations repeat so groups form — the heterogeneous
// rotation (clients i and i+4 share an architecture), and homogeneous
// MiniResNet for the weight-sharing methods. The literal was recorded with
// every client trained alone, before the methods trained as groups; it holds
// at every GOMAXPROCS.
func TestLocalStepPinned(t *testing.T) {
	const want = "2c4ca4a944fe4624828be0e6e11b6300bab65b5cb30d67e61591cbbbbf921551"
	const clients = 8
	cases := []struct{ method, fleet string }{
		{experiments.MethodProposed, "heterogeneous"},
		{experiments.MethodAblationCA, "heterogeneous"},
		{experiments.MethodAblationCACL, "heterogeneous"},
		{experiments.MethodAblationCAPR, "heterogeneous"},
		{experiments.MethodProposedWeight, "homogeneous"},
		{experiments.MethodFedAvg, "homogeneous"},
		{experiments.MethodFedProx, "homogeneous"},
		{experiments.MethodFedProto, "heterogeneous"},
		{experiments.MethodKTpFL, "heterogeneous"},
		{experiments.MethodBaseline, "heterogeneous"},
	}
	h := sha256.New()
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
		for _, kind := range []fl.SchedulerKind{fl.SchedSync, fl.SchedAsyncBounded, fl.SchedSemiSync} {
			for _, tc := range cases {
				s := experiments.Tiny()
				s.DType = dt
				build, _, err := experiments.NewFleetBuilder(experiments.Fashion, data.Dirichlet, tc.fleet, clients, s)
				if err != nil {
					t.Fatal(err)
				}
				fleet := make([]*fl.Client, clients)
				for i := range fleet {
					fleet[i] = build(i)
				}
				algo, err := experiments.NewAlgorithm(tc.method, experiments.Fashion, s)
				if err != nil {
					t.Fatal(err)
				}
				sim := fl.NewSimulation(fleet, fl.Config{Rounds: 2, BatchSize: s.BatchSize, Seed: s.Seed + 7})
				hist, err := sim.RunScheduled(algo, fl.SchedulerConfig{Kind: kind})
				if err != nil {
					t.Fatalf("%s/%s/%v: %v", tc.method, kind, dt, err)
				}
				for _, m := range hist {
					writeFloats(h, m.MeanAcc, m.StdAcc)
					writeFloats(h, m.PerClient...)
					writeInts(h, m.UpBytes, m.DownBytes)
				}
				for _, c := range fleet {
					writeFloats(h, nn.FlattenParams(c.Model.Params())...)
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("local training moved: SHA-256 %s, want %s", got, want)
	}
}

func writeFloats(h hash.Hash, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

func writeInts(h hash.Hash, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}
