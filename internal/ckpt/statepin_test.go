package ckpt_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// tinySim builds a Tiny-scale simulation over the heterogeneous Fashion
// fleet at dtype dt: eager for budget 0, lazy with that many residents
// otherwise.
func tinySim(t testing.TB, dt tensor.DType, budget int, cfg fl.Config) *fl.Simulation {
	t.Helper()
	s := experiments.Tiny()
	s.DType = dt
	if budget > 0 {
		build, _, err := experiments.NewLazyFleetBuilder(experiments.Fashion, data.Dirichlet, "heterogeneous", s.Clients, s)
		if err != nil {
			t.Fatal(err)
		}
		return fl.NewLazySimulation(s.Clients, build, budget, cfg)
	}
	build, _, err := experiments.NewFleetBuilder(experiments.Fashion, data.Dirichlet, "heterogeneous", s.Clients, s)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*fl.Client, s.Clients)
	for i := range clients {
		clients[i] = build(i)
	}
	return fl.NewSimulation(clients, cfg)
}

// tinyFedClassAvg is FedClassAvg at Tiny scale.
func tinyFedClassAvg(t testing.TB) fl.Algorithm {
	t.Helper()
	algo, err := experiments.NewAlgorithm(experiments.MethodProposed, experiments.Fashion, experiments.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	return algo
}

// TestRestoredStatePinned pins what a checkpoint restores, whatever its
// bytes: one SHA-256 over every touched client's parameters, buffers,
// optimizer state and RNG position after a resume, recorded at 5ef0b84, when
// the checkpoint's client section still had its own per-field codec. The
// runs are Tiny-scale FedClassAvg on the heterogeneous fleet — eager sync,
// eager async and lazy async at budget 2 — each checkpointed at round 1
// under the lossless f64 codec and under i8, decoded, and resumed into a
// fresh simulation configured for that one round, so nothing trains after
// the restore. The i8 half holds only if the client section quantizes every
// vector exactly as that format did.
func TestRestoredStatePinned(t *testing.T) {
	const want = "8c3728adcee4d9570dbe46e796cab689f4f78b3e9a1cfcaaa10621cc75fed8da"
	s := experiments.Tiny()
	cfg := fl.Config{Rounds: 1, BatchSize: s.BatchSize, Seed: s.Seed + 7}
	codecs := []comm.Codec{comm.F64, comm.I8}
	h := sha256.New()
	for _, run := range []struct {
		kind   fl.SchedulerKind
		budget int // 0: an eager fleet
	}{{fl.SchedSync, 0}, {fl.SchedAsyncBounded, 0}, {fl.SchedAsyncBounded, 2}} {
		blobs := map[comm.Codec][]byte{}
		sched := fl.SchedulerConfig{Kind: run.kind, Checkpoint: func(snap *fl.Snapshot) error {
			for _, codec := range codecs {
				b, err := ckpt.Marshal(snap, codec)
				if err != nil {
					return err
				}
				blobs[codec] = b
			}
			return nil
		}}
		if _, err := tinySim(t, tensor.F64, run.budget, cfg).RunScheduled(tinyFedClassAvg(t), sched); err != nil {
			t.Fatal(err)
		}
		for _, codec := range codecs {
			snap, err := ckpt.Unmarshal(blobs[codec])
			if err != nil {
				t.Fatalf("%s budget %d %s: %v", run.kind, run.budget, codec, err)
			}
			if len(snap.Clients) == 0 {
				t.Fatalf("%s budget %d: the checkpoint holds no client", run.kind, run.budget)
			}
			sim := tinySim(t, tensor.F64, run.budget, cfg)
			res := fl.SchedulerConfig{Kind: run.kind, Resume: snap}
			if _, err := sim.RunScheduled(tinyFedClassAvg(t), res); err != nil {
				t.Fatalf("%s budget %d %s resume: %v", run.kind, run.budget, codec, err)
			}
			for i := range snap.Clients {
				hashClient(h, sim.Client(snap.Clients[i].ID))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("restored client state moved: SHA-256 %s, want %s", got, want)
	}
}

// hashClient writes c's id, flat parameters, flat buffers, optimizer state
// and RNG position into h, each vector behind its length. The optimizer
// state is its counters, then the model's moments as the optimizer's
// snapshot once held them: a count of 2·len(params), then every parameter's
// m block and every v block (a count of 0 for a model that never stepped).
func hashClient(h hash.Hash, c *fl.Client) {
	word := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	vec := func(v []float64) {
		word(uint64(len(v)))
		for _, x := range v {
			word(math.Float64bits(x))
		}
	}
	word(uint64(c.ID))
	params := c.Model.Params()
	vec(nn.FlattenParams(params))
	vec(nn.AppendFlatBuffers(nil, c.Model.Buffers()))
	st := c.Optimizer.(opt.Checkpointable).State()
	word(uint64(len(st.Ints)))
	for _, v := range st.Ints {
		word(uint64(v))
	}
	if !nn.MomentsLive(params) {
		word(0)
	} else {
		word(uint64(2 * len(params)))
		for _, p := range params {
			vec(p.M.AppendFloat64s(nil))
		}
		for _, p := range params {
			vec(p.V.AppendFloat64s(nil))
		}
	}
	word(c.Src.State())
}
