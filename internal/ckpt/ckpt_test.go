// Checkpoint round-trip goldens: snapshot at round R through the binary
// format, restore into a freshly built simulation, and the continued run
// must be byte-identical (metrics and scheduler trace) to the uninterrupted
// one — for the sync, async and semi-sync schedulers.
package ckpt_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/baselines"
	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/models"
	"repro/internal/opt"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// fleet builds k identically seeded MLP clients with serializable RNG
// sources, over a non-iid Fashion-MNIST stand-in split. Homogeneous models
// keep every algorithm runnable.
func fleet(t *testing.T, k int) []*fl.Client { return fleetOf(t, k, tensor.F64) }

func fleetOf(t testing.TB, k int, dt tensor.DType) []*fl.Client {
	return fleetWith(t, k, models.Config{FeatDim: 8, Hidden: 16, DType: dt}, func() opt.Optimizer { return opt.NewAdam(0.01) })
}

// fleetWith builds the fleet over an MLP of the given width and dtype (the
// dataset fills in the geometry) with one optimizer per client.
func fleetWith(t testing.TB, k int, cfg models.Config, mkOpt func() opt.Optimizer) []*fl.Client {
	t.Helper()
	ds := data.Generate(data.SynthFashion(6, 4, 3))
	parts, err := data.Partition(ds, k, data.PartitionOptions{Kind: data.Dirichlet, Alpha: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Arch, cfg.InC, cfg.InH, cfg.InW, cfg.NumClasses = models.ArchMLP, ds.C, ds.H, ds.W, ds.NumClasses
	clients := make([]*fl.Client, k)
	for i := range clients {
		rng, src := xrand.NewRand(int64(i + 100))
		clients[i] = &fl.Client{
			ID: i, Model: models.New(cfg, xrand.New(int64(i+1))), Train: parts[i].Train, Test: parts[i].Test,
			Aug:       data.NewAugmenter(ds.C, ds.H, ds.W),
			Rng:       rng,
			Src:       src,
			Optimizer: mkOpt(),
		}
	}
	return clients
}

func encodeHistory(t *testing.T, hist []fl.RoundMetrics) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(hist); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func schedFor(kind fl.SchedulerKind) fl.SchedulerConfig {
	return fl.SchedulerConfig{
		Kind:         kind,
		Costs:        []float64{2, 1, 1, 1},
		MaxStaleness: 3,
		Decay:        0.5,
		Quorum:       3,
	}
}

// killResumeGolden runs algo uninterrupted, then re-runs it with a
// checkpoint captured (through Marshal/Unmarshal) at captureRound and a
// fresh simulation resumed from it; histories and traces must match
// byte for byte.
func killResumeGolden(t *testing.T, kind fl.SchedulerKind, mkAlgo func() fl.Algorithm) {
	killResumeGoldenOf(t, kind, tensor.F64, comm.Spec{}, mkAlgo)
}

// killResumeGoldenOf is the golden at a model dtype and upload framing
// spec; it returns the decoded snapshot the run resumed from.
func killResumeGoldenOf(t *testing.T, kind fl.SchedulerKind, dt tensor.DType, spec comm.Spec, mkAlgo func() fl.Algorithm) *fl.Snapshot {
	t.Helper()
	const rounds, captureRound = 5, 2
	cfg := fl.Config{Rounds: rounds, BatchSize: 8, Seed: 9, Codec: spec.Value, TopK: spec.Frac, Delta: spec.Delta}
	fleet := func(t *testing.T, k int) []*fl.Client { return fleetOf(t, k, dt) }

	// Uninterrupted reference.
	refTrace := &fl.Trace{}
	refSched := schedFor(kind)
	refSched.Trace = refTrace
	refSim := fl.NewSimulation(fleet(t, 4), cfg)
	refHist, err := refSim.RunScheduled(mkAlgo(), refSched)
	if err != nil {
		t.Fatal(err)
	}

	// Checkpointed run (identical seed): capture the serialized snapshot at
	// captureRound, then discard the process state.
	var blob []byte
	ckptSched := schedFor(kind)
	ckptSched.Trace = &fl.Trace{}
	ckptSched.Checkpoint = func(snap *fl.Snapshot) error {
		if snap.Round == captureRound {
			b, err := ckpt.Marshal(snap, comm.F64)
			if err != nil {
				return err
			}
			blob = b
		}
		return nil
	}
	ckptSim := fl.NewSimulation(fleet(t, 4), cfg)
	ckptHist, err := ckptSim.RunScheduled(mkAlgo(), ckptSched)
	if err != nil {
		t.Fatal(err)
	}
	// Checkpointing must not perturb the schedule.
	if !bytes.Equal(encodeHistory(t, refHist), encodeHistory(t, ckptHist)) {
		t.Fatal("enabling checkpoints changed the metrics history")
	}
	if blob == nil {
		t.Fatalf("no checkpoint captured at round %d", captureRound)
	}

	// Resume into a completely fresh simulation, as a restarted process
	// would.
	snap, err := ckpt.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Round != captureRound || snap.Kind != kind {
		t.Fatalf("decoded snapshot round %d kind %v", snap.Round, snap.Kind)
	}
	resTrace := &fl.Trace{}
	resSched := schedFor(kind)
	resSched.Trace = resTrace
	resSched.Resume = snap
	resSim := fl.NewSimulation(fleet(t, 4), cfg)
	resHist, err := resSim.RunScheduled(mkAlgo(), resSched)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(encodeHistory(t, refHist), encodeHistory(t, resHist)) {
		t.Fatalf("resumed metrics history differs from the uninterrupted run\nref: %+v\ngot: %+v", refHist, resHist)
	}
	if !reflect.DeepEqual(refTrace, resTrace) {
		t.Fatalf("resumed scheduler trace differs from the uninterrupted run\nref: %d events\ngot: %d events",
			len(refTrace.Events), len(resTrace.Events))
	}
	// The history's rows carry per-round bytes only; the ledger's totals and
	// its round list must survive the resume too.
	if ref, got := refSim.Ledger, resSim.Ledger; ref.TotalUp() != got.TotalUp() || ref.TotalDown() != got.TotalDown() ||
		!reflect.DeepEqual(ref.Rounds(), got.Rounds()) {
		t.Fatalf("resumed ledger differs from the uninterrupted run\nref: up %d down %d %+v\ngot: up %d down %d %+v",
			ref.TotalUp(), ref.TotalDown(), ref.Rounds(), got.TotalUp(), got.TotalDown(), got.Rounds())
	}
	return snap
}

func TestKillResumeGoldenFedClassAvg(t *testing.T) {
	for _, kind := range []fl.SchedulerKind{fl.SchedSync, fl.SchedAsyncBounded, fl.SchedSemiSync} {
		t.Run(kind.String(), func(t *testing.T) {
			killResumeGolden(t, kind, func() fl.Algorithm { return core.New(core.DefaultOptions()) })
		})
	}
}

// The byte-identical replay contract holds at float32 exactly as at
// float64: flat snapshot vectors are f32-exact, so a resumed f32 run
// continues the interrupted trajectory bit for bit.
func TestKillResumeGoldenFloat32(t *testing.T) {
	for _, kind := range []fl.SchedulerKind{fl.SchedSync, fl.SchedAsyncBounded, fl.SchedSemiSync} {
		t.Run(kind.String(), func(t *testing.T) {
			killResumeGoldenOf(t, kind, tensor.F32, comm.Spec{}, func() fl.Algorithm { return core.New(core.DefaultOptions()) })
		})
	}
}

// And at bf16: parameters live at bf16 precision (f32-representable by
// construction), so snapshot vectors capture them exactly and a resumed
// bf16 run replays the interrupted trajectory bit for bit.
func TestKillResumeGoldenBF16(t *testing.T) {
	for _, kind := range []fl.SchedulerKind{fl.SchedSync, fl.SchedAsyncBounded, fl.SchedSemiSync} {
		t.Run(kind.String(), func(t *testing.T) {
			killResumeGoldenOf(t, kind, tensor.BF16, comm.Spec{}, func() fl.Algorithm { return core.New(core.DefaultOptions()) })
		})
	}
}

// A checkpoint records the run's model dtype; restoring into a fleet of the
// other dtype must fail fast with a clear error.
func TestResumeRejectsDTypeMismatch(t *testing.T) {
	cfg := fl.Config{Rounds: 2, BatchSize: 8, Seed: 3}
	var blob []byte
	sched := schedFor(fl.SchedAsyncBounded)
	sched.Checkpoint = func(snap *fl.Snapshot) error {
		if blob == nil {
			b, err := ckpt.Marshal(snap, comm.F64)
			blob = b
			return err
		}
		return nil
	}
	sim := fl.NewSimulation(fleetOf(t, 4, tensor.F32), cfg)
	if _, err := sim.RunScheduled(baselines.NewFedAvg(1), sched); err != nil {
		t.Fatal(err)
	}
	snap, err := ckpt.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if snap.DType != tensor.F32 {
		t.Fatalf("snapshot dtype %v, want f32 recorded in the header", snap.DType)
	}
	bad := schedFor(fl.SchedAsyncBounded)
	bad.Resume = snap
	_, err = fl.NewSimulation(fleetOf(t, 4, tensor.F64), cfg).RunScheduled(baselines.NewFedAvg(1), bad)
	if err == nil {
		t.Fatal("resuming an f32 checkpoint into an f64 fleet must fail")
	}
}

// Uploads in flight at the snapshot carry their exact frame bytes through
// the checkpoint: a resumed top-k run must book them at the sparse frame
// size they were encoded at, not re-price them densely, so per-round
// UpBytes match the uninterrupted run.
func TestKillResumeGoldenSparseUplink(t *testing.T) {
	for _, kind := range []fl.SchedulerKind{fl.SchedAsyncBounded, fl.SchedSemiSync} {
		t.Run(kind.String(), func(t *testing.T) {
			snap := killResumeGoldenOf(t, kind, tensor.F64, comm.NewSpec(comm.F32, 0.05, false),
				func() fl.Algorithm { return baselines.NewFedAvg(1) })
			if len(snap.Flights) == 0 {
				t.Fatal("snapshot holds no in-flight update; the test would not exercise the flight's byte count")
			}
			for _, f := range snap.Flights {
				if dense := comm.WireSizeAs(comm.F32, f.Update.Vecs[0].Len()); f.Update.UpBytes <= 0 || f.Update.UpBytes >= dense/4 {
					t.Fatalf("in-flight top-k upload restored at %d bytes (dense would be %d)", f.Update.UpBytes, dense)
				}
			}
		})
	}
}

func TestKillResumeGoldenFedAvg(t *testing.T) {
	for _, kind := range []fl.SchedulerKind{fl.SchedSync, fl.SchedAsyncBounded, fl.SchedSemiSync} {
		t.Run(kind.String(), func(t *testing.T) {
			killResumeGolden(t, kind, func() fl.Algorithm { return baselines.NewFedAvg(1) })
		})
	}
}

// FedProto exercises the nil-able prototype vectors and the class-segmented
// accumulator; KT-pFL the pending-transfer tables.
func TestKillResumeGoldenStatefulAlgorithms(t *testing.T) {
	t.Run("FedProto", func(t *testing.T) {
		killResumeGolden(t, fl.SchedAsyncBounded, func() fl.Algorithm { return baselines.NewFedProto(1, 1.0) })
	})
	t.Run("KT-pFL+weight", func(t *testing.T) {
		killResumeGolden(t, fl.SchedSemiSync, func() fl.Algorithm { return baselines.NewKTpFLWeights(1) })
	})
}

// Churn: a run where clients leave and rejoin must still commit every
// configured round, with monotonically increasing commit versions — and
// must survive kill/resume like any other run.
func TestChurnCompletesAndResumes(t *testing.T) {
	const rounds = 6
	cfg := fl.Config{Rounds: rounds, BatchSize: 8, Seed: 11}
	mkSched := func() fl.SchedulerConfig {
		return fl.SchedulerConfig{
			Kind:        fl.SchedAsyncBounded,
			Costs:       []float64{2, 1, 1, 1},
			LeaveProb:   0.3,
			RejoinAfter: 3,
		}
	}

	tr := &fl.Trace{}
	sched := mkSched()
	sched.Trace = tr
	var blob []byte
	sched.Checkpoint = func(snap *fl.Snapshot) error {
		if snap.Round == 3 {
			b, err := ckpt.Marshal(snap, comm.F64)
			blob = b
			return err
		}
		return nil
	}
	sim := fl.NewSimulation(fleet(t, 4), cfg)
	hist, err := sim.RunScheduled(core.New(core.DefaultOptions()), sched)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != rounds {
		t.Fatalf("churn run recorded %d rounds, want %d", len(hist), rounds)
	}
	leaves, lastCommit := 0, 0
	for _, ev := range tr.Events {
		switch ev.Kind {
		case fl.TraceLeave:
			leaves++
		case fl.TraceCommit:
			if ev.Version != lastCommit+1 {
				t.Fatalf("commit version jumped %d -> %d", lastCommit, ev.Version)
			}
			lastCommit = ev.Version
		}
	}
	if leaves == 0 {
		t.Fatal("LeaveProb 0.3 over 6 rounds produced no leave events")
	}
	if lastCommit != rounds {
		t.Fatalf("last commit version %d, want %d", lastCommit, rounds)
	}

	// Resume mid-churn: departed clients must stay departed.
	snap, err := ckpt.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	resSched := mkSched()
	resTrace := &fl.Trace{}
	resSched.Trace = resTrace
	resSched.Resume = snap
	resSim := fl.NewSimulation(fleet(t, 4), cfg)
	resHist, err := resSim.RunScheduled(core.New(core.DefaultOptions()), resSched)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeHistory(t, hist), encodeHistory(t, resHist)) {
		t.Fatal("churn run resumed differently from the uninterrupted run")
	}
	if !reflect.DeepEqual(tr, resTrace) {
		t.Fatal("churn trace resumed differently from the uninterrupted run")
	}
}

// Quantized checkpoints restore and run to completion (the space/fidelity
// trade is allowed to change metrics, not to break the run), and are
// smaller than lossless ones.
func TestQuantizedCheckpointRestores(t *testing.T) {
	cfg := fl.Config{Rounds: 4, BatchSize: 8, Seed: 5}
	var f64Blob, i8Blob []byte
	sched := schedFor(fl.SchedAsyncBounded)
	sched.Checkpoint = func(snap *fl.Snapshot) error {
		if snap.Round == 2 {
			var err error
			if f64Blob, err = ckpt.Marshal(snap, comm.F64); err != nil {
				return err
			}
			if i8Blob, err = ckpt.Marshal(snap, comm.I8); err != nil {
				return err
			}
		}
		return nil
	}
	sim := fl.NewSimulation(fleet(t, 4), cfg)
	if _, err := sim.RunScheduled(core.New(core.DefaultOptions()), sched); err != nil {
		t.Fatal(err)
	}
	if len(i8Blob)*2 >= len(f64Blob) {
		t.Fatalf("int8 checkpoint is %d bytes vs %d lossless — expected at least 2x smaller", len(i8Blob), len(f64Blob))
	}
	snap, err := ckpt.Unmarshal(i8Blob)
	if err != nil {
		t.Fatal(err)
	}
	resSched := schedFor(fl.SchedAsyncBounded)
	resSched.Resume = snap
	resSim := fl.NewSimulation(fleet(t, 4), cfg)
	hist, err := resSim.RunScheduled(core.New(core.DefaultOptions()), resSched)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != cfg.Rounds {
		t.Fatalf("quantized resume recorded %d rounds, want %d", len(hist), cfg.Rounds)
	}
}

// A bf16 checkpoint loads and resumes to completion, on an eager fleet and
// on a lazy one, and is smaller than the f32 checkpoint of the same
// snapshot; a codec that is not dense is an error from Marshal.
func TestBF16CheckpointRestores(t *testing.T) {
	s := experiments.Tiny()
	cfg := fl.Config{Rounds: 3, BatchSize: s.BatchSize, Seed: s.Seed + 7}
	for _, budget := range []int{0, 2} {
		var f32Blob, bf16Blob []byte
		sched := fl.SchedulerConfig{Kind: fl.SchedAsyncBounded, Checkpoint: func(snap *fl.Snapshot) error {
			if snap.Round != 2 {
				return nil
			}
			var err error
			if f32Blob, err = ckpt.Marshal(snap, comm.F32); err != nil {
				return err
			}
			bf16Blob, err = ckpt.Marshal(snap, comm.BF16)
			return err
		}}
		if _, err := tinySim(t, budget, cfg).RunScheduled(tinyFedClassAvg(t), sched); err != nil {
			t.Fatal(err)
		}
		if len(bf16Blob) >= len(f32Blob) {
			t.Fatalf("budget %d: bf16 checkpoint is %d bytes, f32 %d — want it smaller", budget, len(bf16Blob), len(f32Blob))
		}
		snap, err := ckpt.Unmarshal(bf16Blob)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		res := fl.SchedulerConfig{Kind: fl.SchedAsyncBounded, Resume: snap}
		hist, err := tinySim(t, budget, cfg).RunScheduled(tinyFedClassAvg(t), res)
		if err != nil {
			t.Fatalf("budget %d: bf16 resume: %v", budget, err)
		}
		if len(hist) != cfg.Rounds {
			t.Fatalf("budget %d: bf16 resume recorded %d rounds, want %d", budget, len(hist), cfg.Rounds)
		}
	}
	for _, c := range []comm.Codec{comm.TopK, comm.Delta} {
		if _, err := ckpt.Marshal(&fl.Snapshot{}, c); err == nil {
			t.Fatalf("Marshal accepted the %s codec", c)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := fl.Config{Rounds: 2, BatchSize: 8, Seed: 3}
	sched := schedFor(fl.SchedSemiSync)
	sched.Checkpoint = ckpt.Saver(dir, comm.F64)
	sim := fl.NewSimulation(fleet(t, 4), cfg)
	if _, err := sim.RunScheduled(baselines.NewFedAvg(1), sched); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		snap, err := ckpt.Load(filepath.Join(dir, ckpt.FileName(round)))
		if err != nil {
			t.Fatal(err)
		}
		if snap.Round != round {
			t.Fatalf("loaded round %d from %s", snap.Round, ckpt.FileName(round))
		}
	}
	// No temporary files left behind by the atomic writes.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("checkpoint dir holds %d entries, want 2", len(entries))
	}
}

// The fields version 4 added — eval RNG stream, explicit fleet size, per-round
// evaluation sample ids — must survive the wire format.
func TestV4FieldsRoundTrip(t *testing.T) {
	cfg := fl.Config{Rounds: 2, BatchSize: 8, Seed: 3, EvalSample: 2}
	var blob []byte
	sched := schedFor(fl.SchedSync)
	sched.Checkpoint = func(snap *fl.Snapshot) error {
		b, err := ckpt.Marshal(snap, comm.F64)
		blob = b
		return err
	}
	sim := fl.NewSimulation(fleet(t, 4), cfg)
	if _, err := sim.RunScheduled(baselines.NewFedAvg(1), sched); err != nil {
		t.Fatal(err)
	}
	snap, err := ckpt.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if snap.FleetSize != 4 {
		t.Fatalf("fleet size %d, want 4", snap.FleetSize)
	}
	if snap.EvalRng == 0 {
		t.Fatal("eval RNG stream position not captured")
	}
	if len(snap.History) == 0 {
		t.Fatal("no history")
	}
	for _, m := range snap.History {
		if len(m.EvalIDs) != 2 || len(m.PerClient) != 2 {
			t.Fatalf("history entry lost its eval sample: %+v", m)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := ckpt.Unmarshal(nil); err == nil {
		t.Fatal("empty input must be rejected")
	}
	if _, err := ckpt.Unmarshal([]byte("NOTACKPTFILE....")); err == nil {
		t.Fatal("bad magic must be rejected")
	}
	// A valid checkpoint truncated anywhere must error, never panic.
	cfg := fl.Config{Rounds: 1, BatchSize: 8, Seed: 3}
	var blob []byte
	sched := fl.SchedulerConfig{Checkpoint: func(snap *fl.Snapshot) error {
		b, err := ckpt.Marshal(snap, comm.F64)
		blob = b
		return err
	}}
	sim := fl.NewSimulation(fleet(t, 4), cfg)
	if _, err := sim.RunScheduled(baselines.NewFedAvg(1), sched); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{9, 17, len(blob) / 2, len(blob) - 1} {
		if _, err := ckpt.Unmarshal(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d bytes must be rejected", cut)
		}
	}
	// Trailing bytes are an error too.
	if _, err := ckpt.Unmarshal(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("trailing bytes must be rejected")
	}
	// Files of earlier format versions, frames of the structural codecs
	// (checkpoints hold dense frames only) and client records that do not
	// decode are rejected by name.
	seeds := ckptSeeds(t)
	for name, want := range map[string]string{
		"version-4":          "version",
		"version-5":          "version",
		"version-6":          "version",
		"version-7":          "version",
		"frame-topk":         "dense frames only",
		"frame-delta":        "dense frames only",
		"record-truncated":   "record is truncated",
		"record-kind":        "frame of kind",
		"record-moment-huge": "claiming 1099511627776 values",
	} {
		if _, err := ckpt.Unmarshal(seeds[name]); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: got error %v, want one mentioning %q", name, err, want)
		}
	}
}

// TestUnmarshalRefusesNegativeJoinSize: a node checkpoint's join records
// are read through the join decoder the wire uses, so a record patched to
// declare a negative size fails to load, naming the field — restored, it
// would cancel the |D_k| start's weight total to zero.
func TestUnmarshalRefusesNegativeJoinSize(t *testing.T) {
	snap := &fl.Snapshot{Kind: fl.SchedSync, Round: 1, FleetSize: 3}
	for id := range 3 {
		snap.Joins = append(snap.Joins, fl.WireJoin{ID: id, TrainSize: 8, FeatDim: 4, NumClasses: 2, NumParams: 30, NumClassifier: 10})
	}
	blob, err := ckpt.Marshal(snap, comm.F64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.Unmarshal(blob); err != nil {
		t.Fatalf("unpatched checkpoint: %v", err)
	}
	// The file ends with the last join record: its ints, then the byte
	// marking its init payload absent. TrainSize is the second int.
	neg := int64(-16)
	binary.LittleEndian.PutUint64(blob[len(blob)-(fl.JoinInts*8+1)+8:], uint64(neg))
	if _, err := ckpt.Unmarshal(blob); err == nil || !strings.Contains(err.Error(), "TrainSize -16") {
		t.Fatalf("got error %v, want one naming TrainSize -16", err)
	}
}

// Marshal encodes every vector straight into the output buffer: a snapshot
// of many vectors must cost far fewer allocations than it has vectors.
func TestMarshalAllocsNoFramePerVector(t *testing.T) {
	snap := &fl.Snapshot{Algo: &fl.AlgoState{Vecs: make([][]float64, 128)}}
	for i := range snap.Algo.Vecs {
		snap.Algo.Vecs[i] = make([]float64, 64)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := ckpt.Marshal(snap, comm.F32); err != nil {
			t.Fatal(err)
		}
	})
	if avg >= float64(len(snap.Algo.Vecs))/4 {
		t.Fatalf("Marshal of %d vectors allocates %.0f objects/op", len(snap.Algo.Vecs), avg)
	}
}

// Resuming under a mismatched configuration must fail fast with a clear
// error, not corrupt state.
func TestResumeValidation(t *testing.T) {
	cfg := fl.Config{Rounds: 2, BatchSize: 8, Seed: 3}
	var blob []byte
	sched := schedFor(fl.SchedAsyncBounded)
	sched.Checkpoint = func(snap *fl.Snapshot) error {
		if blob == nil {
			b, err := ckpt.Marshal(snap, comm.F64)
			blob = b
			return err
		}
		return nil
	}
	sim := fl.NewSimulation(fleet(t, 4), cfg)
	if _, err := sim.RunScheduled(baselines.NewFedAvg(1), sched); err != nil {
		t.Fatal(err)
	}
	snap, err := ckpt.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}

	// Wrong scheduler kind.
	bad := schedFor(fl.SchedSemiSync)
	bad.Resume = snap
	if _, err := fl.NewSimulation(fleet(t, 4), cfg).RunScheduled(baselines.NewFedAvg(1), bad); err == nil {
		t.Fatal("resuming an async checkpoint under semisync must fail")
	}
	// Wrong client count.
	bad2 := schedFor(fl.SchedAsyncBounded)
	bad2.Resume = snap
	if _, err := fl.NewSimulation(fleet(t, 3), cfg).RunScheduled(baselines.NewFedAvg(1), bad2); err == nil {
		t.Fatal("resuming with a different fleet size must fail")
	}
}

// A forged collection count must not reach an allocation: Unmarshal of a
// valid checkpoint with one count raised to every byte left in the file
// must allocate at most a few times the file's size before it fails. A
// vector table costs 24 bytes of slice header per slot against one
// presence byte on disk, and a word list 8 bytes per element, so a decoder
// that sized either from the declared count would allocate 8 to 24 times
// the file here.
func TestUnmarshalAllocsBoundedByInput(t *testing.T) {
	var blob []byte
	sched := schedFor(fl.SchedAsyncBounded)
	sched.Checkpoint = func(snap *fl.Snapshot) error {
		var err error
		blob, err = ckpt.Marshal(snap, comm.F64)
		return err
	}
	sim := fl.NewSimulation(fleet(t, 4), fl.Config{Rounds: 1, BatchSize: 8, Seed: 3})
	if _, err := sim.RunScheduled(baselines.NewFedProto(1, 1.0), sched); err != nil {
		t.Fatal(err)
	}
	snap, err := ckpt.Unmarshal(blob)
	if err != nil || len(snap.Flights) == 0 || snap.Flights[0].Update.Counts == nil {
		t.Fatalf("checkpoint holds no flight with counts (err %v)", err)
	}
	// The first flight's vector table sits behind the 20-byte header, eight
	// scalar words, the NodeFree vector, the Idle flags, the Away vector,
	// the flight count and the flight's six words; its word list follows
	// the table.
	slot := func(v []float64) int {
		if v == nil {
			return 1
		}
		return 1 + 8 + int(comm.WireSizeAs(comm.F64, len(v)))
	}
	u := snap.Flights[0].Update
	vecsAt := 20 + 8*8 + slot(snap.NodeFree) + 8 + len(snap.Idle) + slot(snap.Away) + 8 + 6*8 + 1
	countsAt := vecsAt + 8 + 1
	for _, v := range u.Vecs {
		countsAt += 1
		if !v.Nil() {
			countsAt += 8 + int(comm.WireSizeAs(comm.F64, v.Len()))
		}
	}
	for _, c := range []struct {
		name    string
		at, was int
	}{
		{"vector table", vecsAt, len(u.Vecs)},
		{"word list", countsAt, len(u.Counts)},
	} {
		if got := binary.LittleEndian.Uint64(blob[c.at:]); got != uint64(c.was) {
			t.Fatalf("%s: checkpoint layout moved: count %d where %d belongs", c.name, got, c.was)
		}
		forged := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint64(forged[c.at:], uint64(len(forged)-c.at-8))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ckpt.Unmarshal(forged)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: forged count decoded", c.name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4*uint64(len(forged)) {
			t.Fatalf("%s: a forged count in a %d-byte checkpoint allocated %d bytes (%.1fx)",
				c.name, len(forged), alloc, float64(alloc)/float64(len(forged)))
		}
	}
}
