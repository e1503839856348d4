package ckpt_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/transport"
)

// seedFleet is a two-client fleet narrow enough (a 2-unit MLP under a
// stateless optimizer) that a whole snapshot of it is a few kilobytes — a
// corpus entry the fuzzer can mutate quickly and the repo can afford to
// check in.
func seedFleet(t testing.TB) []*fl.Client {
	return fleetWith(t, 2, models.Config{FeatDim: 4, Hidden: 2}, func() opt.Optimizer { return plainStep{} })
}

// plainStep is w ← w − 0.05·g on float64 parameters. It keeps no state, so
// its client records carry no counter and no moment.
type plainStep struct{}

func (plainStep) Step(params []*nn.Param) {
	for _, p := range params {
		for i, g := range p.Grad.Data {
			p.Value.Data[i] -= 0.05 * g
		}
	}
}

func (plainStep) State() opt.State { return opt.State{} }

func (plainStep) SetState(st opt.State) error {
	if len(st.Ints)+len(st.Vecs) != 0 {
		return fmt.Errorf("plainStep keeps no state, got %d ints and %d vectors", len(st.Ints), len(st.Vecs))
	}
	return nil
}

// engineSeed runs one round under kind and returns the round-1 checkpoint.
func engineSeed(t testing.TB, kind fl.SchedulerKind, algo fl.Algorithm, codec comm.Codec) []byte {
	t.Helper()
	var blob []byte
	sched := fl.SchedulerConfig{Kind: kind, Costs: []float64{2, 1}, Checkpoint: func(snap *fl.Snapshot) error {
		b, err := ckpt.Marshal(snap, codec)
		blob = b
		return err
	}}
	sim := fl.NewSimulation(seedFleet(t), fl.Config{Rounds: 1, BatchSize: 8, Seed: 3})
	if _, err := sim.RunScheduled(algo, sched); err != nil {
		t.Fatal(err)
	}
	return blob
}

// nodeSeed runs a one-round node federation over the inproc transport and
// returns the server's checkpoint: no client states, but the session table
// and the join declarations the server rebuilt its state from.
func nodeSeed(t testing.TB) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	tr := transport.NewInproc(transport.Options{})
	ln, err := tr.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	clients := seedFleet(t)
	errc := make(chan error, len(clients))
	for _, c := range clients {
		go func(c *fl.Client) {
			conn, err := tr.Dial(ctx, "srv")
			if err != nil {
				errc <- err
				return
			}
			errc <- (&fl.ClientNode{Client: c, Algo: core.New(core.DefaultOptions())}).Run(ctx, conn)
		}(c)
	}
	var blob []byte
	srv := fl.NewServerNode(core.New(core.DefaultOptions()), fl.NodeConfig{
		Config:  fl.Config{Rounds: 1, SampleRate: 1, BatchSize: 8, Seed: 3},
		Clients: len(clients),
		Checkpoint: func(snap *fl.Snapshot) error {
			b, err := ckpt.Marshal(snap, comm.F64)
			blob = b
			return err
		},
	})
	if _, err := srv.Serve(ctx, ln); err != nil {
		t.Fatal(err)
	}
	for range clients {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	return blob
}

// nodeFreeAt is the offset of a checkpoint's first vector field (NodeFree):
// the 20-byte header and eight scalar words precede it. The field is a
// presence byte, the frame length, then the frame, whose codec is the top
// byte of the little-endian codec/length word behind the 4-byte tag.
const (
	nodeFreeAt      = 20 + 8*8
	firstFrameCodec = nodeFreeAt + 1 + 8 + 4 + 7
)

// withFirstFrameCodec returns blob up to the end of its first vector frame,
// with that frame relabelled as codec c.
func withFirstFrameCodec(t testing.TB, blob []byte, c comm.Codec) []byte {
	t.Helper()
	if blob[nodeFreeAt] != 1 || blob[firstFrameCodec] != byte(comm.F64) {
		t.Fatal("checkpoint layout moved: the first vector frame is not where this helper patches")
	}
	end := nodeFreeAt + 1 + 8 + int(binary.LittleEndian.Uint64(blob[nodeFreeAt+1:]))
	out := append([]byte(nil), blob[:end]...)
	out[firstFrameCodec] = byte(c)
	return out
}

// firstRecord locates a checkpoint's first client record: its offset and
// its bytes, which Unmarshal copies as they lie in the file.
func firstRecord(t testing.TB, blob []byte) (int, []byte) {
	t.Helper()
	snap, err := ckpt.Unmarshal(blob)
	if err != nil || len(snap.Clients) == 0 {
		t.Fatalf("seed checkpoint holds no client record (err %v)", err)
	}
	rec := snap.Clients[0].Rec
	at := bytes.Index(blob, rec)
	if at < 16 || binary.LittleEndian.Uint64(blob[at-8:]) != uint64(len(rec)) {
		t.Fatal("checkpoint layout moved: the first client record is not behind its length")
	}
	return at, rec
}

// ckptSeeds is the fuzz corpus: one real snapshot per scheduler and bulk
// codec, and one specimen of each rejection class the decoder enforces.
func ckptSeeds(t testing.TB) map[string][]byte {
	async := engineSeed(t, fl.SchedAsyncBounded, baselines.NewFedProto(1, 1.0), comm.F32)
	version := func(v byte) []byte {
		b := append([]byte(nil), async[:nodeFreeAt]...)
		b[8] = v
		return b
	}
	// The first record one byte short, behind a length that agrees.
	at, rec := firstRecord(t, async)
	short := append([]byte(nil), async[:at-8]...)
	short = binary.LittleEndian.AppendUint64(short, uint64(len(rec)-1))
	short = append(append(short, rec[:len(rec)-1]...), async[at+len(rec):]...)
	// The first record's parameter frame relabelled with the buffers' tag. A
	// record opens [rng u64][#ints u64][ints…], then the parameter frame
	// behind its u64 length; the frame opens with its u32 kind tag, 1 for
	// parameters and 2 for buffers (internal/fl store.go).
	tag := at + 16 + 8*int(binary.LittleEndian.Uint64(rec[8:])) + 8
	if binary.LittleEndian.Uint32(async[tag:]) != 1 {
		t.Fatal("record layout moved: the parameter frame's tag is not where this seed patches")
	}
	kind := append([]byte(nil), async...)
	binary.LittleEndian.PutUint32(kind[tag:], 2)
	// The first record with a moment frame (tag 3) appended that holds one
	// f64 value and claims 2^40 in its header: rejected before anything
	// that size is allocated.
	mom := comm.MarshalSpecInto(nil, comm.Spec{Value: comm.F64}, 3, []float64{1}, nil)
	binary.LittleEndian.PutUint64(mom[4:], uint64(comm.F64)<<56|1<<40)
	huge := binary.LittleEndian.AppendUint64(append([]byte(nil), async[:at-8]...), uint64(len(rec)+8+len(mom)))
	huge = append(append(binary.LittleEndian.AppendUint64(append(huge, rec...), uint64(len(mom))), mom...), async[at+len(rec):]...)
	return map[string][]byte{
		"sync-i8":            engineSeed(t, fl.SchedSync, baselines.NewFedAvg(1), comm.I8),
		"async-flights":      async,
		"node-sessions":      nodeSeed(t),
		"truncated":          async[:len(async)/2],
		"version-4":          version(4),
		"version-5":          version(5),
		"version-6":          version(6),
		"version-7":          version(7),
		"frame-topk":         withFirstFrameCodec(t, async, comm.TopK),
		"frame-delta":        withFirstFrameCodec(t, async, comm.Delta),
		"record-truncated":   short,
		"record-kind":        kind,
		"record-moment-huge": huge,
	}
}

// decodedElems counts every element a decoded snapshot holds. Each one is
// backed by at least one input byte, which is what bounds the decoder's
// allocations by the input length.
func decodedElems(s *fl.Snapshot) int {
	n := len(s.NodeFree) + len(s.Idle) + len(s.Away) + len(s.Flights) + len(s.History) + len(s.Trace) +
		len(s.Ledger.Rounds) + len(s.Clients) + len(s.Sessions) + len(s.Joins)
	vecs := func(vs [][]float64) {
		n += len(vs)
		for _, v := range vs {
			n += len(v)
		}
	}
	bodies := func(vs []comm.Body) {
		n += len(vs)
		for _, v := range vs {
			n += v.Len()
		}
	}
	for _, f := range s.Flights {
		bodies(f.Update.Vecs)
		n += len(f.Update.Counts)
	}
	for _, m := range s.History {
		n += len(m.PerClient) + len(m.EvalIDs)
	}
	for _, c := range s.Clients {
		n += len(c.Rec)
	}
	if s.Algo != nil {
		n += len(s.Algo.Ints)
		vecs(s.Algo.Vecs)
	}
	for _, j := range s.Joins {
		vecs(j.Init)
	}
	return n
}

// FuzzCkptUnmarshal hardens the checkpoint decoder: arbitrary bytes must
// never panic or decode more elements than the input has bytes, and any
// accepted file re-marshals canonically — marshalling it under f64,
// decoding that and marshalling again is byte-identical.
func FuzzCkptUnmarshal(f *testing.F) {
	for _, s := range ckptSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		snap, err := ckpt.Unmarshal(b)
		if err != nil {
			return
		}
		if n := decodedElems(snap); n > len(b) {
			t.Fatalf("decoded %d elements from %d bytes", n, len(b))
		}
		first, err := ckpt.Marshal(snap, comm.F64)
		if err != nil {
			t.Fatalf("re-marshalling an accepted checkpoint: %v", err)
		}
		again, err := ckpt.Unmarshal(first)
		if err != nil {
			t.Fatalf("re-decoding a re-marshalled checkpoint: %v", err)
		}
		second, err := ckpt.Marshal(again, comm.F64)
		if err != nil || !bytes.Equal(first, second) {
			t.Fatalf("f64 re-marshal is not a fixed point (err %v, %d vs %d bytes)", err, len(first), len(second))
		}
	})
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus. Run with
// REGEN_FUZZ_CORPUS=1 after changing the checkpoint format.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_CORPUS") == "" {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz seeds")
	}
	const dir = "testdata/fuzz/FuzzCkptUnmarshal/"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, s := range ckptSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(s)))
		if err := os.WriteFile(dir+name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
