package fl

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// spilledBytes sums the live records of the store's segment.
func (st *ClientStore) spilledBytes() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	var n int64
	for _, sp := range st.seg.index {
		n += sp.n
	}
	return n
}

func (st *ClientStore) segmentLen() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.seg.end
}

// noSpillFiles fails if a segment file has a name: the store unlinks its
// segment as soon as it is created, so none may ever be visible.
func noSpillFiles(t *testing.T) {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(os.TempDir(), "fl-spill-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("segment files left behind: %v", left)
	}
}

func mustEvict(t *testing.T, st *ClientStore, pinned func(int) bool) {
	t.Helper()
	if err := st.EvictToBudget(pinned); err != nil {
		t.Fatal(err)
	}
}

// spillTrained materializes ids, trains each for an epoch, captures their
// records and evicts down to the budget.
func spillTrained(t *testing.T, st *ClientStore, ids ...int) map[int][]byte {
	t.Helper()
	want := make(map[int][]byte)
	for _, id := range ids {
		c := st.Get(id)
		c.TrainEpochCE(8)
		want[id] = clientRecord(t, c)
	}
	mustEvict(t, st, nil)
	return want
}

// rewriteRecord decodes rec's vectors — parameters, buffers, then every
// moment frame — lets edit change them, and encodes the result behind rec's
// RNG position and optimizer ints: a record that decodes, for some other
// model or optimizer.
func rewriteRecord(t *testing.T, rec []byte, edit func(vecs [][]float64) [][]float64) []byte {
	t.Helper()
	r := comm.NewReader(rec, "client record")
	recHeader(&r)
	out := append([]byte(nil), rec[:len(rec)-r.Len()]...)
	var vecs [][]float64
	for kind := recParams; r.Err() == nil && r.Len() > 0; kind = min(kind+1, recMoment) {
		vecs = append(vecs, r.DenseFrame(kind).Decode(nil))
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	for i, v := range edit(vecs) {
		out = comm.AppendFrame(out, comm.Spec{}, min(recParams+uint32(i), recMoment), v, nil)
	}
	return out
}

// A snapshot naming a client outside the fleet, or one client twice, or
// holding a record that does not decode or does not fit its client, must be
// rejected before the store changes: the residents stay, and a client that
// was spilled still rehydrates to the state it was evicted with.
func TestRestoreTouchedRejectsBeforeMutating(t *testing.T) {
	st := NewClientStore(8, lazyTestBuilder(t, 8), 2)
	want := spillTrained(t, st, 3, 0, 1) // 3 is the least recently used: spilled
	if st.Resident() != 2 {
		t.Fatalf("%d resident, want 2", st.Resident())
	}
	good, one := ClientRecord{ID: 0, Rec: want[0]}, want[1]
	// A rewritten client 1 comes with every other client the store holds,
	// so only its own record can be what is rejected. Its vectors are the
	// parameters, the buffers, then Adam's m and v for each of the MLP's
	// six parameters.
	rewrite := func(edit func(vecs [][]float64) [][]float64) []ClientRecord {
		return []ClientRecord{good, {ID: 1, Rec: rewriteRecord(t, one, edit)}, {ID: 3, Rec: want[3]}}
	}
	for name, recs := range map[string][]ClientRecord{
		"out of range":     {good, {ID: 9}},
		"negative":         {good, {ID: -1}},
		"duplicate":        {good, {ID: 1, Rec: one}, good},
		"truncated record": {good, {ID: 1, Rec: one[:len(one)-1]}},
		"short parameter frame": rewrite(func(vecs [][]float64) [][]float64 {
			vecs[0] = vecs[0][:len(vecs[0])-1]
			return vecs
		}),
		"first two m vectors swapped": rewrite(func(vecs [][]float64) [][]float64 {
			vecs[2], vecs[3] = vecs[3], vecs[2]
			return vecs
		}),
		"two moment vectors dropped": rewrite(func(vecs [][]float64) [][]float64 {
			return vecs[:len(vecs)-2]
		}),
		"v vectors dropped": rewrite(func(vecs [][]float64) [][]float64 {
			return vecs[:2+6] // decodes as one kind of moment: Adam wants two
		}),
		"one moment vector short": rewrite(func(vecs [][]float64) [][]float64 {
			last := vecs[len(vecs)-1]
			vecs[len(vecs)-1] = last[:len(last)-1]
			return vecs
		}),
	} {
		if err := st.RestoreTouched(recs, tensor.F64); err == nil {
			t.Fatalf("%s: restore accepted", name)
		}
		if st.Resident() != 2 {
			t.Fatalf("%s: rejected restore left %d resident, want 2", name, st.Resident())
		}
	}
	if !bytes.Equal(clientRecord(t, st.Get(3)), want[3]) {
		t.Fatal("client 3 lost its spilled state to a rejected restore")
	}
	noSpillFiles(t)
}

// allocBytes returns the heap bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// On a warmed store an eviction allocates nothing — the record is encoded
// from the live moments and a reused staging vector into a reused byte
// buffer, and the client's storage goes to the tensor pool — and a client
// built or rehydrated after evictions takes the evicted clients' parameter,
// gradient and moment storage instead of allocating its own: it allocates
// less than one parameter-sized vector.
func TestClientStoreSpillAllocs(t *testing.T) {
	const k, runs = 16, 5
	build := lazyTestBuilder(t, k)
	st := NewClientStore(k, build, 1)
	ids := make([]int, 0, 2*(runs+1))
	for id := 1; id <= 2*(runs+1); id++ {
		ids = append(ids, id)
	}
	spillTrained(t, st, ids...)
	st.Get(0)
	mustEvict(t, st, nil) // everyone but client 0 is now spilled, scratch warmed

	vector := uint64(8 * nn.NumParams(st.Get(0).Model.Params()))
	buildBytes := allocBytes(func() { build(1) })
	next := 1
	st.Get(next) // the first rehydrating Get sizes its record scratch
	var getBytes uint64
	for range runs {
		next++
		getBytes = max(getBytes, allocBytes(func() { st.Get(next) }))
	}
	t.Logf("build %d B, rehydrating Get ≤ %d B, one parameter vector %d B", buildBytes, getBytes, vector)
	if buildBytes >= vector {
		t.Errorf("a build after evictions allocates %d B, want < %d (one parameter vector): it does not take recycled storage", buildBytes, vector)
	}
	if getBytes >= vector {
		t.Errorf("a rehydrating Get after evictions allocates %d B, want < %d (one parameter vector): it does not take recycled storage", getBytes, vector)
	}

	// Clients 1..next are resident again; step them, then evict one a call.
	for id := 1; id <= next; id++ {
		st.Get(id).TrainEpochCE(8)
	}
	target := 0
	pinned := func(id int) bool { return id != target }
	evictAllocs := testing.AllocsPerRun(runs, func() {
		target++
		if err := st.EvictToBudget(pinned); err != nil {
			panic(err)
		}
	})
	if target != next || st.Resident() != 1 {
		t.Fatalf("%d single evictions of %d rehydrated clients left %d resident, want client 0 alone", target, next, st.Resident())
	}
	if evictAllocs != 0 {
		t.Fatalf("evicting a stepped client allocates %.0f times, want 0", evictAllocs)
	}
	noSpillFiles(t)
}

// An I/O failure while spilling comes back from EvictToBudget as an error
// that wraps its cause, and the client it could not write stays resident.
func TestClientStoreSpillErrorSurfaces(t *testing.T) {
	st := NewClientStore(8, lazyTestBuilder(t, 8), 1)
	spillTrained(t, st, 0, 1)
	st.seg.f.Close()
	st.Get(2)
	err := st.EvictToBudget(nil)
	if !errors.Is(err, os.ErrClosed) {
		t.Fatalf("evicting into a closed segment: %v, want an error wrapping os.ErrClosed", err)
	}
	if st.Resident() != 2 {
		t.Fatalf("%d resident after a failed spill, want both clients kept", st.Resident())
	}
}

// Concurrent Gets of one spilled client resolve to a single client carrying
// the spilled state (run under -race).
func TestClientStoreSameIDConcurrentGet(t *testing.T) {
	st := NewClientStore(8, lazyTestBuilder(t, 8), 1)
	want := spillTrained(t, st, 3, 0)
	got := make([]*Client, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = st.Get(3)
		}()
	}
	wg.Wait()
	for i, c := range got {
		if c != got[0] {
			t.Fatalf("Get %d returned a different client than Get 0", i)
		}
	}
	if !bytes.Equal(clientRecord(t, got[0]), want[3]) {
		t.Fatal("concurrently rehydrated client differs from its spilled state")
	}
	if st.Resident() != 2 {
		t.Fatalf("%d resident, want client 0 and one client 3", st.Resident())
	}
}

// float32 and bfloat16 models round-trip bit-identically through a record
// (widening is lossless), and their moments come back in float32.
func TestClientStoreRecordDTypes(t *testing.T) {
	for _, dt := range []tensor.DType{tensor.F32, tensor.BF16} {
		t.Run(dt.String(), func(t *testing.T) {
			build := lazyTestBuilderOf(t, 8, dt)
			st := NewClientStore(8, build, 1)
			want := spillTrained(t, st, 3, 0)
			c := st.Get(3)
			if live := c.Optimizer.(lender).Borrow(); live.F32 == nil || live.F64 != nil {
				t.Fatalf("rehydrated %s moments are not float32", dt)
			}
			if !bytes.Equal(clientRecord(t, c), want[3]) {
				t.Fatalf("%s client differs after a spill round trip", dt)
			}
			twin := build(3)
			twin.TrainEpochCE(8)
			if a, b := c.TrainEpochCE(8), twin.TrainEpochCE(8); a != b {
				t.Fatalf("post-rehydration training diverged: %g vs %g", a, b)
			}
		})
	}
}

// The segment reuses vacated slots: under any churn of first touches,
// evictions and rehydrations the file is no longer than one spilled
// high-water mark per record length (two for this fleet: with and without
// Adam moments), however many spill cycles ran.
func TestSegmentBoundedBySpilledHighWater(t *testing.T) {
	const k = 24
	st := NewClientStore(k, lazyTestBuilder(t, k), 3)
	rng := rand.New(rand.NewSource(5))
	var peak int64
	for step := 0; step < 400; step++ {
		c := st.Get(rng.Intn(k))
		if rng.Intn(3) > 0 {
			c.TrainEpochCE(8)
		}
		if step%2 == 1 {
			mustEvict(t, st, nil)
		}
		if n := st.spilledBytes(); n > peak {
			peak = n
		}
	}
	if peak == 0 {
		t.Fatal("nothing was spilled — test exercises nothing")
	}
	if n := st.segmentLen(); n > 2*peak {
		t.Fatalf("segment is %d bytes after 400 steps, spilled high-water mark %d: slots are not reused", n, peak)
	}
	noSpillFiles(t)
}
