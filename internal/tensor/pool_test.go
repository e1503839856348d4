package tensor

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// A warmed exact-length list hands storage of every element type back and
// forth without allocating.
func TestPoolSteadyStateAllocs(t *testing.T) {
	p := NewPool()
	f64, f32 := exactFor[float64](p), exactFor[float32](p)
	f64.put(f64.get(256, false))
	f32.put(f32.get(256, false))
	avg := testing.AllocsPerRun(100, func() {
		f64.put(f64.get(256, false))
		f32.put(f32.get(256, true))
	})
	if avg > 0 {
		t.Fatalf("exact-length get/put allocates %.1f objects/op, want 0", avg)
	}
}

// Exact-length storage comes back at exactly the requested length, serves
// only later requests of its length and element type, never an arena, and
// a warmed list hands storage back and forth without allocating.
func TestPoolExactStorage(t *testing.T) {
	p := NewPool()
	f64, f32 := exactFor[float64](p), exactFor[float32](p)
	v := f64.get(30, false)
	if len(v) != 30 || cap(v) != 30 {
		t.Fatalf("exact storage of 30 has len %d, cap %d", len(v), cap(v))
	}
	f64.put(v)
	if w := f32.get(30, false); len(w) != 30 {
		t.Fatalf("float32 storage of 30 has len %d", len(w))
	}
	if w := f64.get(31, false); &w[0] == &v[0] {
		t.Fatal("a request of 31 took the storage put back at 30")
	}
	if w := f64.get(30, false); &w[0] != &v[0] {
		t.Fatal("a request of 30 did not take the storage put back at 30")
	}
	pow := f64.get(32, false)
	f64.put(pow)
	a := TakeArena(0)
	defer a.Free()
	if g := a.Lease(F64, 32); &g.Data[0] == &pow[0] {
		t.Fatal("an arena lease took exact-length storage")
	}
	if avg := testing.AllocsPerRun(100, func() { f64.put(f64.get(32, false)) }); avg > 0 {
		t.Fatalf("exact Get/Put allocates %.1f objects/op, want 0", avg)
	}
}

// Exact storage taken and handed back from many goroutines at once is never
// handed to two holders (run under -race).
func TestPoolExactStorageConcurrent(t *testing.T) {
	p := NewPool()
	l := exactFor[float64](p)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := l.get(17+i%3, false)
				for j := range v {
					v[j] = float64(g)
				}
				for j := range v {
					if v[j] != float64(g) {
						t.Errorf("goroutine %d: storage shared with goroutine %v", g, v[j])
						return
					}
				}
				l.put(v)
			}
		}()
	}
	wg.Wait()
}

// NewStorageOf zero-fills storage that arrives dirty.
func TestNewStorageOfZeroFills(t *testing.T) {
	for _, dt := range []DType{F64, F32, BF16} {
		dirty := NewStorageOf(dt, 3, 7)
		dirty.Fill(math.NaN())
		PutStorage(dirty.Data)
		PutStorage(dirty.F32)
		x := NewStorageOf(dt, 7, 3)
		if x.DT != dt || x.Size() != 21 || x.Dim(0) != 7 {
			t.Fatalf("%v: NewStorageOf gave %v %v", dt, x.DT, x.Shape)
		}
		for i, v := range x.AppendFloat64s(nil) {
			if v != 0 {
				t.Fatalf("%v: element %d is %v on recycled storage, want 0", dt, i, v)
			}
		}
	}
}

func TestEnsureReusesCapacity(t *testing.T) {
	a := TakeArena(0)
	defer a.Free()
	x := a.Ensure(F64, nil, 4, 4)
	x.Fill(3)
	y := a.Ensure(F64, x, 2, 5)
	if y != x {
		t.Fatal("Ensure should reuse storage when capacity suffices")
	}
	if y.Dim(0) != 2 || y.Dim(1) != 5 || y.Size() != 10 {
		t.Fatalf("Ensure shape wrong: %v", y.Shape)
	}
	if z := a.Ensure(F64, y, 8, 8); z.Size() != 64 || cap(z.Data) < 64 {
		t.Fatalf("Ensure must lease anew when capacity is too small: %v, capacity %d", z.Shape, cap(z.Data))
	}
}

func TestMatMulIntoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(32, 32)
	b := New(32, 32)
	out := New(32, 32)
	a.FillRandn(rng, 1)
	b.FillRandn(rng, 1)
	MatMulInto(out, a, b)
	avg := testing.AllocsPerRun(100, func() {
		MatMulInto(out, a, b)
	})
	// A packed-panel scratch may be revived once after a GC cycle; anything
	// more means the kernel regressed to allocating.
	if avg > 1 {
		t.Fatalf("MatMulInto allocates %.1f objects/op in steady state, want ~0", avg)
	}
}

func TestIntoAccKernelsMatchAllocatingKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	shapes := [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 7, 3}, {8, 9, 11}, {13, 16, 8}, {33, 65, 17}}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := New(m, k) // left operand of a·b and a·bᵀ
		b := New(k, n)
		a.FillRandn(rng, 1)
		b.FillRandn(rng, 1)
		want := MatMul(a, b)
		out := New(m, n)
		out.Fill(3)
		MatMulInto(out, a, b)
		if !ApproxEqual(out, want, 1e-12) {
			t.Fatalf("MatMulInto mismatch at %v", sh)
		}

		// aᵀ·b takes both operands with m rows.
		a2 := New(m, k)
		b2 := New(m, n)
		a2.FillRandn(rng, 1)
		b2.FillRandn(rng, 1)
		wantATB := MatMul(Transpose(a2), b2)
		gotATB := MatMulATB(a2, b2)
		if !ApproxEqual(gotATB, wantATB, 1e-9) {
			t.Fatalf("MatMulATB mismatch at %v", sh)
		}
		outATB := New(k, n)
		outATB.Fill(-2)
		MatMulATBInto(outATB, a2, b2)
		if !ApproxEqual(outATB, wantATB, 1e-9) {
			t.Fatalf("MatMulATBInto mismatch at %v", sh)
		}
		accATB := wantATB.Clone()
		MatMulATBAcc(accATB, a2, b2)
		if !ApproxEqual(accATB, Scale(wantATB, 2), 1e-9) {
			t.Fatalf("MatMulATBAcc mismatch at %v", sh)
		}

		// a·bᵀ takes b with n rows of length k.
		b3 := New(n, k)
		b3.FillRandn(rng, 1)
		wantABT := MatMul(a, Transpose(b3))
		gotABT := MatMulABT(a, b3)
		if !ApproxEqual(gotABT, wantABT, 1e-9) {
			t.Fatalf("MatMulABT mismatch at %v", sh)
		}
		outABT := New(m, n)
		outABT.Fill(9)
		MatMulABTInto(outABT, a, b3)
		if !ApproxEqual(outABT, wantABT, 1e-9) {
			t.Fatalf("MatMulABTInto mismatch at %v", sh)
		}
		accABT := wantABT.Clone()
		MatMulABTAcc(accABT, a, b3)
		if !ApproxEqual(accABT, Scale(wantABT, 2), 1e-9) {
			t.Fatalf("MatMulABTAcc mismatch at %v", sh)
		}
	}
}

func TestElementwiseInto(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{5, 6, 7, 8}, 2, 2)
	dst := New(2, 2)
	AddInto(dst, a, b)
	if !ApproxEqual(dst, FromSlice([]float64{6, 8, 10, 12}, 2, 2), 0) {
		t.Fatalf("AddInto wrong: %v", dst.Data)
	}
	sums := New(2)
	sums.Fill(1)
	ColSumsAcc(sums, a)
	if sums.Data[0] != 1+1+3 || sums.Data[1] != 1+2+4 {
		t.Fatalf("ColSumsAcc wrong: %v", sums.Data)
	}
	cp := New(2, 2)
	cp.CopyFrom(b)
	if !ApproxEqual(cp, b, 0) {
		t.Fatal("CopyFrom wrong")
	}
}

func TestParallelShardedCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		var mu sync.Mutex
		seen := make([]int, n)
		ParallelSharded(n, 8, func(shard, lo, hi int) {
			if shard < 0 || shard >= 8 {
				t.Errorf("shard %d out of range", shard)
			}
			mu.Lock()
			for i := lo; i < hi; i++ {
				seen[i]++
			}
			mu.Unlock()
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestParallelCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		counts := make([]int32, n)
		var mu sync.Mutex
		Parallel(n, func(i int) {
			mu.Lock()
			counts[i]++
			mu.Unlock()
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestParallelNested(t *testing.T) {
	// Nested use must neither deadlock nor drop indices, regardless of pool
	// saturation.
	total := 0
	var mu sync.Mutex
	Parallel(8, func(i int) {
		ParallelSharded(16, 4, func(_, lo, hi int) {
			mu.Lock()
			total += hi - lo
			mu.Unlock()
		})
	})
	if total != 8*16 {
		t.Fatalf("nested parallel covered %d of %d", total, 8*16)
	}
}
