package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// arenaOp is one step of a lease sequence: a lease of n elements, or, when
// n is 0, the hand-back of the live lease at index put.
type arenaOp struct{ n, put int }

// arenaOps draws a sequence of leases and hand-backs whose sizes straddle
// the chunk size, so the sequence grows chunks of both kinds (the least
// size and a request's own) and reuses freed ranges inside them.
func arenaOps(rng *rand.Rand, steps int) []arenaOp {
	var ops []arenaOp
	live := 0
	for i := 0; i < steps; i++ {
		if live > 0 && rng.Intn(5) < 2 {
			ops = append(ops, arenaOp{put: rng.Intn(live)})
			live--
			continue
		}
		n := 1 + rng.Intn(3000)
		switch rng.Intn(8) {
		case 0:
			n = 1 + rng.Intn(300000)
		case 1:
			n = 1 + rng.Intn(16)
		}
		ops = append(ops, arenaOp{n: n})
		live++
	}
	return ops
}

// replay runs ops on a, keeping the live leases in live (whose capacity
// the caller sizes), and calls check after every step; it returns the
// leases still live.
func replay(a *Arena, dt DType, ops []arenaOp, live []*Tensor, check func(live []*Tensor)) []*Tensor {
	live = live[:0]
	for _, op := range ops {
		if op.n > 0 {
			live = append(live, a.Lease(dt, op.n))
		} else {
			PutTensor(live[op.put])
			live[op.put] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if check != nil {
			check(live)
		}
	}
	return live
}

// extent is a lease's reserved range as addresses.
func extent(t *Tensor) (lo, hi uintptr) {
	if t.DT.Backing() == F32 {
		lo = uintptr(unsafe.Pointer(unsafe.SliceData(t.F32)))
		return lo, lo + 4*uintptr(cap(t.F32))
	}
	lo = uintptr(unsafe.Pointer(unsafe.SliceData(t.Data)))
	return lo, lo + 8*uintptr(cap(t.Data))
}

// checkSlab checks that s's free ranges are address-ordered, in bounds,
// coalesced and disjoint, and that with the live bytes they cover every
// chunk exactly.
func checkSlab[F Float](t *testing.T, s *slab[F], liveElems int) {
	t.Helper()
	total, free := 0, 0
	for _, ch := range s.chunks {
		total += len(ch)
	}
	for i, f := range s.free {
		if f.n <= 0 || f.off < 0 || f.off+f.n > len(s.chunks[f.chunk]) {
			t.Fatalf("free range %+v out of its chunk", f)
		}
		if i > 0 {
			p := s.free[i-1]
			if !p.before(f) || p.chunk == f.chunk && p.off+p.n >= f.off {
				t.Fatalf("free ranges %+v and %+v overlap, touch or are out of order", p, f)
			}
		}
		free += f.n
	}
	if free+liveElems != total {
		t.Fatalf("%d free and %d leased elements in chunks of %d", free, liveElems, total)
	}
}

// TestArenaRandomLeases runs random lease and hand-back sequences at
// float64 and float32 backing: no two live leases overlap, each starts on
// a 64-byte boundary and keeps what its holder wrote, the free ranges and
// the leases tile the chunks, a freed arena is one free range a chunk,
// and replaying a sequence on the warm arena allocates nothing.
func TestArenaRandomLeases(t *testing.T) {
	for _, dt := range []DType{F64, F32} {
		for seed := int64(1); seed <= 4; seed++ {
			a := freshArena()
			ops := arenaOps(rand.New(rand.NewSource(seed)), 400)
			live := make([]*Tensor, 0, len(ops))
			tags := map[*Tensor]float64{}
			check := func(live []*Tensor) {
				type rng struct{ lo, hi uintptr }
				var rs []rng
				for _, l := range live {
					lo, hi := extent(l)
					if lo%arenaAlign != 0 {
						t.Fatalf("%v seed %d: a lease starts at %#x, not on a 64-byte boundary", dt, seed, lo)
					}
					rs = append(rs, rng{lo, hi})
					if _, ok := tags[l]; !ok {
						tags[l] = float64(len(tags) + 1)
						l.Fill(tags[l])
					}
				}
				slices.SortFunc(rs, func(x, y rng) int {
					if x.lo < y.lo {
						return -1
					}
					return 1
				})
				for i := 1; i < len(rs); i++ {
					if rs[i].lo < rs[i-1].hi {
						t.Fatalf("%v seed %d: live leases overlap", dt, seed)
					}
				}
				reserved := 0
				for _, l := range live {
					lo, hi := extent(l)
					reserved += int(hi-lo) / dt.Backing().Bytes()
				}
				if dt.Backing() == F32 {
					checkSlab(t, &a.f32, reserved)
				} else {
					checkSlab(t, &a.f64, reserved)
				}
			}
			left := replay(a, dt, ops, live, func(live []*Tensor) {
				check(live)
				for _, l := range live {
					if n := l.Size(); l.at(0) != tags[l] || l.at(n/2) != tags[l] || l.at(n-1) != tags[l] {
						t.Fatalf("%v seed %d: a lease lost what its holder wrote", dt, seed)
					}
				}
				// Retire the tags of handed-back headers, which the arena
				// reuses for later leases.
				for h := range tags {
					if h.arena == nil {
						delete(tags, h)
					}
				}
			})
			a.Free()
			takeBack(t, a)
			for _, s := range [][]span{a.f64.free, a.f32.free} {
				for c, f := range s {
					if f.chunk != c || f.off != 0 {
						t.Fatalf("%v seed %d: after Free, free range %+v is not chunk %d whole", dt, seed, f, c)
					}
				}
			}
			if len(a.f64.free) != len(a.f64.chunks) || len(a.f32.free) != len(a.f32.chunks) {
				t.Fatalf("%v seed %d: after Free, %d+%d free ranges over %d+%d chunks", dt, seed,
					len(a.f64.free), len(a.f32.free), len(a.f64.chunks), len(a.f32.chunks))
			}
			for _, l := range left {
				PutTensor(l) // stale: ignored, the header recycled
			}
			if avg := testing.AllocsPerRun(5, func() {
				for _, l := range replay(a, dt, ops, live, nil) {
					PutTensor(l)
				}
			}); avg != 0 {
				t.Fatalf("%v seed %d: replaying on the warm arena allocates %.1f objects/op", dt, seed, avg)
			}
		}
	}
}

// takeBack takes a from the free list, where Free put it last.
func takeBack(t *testing.T, a *Arena) {
	t.Helper()
	if got := TakeArena(0); got != a {
		got.Free()
		t.Fatal("TakeArena did not return the arena freed last")
	}
}

// A hand-back coalesces with both neighbours, and the lowest range that
// fits serves the next lease.
func TestArenaReusesHandedBackRange(t *testing.T) {
	a := freshArena()
	x, y, z := a.Lease(F64, 4, 8), a.Lease(F64, 5), a.Lease(F64, 3)
	base := &x.Data[0]
	PutTensor(x)
	PutTensor(z)
	if w := a.Lease(F64, 5, 6); &w.Data[0] != base || w.Size() != 30 || w.Dim(0) != 5 {
		t.Fatal("a lease of 30 did not take the 32 handed back first")
	} else {
		PutTensor(w)
	}
	PutTensor(y)
	if len(a.f64.free) != 1 || a.f64.free[0].off != 0 {
		t.Fatalf("three hand-backs left free ranges %+v, want one", a.f64.free)
	}
	if w := a.Lease(F64, 48); &w.Data[0] != base {
		t.Fatal("the coalesced range did not serve a lease spanning all three")
	}
}

// PutTensor ignores a tensor no arena leased and a view of a lease; a
// hand-back of a lease whose pass has ended leaves the arena's next pass
// alone, and Ensure leases anew rather than reuse it.
func TestArenaIgnoresForeignTensors(t *testing.T) {
	a := freshArena()
	x := a.Lease(F64, 16)
	PutTensor(FromSlice(make([]float64, 6), 2, 3))
	var v Tensor
	ViewInto(&v, x, 0, 8, 8)
	PutTensor(&v)
	if len(a.f64.free) != 1 || a.f64.free[0].off != 16 {
		t.Fatalf("foreign hand-backs changed the free ranges: %+v", a.f64.free)
	}
	xd := &x.Data[0]
	a.Free()
	takeBack(t, a)
	if y := a.Lease(F64, 16); &y.Data[0] != xd {
		t.Fatal("the next pass's first lease did not take the lowest range")
	}
	PutTensor(x) // stale
	if z := a.Lease(F64, 16); &z.Data[0] == xd {
		t.Fatal("a stale hand-back freed a live lease of the next pass")
	}
	w := a.Lease(F64, 16)
	wd := &w.Data[0]
	a.Free()
	takeBack(t, a)
	for i := 0; i < 3; i++ {
		a.Lease(F64, 16) // the third takes w's range
	}
	if e := a.Ensure(F64, w, 1); &e.Data[0] == wd {
		t.Fatal("Ensure reused a stale lease")
	}
	a.Free()
}

// The two slabs never serve each other.
func TestArenaDTypeSeparation(t *testing.T) {
	a := freshArena()
	x := a.Lease(F32, 4, 4)
	if x.DT != F32 || len(x.F32) != 16 || x.Data != nil {
		t.Fatalf("Lease(F32): %+v", x)
	}
	PutTensor(x)
	y := a.Lease(F32, 2, 8)
	if &y.F32[0] != &x.F32[:1][0] {
		t.Fatal("expected the f32 range handed back to serve the next f32 lease")
	}
	if c := a.Lease(F64, 4, 4); c.DT != F64 || len(c.Data) != 16 || len(a.f64.chunks) != 1 {
		t.Fatalf("f64 lease after an f32 one: %+v", c)
	}
	if b := a.Lease(BF16, 3); b.DT != BF16 || len(b.F32) != 3 || len(a.f32.chunks) != 1 {
		t.Fatalf("bf16 lease: %+v", b)
	}
}

// Ints carved from either slab are 8-byte aligned views of the lease.
func TestArenaInts(t *testing.T) {
	a := freshArena()
	for _, dt := range []DType{F64, F32} {
		l, ints := a.EnsureInts(dt, nil, 37)
		if len(ints) != 37 {
			t.Fatalf("%v: %d ints", dt, len(ints))
		}
		for i := range ints {
			ints[i] = -i
		}
		lo, hi := extent(l)
		if p := uintptr(unsafe.Pointer(&ints[0])); p != lo || p+37*8 > hi {
			t.Fatalf("%v: ints at %#x outside the lease [%#x,%#x)", dt, p, lo, hi)
		}
		if l2, ints2 := a.EnsureInts(dt, l, 20); l2 != l || &ints2[0] != &ints[0] || ints2[19] != -19 {
			t.Fatalf("%v: a smaller EnsureInts did not reuse the lease", dt)
		}
	}
}

// ScrubFreed writes its value over every arena no pass holds, and then
// over every range handed back, every chunk made and every arena whose pass
// ends.
func TestArenaScrub(t *testing.T) {
	a := freshArena()
	x := a.Lease(F64, 10)
	x.Fill(1)
	PutTensor(x)
	a.Free()
	stop := ScrubFreed(math.NaN())
	defer stop()
	takeBack(t, a)
	y := a.Lease(F64, 10)
	if !math.IsNaN(y.Data[0]) || !math.IsNaN(y.Data[9]) {
		t.Fatal("a free arena was not scrubbed")
	}
	if big := a.Lease(F32, arenaChunk); !math.IsNaN(float64(big.F32[0])) {
		t.Fatal("a chunk made under ScrubFreed was not scrubbed")
	}
	y.Fill(1)
	d := y.Data
	PutTensor(y)
	if !math.IsNaN(d[0]) || !math.IsNaN(d[:cap(d)][cap(d)-1]) {
		t.Fatal("a hand-back was not scrubbed")
	}
	z := a.Lease(F64, 10)
	z.Fill(2)
	a.Free()
	if !math.IsNaN(z.Data[0]) {
		t.Fatal("a live lease was not scrubbed when its pass ended")
	}
}

// freshArena makes an arena of no chunks.
func freshArena() *Arena { return new(Arena) }
