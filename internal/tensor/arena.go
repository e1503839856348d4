package tensor

import (
	"slices"
	"sync"
	"unsafe"
)

// Arena is the scratch of one pass: every workspace a model's layers lease
// while it trains or evaluates, and the batch, loss gradients and casts
// around them. It holds one slab per element type, float64 and float32,
// made of chunks of max(request, arenaChunk) bytes. A lease takes the
// lowest free range that fits, chunk by chunk and offset by offset
// (first-fit, address-ordered), starting on a 64-byte boundary; a hand-back
// (PutTensor) coalesces its range with its free neighbours. So a pass that
// hands each buffer back once nothing reads it reuses that space for its
// later leases, and the arena holds about what the pass leases at once.
// Growth appends a chunk and never moves a live lease. Free ends the pass:
// every chunk becomes one free range again and the arena goes back to a
// free list, from which the next pass, of any model, takes it (TakeArena).
//
// A lease's contents are unspecified — it holds whatever the range's last
// holder wrote — so its holder must write every element before reading
// it. Tensor headers are recycled with their ranges, so a pass whose
// leases have been served once allocates nothing. An Arena serves one
// pass at a time; its methods lock, so a hand-back that arrives after its
// pass has ended is recognized and ignored rather than racing the arena's
// next holder.
type Arena struct {
	mu    sync.Mutex
	f64   slab[float64]
	f32   slab[float32]
	hdrs  []*Tensor // headers handed back, for the next lease
	epoch uint64    // advanced by Free: a lease of an earlier epoch is stale

	leased int // bytes leased now
	high   int // the most bytes leased at once, in a's life
	peak   int // the most bytes leased at once in the current pass
}

const (
	// arenaAlign is where every lease starts: a cache line, and the width
	// of an AVX-512 vector.
	arenaAlign = 64
	// arenaChunk is the least a chunk holds, in bytes.
	arenaChunk = 1 << 20
)

// slab is one element type's chunks and their free ranges.
type slab[F Float] struct {
	chunks [][]F
	free   []span // address-ordered: by chunk, then by offset
	size   int    // the chunks' bytes
}

// span is a range of one chunk, in elements.
type span struct{ chunk, off, n int }

func (s span) before(o span) bool {
	return s.chunk < o.chunk || s.chunk == o.chunk && s.off < o.off
}

// quantum is the lease granularity in elements: arenaAlign bytes.
func quantum[F Float]() int { return arenaAlign / int(unsafe.Sizeof(F(0))) }

// take returns n > 0 elements at the lowest free range that fits, with the
// range it reserved, n rounded up to 64 bytes, as their capacity.
func (s *slab[F]) take(n int) []F {
	q := quantum[F]()
	need := (n + q - 1) / q * q
	for i := range s.free {
		f := &s.free[i]
		if f.n < need {
			continue
		}
		c, off := f.chunk, f.off
		if f.n == need {
			s.free = append(s.free[:i], s.free[i+1:]...)
		} else {
			f.off += need
			f.n -= need
		}
		return s.chunks[c][off : off+n : off+need]
	}
	size := max(need, arenaChunk/int(unsafe.Sizeof(F(0))))
	chunk := makeAligned[F](size)
	if v := scrub.Load(); v != nil {
		fillK(chunk, F(*v))
	}
	s.chunks = append(s.chunks, chunk)
	s.size += size * int(unsafe.Sizeof(F(0)))
	if size > need {
		s.free = append(s.free, span{len(s.chunks) - 1, need, size - need})
	}
	return chunk[:n:need]
}

// makeAligned returns n zero elements starting on an arenaAlign boundary.
// The runtime places large objects on page boundaries, so the slack is
// only ever used for a chunk too small to be one.
func makeAligned[F Float](n int) []F {
	q := quantum[F]()
	v := make([]F, n+q)
	skip := int(uintptr(unsafe.Pointer(unsafe.SliceData(v)))%arenaAlign) / int(unsafe.Sizeof(F(0)))
	if skip > 0 {
		skip = q - skip
	}
	return v[skip : skip+n : skip+n]
}

// locate returns the range v was leased at, or false when v is not in one
// of s's chunks.
func (s *slab[F]) locate(v []F) (span, bool) {
	if cap(v) == 0 {
		return span{}, false
	}
	p := uintptr(unsafe.Pointer(unsafe.SliceData(v)))
	size := unsafe.Sizeof(F(0))
	for c, ch := range s.chunks {
		base := uintptr(unsafe.Pointer(unsafe.SliceData(ch)))
		if p >= base && p < base+uintptr(len(ch))*size {
			return span{c, int((p - base) / size), cap(v)}, true
		}
	}
	return span{}, false
}

// give returns range r to the free ranges, merged with free neighbours.
func (s *slab[F]) give(r span) {
	if v := scrub.Load(); v != nil {
		fillK(s.chunks[r.chunk][r.off:r.off+r.n], F(*v))
	}
	i, j := 0, len(s.free) // the first free range after r
	for i < j {
		if h := int(uint(i+j) >> 1); s.free[h].before(r) {
			i = h + 1
		} else {
			j = h
		}
	}
	if i > 0 {
		if p := &s.free[i-1]; p.chunk == r.chunk && p.off+p.n == r.off {
			p.n += r.n
			if i < len(s.free) {
				if nx := s.free[i]; nx.chunk == r.chunk && p.off+p.n == nx.off {
					p.n += nx.n
					s.free = append(s.free[:i], s.free[i+1:]...)
				}
			}
			return
		}
	}
	if i < len(s.free) {
		if nx := &s.free[i]; nx.chunk == r.chunk && r.off+r.n == nx.off {
			nx.off, nx.n = r.off, nx.n+r.n
			return
		}
	}
	s.free = append(s.free, span{})
	copy(s.free[i+1:], s.free[i:])
	s.free[i] = r
}

// reset makes every chunk one free range.
func (s *slab[F]) reset() {
	s.free = s.free[:0]
	for c, ch := range s.chunks {
		if v := scrub.Load(); v != nil {
			fillK(ch, F(*v))
		}
		s.free = append(s.free, span{c, 0, len(ch)})
	}
}

// fillFree sets every free element to v.
func (s *slab[F]) fillFree(v F) {
	for _, f := range s.free {
		fillK(s.chunks[f.chunk][f.off:f.off+f.n], v)
	}
}

// Lease returns a tensor of the given dtype and shape on a range of a, with
// unspecified contents. PutTensor hands it back.
func (a *Arena) Lease(dt DType, shape ...int) *Tensor {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lease(dt, shape)
}

func (a *Arena) lease(dt DType, shape []int) *Tensor {
	n := sizeOf(shape)
	if n == 0 {
		return NewOf(dt, shape...)
	}
	var t *Tensor
	if k := len(a.hdrs); k > 0 {
		t = a.hdrs[k-1]
		a.hdrs[k-1] = nil
		a.hdrs = a.hdrs[:k-1]
	} else {
		// Room for a rank-4 shape up front: a recycled header serves leases
		// of every rank, and a rank-2 header growing to rank 4 would
		// allocate on some later lease.
		t = &Tensor{Shape: make([]int, 0, 4)}
	}
	t.DT, t.arena, t.epoch = dt, a, a.epoch
	if dt.Backing() == F32 {
		t.F32 = a.f32.take(n)
		a.leased += 4 * cap(t.F32)
	} else {
		t.Data = a.f64.take(n)
		a.leased += 8 * cap(t.Data)
	}
	a.peak = max(a.peak, a.leased)
	a.high = max(a.high, a.peak)
	t.Shape = append(t.Shape[:0], shape...)
	return t
}

// put hands t's range back, or ignores it when t was leased before the
// arena's last Free.
func (a *Arena) put(t *Tensor) {
	a.mu.Lock()
	defer a.mu.Unlock()
	stale := t.epoch != a.epoch
	t.arena = nil
	if !stale {
		if t.DT.Backing() == F32 {
			if r, ok := a.f32.locate(t.F32); ok {
				a.f32.give(r)
				a.leased -= 4 * r.n
			}
		} else if r, ok := a.f64.locate(t.Data); ok {
			a.f64.give(r)
			a.leased -= 8 * r.n
		}
	}
	t.Data, t.F32 = nil, nil
	a.hdrs = append(a.hdrs, t)
}

// Ensure returns a tensor of the given dtype and shape, reusing t's
// storage when t is a live lease of the same dtype whose range holds the
// shape. Otherwise it hands t back (PutTensor) and leases a replacement
// from a, so t must not be used afterwards. The contents are unspecified,
// as for Lease: it is the building block of the layer workspaces, which a
// layer keeps across the calls of a pass, reshaped to each call.
func (a *Arena) Ensure(dt DType, t *Tensor, shape ...int) *Tensor {
	n := sizeOf(shape)
	if t != nil && t.DT == dt && t.live() {
		if dt.Backing() == F32 && cap(t.F32) >= n {
			t.F32 = t.F32[:n]
			t.Shape = append(t.Shape[:0], shape...)
			return t
		}
		if dt.Backing() != F32 && cap(t.Data) >= n {
			t.Data = t.Data[:n]
			t.Shape = append(t.Shape[:0], shape...)
			return t
		}
	}
	PutTensor(t)
	return a.Lease(dt, shape...)
}

// EnsureInts is Ensure for n ints, carved from the slab of dt's backing: an
// int is 8 bytes and holds no pointer, and every lease is 64-byte aligned.
// It returns the lease, which PutTensor hands back, and the ints over it.
func (a *Arena) EnsureInts(dt DType, t *Tensor, n int) (*Tensor, []int) {
	es := 8
	if dt.Backing() == F32 {
		es = 4
	}
	t = a.Ensure(dt, t, (n*int(unsafe.Sizeof(int(0)))+es-1)/es)
	if n == 0 {
		return t, nil
	}
	if dt.Backing() == F32 {
		return t, unsafe.Slice((*int)(unsafe.Pointer(unsafe.SliceData(t.F32))), n)
	}
	return t, unsafe.Slice((*int)(unsafe.Pointer(unsafe.SliceData(t.Data))), n)
}

// live reports whether t is a lease whose pass has not ended.
func (t *Tensor) live() bool {
	if t.arena == nil {
		return false
	}
	t.arena.mu.Lock()
	defer t.arena.mu.Unlock()
	return t.epoch == t.arena.epoch
}

// LeaseBeside returns a zero-filled tensor of the given dtype and shape,
// leased from the arena t was leased from when t is a live lease and new
// otherwise: the scratch of an operation on a pass's tensor (a loss
// gradient, say) joins that pass, and PutTensor hands it back.
func LeaseBeside(t *Tensor, dt DType, shape ...int) *Tensor {
	if !t.live() {
		return NewOf(dt, shape...)
	}
	out := t.arena.Lease(dt, shape...)
	out.Zero()
	return out
}

// PutTensor hands a lease back to its arena for the rest of the pass. The
// caller must not use t (or any view sharing its storage) afterwards. A nil
// t, or a tensor no arena leased, is ignored.
func PutTensor(t *Tensor) {
	if t != nil && t.arena != nil {
		t.arena.put(t)
	}
}

// Free ends a's pass: every chunk becomes one free range again, a lease not
// handed back becomes stale (PutTensor and Ensure ignore it), and a goes
// back to the free list for the next TakeArena. It returns the most bytes
// the pass had leased at once, the need to give TakeArena for the next pass
// like it.
func (a *Arena) Free() (peak int) {
	a.mu.Lock()
	a.f64.reset()
	a.f32.reset()
	a.epoch++
	peak = a.peak
	a.leased, a.peak = 0, 0
	a.mu.Unlock()
	arenas.Lock()
	arenas.free = append(arenas.free, a)
	arenas.Unlock()
	return peak
}

// arenas holds the arenas no pass holds. An arena a pass holds is
// reachable only through its holder, so one a model keeps when it is
// dropped goes with it.
var arenas struct {
	sync.Mutex
	free []*Arena
}

// TakeArena returns an arena for a pass expected to lease need bytes at
// once (what Free reported for the last pass like it; 0 when unknown): of
// the free arenas, the smallest that holds need bytes, else the largest,
// the one freed last among equals, and a new one when none is free.
// Concurrent passes take separate arenas, so there are as many as passes
// ever ran at once; fitting each pass to the arena nearest its size keeps
// them from each growing to the largest pass of every kind.
func TakeArena(need int) *Arena {
	arenas.Lock()
	defer arenas.Unlock()
	best := -1
	for i, a := range arenas.free {
		if best < 0 || a.fitsBetter(arenas.free[best], need) {
			best = i
		}
	}
	if best < 0 {
		return new(Arena)
	}
	a := arenas.free[best]
	arenas.free = slices.Delete(arenas.free, best, best+1)
	return a
}

// size is the bytes of a's chunks.
func (a *Arena) size() int { return a.f64.size + a.f32.size }

// fitsBetter reports whether a pass of need bytes is better off in a than
// in b, a freed later among equals: one that holds need bytes beats one
// that does not, the smaller of two that do, the larger of two that do not.
func (a *Arena) fitsBetter(b *Arena, need int) bool {
	if fa, fb := a.size() >= need, b.size() >= need; fa != fb {
		return fa
	} else if fa {
		return a.size() <= b.size()
	}
	return a.size() >= b.size()
}

// ArenaStat is one arena's footprint.
type ArenaStat struct {
	Chunks int // chunks made, both slabs
	Bytes  int // their total size
	High   int // the most bytes leased at once, ranges rounded to 64 B
}

// ArenaStats reports the arenas no pass holds, the last freed first:
// between passes, every arena.
func ArenaStats() []ArenaStat {
	arenas.Lock()
	defer arenas.Unlock()
	out := make([]ArenaStat, 0, len(arenas.free))
	for _, a := range slices.Backward(arenas.free) {
		a.mu.Lock()
		out = append(out, ArenaStat{
			Chunks: len(a.f64.chunks) + len(a.f32.chunks),
			Bytes:  a.size(),
			High:   a.high,
		})
		a.mu.Unlock()
	}
	return out
}

// DropArenas lets go of every arena no pass holds, so that the next pass
// makes a new one: a test instrument for measuring an arena laid out by
// one workload alone, with no chunks an earlier one made.
func DropArenas() {
	arenas.Lock()
	clear(arenas.free)
	arenas.free = arenas.free[:0]
	arenas.Unlock()
}

// fillArenas sets every element of every arena no pass holds to v.
func fillArenas(v float64) {
	arenas.Lock()
	defer arenas.Unlock()
	for _, a := range arenas.free {
		a.mu.Lock()
		a.f64.fillFree(v)
		a.f32.fillFree(float32(v))
		a.mu.Unlock()
	}
}
