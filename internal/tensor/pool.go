package tensor

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Pool is a free list of tensor storage that serves two kinds of request.
// Scratch (Get, GetOf, EnsureOf) is grouped by dtype and by size class: a
// request of n elements gets a buffer of the smallest class capacity >= n,
// where the classes are 1 to 8 and then four per binade, at 5/8, 6/8, 7/8
// and 8/8 of each power of two from 16 up (10, 12, 14, 16, 20, 24, …). A
// lease so wastes under a quarter of its buffer, where a power-of-two
// ceiling wasted up to half. A Get for any shape is served by any
// previously Put tensor of the same dtype and class, and steady-state
// training that Gets and Puts its scratch performs no heap allocations.
// Storage a caller keeps — parameters, gradients, optimizer moments,
// upload vectors — is handed out at exactly the requested length
// (GetStorage, ZeroStorage, NewStorageOf) from lists keyed by length, since
// the same lengths are asked for over and over and a rounded-up buffer
// would hold its slack for as long as it is kept; it comes back through
// PutStorage for the next request of that length. The two never serve each
// other. A Pool is safe for concurrent use.
type Pool struct {
	buckets [numDTypes][poolBuckets]poolBucket
	f64     exactList[float64]
	f32     exactList[float32]
	scrub   atomic.Pointer[float64] // while set, what Put writes over a returned buffer (ScrubFreed)
}

type poolBucket struct {
	mu   sync.Mutex
	free []*Tensor
}

// exactList is the free storage of one element type, by length. An emptied
// list keeps its capacity, so a store that recycles as much as it takes
// settles into handing storage back and forth without allocating.
type exactList[F Float] struct {
	mu   sync.Mutex
	free map[int][][]F
}

// get returns n elements, recycled when the list has storage of that
// length and otherwise allocated (and so zero); zero clears recycled ones.
func (l *exactList[F]) get(n int, zero bool) []F {
	l.mu.Lock()
	if vs := l.free[n]; len(vs) > 0 {
		v := vs[len(vs)-1]
		vs[len(vs)-1] = nil
		l.free[n] = vs[:len(vs)-1]
		l.mu.Unlock()
		if zero {
			clear(v)
		}
		return v
	}
	l.mu.Unlock()
	return make([]F, n)
}

func (l *exactList[F]) put(v []F) {
	if cap(v) == 0 {
		return
	}
	v = v[:cap(v)]
	l.mu.Lock()
	if l.free == nil {
		l.free = make(map[int][][]F)
	}
	l.free[len(v)] = append(l.free[len(v)], v)
	l.mu.Unlock()
}

// exactFor returns p's list for element type F.
func exactFor[F Float](p *Pool) *exactList[F] {
	if l, ok := any(&p.f32).(*exactList[F]); ok {
		return l
	}
	return any(&p.f64).(*exactList[F])
}

// poolBuckets covers element counts up to 2^47 (the last class is 2^47
// itself); tensors beyond that are allocated directly and never pooled.
const poolBuckets = 8 + 4*(47-3)

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// sizeClass returns the bucket serving requests of n >= 1 elements and that
// bucket's buffer capacity, the smallest size class >= n. Classes 0–7 hold
// 1 to 8 elements; above 8, with 2^(k-1) < n <= 2^k, the step is 2^(k-3)
// and the capacity the first of 5, 6, 7 or 8 steps that holds n.
func sizeClass(n int) (b, capacity int) {
	if n <= 8 {
		return max(n, 1) - 1, max(n, 1)
	}
	k := bits.Len(uint(n - 1))
	step := 1 << (k - 3)
	m := (n + step - 1) / step // 5..8
	return 8 + 4*(k-4) + m - 5, m * step
}

// Get returns a zero-filled float64 tensor of the given shape, reusing a
// pooled buffer when one is available.
func (p *Pool) Get(shape ...int) *Tensor { return p.GetOf(F64, shape...) }

// GetOf returns a zero-filled tensor of the given dtype and shape, reusing
// a pooled buffer when one is available.
func (p *Pool) GetOf(dt DType, shape ...int) *Tensor {
	t := p.getRaw(dt, shape...)
	t.Zero()
	return t
}

// getRaw is GetOf without the zero fill, for callers that overwrite every
// element anyway (for example packed GEMM panels).
func (p *Pool) getRaw(dt DType, shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n <= 0 {
		return NewOf(dt, shape...)
	}
	b, capacity := sizeClass(n)
	if b >= poolBuckets {
		return NewOf(dt, shape...)
	}
	bk := &p.buckets[dt][b]
	bk.mu.Lock()
	var t *Tensor
	if l := len(bk.free); l > 0 {
		t = bk.free[l-1]
		bk.free[l-1] = nil
		bk.free = bk.free[:l-1]
	}
	bk.mu.Unlock()
	if t == nil {
		// Room for a rank-4 shape up front: a pooled tensor serves requests
		// of every rank, and a rank-2 header growing to rank 4 would
		// allocate on some later Get.
		t = &Tensor{Shape: make([]int, 0, 4), DT: dt}
		if dt.Backing() == F32 {
			t.F32 = make([]float32, capacity)
		} else {
			t.Data = make([]float64, capacity)
		}
	}
	if dt.Backing() == F32 {
		t.F32 = t.F32[:n]
	} else {
		t.Data = t.Data[:n]
	}
	t.Shape = append(t.Shape[:0], shape...)
	return t
}

// Put returns a tensor's storage to the pool. The caller must not use t (or
// any view sharing its data) afterwards. Tensors whose capacity is not a
// size class (for example most views built with FromSlice) are dropped.
func (p *Pool) Put(t *Tensor) {
	if t == nil {
		return
	}
	var c int
	if t.DT.Backing() == F32 {
		c = cap(t.F32)
	} else {
		c = cap(t.Data)
	}
	if c == 0 {
		return
	}
	b, capacity := sizeClass(c)
	if b >= poolBuckets || capacity != c {
		return
	}
	if v := p.scrub.Load(); v != nil {
		fillK(t.Data[:cap(t.Data)], *v)
		fillK(t.F32[:cap(t.F32)], float32(*v))
	}
	if t.DT.Backing() == F32 {
		t.F32 = t.F32[:0]
	} else {
		t.Data = t.Data[:0]
	}
	bk := &p.buckets[t.DT][b]
	bk.mu.Lock()
	bk.free = append(bk.free, t)
	bk.mu.Unlock()
}

// fill sets every element of every free buffer p holds, scratch and
// exact-length storage alike, to v.
func (p *Pool) fill(v float64) {
	for dt := range p.buckets {
		for b := range p.buckets[dt] {
			bk := &p.buckets[dt][b]
			bk.mu.Lock()
			for _, t := range bk.free {
				fillK(t.Data[:cap(t.Data)], v)
				fillK(t.F32[:cap(t.F32)], float32(v))
			}
			bk.mu.Unlock()
		}
	}
	fillExact(&p.f64, v)
	fillExact(&p.f32, float32(v))
}

func fillExact[F Float](l *exactList[F], v F) {
	l.mu.Lock()
	for _, vs := range l.free {
		for _, s := range vs {
			fillK(s, v)
		}
	}
	l.mu.Unlock()
}

// ScrubFreed is a test instrument for the lease contract: a lease arrives
// holding whatever its last owner wrote, so its holder must write every
// element before it reads it. ScrubFreed sets every element of every buffer
// the default pool holds free to v, and of every buffer handed back to it
// until stop is called, so a pass run under ScrubFreed(NaN) shows each
// element it reads before writing, however often a buffer is recycled
// within the pass.
func ScrubFreed(v float64) (stop func()) {
	defaultPool.fill(v)
	defaultPool.scrub.Store(&v)
	return func() { defaultPool.scrub.Store(nil) }
}

// defaultPool serves the package-level GetTensorOf/PutTensor helpers used by
// the training-step and loss code for batch-lifetime scratch (input stacks,
// feature-gradient accumulators, the O(batch²) contrastive intermediates,
// the losses' gradients),
// EnsureOf, through which every layer workspace comes and goes, and the
// exact-length storage of GetStorage, ZeroStorage and NewStorageOf.
var defaultPool = NewPool()

// GetTensorOf returns a zeroed tensor of the given dtype and shape from the
// default pool.
func GetTensorOf(dt DType, shape ...int) *Tensor { return defaultPool.GetOf(dt, shape...) }

// PutTensor returns a tensor obtained from GetTensorOf to the
// default pool.
func PutTensor(t *Tensor) { defaultPool.Put(t) }

// GetStorage returns exactly n elements of storage from the default pool,
// with unspecified contents: a recycled slice arrives holding whatever its
// last owner wrote, so the caller must overwrite every element. Its length
// and capacity are n. PutStorage hands it back.
func GetStorage[F Float](n int) []F { return exactFor[F](defaultPool).get(n, false) }

// ZeroStorage is GetStorage for a caller that needs n zeros.
func ZeroStorage[F Float](n int) []F { return exactFor[F](defaultPool).get(n, true) }

// PutStorage hands storage to the default pool for the next GetStorage of
// its capacity. The caller must not use v (or any slice sharing it)
// afterwards. A nil or empty v is ignored.
func PutStorage[F Float](v []F) {
	if s := defaultPool.scrub.Load(); s != nil {
		fillK(v[:cap(v)], F(*s))
	}
	exactFor[F](defaultPool).put(v)
}

// NewStorageOf returns a zero-filled tensor of the given dtype and shape
// whose storage comes from the default pool at exactly the shape's element
// count (ZeroStorage): the constructor of tensors a model keeps, such as its
// parameters and their gradients. PutStorage hands the storage back.
func NewStorageOf(dt DType, shape ...int) *Tensor {
	t := &Tensor{Shape: append([]int(nil), shape...), DT: dt}
	if dt.Backing() == F32 {
		t.F32 = ZeroStorage[float32](sizeOf(shape))
	} else {
		t.Data = ZeroStorage[float64](sizeOf(shape))
	}
	return t
}

// Ensure returns a float64 tensor of the given shape, reusing t's storage
// when possible; see EnsureOf.
func Ensure(t *Tensor, shape ...int) *Tensor { return EnsureOf(F64, t, shape...) }

// EnsureOf returns a tensor of the given dtype and shape, reusing t's
// storage when its dtype matches and its capacity suffices. Otherwise it
// puts t back into the default pool and takes a replacement from there, so
// t must not be used afterwards. The contents are unspecified — a pooled
// buffer arrives holding whatever its last user wrote — and callers must
// overwrite every element. It is the building block of the layer
// workspaces, which hold their buffers for one pass and hand them back with
// PutTensor when it ends.
func EnsureOf(dt DType, t *Tensor, shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s < 0 {
			panic("tensor: Ensure with negative dimension")
		}
		n *= s
	}
	if t != nil && t.DT == dt {
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
	defaultPool.Put(t)
	return defaultPool.getRaw(dt, shape...)
}
