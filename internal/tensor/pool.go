package tensor

import (
	"sync"
	"sync/atomic"
)

// Pool is a free list of exact-length storage: what a caller keeps —
// parameter values, upload vectors — handed out at
// exactly the requested length (GetStorage, ZeroStorage, NewStorageOf) from
// lists keyed by element type and length, since the same lengths are asked
// for over and over and a rounded-up buffer would hold its slack for as long
// as it is kept. It comes back through PutStorage for the next request of
// that length. A pass's scratch comes from an Arena instead. A Pool is safe
// for concurrent use.
type Pool struct {
	f64 exactList[float64]
	f32 exactList[float32]
}

// scrub, while set, is what every hand-back writes over the storage it
// returns (ScrubFreed).
var scrub atomic.Pointer[float64]

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

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// fill sets every element of every free slice p holds to v.
func (p *Pool) fill(v float64) {
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
// element before it reads it. ScrubFreed sets every element of every arena
// no pass holds, and of the default pool's free storage, to v, and until
// stop is called every range or slice handed back, every arena chunk made
// and every arena whose pass ends, so a pass that takes its arena after
// ScrubFreed(NaN) shows each element it reads before writing, however
// often a range is reused within the pass.
func ScrubFreed(v float64) (stop func()) {
	defaultPool.fill(v)
	fillArenas(v)
	scrub.Store(&v)
	return func() { scrub.Store(nil) }
}

// defaultPool serves the exact-length storage of GetStorage, ZeroStorage,
// NewStorageOf and PutStorage.
var defaultPool = NewPool()

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
	if s := scrub.Load(); s != nil {
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
