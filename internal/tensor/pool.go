package tensor

import (
	"math/bits"
	"sync"
)

// Pool is a size-bucketed free list of tensors. Buffers are grouped by
// dtype and by the power-of-two ceiling of their element count, so a Get
// for any shape is served by any previously Put tensor of the same dtype
// bucket. Steady-state training that Gets and Puts its scratch tensors
// performs no heap allocations. A Pool is safe for concurrent use.
type Pool struct {
	buckets [numDTypes][poolBuckets]poolBucket
}

type poolBucket struct {
	mu   sync.Mutex
	free []*Tensor
}

// poolBuckets covers element counts up to 2^47; tensors beyond that are
// allocated directly and never pooled.
const poolBuckets = 48

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// bucketIndex returns the bucket holding buffers of capacity 2^b >= n.
func bucketIndex(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
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
	b := bucketIndex(n)
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
			t.F32 = make([]float32, 1<<b)
		} else {
			t.Data = make([]float64, 1<<b)
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
// pooled size (for example views built with FromSlice) are dropped.
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
	if c == 0 || c&(c-1) != 0 {
		return
	}
	b := bucketIndex(c)
	if b >= poolBuckets {
		return
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

// defaultPool serves the package-level GetTensor/PutTensor helpers used by
// the training-step and loss code for batch-lifetime scratch (input stacks,
// feature-gradient accumulators, the O(batch²) contrastive intermediates)
// and EnsureOf, through which every layer workspace comes and goes.
var defaultPool = NewPool()

// GetTensor returns a zeroed float64 tensor of the given shape from the
// default pool.
func GetTensor(shape ...int) *Tensor { return defaultPool.Get(shape...) }

// GetTensorOf returns a zeroed tensor of the given dtype and shape from the
// default pool.
func GetTensorOf(dt DType, shape ...int) *Tensor { return defaultPool.GetOf(dt, shape...) }

// PutTensor returns a tensor obtained from GetTensor/GetTensorOf to the
// default pool.
func PutTensor(t *Tensor) { defaultPool.Put(t) }

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
