package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The package maintains one persistent, GOMAXPROCS-sized worker pool that
// every parallel primitive (matmul row sharding, per-sample im2col loops,
// client-level federated parallelism) dispatches onto. Spawning goroutines
// per call is cheap in isolation but dominates the runtime of the many tiny
// kernels a training step issues; a persistent pool makes dispatch a channel
// send.
//
// Deadlock-freedom under nesting: a range is handed to the pool only after
// taking a token, and there are exactly as many tokens as workers, so the
// number of in-flight pool tasks never exceeds the worker count and every
// dispatched task is guaranteed a worker. A task holds its token for its
// whole run; when a nested Parallel* call finds no token free it simply runs
// on the calling goroutine. The caller always executes one share of the work
// itself, so the pool being saturated degrades to sequential execution
// rather than blocking.
var (
	poolWorkers int
	poolTasks   chan poolTask
	poolTokens  chan struct{}
)

// poolTask is one unit of work handed to a pool worker: a whole function
// (run) or one range of a ParallelSharded call (shard over [lo,hi)). Tasks
// travel through the channel by value and the WaitGroup of a sharded call
// comes from waitGroups, so dispatching a range allocates nothing: a caller
// that reuses its range function dispatches for free. The worker returns its
// token before signalling wg, as every dispatcher expects.
type poolTask struct {
	run       func()
	shard     func(shard, lo, hi int)
	s, lo, hi int
	wg        *sync.WaitGroup
}

// waitGroups recycles the WaitGroups of ParallelSharded calls; one is reused
// only after its Wait has returned.
var waitGroups = sync.Pool{New: func() any { return new(sync.WaitGroup) }}

func init() {
	poolWorkers = runtime.GOMAXPROCS(0)
	if poolWorkers < 1 {
		poolWorkers = 1
	}
	poolTasks = make(chan poolTask, poolWorkers)
	poolTokens = make(chan struct{}, poolWorkers)
	for i := 0; i < poolWorkers; i++ {
		poolTokens <- struct{}{}
		go func() {
			for t := range poolTasks {
				if t.run != nil {
					t.run()
				} else {
					t.shard(t.s, t.lo, t.hi)
				}
				poolTokens <- struct{}{}
				if t.wg != nil {
					t.wg.Done()
				}
			}
		}()
	}
}

// Workers reports the size of the persistent worker pool (GOMAXPROCS at
// package initialization).
func Workers() int { return poolWorkers }

// maxHelpers caps how many pool workers the Parallel* primitives may enlist
// beyond the calling goroutine. It exists for determinism tests that force
// serial execution; 0 means "no cap" (use the whole pool).
var maxHelpers atomic.Int32

// SetMaxWorkers limits Parallel and ParallelSharded to at most n concurrent
// goroutines (including the caller) and returns the previous limit. n <= 0
// or n >= Workers() removes the cap. Intended for tests that compare serial
// against parallel execution; Spawn is unaffected.
func SetMaxWorkers(n int) int {
	prev := int(maxHelpers.Load())
	if prev == 0 {
		prev = poolWorkers
	}
	if n <= 0 || n >= poolWorkers {
		maxHelpers.Store(0)
	} else {
		maxHelpers.Store(int32(n))
	}
	return prev
}

// curWorkers reports the effective concurrency bound for Parallel*.
func curWorkers() int {
	if m := int(maxHelpers.Load()); m > 0 {
		return m
	}
	return poolWorkers
}

// Spawn runs f asynchronously on the persistent worker pool, blocking the
// caller until a worker token is free. Unlike Parallel it does not wait for
// f to finish. Long-running tasks — the async federation engine's client
// updates — go through Spawn so their compute shares the same concurrency
// budget as the kernel-level loops: while all tokens are held, nested
// Parallel* calls inside f degrade to inline execution instead of
// oversubscribing the machine.
func Spawn(f func()) {
	<-poolTokens
	poolTasks <- poolTask{run: f}
}

// ParallelSharded splits [0,n) into at most shards contiguous ranges and
// calls f(shard, lo, hi) once per non-empty range. Each range is processed
// by exactly one goroutine, so shard-indexed accumulators need no locking;
// shard is always < min(shards, n). The calling goroutine executes shard 0
// and any range the pool cannot absorb immediately.
func ParallelSharded(n, shards int, f func(shard, lo, hi int)) {
	if n <= 0 {
		return
	}
	if shards > n {
		shards = n
	}
	if shards <= 1 || curWorkers() == 1 {
		f(0, 0, n)
		return
	}
	chunk := (n + shards - 1) / shards
	var wg *sync.WaitGroup
	shard := 0
	// The worker cap bounds concurrency only: shard boundaries are identical
	// at every cap, so per-shard arithmetic (and any caller-side reduction
	// over shards) is bit-identical whether ranges run inline or on workers.
	dispatched, budget := 0, curWorkers()-1
	for lo := chunk; lo < n; lo += chunk {
		shard++
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if dispatched < budget {
			select {
			case <-poolTokens:
				dispatched++
				if wg == nil {
					wg = waitGroups.Get().(*sync.WaitGroup)
				}
				wg.Add(1)
				poolTasks <- poolTask{shard: f, s: shard, lo: lo, hi: hi, wg: wg}
				continue
			default:
			}
		}
		f(shard, lo, hi)
	}
	f(0, 0, chunk)
	if wg != nil {
		wg.Wait()
		waitGroups.Put(wg)
	}
}

// Parallel runs f(i) for i in [0,n) with dynamic load balancing: the caller
// and up to Workers()-1 pool workers pull indices from a shared atomic
// counter. Use it when iterations have uneven cost (for example federated
// clients with different model sizes); use ParallelSharded when per-shard
// state is needed.
func Parallel(n int, f func(i int)) {
	if n <= 0 {
		return
	}
	if n == 1 || curWorkers() == 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	run := func() {
		for {
			i := next.Add(1) - 1
			if i >= int64(n) {
				return
			}
			f(int(i))
		}
	}
	var wg sync.WaitGroup
	helpers := curWorkers() - 1
	if helpers > n-1 {
		helpers = n - 1
	}
	for h := 0; h < helpers; h++ {
		ok := false
		select {
		case <-poolTokens:
			ok = true
		default:
		}
		if !ok {
			break
		}
		wg.Add(1)
		poolTasks <- poolTask{run: run, wg: &wg}
	}
	run()
	wg.Wait()
}
