package fl

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// dispatchEngine is an async engine over n bare clients with churn, ready to
// take dispatch decisions. Dispatch only buffers a client for the refill's
// launch, and nothing here launches, so nothing it dispatches ever trains.
func dispatchEngine(n, workers int) *Engine {
	e := &Engine{
		sim:      NewSimulation(nil, Config{Seed: 5}),
		algo:     &stubAsync{},
		sched:    &SchedulerConfig{Kind: SchedAsyncBounded, Workers: workers, LeaveProb: 0.1, RejoinAfter: 2},
		idle:     make([]bool, n),
		away:     make([]float64, n),
		nodeFree: make([]float64, workers),
	}
	for i := range e.idle {
		e.idle[i] = true
	}
	e.ready.rebuild(e.idle, e.away, e.now)
	return e
}

// land delivers the earliest flight the way runAsync does: the clock moves to
// its completion time and its client is idle again.
func (e *Engine) land() {
	ft := heap.Pop(&e.heap).(*flight)
	e.setNow(ft.vtime)
	e.markIdle(ft.client)
	e.pending = e.pending[:0]
}

// The ready set must agree, after every transition, with the scans of the
// idle and away flags it replaced: same count, same k-th schedulable client
// in id order, same earliest rejoin.
func TestReadySetMatchesScan(t *testing.T) {
	const n = 37
	e := dispatchEngine(n, 5)
	rng := rand.New(rand.NewSource(9))
	check := func(step int) {
		t.Helper()
		var want []int
		rejoin := math.Inf(1)
		for id := range e.idle {
			if e.idle[id] && e.away[id] <= e.now {
				want = append(want, id)
			}
			if e.idle[id] && e.away[id] > e.now && e.away[id] < rejoin {
				rejoin = e.away[id]
			}
		}
		if e.ready.n != len(want) {
			t.Fatalf("step %d: ready set counts %d, scan %d", step, e.ready.n, len(want))
		}
		for k, id := range want {
			if got := e.ready.kth(k); got != id {
				t.Fatalf("step %d: kth(%d) = %d, scan %d", step, k, got, id)
			}
		}
		got := math.Inf(1)
		if len(e.ready.rejoin) > 0 {
			got = e.ready.rejoin[0].at
		}
		if got != rejoin {
			t.Fatalf("step %d: earliest rejoin %v, scan %v", step, got, rejoin)
		}
	}
	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(10); {
		case op < 5:
			e.dispatchRandomIdle()
		case op < 8 && e.heap.Len() > 0:
			e.land()
		case op == 8:
			// The engine jumps to the next rejoin only with nothing in flight.
			for e.heap.Len() > 0 {
				e.land()
			}
			e.advanceToRejoin()
		default:
			// A checkpoint restore rebuilds the set from the flags alone.
			e.ready.rebuild(e.idle, e.away, e.now)
		}
		check(step)
	}
}

// BenchmarkAsyncDispatch is one async scheduling event — the earliest flight
// lands, the clock advances, a replacement is drawn with a churn roll — at
// two fleet sizes. The cost must not follow the fleet: 2²⁰ clients may take
// under twice the time of 2¹² (a pair of scans took 256×).
func BenchmarkAsyncDispatch(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 20} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			e := dispatchEngine(n, 8)
			for e.heap.Len() < e.sched.Workers {
				e.dispatchRandomIdle()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.land()
				for e.heap.Len() < e.sched.Workers && e.dispatchRandomIdle() {
				}
			}
		})
	}
}
