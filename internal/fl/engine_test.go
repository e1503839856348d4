package fl

import (
	"container/heap"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/comm"
	"repro/internal/tensor"
)

// stubAsync is a communication-shaped no-op algorithm: every update carries
// one value so apply/commit bookkeeping is observable without training.
type stubAsync struct {
	applied int
	commits int
	weights []float64 // weights seen by AsyncApply, in order
}

func (s *stubAsync) Name() string                { return "stub" }
func (s *stubAsync) EpochsPerRound() int         { return 1 }
func (s *stubAsync) Setup(sim *Simulation) error { return nil }
func (s *stubAsync) Round(sim *Simulation, round int, participants []int) error {
	return nil
}
func (s *stubAsync) AsyncSetup(sim *Simulation, sched *SchedulerConfig) error { return nil }
func (s *stubAsync) AsyncDispatch(sim *Simulation, client int) error          { return nil }
func (s *stubAsync) AsyncLocalGroup(sim *Simulation, clients []int) ([]*Update, error) {
	us := make([]*Update, len(clients))
	for i, id := range clients {
		us[i] = &Update{Client: id, Scale: 1, Vecs: bodiesOf([][]float64{{1}})}
	}
	return us, nil
}
func (s *stubAsync) AsyncApply(sim *Simulation, u *Update) error {
	s.applied++
	s.weights = append(s.weights, u.Weight)
	return nil
}
func (s *stubAsync) AsyncCommit(sim *Simulation) error {
	s.commits++
	return nil
}

func bareClients(k int) []*Client {
	clients := make([]*Client, k)
	for i := range clients {
		clients[i] = &Client{ID: i}
	}
	return clients
}

func TestAsyncEngineCommitsRounds(t *testing.T) {
	sim := NewSimulation(bareClients(4), Config{Rounds: 5, Seed: 3})
	algo := &stubAsync{}
	hist, err := sim.RunScheduled(algo, SchedulerConfig{Kind: SchedAsyncBounded})
	if err != nil {
		t.Fatal(err)
	}
	if algo.commits != 5 {
		t.Fatalf("commits %d, want 5", algo.commits)
	}
	if len(hist) != 5 {
		t.Fatalf("history %d entries", len(hist))
	}
	// Commit t folds ⌈K·rate⌉ = 4 updates.
	if algo.applied != 20 {
		t.Fatalf("applied %d updates, want 20", algo.applied)
	}
	for i, m := range hist {
		if m.Round != i+1 || m.SimTime <= 0 {
			t.Fatalf("metrics %+v", m)
		}
	}
}

func TestAsyncEngineIsDeterministic(t *testing.T) {
	run := func() (*Trace, []RoundMetrics, []float64) {
		sim := NewSimulation(bareClients(5), Config{Rounds: 6, Seed: 11, SampleRate: 0.6})
		algo := &stubAsync{}
		tr := &Trace{}
		hist, err := sim.RunScheduled(algo, SchedulerConfig{
			Kind:  SchedAsyncBounded,
			Costs: []float64{3, 1, 1, 2, 1},
			Decay: 0.5,
			Trace: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr, hist, algo.weights
	}
	tr1, h1, w1 := run()
	tr2, h2, w2 := run()
	if !reflect.DeepEqual(tr1, tr2) {
		t.Fatal("same seed produced different event traces")
	}
	if !reflect.DeepEqual(h1, h2) {
		t.Fatal("same event trace produced different metrics")
	}
	if !reflect.DeepEqual(w1, w2) {
		t.Fatal("same event trace produced different apply weights")
	}
}

func TestAsyncStalenessWeightAndDrop(t *testing.T) {
	// One 10×-slow straggler among 4 clients on 4 nodes: its updates land
	// several commits stale. With MaxStaleness 1 some must be dropped, and
	// every applied weight must match 1/(1+α·s) ∈ {1, 1/(1+α)}.
	sim := NewSimulation(bareClients(4), Config{Rounds: 8, Seed: 2})
	algo := &stubAsync{}
	tr := &Trace{}
	sched := SchedulerConfig{
		Kind:         SchedAsyncBounded,
		Costs:        []float64{10, 1, 1, 1},
		MaxStaleness: 1,
		Decay:        1,
		Trace:        tr,
	}
	if _, err := sim.RunScheduled(algo, sched); err != nil {
		t.Fatal(err)
	}
	drops := 0
	for _, e := range tr.Events {
		if e.Kind == TraceDrop {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("10x straggler with MaxStaleness 1 never dropped an update")
	}
	for _, w := range algo.weights {
		if w != 1 && w != 0.5 {
			t.Fatalf("apply weight %v not in {1, 1/2}", w)
		}
	}
}

func TestSemiSyncQuorumCommits(t *testing.T) {
	sim := NewSimulation(bareClients(6), Config{Rounds: 4, Seed: 7})
	algo := &stubAsync{}
	hist, err := sim.RunScheduled(algo, SchedulerConfig{
		Kind:   SchedSemiSync,
		Quorum: 4,
		Costs:  []float64{2, 1, 1, 1, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 4 {
		t.Fatalf("history %d entries", len(hist))
	}
	// Quorum 4 of 6: each round commits at the 4th delivery, so the 2×
	// straggler never gates a commit — virtual round duration stays 1.
	if got := hist[len(hist)-1].SimTime; got != 4 {
		t.Fatalf("semi-sync virtual time %v, want 4", got)
	}
}

// The headline scheduling claim: with a 2×-slow straggler and one virtual
// node per client, the async scheduler commits rounds ≥ 1.5× faster than
// the barrier, which pays the straggler's full cost every round.
func TestAsyncThroughputBeatsSyncWithStraggler(t *testing.T) {
	costs := []float64{2, 1, 1, 1, 1, 1}
	const rounds = 12
	runKind := func(kind SchedulerKind) float64 {
		sim := NewSimulation(bareClients(len(costs)), Config{Rounds: rounds, Seed: 5, EvalEvery: rounds})
		hist, err := sim.RunScheduled(&stubAsync{}, SchedulerConfig{Kind: kind, Costs: costs})
		if err != nil {
			t.Fatal(err)
		}
		return hist[len(hist)-1].SimTime
	}
	syncT := runKind(SchedSync)
	asyncT := runKind(SchedAsyncBounded)
	if syncT != 2*rounds {
		t.Fatalf("sync virtual time %v, want %v (straggler gates every round)", syncT, 2*rounds)
	}
	ratio := syncT / asyncT
	if ratio < 1.5 {
		t.Fatalf("async round throughput only %.2fx sync (sync %v, async %v), want >= 1.5x", ratio, syncT, asyncT)
	}
	t.Logf("round throughput: async %.2fx sync (sync %.1f, async %.1f virtual units for %d rounds)", ratio, syncT, asyncT, rounds)
}

func TestRunScheduledRejectsNonAsyncAlgorithms(t *testing.T) {
	sim := NewSimulation(bareClients(2), Config{Rounds: 1, Seed: 1})
	if _, err := sim.RunScheduled(&countingAlgo{}, SchedulerConfig{Kind: SchedAsyncBounded}); err == nil {
		t.Fatal("sync-only algorithm must be rejected by the async scheduler")
	}
}

func TestParseScheduler(t *testing.T) {
	for s, want := range map[string]SchedulerKind{
		"sync": SchedSync, "": SchedSync,
		"async": SchedAsyncBounded, "async-bounded": SchedAsyncBounded,
		"semisync": SchedSemiSync, "k-of-n": SchedSemiSync,
	} {
		got, err := ParseScheduler(s)
		if err != nil || got != want {
			t.Fatalf("ParseScheduler(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseScheduler("chaos"); err == nil {
		t.Fatal("unknown scheduler must error")
	}
}

func TestStalenessWeight(t *testing.T) {
	c := SchedulerConfig{Decay: 0.5}
	if w := c.StalenessWeight(0); w != 1 {
		t.Fatalf("fresh weight %v", w)
	}
	if w := c.StalenessWeight(2); math.Abs(w-0.5) > 1e-15 {
		t.Fatalf("stale weight %v, want 0.5", w)
	}
	if w := (&SchedulerConfig{}).StalenessWeight(5); w != 1 {
		t.Fatalf("no-decay weight %v", w)
	}
}

func TestSyncMakespan(t *testing.T) {
	sched := &SchedulerConfig{Workers: 2, Costs: []float64{3, 1, 1, 1}}
	// Greedy in id order on 2 nodes: [3] and [1,1,1] → makespan 3.
	if got := syncMakespan([]int{0, 1, 2, 3}, sched); got != 3 {
		t.Fatalf("makespan %v, want 3", got)
	}
	if got := syncMakespan(nil, sched); got != 0 {
		t.Fatalf("empty makespan %v", got)
	}
}

func TestShardedAccumulator(t *testing.T) {
	a := NewSharded(6, 3)
	a.Accumulate([]float64{1, 1, 2, 2, 3, 3}, 1)
	a.Accumulate([]float64{3, 3, 4, 4, 5, 5}, 3)
	dst := make([]float64, 6)
	a.CommitInto(dst, 1, nil)
	// Weighted mean: (1·v1 + 3·v2)/4.
	want := []float64{2.5, 2.5, 3.5, 3.5, 4.5, 4.5}
	for i := range want {
		if math.Abs(dst[i]-want[i]) > 1e-12 {
			t.Fatalf("dst[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
	// Accumulator reset: an empty commit leaves dst untouched.
	a.CommitInto(dst, 1, nil)
	if dst[0] != 2.5 {
		t.Fatal("empty commit must not touch dst")
	}
}

func TestShardedAccumulatorSegmentsAndMix(t *testing.T) {
	a := NewSegmented([]int{2, 2})
	a.AccumulateSegment(0, comm.AsF64Body([]float64{4, 4}), 2)
	dst := []float64{1, 1, 9, 9}
	touched := make([]bool, 2)
	a.CommitInto(dst, 0.5, touched)
	if !touched[0] || touched[1] {
		t.Fatalf("touched %v", touched)
	}
	// Segment 0 mixes 0.5·old + 0.5·mean; segment 1 untouched.
	if dst[0] != 2.5 || dst[1] != 2.5 || dst[2] != 9 || dst[3] != 9 {
		t.Fatalf("dst %v", dst)
	}
}

// Heavy churn must never terminate a run early: even when every live
// client is away and the lone rejoiner churns out again, the engine keeps
// advancing the virtual clock until all rounds commit.
func TestChurnHeavyStillCommitsAllRounds(t *testing.T) {
	const rounds = 12
	for _, kind := range []SchedulerKind{SchedAsyncBounded, SchedSemiSync} {
		sim := NewSimulation(bareClients(2), Config{Rounds: rounds, Seed: 13})
		algo := &stubAsync{}
		hist, err := sim.RunScheduled(algo, SchedulerConfig{
			Kind:        kind,
			LeaveProb:   0.9, // nearly every engagement churns out
			RejoinAfter: 1,
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if len(hist) != rounds {
			t.Fatalf("%v: heavy churn terminated after %d of %d rounds", kind, len(hist), rounds)
		}
	}
	// LeaveProb >= 1 must be clamped, not spin forever.
	sim := NewSimulation(bareClients(2), Config{Rounds: 3, Seed: 13})
	hist, err := sim.RunScheduled(&stubAsync{}, SchedulerConfig{Kind: SchedAsyncBounded, LeaveProb: 1})
	if err != nil || len(hist) != 3 {
		t.Fatalf("LeaveProb 1: %d rounds, err %v", len(hist), err)
	}
}

// Steady-state allocation budgets for the new hot paths (the engine's event
// plumbing and the shard fold/merge), in the style of nn/alloc_test.go.

func shardDispatchBudget() float64 {
	// ParallelSharded costs the range closure, the loop closure and one
	// task closure per enlisted worker.
	return float64(4 + 2*tensor.Workers())
}

func TestShardAccumulateAllocs(t *testing.T) {
	a := NewSharded(4096, 8)
	vec := make([]float64, 4096)
	a.Accumulate(vec, 1) // warm up
	avg := testing.AllocsPerRun(50, func() {
		a.Accumulate(vec, 1)
	})
	if budget := shardDispatchBudget(); avg > budget {
		t.Fatalf("Accumulate allocates %.1f objects/op, want <= %.0f", avg, budget)
	}
}

func TestShardCommitAllocs(t *testing.T) {
	a := NewSharded(4096, 8)
	vec := make([]float64, 4096)
	dst := make([]float64, 4096)
	touched := make([]bool, 1)
	avg := testing.AllocsPerRun(50, func() {
		a.Accumulate(vec, 1)
		a.CommitInto(dst, 1, touched)
	})
	if budget := 2 * shardDispatchBudget(); avg > budget {
		t.Fatalf("Accumulate+CommitInto allocates %.1f objects/op, want <= %.0f", avg, budget)
	}
}

func TestEventQueueDispatchAllocs(t *testing.T) {
	// One dispatch/delivery cycle: a flight pushed and popped on the heap
	// plus a result through the event queue. Budget: the flight, the
	// result copy filed in the arrived map, and interface boxing.
	queue := newResultQueue()
	arrived := make(map[int]*asyncResult, 8)
	var h flightHeap
	u := &Update{Client: 0, Scale: 1}
	heap.Push(&h, &flight{client: 0, vtime: 1}) // warm the heap's and the queue's backing arrays
	heap.Pop(&h)
	queue.push(asyncResult{})
	queue.pop()
	avg := testing.AllocsPerRun(100, func() {
		ft := &flight{client: 0, vtime: 1}
		heap.Push(&h, ft)
		queue.push(asyncResult{client: 0, u: u})
		r := queue.pop()
		arrived[r.client] = &r
		popped := heap.Pop(&h).(*flight)
		popped.res = arrived[popped.client]
		delete(arrived, popped.client)
	})
	if avg > 6 {
		t.Fatalf("event dispatch cycle allocates %.1f objects/op, want <= 6", avg)
	}
}

// asyncRunAlloc returns the bytes an async run of four commits over a
// k-client virtual fleet allocates, its cohort fixed at eight.
func asyncRunAlloc(t *testing.T, k int) uint64 {
	t.Helper()
	sim := NewLazySimulation(k, func(i int) *Client { return &Client{ID: i} }, 0, Config{Rounds: 4, SampleRate: 8 / float64(k), Seed: 5})
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	if _, err := sim.RunScheduled(&stubAsync{}, SchedulerConfig{Kind: SchedAsyncBounded}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - before
}

// The async engine's event queue holds the results of open flights, not a
// slot per client: what a run allocates per extra fleet client — the
// engine's idle flags, away times and ready set, about 9 bytes — stays well
// under the 32 bytes per client a queue sized by the fleet cost on its own.
func TestAsyncQueueIndependentOfFleet(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime inflates every allocation; the alloc gate runs without -race")
	}
	const small, large = 1 << 10, 1 << 17
	asyncRunAlloc(t, small) // warm the worker pool and the tensor pool
	perClient := float64(asyncRunAlloc(t, large)-asyncRunAlloc(t, small)) / (large - small)
	t.Logf("%.1f bytes allocated per fleet client", perClient)
	if perClient > 16 {
		t.Fatalf("an async run allocates %.1f bytes per fleet client, want <= 16", perClient)
	}
}
