package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"
)

// mib converts bytes to the MB the memory metrics report (2^20 bytes).
const mib = 1 << 20

// repResult is what one rep — one fresh child process — reports.
type repResult struct {
	Host hostInfo `json:"host"`
	// CalibBeforeMs and CalibAfterMs bracket the rep with the fixed GEMM; a
	// rep whose two calibrations differ by more than driftLimit ran on a
	// host that changed speed under it.
	CalibBeforeMs float64            `json:"calib_before_ms"`
	CalibAfterMs  float64            `json:"calib_after_ms"`
	E2E           map[string]float64 `json:"end_to_end"`
	Layer         map[string]float64 `json:"per_layer,omitempty"`
	Points        []evalPoint        `json:"points"`
	// HistoryKey fingerprints the accuracy history (and, on the inproc
	// engine, the per-round bytes): equal inputs must give equal keys.
	HistoryKey string   `json:"history_key"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Failures   []string `json:"failures,omitempty"`
	TraceFile  string   `json:"trace_file,omitempty"`
}

// driftLimit is how far the calibration may move across one rep.
const driftLimit = 0.10

func (r *repResult) drifted() bool {
	lo, hi := r.CalibBeforeMs, r.CalibAfterMs
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo > 0 && hi/lo-1 > driftLimit
}

func (r *repResult) fail(format string, args ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// runRep executes one rep of w in this process and accounts for it.
func runRep(ctx context.Context, w *workload, seed int64, traced bool, outDir string) (*repResult, error) {
	res := &repResult{Host: thisHost(), E2E: map[string]float64{}}
	res.CalibBeforeMs = calibrate()
	rc := &runCfg{Seed: seed}
	if traced {
		rc.rec = newRecorder()
	}
	out, err := w.run(ctx, w, rc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	res.CalibAfterMs = calibrate()
	res.account(w, out)
	if traced {
		spans := rc.rec.snapshot()
		path, err := writeTrace(outDir, traceFile{Workload: w.Name, Seed: seed, Rounds: w.Rounds, Spans: spans})
		if err != nil {
			return nil, err
		}
		res.TraceFile = path
		res.attribute(w, out, spans)
	} else {
		// Memory is the end-to-end run's: probes would inflate it.
		res.E2E["peak_rss_mb"] = peakRSSMB()
	}
	return res, nil
}

// committed is how many rounds the run committed.
func committed(out *runOut) int {
	if len(out.Commits) > 0 {
		return len(out.Commits)
	}
	if n := len(out.History); n > 0 {
		return out.History[n-1].Round
	}
	return 0
}

// roundIntervals returns commit-to-commit intervals in milliseconds: one
// per commit on the inproc engine, one per eval point (divided by the
// rounds it spans) on node workloads.
func roundIntervals(out *runOut) []float64 {
	var iv []float64
	if len(out.Commits) > 0 {
		prev := out.Open
		for _, t := range out.Commits {
			iv = append(iv, t.Sub(prev).Seconds()*1e3)
			prev = t
		}
		return iv
	}
	prevAt, prevRound := 0.0, 0
	for _, p := range out.Points {
		if span := p.Round - prevRound; span > 0 {
			iv = append(iv, (p.AtS-prevAt)*1e3/float64(span))
		}
		prevAt, prevRound = p.AtS, p.Round
	}
	return iv
}

// expectedPoints is how many evaluation points a complete run records.
func expectedPoints(rounds, evalEvery int) int {
	return (rounds + evalEvery - 1) / evalEvery
}

// account computes the end-to-end metrics and runs the output checks.
func (r *repResult) account(w *workload, out *runOut) {
	r.Points = out.Points
	rounds, done := w.Rounds, committed(out)
	// Every requested round, every started node and the target are
	// attempts; so is each structural check below: the eval-point count, the
	// ledger sums and, where the workload has one, the accuracy floor.
	r.Attempted = rounds + w.Nodes + 1 + 2
	if w.Floor > 0 {
		r.Attempted++
	}
	if done < rounds {
		r.Failed += rounds - done
		r.Failures = append(r.Failures, fmt.Sprintf("%d of %d rounds committed", done, rounds))
	}
	for _, err := range out.NodeErrs {
		r.fail("node: %v", err)
	}
	if done == 0 {
		return
	}
	n := float64(done)
	wall := out.End.Sub(out.Open).Seconds()
	r.E2E["setup_s"] = median(out.SetupBuildS) + out.SetupOpenS
	r.E2E["rounds_per_s"] = n / wall
	r.E2E["round_ms_p50"] = median(roundIntervals(out))
	r.E2E["cpu_ms_per_round"] = (out.EndCtrs.cpuS - out.OpenCtrs.cpuS) * 1e3 / n
	r.E2E["alloc_mb_per_round"] = float64(out.EndCtrs.totalAlloc-out.OpenCtrs.totalAlloc) / mib / n
	r.E2E["up_bytes_per_round"] = float64(out.TotalUp) / n
	r.E2E["down_bytes_per_round"] = float64(out.TotalDown) / n

	accs := make([]float64, len(out.Points))
	for i, p := range out.Points {
		accs[i] = p.Acc
		if math.IsNaN(p.Acc) || math.IsInf(p.Acc, 0) {
			r.fail("eval point at round %d has accuracy %v", p.Round, p.Acc)
		}
	}
	if want := expectedPoints(rounds, w.EvalEvery); len(out.Points) != want {
		r.fail("%d eval points, want %d", len(out.Points), want)
	}
	if len(out.Points) > 0 {
		r.E2E["final_acc"] = accs[len(accs)-1]
		if w.Target == 0 {
			// One eval point is eight one-example clients here; the committed
			// global model on the whole test set is the accuracy that means
			// something.
			r.E2E["final_acc"] = out.GlobalAcc
		}
		if w.Floor > 0 && r.E2E["final_acc"] < w.Floor {
			r.fail("final_acc %.4f below the floor %.2f", r.E2E["final_acc"], w.Floor)
		}
		at, ok := targetReach(w, out)
		if !ok {
			r.fail("target %.2f not reached in %d rounds", w.Target, rounds)
		}
		r.E2E["time_to_target_s"], r.E2E["rounds_to_target"], r.E2E["bytes_to_target"] = at.AtS, at.Rounds, at.Bytes
	}

	// The ledger's cumulative totals must be its per-round records summed.
	// Node servers still exchange stop frames after the last round closes,
	// so there the totals may only exceed the sum.
	var up, down int64
	for _, t := range out.Traffic {
		up += t.UpBytes
		down += t.DownBytes
	}
	if w.Nodes == 0 && (up != out.TotalUp || down != out.TotalDown) {
		r.fail("ledger totals %d/%d differ from per-round sums %d/%d", out.TotalUp, out.TotalDown, up, down)
	}
	if w.Nodes > 0 && (up > out.TotalUp || down > out.TotalDown || len(out.Traffic) != done) {
		r.fail("ledger records %d rounds summing to %d/%d, totals %d/%d", len(out.Traffic), up, down, out.TotalUp, out.TotalDown)
	}
	r.HistoryKey = historyKey(out, w.Nodes == 0)
}

// reach is where on a run's timeline it met its target.
type reach struct {
	Rounds, AtS, Bytes float64
}

// targetWindow is how many eval points the accuracy curve is averaged over
// before it is held against the target. One eval point of a node workload
// scores 160 test examples (±0.035), as much as the curve climbs between two
// points, so an unsmoothed first crossing is set by a single lucky point.
const targetWindow = 3

// targetReach finds where the run met the workload's target. With an
// accuracy target that is the first eval point whose trailing mean over
// targetWindow points is at or above it, moved back by linear interpolation
// to where the line from the point before it crosses the target (eval points
// are up to five rounds apart). With no accuracy target it is the commit
// that completes half the run. ok is false when the target was never met;
// the reach is then the run's end.
func targetReach(w *workload, out *runOut) (at reach, ok bool) {
	pts := out.Points
	point := func(i int) reach {
		var bytes int64
		for _, t := range out.Traffic {
			if t.Round <= pts[i].Round {
				bytes += t.UpBytes + t.DownBytes
			}
		}
		return reach{Rounds: float64(pts[i].Round), AtS: pts[i].AtS, Bytes: float64(bytes)}
	}
	if w.Target == 0 {
		for i, p := range pts {
			if 2*p.Round >= w.Rounds {
				return point(i), true
			}
		}
		return point(len(pts) - 1), false
	}
	accs := make([]float64, len(pts))
	for i, p := range pts {
		accs[i] = p.Acc
	}
	accs = trailingMean(accs, targetWindow)
	i := firstCrossing(accs, w.Target)
	if i < 0 {
		return point(len(pts) - 1), false
	}
	hit := point(i)
	if i == 0 {
		return hit, true
	}
	f := (w.Target - accs[i-1]) / (accs[i] - accs[i-1])
	if !(f > 0 && f <= 1) { // the point before was not a finite accuracy below the target
		return hit, true
	}
	prev := point(i - 1)
	lerp := func(a, b float64) float64 { return a + f*(b-a) }
	return reach{Rounds: lerp(prev.Rounds, hit.Rounds), AtS: lerp(prev.AtS, hit.AtS), Bytes: lerp(prev.Bytes, hit.Bytes)}, true
}

// historyKey hashes the accuracy history bit for bit, with the per-round
// bytes where the engine makes them deterministic.
func historyKey(out *runOut, withBytes bool) string {
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, m := range out.History {
		put(uint64(m.Round))
		put(math.Float64bits(m.MeanAcc))
		for _, a := range m.PerClient {
			put(math.Float64bits(a))
		}
		if withBytes {
			put(uint64(m.UpBytes))
			put(uint64(m.DownBytes))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// attribute computes the per-layer metrics of a traced rep from its spans,
// its counters and the layer probes.
func (r *repResult) attribute(w *workload, out *runOut, spans []span) {
	n := float64(committed(out))
	if n == 0 {
		return
	}
	L := probeAll(newProbeEnv(w, out))
	r.Layer = L
	totals := totalsByName(spans)
	perRound := func(name string) float64 { return float64(totals[name].DurNs) / 1e6 / n }
	perCall := func(name string) float64 {
		if totals[name].Count == 0 {
			return 0
		}
		return float64(totals[name].DurNs) / 1e6 / float64(totals[name].Count)
	}

	// Live spans. On the node workloads the algo.* phases came from the
	// sequential replay instead (probeAll), and het_sync's Round is one
	// monolithic span.
	if w.Nodes == 0 {
		L["algo.round_ms"] = perRound("algo.round")
		for _, phase := range []string{"dispatch", "local", "apply", "commit"} {
			if v := perRound("algo." + phase); v > 0 {
				L["algo."+phase+"_ms"] = v
				L["algo.round_ms"] += v
			}
		}
		if c := totals["algo.local"].Count; c > 0 {
			L["algo.local_calls"] = float64(c) / n
		} else {
			L["algo.local_calls"] = fleetClients
		}
	}
	L["opt.steps"] = float64(out.OptSteps)
	L["ckpt.marshal_ms"], L["ckpt.unmarshal_ms"] = perCall("ckpt.marshal"), perCall("ckpt.unmarshal")
	L["ckpt.bytes"] = float64(out.CkptBytes)
	L["experiments.builds"] = float64(out.Builds)
	L["experiments.build_client_ms"] = perCall("experiments.build_client")
	if len(out.FleetBuildS) > 0 {
		L["experiments.build_client_ms"] = median(out.FleetBuildS) * 1e3 / fleetClients
	}
	if out.Dispatches > 0 {
		// Training dispatches and sampled evaluations both go through the
		// store; a touch that had to build its client is a miss.
		touches := out.Dispatches + int64(len(out.Points)*lazyCohort)
		L["fl.store_miss_share"] = float64(out.Builds) / float64(touches)
		L["fl.applied_share"] = float64(out.Applied) / float64(out.Dispatches)
	}
	L["fl.stale_drops"], L["fl.leaves"] = float64(out.StaleDrops), float64(out.Leaves)

	iv := roundIntervals(out)
	L["fl.round_samples"] = float64(len(iv))
	if p95, err := percentile(iv, 95); err == nil {
		L["fl.round_ms_p95"] = p95
	}
	// What the engine spends between the algorithm's calls: scheduling,
	// ledger, store traffic and evaluation.
	L["fl.engine_self_ms"] = math.Max(0, out.End.Sub(out.Open).Seconds()*1e3/n-L["algo.round_ms"])

	if m := out.Meter; m != nil {
		L["transport.send_ms"] = perRound("transport.send")
		if a := float64(m.accepted.Load()); a > 0 {
			L["transport.recv_wait_ms"] = perRound("transport.recv_wait") / a
		}
		L["transport.frames_per_round"] = float64(m.acceptFrames.Load()) / n
		L["transport.bytes_per_round"] = float64(m.acceptSent.Load()+m.acceptRecv.Load()) / n
		if d := m.dials.Load(); d > 0 {
			L["transport.dial_ms"] = float64(m.dialNs.Load()) / 1e6 / float64(d)
		}
		// On the flat topology every accepted connection is the root's, so
		// the shim must have seen exactly the bytes the ledger booked.
		r.Attempted++
		if w.Nodes == fleetClients && (m.acceptRecv.Load() != out.TotalUp || m.acceptSent.Load() != out.TotalDown) {
			r.fail("transport shim counted %d up / %d down, ledger %d / %d",
				m.acceptRecv.Load(), m.acceptSent.Load(), out.TotalUp, out.TotalDown)
		}
	}

	ctr := func(a, b uint64) float64 { return float64(b - a) }
	L["proc.mallocs_per_round"] = ctr(out.OpenCtrs.mallocs, out.EndCtrs.mallocs) / n
	L["proc.gc_count"] = float64(out.EndCtrs.numGC - out.OpenCtrs.numGC)
	L["proc.gc_pause_ms"] = ctr(out.OpenCtrs.pauseNs, out.EndCtrs.pauseNs) / 1e6
	L["proc.heap_live_mb"] = float64(out.EndCtrs.heapAlloc) / mib
	L["trace.coverage"] = r.coverage(w, out, spans, n)
}

// coverage is how much of the traced run's CPU the attribution explains:
// the self time of every live span except receive waits, plus probe
// estimates for the work no shim sees, per round, over cpu_ms_per_round.
// Spans measure wall time, so above GOMAXPROCS=1 two workers inside one
// span count once and coverage falls below what the layers add up to.
func (r *repResult) coverage(w *workload, out *runOut, spans []span, n float64) float64 {
	L := r.Layer
	var attributed float64
	self := selfTimes(spans)
	for _, s := range spans {
		switch {
		case s.Name == "transport.recv_wait" || s.Name == "transport.recv_wait_peer":
			// Waiting, not work.
		case w.Nodes > 0 && s.Name == "opt.step":
			// Inside the client training the replayed algo.local_ms covers.
		default:
			attributed += float64(self[s.ID]) / 1e6
		}
	}
	attributed /= n
	evalsPerRound := float64(len(out.Points)) / n
	attributed += L["fl.eval_ms"] * evalsPerRound
	switch {
	case w.Nodes == 0 && out.Builds > 0:
		// Every built client is eventually spilled.
		attributed += L["fl.store_evict_ms"] * float64(out.Builds) / n
	case w.Nodes > 0:
		// The replayed algorithm phases, and the frames each round moves:
		// every client's upload is encoded once and decoded once, every
		// dispatch likewise; on the tree each aggregate crosses once more.
		attributed += L["algo.round_ms"]
		up := float64(w.Nodes)
		attributed += up*(L["comm.encode_ms"]+L["comm.decode_ms"]) + 2*up*L["comm.encode_down_ms"]
	}
	return attributed / r.E2E["cpu_ms_per_round"]
}

// repTimeout bounds one rep: the driver allows a whole run 180 s.
const repTimeout = 150 * time.Second
