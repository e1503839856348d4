package fl

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/comm"
	"repro/internal/xrand"
)

// This file is the algorithm-independent half of a federation's rounds. The
// in-process engine's sync and async loops (Simulation) and the node root
// (ServerNode) schedule rounds their own ways, but every committed round
// ends here: what it records, when it evaluates and checkpoints, what a
// snapshot's scheduler-independent half holds and when a snapshot may
// resume. Nothing here calls an algorithm method except to capture and
// restore the algorithm's server state.

// evalSeedMix decorrelates the sampled-evaluation stream from the
// scheduler stream at the same seed ("eval" in ASCII).
const evalSeedMix = 0x6576616c

// rounds is a federation's round record: its Config, the cohort-sampling
// stream Rng and the sampled-evaluation stream, the traffic ledger, the
// metrics history and the checkpoint sink. Simulation and ServerNode embed
// it, so Cfg, Ledger, Rng and History are their fields.
type rounds struct {
	Cfg     Config
	Ledger  *comm.Ledger
	Rng     *rand.Rand
	History []RoundMetrics

	// src and evalSrc are the serializable sources behind Rng and evalRng,
	// so a checkpoint freezes both streams. evalRng is consumed only by
	// sampled evaluations (Config.EvalSample): full sweeps never touch it,
	// so enabling sampling never perturbs cohort sampling.
	src     *xrand.Source
	evalRng *rand.Rand
	evalSrc *xrand.Source

	// save receives a snapshot at every saveEvery-th committed round; nil
	// takes none.
	save      func(*Snapshot) error
	saveEvery int
}

func newRounds(cfg Config) rounds {
	cfg = cfg.withDefaults()
	rng, src := xrand.NewRand(cfg.Seed)
	evalRng, evalSrc := xrand.NewRand(cfg.Seed ^ evalSeedMix)
	return rounds{Cfg: cfg, Ledger: comm.NewLedger(), Rng: rng, src: src, evalRng: evalRng, evalSrc: evalSrc}
}

// checkpointTo sends a snapshot to save at every every-th committed round
// (default 1); a nil save takes none.
func (f *rounds) checkpointTo(save func(*Snapshot) error, every int) {
	f.save, f.saveEvery = save, max(every, 1)
}

// evaluates reports whether committed round v is an evaluation point: every
// EvalEvery-th round, and the last.
func (f *rounds) evaluates(v int) bool {
	return v%f.Cfg.EvalEvery == 0 || v >= f.Cfg.Rounds
}

// evalSample draws the clients an evaluation point of an n-client fleet
// measures: under Config.EvalSample a fresh sample, ascending, from the
// evaluation stream; nil — every client — when sampling is off or the
// sample would cover the fleet. PerClient lists the sample's accuracies in
// this order (RoundMetrics.EvalIDs).
func (f *rounds) evalSample(n int) []int {
	if f.Cfg.EvalSample <= 0 || f.Cfg.EvalSample >= n {
		return nil
	}
	ids := SamplePrefix(f.evalRng, n, f.Cfg.EvalSample)
	sort.Ints(ids)
	return ids
}

// closeRound is the one round close. It ends committed round v's traffic
// accounting; records m — the round's evaluation, nil off the evaluation
// cadence — stamped with the round, its cumulative local epochs, its
// traffic and simTime; and at the checkpoint cadence hands capture's
// snapshot to the sink. A snapshot that cannot be taken or saved fails the
// run: a federation that silently stops persisting is worse than one that
// stops.
func (f *rounds) closeRound(v, epochsPerRound int, simTime float64, m *RoundMetrics, capture func() (*Snapshot, error)) error {
	traffic := f.Ledger.EndRound(v)
	if m != nil {
		m.Round, m.LocalEpochs = v, v*epochsPerRound
		m.UpBytes, m.DownBytes = traffic.UpBytes, traffic.DownBytes
		m.SimTime = simTime
		f.History = append(f.History, *m)
	}
	if f.save == nil || v%f.saveEvery != 0 {
		return nil
	}
	snap, err := capture()
	if err == nil {
		err = f.save(snap)
	}
	if err != nil {
		return fmt.Errorf("fl: checkpoint at round %d: %w", v, err)
	}
	return nil
}

// capture fills a snapshot's scheduler-independent half: the algorithm's
// server state, both streams, the history and the ledger.
func (f *rounds) capture(snap *Snapshot, algo Algorithm) error {
	ca, ok := algo.(CheckpointableAlgorithm)
	if !ok {
		return fmt.Errorf("fl: %s cannot be checkpointed (implement fl.CheckpointableAlgorithm)", algo.Name())
	}
	st, err := ca.AlgoSnapshot()
	if err != nil {
		return fmt.Errorf("fl: %s state snapshot: %w", algo.Name(), err)
	}
	snap.Algo = st
	snap.Rng = f.src.State()
	snap.EvalRng = f.evalSrc.State()
	snap.History = cloneHistory(f.History)
	snap.Ledger = f.Ledger.Snapshot()
	return nil
}

// resume is the one resume guard and the inverse of capture. A snapshot
// resumes only under the scheduler kind it was taken with, within the
// configured horizon, over a fleet of its size, into a checkpointable
// algorithm; own then checks and restores the caller's half (client
// records, sessions). Every check runs before anything is overwritten, so
// a refused snapshot leaves the record as it was.
func (f *rounds) resume(snap *Snapshot, kind SchedulerKind, fleet int, algo Algorithm, own func() error) error {
	ca, ok := algo.(CheckpointableAlgorithm)
	switch {
	case !ok:
		return fmt.Errorf("fl: %s cannot restore a checkpoint (implement fl.CheckpointableAlgorithm)", algo.Name())
	case snap.Kind != kind:
		return fmt.Errorf("fl: cannot resume a %s checkpoint under the %s scheduler", snap.Kind, kind)
	case snap.Round > f.Cfg.Rounds:
		return fmt.Errorf("fl: checkpoint at round %d is past the configured %d rounds", snap.Round, f.Cfg.Rounds)
	case snap.FleetSize != fleet:
		return fmt.Errorf("fl: checkpoint has a %d-client fleet, this run has %d", snap.FleetSize, fleet)
	}
	if err := own(); err != nil {
		return err
	}
	f.src.SetState(snap.Rng)
	f.evalSrc.SetState(snap.EvalRng)
	f.History = cloneHistory(snap.History)
	f.Ledger.Restore(snap.Ledger)
	if snap.Algo != nil {
		if err := ca.AlgoRestore(snap.Algo); err != nil {
			return fmt.Errorf("fl: %s state restore: %w", algo.Name(), err)
		}
	}
	return nil
}
