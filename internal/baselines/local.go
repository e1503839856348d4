// Package baselines implements the comparison algorithms of the paper's
// evaluation: the local-training-only baseline, FedAvg (McMahan et al.),
// FedProx (Li et al.), FedProto (Tan et al.) and KT-pFL (Zhang et al.).
// Each implements fl.Algorithm, so the experiment harness can swap them
// freely against FedClassAvg.
package baselines

import (
	"repro/internal/fl"
)

// LocalOnly trains each client on its own data with no communication —
// the "baseline" rows of the paper's tables.
type LocalOnly struct {
	LocalEpochs int
}

// NewLocalOnly builds the baseline with the given epochs per round.
func NewLocalOnly(epochs int) *LocalOnly {
	if epochs <= 0 {
		epochs = 1
	}
	return &LocalOnly{LocalEpochs: epochs}
}

// Name identifies the algorithm.
func (l *LocalOnly) Name() string { return "Local" }

// EpochsPerRound reports the local epochs per round.
func (l *LocalOnly) EpochsPerRound() int { return l.LocalEpochs }

// Setup is a no-op: there is no server state.
func (l *LocalOnly) Setup(sim *fl.Simulation) error { return nil }

// Round trains every participant locally; nothing is exchanged.
func (l *LocalOnly) Round(sim *fl.Simulation, round int, participants []int) error {
	fl.ParallelGroups(sim, participants, func(group []*fl.Client, _ []int) {
		l.local(group, sim.Cfg.BatchSize)
	})
	return nil
}

// local trains a group and returns its communication-free updates.
func (l *LocalOnly) local(group []*fl.Client, batchSize int) []*fl.Update {
	fl.TrainEpochs(group, batchSize, l.LocalEpochs, fl.Objective{})
	us := make([]*fl.Update, len(group))
	for i, c := range group {
		us[i] = &fl.Update{Client: c.ID}
	}
	return us
}

// The baseline is trivially async: there is no server state, so the
// scheduler only controls when each client trains.

// AsyncSetup is a no-op.
func (l *LocalOnly) AsyncSetup(sim *fl.Simulation, sched *fl.SchedulerConfig) error { return nil }

// AsyncDispatch is a no-op: nothing is broadcast.
func (l *LocalOnly) AsyncDispatch(sim *fl.Simulation, client int) error { return nil }

// AsyncLocalGroup trains a group and reports communication-free updates.
func (l *LocalOnly) AsyncLocalGroup(sim *fl.Simulation, clients []int) ([]*fl.Update, error) {
	group := make([]*fl.Client, len(clients))
	for i, id := range clients {
		group[i] = sim.Client(id)
	}
	return l.local(group, sim.Cfg.BatchSize), nil
}

// AsyncApply is a no-op.
func (l *LocalOnly) AsyncApply(sim *fl.Simulation, u *fl.Update) error { return nil }

// AsyncCommit is a no-op.
func (l *LocalOnly) AsyncCommit(sim *fl.Simulation) error { return nil }

// AlgoSnapshot reports an empty state: the baseline has no server state.
func (l *LocalOnly) AlgoSnapshot() (*fl.AlgoState, error) {
	return &fl.AlgoState{}, nil
}

// AlgoRestore is a no-op.
func (l *LocalOnly) AlgoRestore(st *fl.AlgoState) error { return nil }
