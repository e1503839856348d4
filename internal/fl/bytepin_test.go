package fl_test

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/fl"
)

// TestLedgerBytesPinnedAcrossCommits pins the byte ledger to literals
// recorded at commit ccc787c, before internal/comm and the ledger were
// narrowed to one pricing route. Every other golden compares a run with
// itself, so a refactor that re-priced every frame consistently would pass
// them all; these totals only hold if each algorithm still books the same
// frames at the same sizes under both engines.
func TestLedgerBytesPinnedAcrossCommits(t *testing.T) {
	algos := goldenAlgos()
	f64, i8 := comm.Spec{}, comm.Spec{Value: comm.I8}
	topk, i8delta := comm.NewSpec(comm.F32, 0.05, false), comm.NewSpec(comm.I8, 0, true)
	pins := []struct {
		algo               string
		spec               comm.Spec
		async              bool
		up, down, messages int64
	}{
		{"Local", f64, false, 0, 0, 0},
		{"Local", f64, true, 0, 0, 0},
		{"Local", i8, false, 0, 0, 0},
		{"Local", i8, true, 0, 0, 0},
		{"FedAvg", f64, false, 163040, 163040, 16},
		{"FedAvg", f64, true, 489120, 550260, 51},
		{"FedAvg", i8, false, 20528, 20528, 16},
		{"FedAvg", i8, true, 61584, 69282, 51},
		{"FedProto", f64, false, 3424, 2656, 16},
		{"FedProto", f64, true, 10400, 13124, 51},
		{"FedProto", i8, false, 576, 480, 16},
		{"FedProto", i8, true, 1744, 2140, 51},
		{"KT-pFL", f64, false, 5216, 5216, 16},
		{"KT-pFL", f64, true, 15648, 11736, 42},
		{"KT-pFL", i8, false, 800, 800, 16},
		{"KT-pFL", i8, true, 2400, 1800, 42},
		{"KT-pFL+weight", f64, false, 163040, 163040, 16},
		{"KT-pFL+weight", f64, true, 489120, 366840, 42},
		{"KT-pFL+weight", i8, false, 20528, 20528, 16},
		{"KT-pFL+weight", i8, true, 61584, 46188, 42},
		{"FedClassAvg", f64, false, 5856, 5856, 16},
		{"FedClassAvg", f64, true, 17568, 19764, 51},
		{"FedClassAvg", i8, false, 880, 880, 16},
		{"FedClassAvg", i8, true, 2640, 2970, 51},
		{"FedAvg", topk, false, 5295, 81568, 16},
		{"FedAvg", topk, true, 15899, 275292, 51},
		{"FedAvg", i8delta, false, 20564, 20528, 16},
		{"FedAvg", i8delta, true, 61764, 69282, 51},
	}
	for _, p := range pins {
		t.Run(fmt.Sprintf("%s/%s/async=%v", p.algo, p.spec, p.async), func(t *testing.T) {
			sched := fl.SchedulerConfig{Kind: fl.SchedSync}
			cfg := fl.Config{Rounds: 2, BatchSize: 8, Seed: 9, Codec: p.spec.Value, TopK: p.spec.Frac, Delta: p.spec.Delta}
			if p.async {
				sched = fl.SchedulerConfig{Kind: fl.SchedAsyncBounded, Costs: []float64{2, 1, 1, 1}}
				cfg.Rounds = 6
			}
			sim := fl.NewSimulation(goldenFleet(t, 4), cfg)
			if _, err := sim.RunScheduled(algos[p.algo](), sched); err != nil {
				t.Fatal(err)
			}
			var messages int64
			for _, r := range sim.Ledger.Rounds() {
				messages += int64(r.Messages)
			}
			if up, down := sim.Ledger.TotalUp(), sim.Ledger.TotalDown(); up != p.up || down != p.down || messages != p.messages {
				t.Fatalf("ledger booked up %d down %d in %d messages, pinned %d / %d / %d",
					up, down, messages, p.up, p.down, p.messages)
			}
		})
	}
}
