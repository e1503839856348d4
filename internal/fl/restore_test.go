package fl

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/xrand"
)

// A checkpoint resumed into a fleet of other architectures is an error from
// the one restore path — on an eager fleet and a lazy one alike — returned
// before any client or store state changes: never a panic at the first
// rehydration mid-run, and never a fleet left half restored.
func TestRestoreRejectsMismatchedFleet(t *testing.T) {
	const k = 6
	narrow := lazyTestBuilder(t, k)
	// Client 0 is the same in both fleets, so its state would restore; client
	// 1 has a wider hidden layer, so its state cannot.
	mixed := func(i int) *Client {
		c := narrow(i)
		if i%2 == 1 {
			c.Model = models.New(models.Config{
				Arch: models.ArchMLP, InC: 1, InH: 12, InW: 12, FeatDim: 8, NumClasses: 10, Hidden: 32,
			}, xrand.New(int64(i+1)))
		}
		return c
	}
	// Full participation: the checkpoint holds every client, whatever the fleet.
	cfg := Config{Rounds: 3, SampleRate: 1, BatchSize: 8, Seed: 11}
	fleets := map[string]func(build func(int) *Client) *Simulation{
		"eager": func(build func(int) *Client) *Simulation {
			clients := make([]*Client, k)
			for i := range clients {
				clients[i] = build(i)
			}
			return NewSimulation(clients, cfg)
		},
		"lazy": func(build func(int) *Client) *Simulation { return NewLazySimulation(k, build, 2, cfg) },
	}
	for name, fleet := range fleets {
		t.Run(name, func(t *testing.T) {
			var snap *Snapshot
			sched := SchedulerConfig{Checkpoint: func(s *Snapshot) error {
				if s.Round == 2 {
					snap = s
				}
				return nil
			}}
			if _, err := fleet(narrow).RunScheduled(&trainAlgo{}, sched); err != nil {
				t.Fatal(err)
			}

			sim := fleet(mixed)
			c0, c1 := sim.Client(0), sim.Client(1)
			state := func() [2][]byte {
				return [2][]byte{clientRecord(t, c0), clientRecord(t, c1)}
			}
			before := state()
			_, err := sim.RunScheduled(&trainAlgo{}, SchedulerConfig{Resume: snap})
			if err == nil || !strings.Contains(err.Error(), "restoring client 1 parameters") {
				t.Fatalf("resume into a mismatched fleet: %v, want an error restoring client 1's parameters", err)
			}
			if sim.Client(0) != c0 || sim.Client(1) != c1 {
				t.Fatal("a rejected resume dropped a resident client")
			}
			if !reflect.DeepEqual(before, state()) {
				t.Fatal("a rejected resume replaced client state")
			}
		})
	}
	noSpillFiles(t)
}

// A lazy run's checkpoint that left clients untouched is rejected by an eager
// fleet: every eager client is held from construction, and resuming it with
// no state for some would silently continue onto state the checkpointed run
// never had (DESIGN.md §10, rule 1).
func TestRestoreRejectsLazyCheckpointOnEagerFleet(t *testing.T) {
	const k = 12
	build := lazyTestBuilder(t, k)
	cfg := Config{Rounds: 3, SampleRate: 0.1, BatchSize: 8, Seed: 11}
	var snap *Snapshot
	sched := SchedulerConfig{Checkpoint: func(s *Snapshot) error {
		if s.Round == 2 {
			snap = s
		}
		return nil
	}}
	if _, err := NewLazySimulation(k, build, 2, cfg).RunScheduled(&trainAlgo{}, sched); err != nil {
		t.Fatal(err)
	}
	if len(snap.Clients) >= k {
		t.Fatalf("lazy checkpoint touched all %d clients — the test exercises nothing", k)
	}
	clients := make([]*Client, k)
	for i := range clients {
		clients[i] = build(i)
	}
	if _, err := NewSimulation(clients, cfg).RunScheduled(&trainAlgo{}, SchedulerConfig{Resume: snap}); err == nil {
		t.Fatalf("an eager fleet resumed a lazy checkpoint holding %d of its %d clients", len(snap.Clients), k)
	}
}
