package runspec

import (
	"errors"
	"fmt"
	"reflect"
	"strings"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// ranges is the one range table: a value outside its row would deadlock
// the quorum, invert the straggler model or silently misbehave. k is the
// effective client count; Validate itself rejects every negative value.
var ranges = []struct {
	roles      Role
	flag, want string
	ok         func(s *Spec, k int) bool
}{
	{Sim | Server, "rate", "in (0, 1]", func(s *Spec, _ int) bool { return s.Rate > 0 && s.Rate <= 1 }},
	{Sim | Server, "quorum", "in [0, -clients] (a quorum above the client count can never be met)", func(s *Spec, k int) bool { return s.Quorum <= k }},
	{Sim | Server, "every", ">= 1", func(s *Spec, _ int) bool { return s.Every >= 1 }},
	{Sim | Client, "fleet", experiments.FleetNames + ", or -arch for a custom rotation", func(s *Spec, _ int) bool { return s.Arch != "" || experiments.KnownFleet(s.Fleet) }},
	{Sim, "topology", "flat | tree", func(s *Spec, _ int) bool { return s.Topology == "flat" || s.Topology == "tree" }},
	{Sim, "mix", "in [0, 1]", func(s *Spec, _ int) bool { return s.Mix <= 1 }},
	{Sim, "stragglers", "in [0, -clients]", func(s *Spec, k int) bool { return s.Stragglers <= k }},
	{Sim, "slowdown", ">= 1 (factors below 1 would make stragglers the fastest clients)", func(s *Spec, _ int) bool { return s.Slowdown >= 1 }},
	{Sim, "leave", "in [0, 1)", func(s *Spec, _ int) bool { return s.Leave < 1 }},
	{Sim | Server | Agg, "aggregators", "in [0, -clients]", func(s *Spec, k int) bool { return s.Aggregators <= k }},
	{Agg, "agg", "in [0, -aggregators)", func(s *Spec, _ int) bool { return s.Agg < s.Aggregators }},
	{Client, "id", "in [0, -clients)", func(s *Spec, k int) bool { return s.ID < k }},
	{Server | Agg, "heartbeat", "> 0", func(s *Spec, _ int) bool { return s.Heartbeat > 0 }},
	{Server | Agg, "window", "> 0", func(s *Spec, _ int) bool { return s.Window > 0 }},
	{Agg, "reconnect", "> 0 (a subtree cannot outlive its uplink)", func(s *Spec, _ int) bool { return s.Reconnect > 0 }},
	{Client, "chaos-drop", "in [0, 1]", func(s *Spec, _ int) bool { return s.ChaosDrop <= 1 }},
	{Client, "chaos-delay", "in [0, 1]", func(s *Spec, _ int) bool { return s.ChaosDelay <= 1 }},
	{Client, "chaos-dup", "in [0, 1]", func(s *Spec, _ int) bool { return s.ChaosDup <= 1 }},
}

// holds evaluates an interlock condition: "-flag" holds when the flag differs
// from its default, "-flag value" when it equals value, "a/b" when either does.
func (s *Spec) holds(cond string) bool {
	for _, term := range strings.Split(cond, "/") {
		name, want, eq := strings.Cut(strings.TrimPrefix(term, "-"), " ")
		d := s.decl(name)
		if got := reflect.ValueOf(d.ptr).Elem().Interface(); eq && fmt.Sprint(got) == want || !eq && got != d.def {
			return true
		}
	}
	return false
}

const (
	requires     = "requires"         // `when` without `with` is rejected
	excludes     = "does not support" // `when` together with `with` is rejected
	impossible   = "impossible"       // the two settings contradict; there is nothing to build
	missingState = "missing-state"    // a to-do: state the combination needs is not yet carried there
	// Node mode (always, under the tree) is nodes over a transport: every
	// schedule runs, but virtual time does not cross sockets (DESIGN.md §8).
	nodeMode = "-transport tcp/-topology tree"
)

// interlocks is the one interlock table: under roles, `when` without `with`
// (requires) or together with it (excludes) is a usage error printing reason;
// the first match reports; trigger is an argv that trips the row. DESIGN.md
// "Rejected combinations" renders these rows.
var interlocks = []struct {
	when, verb, with string
	roles            Role
	kind, reason     string
	trigger          []string
}{
	{"-aggregators", requires, "-sched sync", Sim | Server, impossible, "the tree commits a round when every aggregator reports", []string{"-aggregators", "2", "-sched", "async"}},
	{"-aggregators", excludes, "-checkpoint/-resume", Server, missingState, "aggregators keep no snapshot state; restart the tree instead", []string{"-aggregators", "2", "-checkpoint", "ckpts"}},
	{"-aggregators", requires, "-topology tree", Sim, impossible, "edge aggregators exist only in the tree topology", []string{"-aggregators", "2"}},
	{"-topology tree", requires, "-aggregators", Sim, impossible, "a tree needs at least one edge aggregator", []string{"-topology", "tree"}},
	{"-agg", requires, "-upstream", Agg, impossible, "an aggregator reports to a fedserver", []string{"-agg", "0", "-aggregators", "2", "-upstream", ""}},
	{"-width", requires, "-arch", Sim, impossible, "width multipliers rotate over the -arch rotation", []string{"-width", "1,2"}},
	{"-delta", excludes, "-checkpoint/-resume", Sim, missingState, "delta bases are not checkpointed; drop -delta or checkpoint a dense run", []string{"-delta", "-checkpoint", "ckpts"}},
	{"-delta", excludes, "-resident", Sim, missingState, "per-client delta bases defeat the O(resident) memory budget", []string{"-delta", "-resident", "4"}},
	{"-delta", excludes, "-leave", Sim, missingState, "the virtual-clock engine keeps a churned client's stale basis; over real sockets a reconnect falls back to dense", []string{"-delta", "-leave", "0.2"}},
	{nodeMode, excludes, "-checkpoint/-resume", Sim, missingState, "node-mode snapshots belong to the server process: run fedserver -checkpoint/-resume", []string{"-transport", "tcp", "-checkpoint", "ckpts"}},
	{nodeMode, excludes, "-trace", Sim, missingState, "scheduler traces are defined on the virtual clock", []string{"-transport", "tcp", "-trace", "run.trace"}},
	{nodeMode, excludes, "-leave", Sim, impossible, "node-mode churn is real: kill a client or aggregator process", []string{"-transport", "tcp", "-leave", "0.2"}},
	{nodeMode, excludes, "-stragglers", Sim, impossible, "node-mode stragglers are real: nice a client process", []string{"-transport", "tcp", "-stragglers", "1"}},
	{nodeMode, excludes, "-resident", Sim, impossible, "node-mode clients are separate node instances; memory is bounded per node", []string{"-transport", "tcp", "-resident", "4"}},
	{nodeMode, excludes, "-mix", Sim, missingState, "commit mixing is virtual-clock state: fl.NodeConfig has no mix rate and the wire commit is the plain average", []string{"-transport", "tcp", "-mix", "0.3"}},
	{nodeMode, excludes, "-workers", Sim, impossible, "virtual server nodes pack the virtual clock; node-mode parallelism is real: one node per client", []string{"-transport", "tcp", "-workers", "2"}},
}

// Validate checks all that can be checked without opening a file: each value
// parses, sits in its range, and trips no interlock. Its error is a usage error.
func (s *Spec) Validate(role Role) error {
	err := errors.Join(
		second(experiments.ParseDataset(s.Dataset)),
		second(data.ParsePartition(s.Partition)),
		second(fl.ParseScheduler(s.Sched)),
		second(comm.ParseSpec(s.Codec, s.TopK, s.Delta)),
		second(comm.ParseCodec(s.CkptCodec)),
		second(tensor.ParseDType(s.DType)),
		second(transport.ParseName(s.Transport)))
	if s.Arch != "" {
		err = errors.Join(err, second(experiments.ParseArchRotation(s.Arch)))
	}
	if s.Width != "" {
		err = errors.Join(err, second(experiments.ParseWidthRotation(s.Width)))
	}
	if err != nil {
		return err
	}
	sc := s.Scale(role)
	for _, d := range s.decls() {
		// Counts, rates, probabilities and durations; the int64s are seeds.
		v := reflect.ValueOf(d.ptr).Elem()
		if _, seed := d.ptr.(*int64); d.roles&role != 0 && !seed && (v.CanInt() && v.Int() < 0 || v.CanFloat() && v.Float() < 0) {
			return fmt.Errorf("-%s must be >= 0, got %v", d.name, v)
		}
	}
	for _, r := range ranges {
		if r.roles&role != 0 && !r.ok(s, sc.Clients) {
			want := strings.ReplaceAll(r.want, "-clients", fmt.Sprintf("%d (-clients)", sc.Clients))
			return fmt.Errorf("-%s must be %s, got %v", r.flag, want, reflect.ValueOf(s.decl(r.flag).ptr).Elem())
		}
	}
	for _, r := range interlocks {
		if r.roles&role != 0 && s.holds(r.when) && s.holds(r.with) == (r.verb == excludes) {
			return fmt.Errorf("%s %s %s (%s)", r.when, r.verb, r.with, r.reason)
		}
	}
	if role&Nodes == 0 {
		return nil
	}
	// An unknown or unsplit method can never run: a node refuses it before
	// anything binds.
	return second(experiments.WireAlgorithmFor(s.Method, s.DataName(), sc))
}
