// Package runspec is the one flag surface of the four federation binaries.
// A Spec is the whole description of a run: every flag name is declared
// once (default, help, the roles that register it), and every out-of-range
// value and rejected combination is one table row in rules.go. A binary is
// Register → flag.Parse → Validate → wiring, handing experiments and fl the
// configs built below. Nothing below internal/experiments imports runspec.
package runspec

import (
	"flag"
	"time"

	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/models"
	"repro/internal/tensor"
)

// Role is a binary, as a bit so a declaration can list several.
type Role uint8

const (
	Sim    Role = 1 << iota // cmd/fedsim
	Server                  // cmd/fedserver
	Client                  // cmd/fedclient
	Agg                     // cmd/fedagg
	Nodes  = Server | Client | Agg
	All    = Sim | Nodes
)

// Spec holds every flag's value, by type (decls is the annotated list); one
// the role does not register stays zero. There is no field no flag sets.
type Spec struct {
	Dataset, Partition, Fleet, Method, DType, Codec, Sched, Arch, Width              string
	Checkpoint, Resume, CkptCodec, Trace, Transport, Topology                        string
	Addr, Upstream, Session                                                          string
	Clients, FeatDim, Rounds, Staleness, Quorum, EvalSample, Every                   int
	Workers, Stragglers, Resident, Aggregators, ID, Agg                              int
	Rate, Decay, TopK, Mix, Slowdown, Leave, Rejoin, ChaosDrop, ChaosDelay, ChaosDup float64
	Heartbeat, Dead, Window, DialTimeout, Reconnect                                  time.Duration
	Seed, ChaosSeed                                                                  int64
	Delta                                                                            bool
}

// decl is one flag; def has the type ptr points to.
type decl struct {
	name     string
	roles    Role
	ptr, def any
	help     string
}

const mustMatch = " (every process of one federation passes the same value)"

func (s *Spec) decls() []decl {
	return []decl{
		{"dataset", All, &s.Dataset, "fashion", "dataset: cifar10 | fashion | emnist" + mustMatch},
		{"partition", Sim | Client, &s.Partition, "dir", "partition: dir | skewed"},
		{"fleet", Sim | Client, &s.Fleet, "heterogeneous", "fleet: " + experiments.FleetNames},
		{"method", All, &s.Method, experiments.MethodProposed, "method: Baseline | FedProto | KT-pFL | KT-pFL+weight | FedAvg | FedProx | Proposed | Proposed+weight; fedsim also runs the ablations CA | CA+PR | CA+CL | CA+PR+CL" + mustMatch},
		{"dtype", All, &s.DType, "f64", "model element type: f64 (golden reference) | f32 (SIMD fast path) | bf16 (2-byte storage, f32 compute); handshake-validated between nodes"},
		{"codec", All, &s.Codec, "f64", "wire codec: f64 | f32 | i8 | bf16 | topk (f32 values at 5% density)" + mustMatch},
		{"topk", All, &s.TopK, 0.0, "sparsify weight uploads to this largest-|v| fraction, in (0, 1) (0 = dense; composes with any -codec)" + mustMatch},
		{"delta", All, &s.Delta, false, "frame weight uploads as deltas against the last committed basis" + mustMatch},
		{"clients", All, &s.Clients, 0, "total fleet size (0 = scale default)" + mustMatch},
		{"featdim", All, &s.FeatDim, 0, "shared feature dimension (0 = scale default)"},
		{"seed", All, &s.Seed, int64(1), "experiment seed" + mustMatch},
		{"rounds", Sim | Server, &s.Rounds, 0, "communication rounds (0 = scale default)"},
		{"rate", Sim | Server, &s.Rate, 1.0, "client sampling rate per round, in (0, 1]"},
		{"sched", Sim | Server, &s.Sched, "sync", "scheduler: sync | async | semisync"},
		{"staleness", Sim | Server, &s.Staleness, 0, "async: drop updates staler than this many commits (0 = default 8)"},
		{"decay", Sim | Server, &s.Decay, 0.0, "staleness decay α in weight 1/(1+α·s) (0 = no decay)"},
		{"quorum", Sim | Server, &s.Quorum, 0, "semisync: commit after K applied updates (0 = majority; at most -clients)"},
		{"evalsample", Sim | Server, &s.EvalSample, 0, "evaluate a deterministic per-round sample of this many clients instead of every client (0 = full sweep; under fedsim -resident, the cohort size)"},
		{"checkpoint", Sim | Server, &s.Checkpoint, "", "directory to write round-NNNNN.ckpt snapshots into"},
		{"every", Sim | Server, &s.Every, 1, "with -checkpoint: snapshot every N committed rounds"},
		{"resume", Sim | Server, &s.Resume, "", "checkpoint file to resume from (same flags as the original run)"},
		{"ckptcodec", Sim | Server, &s.CkptCodec, "f64", "checkpoint payload codec: f64 (lossless replay) | f32 | i8 | bf16"},
		{"arch", Sim, &s.Arch, "", "custom fleet: comma-separated architecture rotation, e.g. resnet,shufflenet,googlenet,alexnet (overrides -fleet)"},
		{"width", Sim, &s.Width, "", "with -arch: comma-separated per-client width multipliers, e.g. 1,2,3"},
		{"mix", Sim, &s.Mix, 0.0, "commit mixing λ into committed state, in [0, 1] (0 = 1, plain averaging)"},
		{"workers", Sim, &s.Workers, 0, "virtual server nodes (0 = one per client)"},
		{"stragglers", Sim, &s.Stragglers, 0, "number of straggler clients (at most -clients)"},
		{"slowdown", Sim, &s.Slowdown, 2.0, "virtual cost factor of straggler clients (>= 1)"},
		{"leave", Sim, &s.Leave, 0.0, "client churn: per-engagement leave probability, in [0, 1)"},
		{"rejoin", Sim, &s.Rejoin, 0.0, "client churn: virtual time away before rejoining (0 = default 2)"},
		{"trace", Sim, &s.Trace, "", "file to write the scheduler event trace to"},
		{"transport", Sim, &s.Transport, "inproc", "federation transport: inproc (virtual-clock engine) | tcp (server/client nodes over localhost sockets)"},
		{"topology", Sim, &s.Topology, "flat", "aggregation topology: flat (every client reports to the server) | tree (clients report to -aggregators edge aggregators, which pre-reduce upstream)"},
		{"resident", Sim, &s.Resident, 0, "virtual fleet: keep at most this many materialized clients resident in memory; the rest spill to compact state buffers (0 = eager fleet, all clients materialized)"},
		{"aggregators", Sim | Server | Agg, &s.Aggregators, 0, "tree topology: number of edge aggregators, in [1, -clients] (0 = flat)"},
		// Register gives fedagg 127.0.0.1:0: an aggregator's port is scraped
		// from its banner, the server's is the federation's rendezvous.
		{"addr", Nodes, &s.Addr, "127.0.0.1:7143", "TCP address: fedserver and fedagg listen on it (port 0 picks a free port, printed on stdout), fedclient dials it"},
		{"heartbeat", Server | Agg, &s.Heartbeat, fl.DefaultHeartbeat, "heartbeat interval to the connected children (they echo it)"},
		{"dead", Server | Agg, &s.Dead, time.Duration(0), "declare a silent connection dead after this long (0 = 5x heartbeat)"},
		{"window", Server | Agg, &s.Window, fl.DefaultReconnectWindow, "how long a dead child may take to reconnect before it is churned"},
		{"dial-timeout", Client | Agg, &s.DialTimeout, 30 * time.Second, "how long to keep retrying the first dial while the server comes up"},
		{"reconnect", Client | Agg, &s.Reconnect, 30 * time.Second, "how long to keep redialing after a mid-run disconnect"},
		{"id", Client, &s.ID, -1, "this client's id, in [0, -clients)"},
		{"session", Client, &s.Session, "", "file to persist the session token in (restart resumes the session)"},
		{"chaos-seed", Client, &s.ChaosSeed, int64(0), "fault-injection seed (0 = chaos off)"},
		{"chaos-drop", Client, &s.ChaosDrop, 0.0, "chaos: probability a message send kills the connection"},
		{"chaos-delay", Client, &s.ChaosDelay, 0.0, "chaos: probability a message is delayed"},
		{"chaos-dup", Client, &s.ChaosDup, 0.0, "chaos: probability a received message is duplicated"},
		{"upstream", Agg, &s.Upstream, "", "fedserver TCP address (required)"},
		{"agg", Agg, &s.Agg, -1, "this aggregator's index, in [0, -aggregators)"},
	}
}

// Register declares the role's flags on fs; fs.Parse fills the Spec.
func Register(fs *flag.FlagSet, role Role) *Spec {
	s := new(Spec)
	for _, d := range s.decls() {
		if d.roles&role == 0 {
			continue
		}
		if d.name == "addr" && role == Agg {
			d.def = "127.0.0.1:0"
		}
		_ = reg(fs.StringVar, d) || reg(fs.IntVar, d) || reg(fs.Int64Var, d) ||
			reg(fs.Float64Var, d) || reg(fs.BoolVar, d) || reg(fs.DurationVar, d)
	}
	return s
}

// reg declares d through a FlagSet's typed XxxVar method if d is a T flag.
func reg[T any](typedVar func(*T, string, T, string), d decl) bool {
	p, ok := d.ptr.(*T)
	if ok {
		typedVar(p, d.name, d.def.(T), d.help)
	}
	return ok
}

func (s *Spec) decl(name string) decl {
	for _, d := range s.decls() {
		if d.name == name {
			return d
		}
	}
	panic("runspec: no flag -" + name)
}

// must keeps the value of a parse Validate has already checked, second the
// error of one whose value Validate does not need.
func must[T any](v T, _ error) T         { return v }
func second[T any](_ T, err error) error { return err }

// Scale is the experiment scale the flags select. fedsim starts from
// experiments.Small(); the three node binaries from ScaleFromEnv(Small()),
// so REPRO_SCALE reaches them and not fedsim — recorded here, not unified.
func (s *Spec) Scale(role Role) experiments.Scale {
	sc := experiments.Small()
	if role&Nodes != 0 {
		sc = experiments.ScaleFromEnv(sc)
	}
	sc.Seed, sc.DType = s.Seed, must(tensor.ParseDType(s.DType))
	if s.Clients > 0 {
		sc.Clients = s.Clients
	}
	if s.Rounds > 0 {
		sc.Rounds = s.Rounds
	}
	if s.FeatDim > 0 {
		sc.FeatDim = s.FeatDim
	}
	return sc
}

func (s *Spec) PartitionKind() data.PartitionKind { return must(data.ParsePartition(s.Partition)) }
func (s *Spec) SchedKind() fl.SchedulerKind       { return must(fl.ParseScheduler(s.Sched)) }
func (s *Spec) Wire() comm.Spec                   { return must(comm.ParseSpec(s.Codec, s.TopK, s.Delta)) }
func (s *Spec) DataName() experiments.DatasetName { return must(experiments.ParseDataset(s.Dataset)) }

// Rotation is the -arch/-width scripted fleet; an unset flag parses to nil.
func (s *Spec) Rotation() ([]models.Arch, []int) {
	return must(experiments.ParseArchRotation(s.Arch)), must(experiments.ParseWidthRotation(s.Width))
}

// NodeMode reports whether fedsim runs the node split, not the engine.
func (s *Spec) NodeMode() bool { return s.holds(nodeMode) }

// SchedulerConfig is the virtual-clock schedule, less Resume. Checkpoints
// carry the event history, so a checkpointed or resumed run always traces.
func (s *Spec) SchedulerConfig(sc experiments.Scale) fl.SchedulerConfig {
	sched := fl.SchedulerConfig{
		Kind:            s.SchedKind(),
		MaxStaleness:    s.Staleness,
		Decay:           s.Decay,
		MixRate:         s.Mix,
		Quorum:          s.Quorum,
		Workers:         s.Workers,
		LeaveProb:       s.Leave,
		RejoinAfter:     s.Rejoin,
		CheckpointEvery: s.Every,
	}
	if s.Trace != "" || s.Checkpoint != "" || s.Resume != "" {
		sched.Trace = &fl.Trace{}
	}
	if s.Stragglers > 0 {
		sched.Costs = experiments.StragglerCosts(sc.Clients, s.Stragglers, s.Slowdown)
	}
	if s.Checkpoint != "" {
		sched.Checkpoint = ckpt.Saver(s.Checkpoint, must(comm.ParseCodec(s.CkptCodec)))
	}
	return sched
}

// NodeConfig is the server node's configuration, less Resume, for fedserver
// and fedsim's node mode: the part of the schedule that exists on the wire.
func (s *Spec) NodeConfig(sc experiments.Scale) fl.NodeConfig {
	sched := s.SchedulerConfig(sc)
	cfg := experiments.NodeConfigFor(sc, s.Rate, s.Wire(), sc.Clients)
	cfg.Sched, cfg.MaxStaleness, cfg.Decay, cfg.Quorum = sched.Kind, sched.MaxStaleness, sched.Decay, sched.Quorum
	cfg.Checkpoint, cfg.CheckpointEvery = sched.Checkpoint, sched.CheckpointEvery
	cfg.EvalSample, cfg.Aggregators = s.EvalSample, s.Aggregators
	cfg.Heartbeat, cfg.DeadAfter, cfg.ReconnectWindow = s.Heartbeat, s.Dead, s.Window
	return cfg
}

// AggregatorConfig is fedagg's configuration, less the Dialer.
func (s *Spec) AggregatorConfig(sc experiments.Scale) fl.AggregatorConfig {
	w := s.Wire()
	return fl.AggregatorConfig{
		Index:           s.Agg,
		Aggregators:     s.Aggregators,
		Clients:         sc.Clients,
		Codec:           w.Value,
		TopK:            w.Frac,
		Delta:           w.Delta,
		Seed:            s.DialSeed(Agg),
		Heartbeat:       s.Heartbeat,
		DeadAfter:       s.Dead,
		ReconnectWindow: s.Window,
	}
}

// DialSeed is the node's dial-retry jitter seed.
func (s *Spec) DialSeed(role Role) int64 {
	if role == Agg {
		return experiments.AggregatorDialSeed(s.Seed, s.Agg)
	}
	return experiments.ClientDialSeed(s.Seed, s.ID)
}
