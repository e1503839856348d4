// Command fedsim runs one federated-learning experiment from the command
// line: pick a dataset stand-in, a partition, a fleet kind, a method, a
// scheduler and a wire codec, and it prints the learning curve and final
// personalized accuracy. Long runs can checkpoint every N rounds and resume
// after a crash: a resumed run replays byte-identical metrics and trace to
// an uninterrupted one (under the f64 checkpoint codec).
//
// Examples:
//
//	fedsim -dataset fashion -partition dir -method Proposed
//	fedsim -dataset cifar10 -partition skewed -method KT-pFL -clients 12 -rounds 60
//	fedsim -method Proposed -sched async -staleness 2 -decay 0.5 -stragglers 2 -slowdown 2
//	fedsim -method FedAvg -fleet homogeneous -codec i8
//	fedsim -method Proposed -checkpoint ckpts -every 2          # snapshot rounds 2,4,...
//	fedsim -method Proposed -resume ckpts/round-00004.ckpt      # continue after a kill
//	fedsim -method Proposed -sched semisync -leave 0.2 -rejoin 4 # client churn
//	fedsim -method Proposed -dtype f32                          # float32 fast path
//	fedsim -method FedProto -arch resnet,cnn2 -width 1,2        # scripted fleet rotation
//	fedsim -method Proposed -transport tcp                      # node split over real sockets
//	fedsim -method FedAvg -topology tree -aggregators 2         # 2-level aggregation tree
//	fedsim -clients 1000000 -rate 0.0001 -resident 256          # million-client virtual fleet
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/ckpt"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/runspec"
	"repro/internal/transport"
)

func main() {
	spec := runspec.Register(flag.CommandLine, runspec.Sim)
	flag.Parse()

	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "fedsim: "+format+"\n", args...)
		os.Exit(2)
	}
	fatal := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "fedsim: %v\n", err)
			os.Exit(1)
		}
	}
	if args := flag.Args(); len(args) > 0 {
		usage("unexpected arguments %q", strings.Join(args, " "))
	}
	if err := spec.Validate(runspec.Sim); err != nil {
		usage("%v", err)
	}
	s := spec.Scale(runspec.Sim)
	name, kind, wire := spec.DataName(), spec.PartitionKind(), spec.Wire()
	sched := spec.SchedulerConfig(s)
	if spec.Resume != "" {
		snap, err := ckpt.Load(spec.Resume)
		fatal(err)
		if err := checkResume(snap, sched.Kind, s); err != nil {
			usage("checkpoint %s %v", spec.Resume, err)
		}
		sched.Resume = snap
	}

	// One per-id builder serves the eager engine, the lazy store and node
	// mode: -fleet names a rotation, -arch/-width scripts one, and -resident
	// draws each client's split on demand instead of partitioning up front.
	var build experiments.ClientBuilder
	var err error
	lazy := spec.Resident > 0
	fleetDesc := spec.Fleet
	switch {
	case spec.Arch != "":
		arches, widths := spec.Rotation()
		build, _, err = experiments.NewRotationBuilder(name, kind, s.Clients, s, arches, widths, lazy)
		fleetDesc = "custom(" + spec.Arch + ")"
	case lazy:
		build, _, err = experiments.NewLazyFleetBuilder(name, kind, spec.Fleet, s.Clients, s)
	default:
		build, _, err = experiments.NewFleetBuilder(name, kind, spec.Fleet, s.Clients, s)
	}
	fatal(err)
	if lazy {
		fleetDesc = fmt.Sprintf("%s/lazy(resident %d)", fleetDesc, spec.Resident)
	}

	topoDesc := ""
	if spec.Topology == "tree" {
		topoDesc = fmt.Sprintf(", topology tree/%d", spec.Aggregators)
	}
	fmt.Printf("# fedsim %s on %s (%s, %s fleet, %d clients, %d rounds, rate %.2f, sched %s, codec %s, dtype %s, transport %s%s)\n",
		spec.Method, name, kind, fleetDesc, s.Clients, s.Rounds, spec.Rate, sched.Kind, wire, s.DType, spec.Transport, topoDesc)
	if sched.Resume != nil {
		fmt.Fprintf(os.Stderr, "fedsim: resumed from %s at round %d\n", spec.Resume, sched.Resume.Round)
	}
	var hist []fl.RoundMetrics
	switch {
	case spec.NodeMode():
		// One server node plus one client node per client, each speaking the
		// wire protocol, over real localhost sockets for -transport tcp; the
		// tree also runs over channel connections for -transport inproc.
		opts := transport.Options{DType: s.DType, Spec: wire}
		tr, addr := transport.Transport(transport.NewInproc(opts)), "fedsim"
		if spec.Transport == "tcp" {
			tr, addr = transport.NewTCP(opts), "127.0.0.1:0"
		}
		node := func(cfg *fl.NodeConfig) { *cfg = spec.NodeConfig(s) }
		hist, err = experiments.RunNodes(context.Background(), spec.Method, name, build, s.Clients, s, spec.Rate, wire, tr, addr, node)
	default:
		hist, err = experiments.RunScheduled(spec.Method, name, build, s.Clients, s, spec.Rate, spec.Resident, spec.EvalSample, sched, wire)
	}
	fatal(err)
	fmt.Println("round,local_epochs,mean_acc,std_acc,up_bytes,down_bytes,sim_time")
	for _, m := range hist {
		fmt.Printf("%d,%d,%.4f,%.4f,%d,%d,%.2f\n",
			m.Round, m.LocalEpochs, m.MeanAcc, m.StdAcc, m.UpBytes, m.DownBytes, m.SimTime)
	}
	fin := experiments.Final(hist)
	throughput := 0.0
	if fin.SimTime > 0 {
		throughput = float64(fin.Round) / fin.SimTime
	}
	// The inproc engine books virtual time; node mode books wall clock.
	unit := "virtual time unit"
	if spec.NodeMode() {
		unit = "wall-clock second"
	}
	fmt.Printf("# final: %.4f ± %.4f (%.2f rounds per %s)\n", fin.MeanAcc, fin.StdAcc, throughput, unit)

	if spec.Trace != "" {
		fatal(writeTrace(spec.Trace, sched.Trace))
	}
}

// checkResume holds a loaded snapshot against the run the flags describe;
// these are the usage errors that need the file. A checkpoint holds only
// the touched clients, so the fleet size is carried explicitly.
func checkResume(snap *fl.Snapshot, kind fl.SchedulerKind, s experiments.Scale) error {
	switch {
	case snap.Kind != kind:
		return fmt.Errorf("was taken under the %s scheduler, -sched asks for %s", snap.Kind, kind)
	case snap.FleetSize != s.Clients:
		return fmt.Errorf("holds a %d-client fleet, flags configure %d", snap.FleetSize, s.Clients)
	case snap.Round >= s.Rounds:
		return fmt.Errorf("is already at round %d of %d — nothing to resume", snap.Round, s.Rounds)
	case snap.DType != s.DType:
		return fmt.Errorf("was taken at dtype %s, -dtype asks for %s", snap.DType, s.DType)
	}
	return nil
}

// writeTrace dumps the scheduler event sequence as one CSV line per event,
// so kill-and-resume runs can be diffed against uninterrupted ones.
func writeTrace(path string, tr *fl.Trace) error {
	var b strings.Builder
	b.WriteString("event,client,version,vtime\n")
	for _, ev := range tr.Events {
		fmt.Fprintf(&b, "%s,%d,%d,%.4f\n", ev.Kind, ev.Client, ev.Version, ev.Time)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
