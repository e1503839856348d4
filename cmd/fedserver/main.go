// Command fedserver runs the server node of a multi-process federation:
// it listens on a TCP address, waits for -clients fedclient processes to
// join, drives the -sched schedule for -rounds rounds and prints the same
// learning-curve CSV fedsim prints. The server holds only aggregation
// state — global classifier/model/prototypes and the sharded accumulators
// — and never touches a client model; everything else crosses the wire
// (see DESIGN.md §8 and §9).
//
// The cohort sampler is seeded exactly like the in-process simulation, so
// at full precision a fedserver run reproduces the inproc sync metrics to
// within floating-point parity.
//
// Fault tolerance: clients that vanish get a -window grace period to
// reconnect (they present a session token and resume mid-round); past the
// window they are churned out of the federation, which keeps running.
// With -checkpoint the server snapshots every committed round, and
// -resume restarts a SIGKILLed server from the latest snapshot — session
// tokens survive the restart, so running clients reconnect on their own.
//
// Example (one server, three clients, tiny scale):
//
//	REPRO_SCALE=tiny fedserver -addr 127.0.0.1:0 -clients 3 -method Proposed &
//	REPRO_SCALE=tiny fedclient -addr 127.0.0.1:PORT -id 0 -clients 3 &
//	REPRO_SCALE=tiny fedclient -addr 127.0.0.1:PORT -id 1 -clients 3 &
//	REPRO_SCALE=tiny fedclient -addr 127.0.0.1:PORT -id 2 -clients 3
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
	spec := runspec.Register(flag.CommandLine, runspec.Server)
	flag.Parse()

	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "fedserver: "+format+"\n", args...)
		os.Exit(2)
	}
	fatal := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "fedserver: %v\n", err)
			os.Exit(1)
		}
	}
	if args := flag.Args(); len(args) > 0 {
		usage("unexpected arguments %q", strings.Join(args, " "))
	}
	if err := spec.Validate(runspec.Server); err != nil {
		usage("%v", err)
	}
	s := spec.Scale(runspec.Server)
	cfg := spec.NodeConfig(s)
	if spec.Resume != "" {
		snap, err := ckpt.Load(spec.Resume)
		if err != nil {
			usage("%v", err)
		}
		cfg.Resume = snap
	}

	tr := transport.NewTCP(transport.Options{DType: s.DType, Spec: spec.Wire()})
	ln, err := tr.Listen(spec.Addr)
	fatal(err)
	// The bound address goes out first (and unbuffered) so orchestration —
	// scripts, the CI smoke test — can listen on :0 and scrape the port.
	fmt.Printf("# fedserver listening on %s\n", ln.Addr())
	fmt.Printf("# fedserver %s on %s (%d clients, %d rounds, rate %.2f, sched %s, codec %s, dtype %s)\n",
		spec.Method, spec.DataName(), s.Clients, s.Rounds, spec.Rate, cfg.Sched, spec.Wire(), s.DType)
	if spec.Aggregators > 0 {
		fmt.Printf("# topology: tree (%d aggregators)\n", spec.Aggregators)
	}
	if cfg.Resume != nil {
		fmt.Fprintf(os.Stderr, "fedserver: resuming from %s at round %d\n", spec.Resume, cfg.Resume.Round)
	}

	algo, err := experiments.WireAlgorithmFor(spec.Method, spec.DataName(), s)
	fatal(err)
	// CSV rows stream as rounds commit, so orchestration (and the churn
	// smoke test) can watch progress without waiting for the run to end.
	fmt.Println("round,local_epochs,mean_acc,std_acc,up_bytes,down_bytes,sim_time")
	cfg.OnRound = func(m fl.RoundMetrics) {
		fmt.Printf("%d,%d,%.4f,%.4f,%d,%d,%.2f\n",
			m.Round, m.LocalEpochs, m.MeanAcc, m.StdAcc, m.UpBytes, m.DownBytes, m.SimTime)
	}
	srv := fl.NewServerNode(algo, cfg)
	hist, err := srv.Serve(context.Background(), ln)
	fatal(err)
	st := srv.Stats
	fmt.Printf("# faults: reconnects=%d disconnects=%d churned=%d stale_drops=%d resends=%d\n",
		st.Reconnects, st.Disconnects, st.Churned, st.Drops, st.Resends)
	fin := experiments.Final(hist)
	fmt.Printf("# final: %.4f ± %.4f\n", fin.MeanAcc, fin.StdAcc)
}
