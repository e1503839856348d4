// Command fedagg runs one edge aggregator of a 2-level federation tree:
// it listens for its contiguous slice of the fedclient fleet (clients
// [lo, hi) as determined by -agg/-aggregators/-clients), joins the
// fedserver upstream on the subtree's behalf, and relays every round —
// answering each batched dispatch with either a pre-reduced aggregate
// (exact, for associative algorithms) or its children's raw updates
// bundled unreduced (the passthrough for KT-pFL). Downstream the
// aggregator behaves exactly like a fedserver — joins, heartbeats,
// reconnect windows, churn — and upstream it behaves exactly like a
// fedclient, so neither side needs to know it is talking to a middle
// layer.
//
// The -dataset/-method/-seed/-featdim/-clients flags must match the
// server's and the clients': the tree is a pure function of them, which
// is what lets N processes reconstruct a consistent federation with
// nothing shared but flags.
//
// Fault tolerance: a fedagg that loses its uplink redials with its
// session token for up to -reconnect. A fedagg that dies outright is
// churned by the server after its reconnect window — together with its
// whole subtree; aggregators deliberately keep no checkpoint state
// (DESIGN.md §11).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/runspec"
	"repro/internal/transport"
)

func main() {
	spec := runspec.Register(flag.CommandLine, runspec.Agg)
	flag.Parse()

	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "fedagg: "+format+"\n", args...)
		os.Exit(2)
	}
	fatal := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "fedagg: %v\n", err)
			os.Exit(1)
		}
	}
	if args := flag.Args(); len(args) > 0 {
		usage("unexpected arguments %q", strings.Join(args, " "))
	}
	if err := spec.Validate(runspec.Agg); err != nil {
		usage("%v", err)
	}
	s := spec.Scale(runspec.Agg)
	cfg := spec.AggregatorConfig(s)
	algo, err := experiments.WireAlgorithmFor(spec.Method, spec.DataName(), s)
	fatal(err)

	tr := transport.NewTCP(transport.Options{DType: s.DType, Spec: spec.Wire()})
	ln, err := tr.Listen(spec.Addr)
	fatal(err)
	// The bound address goes out first (and unbuffered) so orchestration —
	// scripts, the CI tree test — can listen on :0 and scrape the port.
	fmt.Printf("# fedagg listening on %s\n", ln.Addr())
	bounds := fl.TreeSplit(s.Clients, cfg.Aggregators)
	fmt.Printf("# fedagg %d/%d: clients [%d, %d) of %d, upstream %s\n",
		cfg.Index, cfg.Aggregators, bounds[cfg.Index], bounds[cfg.Index+1], s.Clients, spec.Upstream)

	cfg.Dialer = func(ctx context.Context, token uint64) (transport.Conn, error) {
		// First dial waits out server startup for -dial-timeout;
		// mid-run redials (token != 0) get the -reconnect budget.
		budget := spec.DialTimeout
		if token != 0 {
			budget = spec.Reconnect
		}
		return transport.DialRetry(ctx, tr, spec.Upstream, transport.RetryOptions{
			Budget: budget,
			Seed:   spec.DialSeed(runspec.Agg),
			Token:  token,
		})
	}
	node := fl.NewAggregatorNode(algo, cfg)
	fatal(node.Run(context.Background(), ln))
	st := node.Stats
	fmt.Printf("# faults: reconnects=%d disconnects=%d churned=%d resends=%d\n",
		st.Reconnects, st.Disconnects, st.Churned, st.Resends)
	fmt.Printf("# fedagg %d: federation complete\n", cfg.Index)
}
