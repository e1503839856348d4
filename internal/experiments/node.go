package experiments

import (
	"context"
	"fmt"

	"repro/internal/comm"
	"repro/internal/fl"
	"repro/internal/transport"
)

// Node-mode experiment plumbing: the helpers fedserver, fedclient and
// `fedsim -transport tcp` share to run a method as real server/client
// nodes over a transport, configured for parity with the in-process sync
// run at the same scale and seed.

// WireAlgorithmFor instantiates a named method as a wire-split algorithm.
// Every method of the evaluation supports node mode; the error covers
// unknown names and any future algorithm that does not split.
func WireAlgorithmFor(method string, name DatasetName, s Scale) (fl.WireAlgorithm, error) {
	algo, err := NewAlgorithm(method, name, s)
	if err != nil {
		return nil, err
	}
	wa, ok := algo.(fl.WireAlgorithm)
	if !ok {
		return nil, fmt.Errorf("experiments: %s does not support node mode (implement fl.WireAlgorithm)", algo.Name())
	}
	return wa, nil
}

// NodeConfigFor builds the server-node configuration whose schedule
// matches RunScheduled's simulation at the same scale: it embeds the
// simulation's Config (seed s.Seed+7), so a node federation visits exactly
// the cohorts the in-process sync run visits.
func NodeConfigFor(s Scale, rate float64, spec comm.Spec, clients int) fl.NodeConfig {
	return fl.NodeConfig{Config: runConfig(s, rate, spec), Clients: clients, DType: s.DType}
}

// ClientDialSeed and AggregatorDialSeed seed a node's dial-retry jitter from
// the experiment seed, so a fleet's reconnect schedules are deterministic
// yet desynchronized.
func ClientDialSeed(seed int64, id int) int64        { return seed*1000 + int64(id) }
func AggregatorDialSeed(seed int64, index int) int64 { return seed*1000 + 500 + int64(index) }

// ServeNode runs the server half of a method on an already-bound listener
// and returns the metrics history (fedserver's core). Options mutate the
// node config before the server starts (scheduler, failure discipline,
// checkpointing).
func ServeNode(ctx context.Context, method string, name DatasetName, s Scale, rate float64, spec comm.Spec, clients int, ln transport.Listener, opts ...func(*fl.NodeConfig)) (*fl.ServerNode, []fl.RoundMetrics, error) {
	algo, err := WireAlgorithmFor(method, name, s)
	if err != nil {
		return nil, nil, err
	}
	cfg := NodeConfigFor(s, rate, spec, clients)
	for _, opt := range opts {
		opt(&cfg)
	}
	srv := fl.NewServerNode(algo, cfg)
	hist, err := srv.Serve(ctx, ln)
	return srv, hist, err
}

// RunClientNode builds client id of the named fleet, dials the server and
// serves the wire protocol until the federation completes (fedclient's
// core). The algorithm instance is the client half — it holds no server
// state. The node reconnects through a jittered dial-retry when its
// connection dies mid-run, presenting the server-issued session token.
func RunClientNode(ctx context.Context, method string, name DatasetName, build ClientBuilder, id int, s Scale, tr transport.Transport, addr string) error {
	algo, err := WireAlgorithmFor(method, name, s)
	if err != nil {
		return err
	}
	conn, err := tr.Dial(ctx, addr)
	if err != nil {
		return err
	}
	node := &fl.ClientNode{
		Client: build(id),
		Algo:   algo,
		Dialer: func(ctx context.Context, token uint64) (transport.Conn, error) {
			return transport.DialRetry(ctx, tr, addr, transport.RetryOptions{
				Seed:  ClientDialSeed(s.Seed, id),
				Token: token,
			})
		},
	}
	return node.Run(ctx, conn)
}

// RunAggregatorNode builds edge aggregator cfg.Index of a 2-level tree,
// serves its child range on ln and relays rounds to the root at
// upstreamAddr until the federation completes (fedagg's core). The
// algorithm instance runs only the PreReduce reduction — no server state.
// A nil cfg.Dialer is filled with the standard jittered dial-retry,
// seeded per aggregator so a fleet of re-dials stays deterministic yet
// desynchronized.
func RunAggregatorNode(ctx context.Context, method string, name DatasetName, s Scale, cfg fl.AggregatorConfig, tr transport.Transport, upstreamAddr string, ln transport.Listener) error {
	algo, err := WireAlgorithmFor(method, name, s)
	if err != nil {
		ln.Close()
		return err
	}
	if cfg.Dialer == nil {
		index := cfg.Index
		cfg.Dialer = func(ctx context.Context, token uint64) (transport.Conn, error) {
			return transport.DialRetry(ctx, tr, upstreamAddr, transport.RetryOptions{
				Seed:  AggregatorDialSeed(s.Seed, index),
				Token: token,
			})
		}
	}
	return fl.NewAggregatorNode(algo, cfg).Run(ctx, ln)
}

// aggListenAddr derives the listen address for aggregator a. A tcp
// address reuses the root's bind spec (":0" hands out a fresh port per
// listener); the inproc namespace needs a distinct name.
func aggListenAddr(tr transport.Transport, addr string, a int) string {
	if tr.Name() == "tcp" {
		return addr
	}
	return fmt.Sprintf("%s-agg%d", addr, a)
}

// RunNodes runs a federation in one process over the given transport: one
// server node, k client nodes and — when the options set
// NodeConfig.Aggregators — that many edge aggregators, each client dialing
// the listener of the session that fronts it (the root's in a flat run, a
// tree of no aggregators). `fedsim -transport tcp` uses it with real
// localhost sockets, `fedsim -topology tree` and the tests with inproc
// channels. Options mutate the root's node config; the aggregators inherit
// its failure discipline so one knob tunes every layer. Node errors other
// than churn are surfaced after the server's history.
func RunNodes(ctx context.Context, method string, name DatasetName, build ClientBuilder, k int, s Scale, rate float64, spec comm.Spec, tr transport.Transport, addr string, opts ...func(*fl.NodeConfig)) ([]fl.RoundMetrics, error) {
	// Resolve the root config up front for the tree's shape and the
	// aggregators' discipline; ServeNode re-applies the same opts.
	cfg := NodeConfigFor(s, rate, spec, k)
	for _, opt := range opts {
		opt(&cfg)
	}
	aggs := cfg.Aggregators
	rootLn, err := tr.Listen(addr)
	if err != nil {
		return nil, err
	}
	owners, bounds := []transport.Listener{rootLn}, []int{0, k}
	if aggs > 0 {
		owners, bounds = make([]transport.Listener, aggs), fl.TreeSplit(k, aggs)
		for a := range owners {
			ln, lerr := tr.Listen(aggListenAddr(tr, addr, a))
			if lerr != nil {
				rootLn.Close()
				for _, l := range owners[:a] {
					l.Close()
				}
				return nil, lerr
			}
			owners[a] = ln
		}
	}
	type result struct {
		role string
		id   int
		err  error
	}
	done := make(chan result, aggs+k)
	for a := 0; a < aggs; a++ {
		go func(a int) {
			done <- result{"aggregator", a, RunAggregatorNode(ctx, method, name, s, fl.AggregatorConfig{
				Index:           a,
				Aggregators:     aggs,
				Clients:         k,
				Codec:           spec.Value,
				TopK:            spec.Frac,
				Delta:           spec.Delta,
				Seed:            s.Seed + 7 + 101*int64(a),
				Heartbeat:       cfg.Heartbeat,
				DeadAfter:       cfg.DeadAfter,
				ReconnectWindow: cfg.ReconnectWindow,
			}, tr, rootLn.Addr(), owners[a])}
		}(a)
	}
	for a, ln := range owners {
		for id := bounds[a]; id < bounds[a+1]; id++ {
			go func(id int, addr string) {
				done <- result{"client", id, RunClientNode(ctx, method, name, build, id, s, tr, addr)}
			}(id, ln.Addr())
		}
	}
	_, hist, err := ServeNode(ctx, method, name, s, rate, spec, k, rootLn, opts...)
	if err != nil {
		return nil, err
	}
	for i := 0; i < aggs+k; i++ {
		if r := <-done; r.err != nil {
			return nil, fmt.Errorf("experiments: %s node %d: %w", r.role, r.id, r.err)
		}
	}
	return hist, nil
}
