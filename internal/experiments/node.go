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
// matches RunScheduled's simulation at the same scale: the cohort sampler
// is seeded with the simulation seed (s.Seed+7), so a node federation
// visits exactly the cohorts the in-process sync run visits.
func NodeConfigFor(s Scale, rate float64, spec comm.Spec, clients int) fl.NodeConfig {
	c := runConfig(s, rate, spec)
	return fl.NodeConfig{
		Clients:    clients,
		Rounds:     c.Rounds,
		SampleRate: c.SampleRate,
		BatchSize:  c.BatchSize,
		Seed:       c.Seed,
		Codec:      c.Codec,
		TopK:       c.TopK,
		Delta:      c.Delta,
		DType:      s.DType,
	}
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

// RunTreeNodes runs a 2-level tree in one process: a root server node,
// aggs edge aggregators, and k client nodes dialing their owning
// aggregator — `fedsim -topology tree` uses it, and the parity tests
// compare it against RunNodes at the same seed. Options mutate the root's
// node config; the aggregators inherit its failure discipline so one knob
// tunes every layer.
func RunTreeNodes(ctx context.Context, method string, name DatasetName, build ClientBuilder, k, aggs int, s Scale, rate float64, spec comm.Spec, tr transport.Transport, addr string, opts ...func(*fl.NodeConfig)) ([]fl.RoundMetrics, error) {
	rootLn, err := tr.Listen(addr)
	if err != nil {
		return nil, err
	}
	// Resolve the root config up front so the aggregators can inherit its
	// failure discipline; ServeNode re-applies the same opts.
	rootCfg := NodeConfigFor(s, rate, spec, k)
	for _, opt := range opts {
		opt(&rootCfg)
	}
	aggLns := make([]transport.Listener, aggs)
	for a := range aggLns {
		ln, lerr := tr.Listen(aggListenAddr(tr, addr, a))
		if lerr != nil {
			rootLn.Close()
			for _, l := range aggLns {
				if l != nil {
					l.Close()
				}
			}
			return nil, lerr
		}
		aggLns[a] = ln
	}
	type result struct {
		role string
		id   int
		err  error
	}
	aggDone := make(chan result, aggs)
	clientDone := make(chan result, k)
	rootAddr := rootLn.Addr()
	for a := 0; a < aggs; a++ {
		go func(a int) {
			aggDone <- result{"aggregator", a, RunAggregatorNode(ctx, method, name, s, fl.AggregatorConfig{
				Index:           a,
				Aggregators:     aggs,
				Clients:         k,
				Codec:           spec.Value,
				TopK:            spec.Frac,
				Delta:           spec.Delta,
				Seed:            s.Seed + 7 + 101*int64(a),
				Heartbeat:       rootCfg.Heartbeat,
				DeadAfter:       rootCfg.DeadAfter,
				ReconnectWindow: rootCfg.ReconnectWindow,
			}, tr, rootAddr, aggLns[a])}
		}(a)
	}
	bounds := fl.TreeSplit(k, aggs)
	for a := 0; a < aggs; a++ {
		for id := bounds[a]; id < bounds[a+1]; id++ {
			go func(id int, aggAddr string) {
				clientDone <- result{"client", id, RunClientNode(ctx, method, name, build, id, s, tr, aggAddr)}
			}(id, aggLns[a].Addr())
		}
	}
	treeOpts := append(opts[:len(opts):len(opts)], func(cfg *fl.NodeConfig) { cfg.Aggregators = aggs })
	_, hist, err := ServeNode(ctx, method, name, s, rate, spec, k, rootLn, treeOpts...)
	if err != nil {
		return nil, err
	}
	for i := 0; i < aggs+k; i++ {
		var r result
		select {
		case r = <-aggDone:
		case r = <-clientDone:
		}
		if r.err != nil {
			return nil, fmt.Errorf("experiments: %s node %d: %w", r.role, r.id, r.err)
		}
	}
	return hist, nil
}

// RunNodes runs one server node plus k in-process client nodes over the
// given transport — `fedsim -transport tcp` uses it with real localhost
// sockets, and the tests use it with inproc channels. Client-node errors
// other than churn are surfaced after the server's history. Options mutate
// the server's node config.
func RunNodes(ctx context.Context, method string, name DatasetName, build ClientBuilder, k int, s Scale, rate float64, spec comm.Spec, tr transport.Transport, addr string, opts ...func(*fl.NodeConfig)) ([]fl.RoundMetrics, error) {
	ln, err := tr.Listen(addr)
	if err != nil {
		return nil, err
	}
	type result struct {
		id  int
		err error
	}
	clientDone := make(chan result, k)
	for i := 0; i < k; i++ {
		go func(id int) {
			clientDone <- result{id, RunClientNode(ctx, method, name, build, id, s, tr, ln.Addr())}
		}(i)
	}
	_, hist, err := ServeNode(ctx, method, name, s, rate, spec, k, ln, opts...)
	if err != nil {
		return nil, err
	}
	for i := 0; i < k; i++ {
		r := <-clientDone
		if r.err != nil {
			return nil, fmt.Errorf("experiments: client node %d: %w", r.id, r.err)
		}
	}
	return hist, nil
}
