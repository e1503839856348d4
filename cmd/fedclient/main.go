// Command fedclient runs one client node of a multi-process federation:
// it builds exactly client -id of the shared fleet configuration (same
// dataset, partition, seeds and scale as every other process), dials the
// fedserver, and serves local-training and evaluation requests until the
// federation completes. The client owns its model, data, optimizer and
// upload quantization; it never sees server state beyond the broadcasts
// it is handed.
//
// The -dataset/-partition/-fleet/-seed/-featdim/-clients flags must match
// the server's configuration (and the other clients'): the fleet is a
// pure function of them, which is what lets N processes reconstruct a
// consistent federation with nothing shared but flags.
//
// Fault tolerance: when the connection dies mid-run the client redials
// with its server-issued session token for up to -reconnect, resuming the
// round it was in. With -session the token is persisted to a file, so a
// killed-and-restarted fedclient process reclaims its old identity
// instead of churning. The -chaos-* flags wrap the transport in a
// deterministic fault injector for failure testing.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/runspec"
	"repro/internal/transport"
)

// loadToken reads a session token persisted by a previous run; a missing
// or malformed file means "no session" (fresh join), never an error.
func loadToken(path string) uint64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	tok, err := strconv.ParseUint(strings.TrimSpace(string(b)), 16, 64)
	if err != nil {
		return 0
	}
	return tok
}

func main() {
	spec := runspec.Register(flag.CommandLine, runspec.Client)
	flag.Parse()

	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "fedclient: "+format+"\n", args...)
		os.Exit(2)
	}
	fatal := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "fedclient: %v\n", err)
			os.Exit(1)
		}
	}
	if args := flag.Args(); len(args) > 0 {
		usage("unexpected arguments %q", strings.Join(args, " "))
	}
	if err := spec.Validate(runspec.Client); err != nil {
		usage("%v", err)
	}
	s := spec.Scale(runspec.Client)
	id, addr := spec.ID, spec.Addr

	build, _, err := experiments.NewFleetBuilder(spec.DataName(), spec.PartitionKind(), spec.Fleet, s.Clients, s)
	fatal(err)
	algo, err := experiments.WireAlgorithmFor(spec.Method, spec.DataName(), s)
	fatal(err)
	client := build(id)
	fmt.Printf("# fedclient %d/%d: %s, %d train / %d test examples, dialing %s\n",
		id, s.Clients, client.Model.Name, len(client.Train), len(client.Test), addr)

	var tr transport.Transport = transport.NewTCP(transport.Options{DType: s.DType, Spec: spec.Wire()})
	if spec.ChaosSeed != 0 {
		tr = transport.NewChaos(tr, transport.ChaosConfig{
			Seed:  spec.ChaosSeed,
			Drop:  spec.ChaosDrop,
			Delay: spec.ChaosDelay,
			Dup:   spec.ChaosDup,
		})
	}
	ctx := context.Background()

	// The server may still be binding its port; retry the first dial with
	// capped exponential backoff for -dial-timeout. A rejected handshake
	// (dtype/codec/version mismatch) is deterministic — retrying cannot
	// succeed — so DialRetry fails it immediately instead of hammering the
	// server's accept loop for the whole window.
	retry := transport.RetryOptions{Budget: spec.DialTimeout, Seed: spec.DialSeed(runspec.Client)}
	if spec.Session != "" {
		retry.Token = loadToken(spec.Session)
		if retry.Token != 0 {
			fmt.Printf("# fedclient %d: resuming session %#x from %s\n", id, retry.Token, spec.Session)
		}
	}
	var conn transport.Conn
	if spec.DialTimeout == 0 {
		// A zero budget means one attempt, fail fast — CI's dead-port test
		// and scripts that manage their own ordering rely on it.
		conn, err = transport.DialWithToken(ctx, tr, addr, retry.Token)
	} else {
		conn, err = transport.DialRetry(ctx, tr, addr, retry)
	}
	fatal(err)

	node := &fl.ClientNode{
		Client: client,
		Algo:   algo,
		Token:  retry.Token,
	}
	if spec.Reconnect > 0 {
		node.Dialer = func(ctx context.Context, token uint64) (transport.Conn, error) {
			return transport.DialRetry(ctx, tr, addr, transport.RetryOptions{
				Budget: spec.Reconnect,
				Seed:   spec.DialSeed(runspec.Client) + 1,
				Token:  token,
			})
		}
	}
	if spec.Session != "" {
		node.OnToken = func(tok uint64) {
			// Best-effort persistence: losing the token only costs the
			// restarted process its session, never the federation.
			_ = os.WriteFile(spec.Session, []byte(strconv.FormatUint(tok, 16)+"\n"), 0o644)
		}
	}
	fatal(node.Run(ctx, conn))
	fmt.Printf("# fedclient %d: federation complete\n", id)
}
