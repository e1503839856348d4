package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
)

// Fault-path tests: session tokens, read/write deadlines, the dial-retry
// policy and the chaos fault injector — the transport layer of the wire
// fault-tolerance contract (DESIGN.md §9).

// pair listens, dials and accepts one connection over tr, returning
// (dialer side, acceptor side).
func pair(t *testing.T, tr Transport) (Conn, Conn) {
	t.Helper()
	ln, err := tr.Listen(listenAddr(tr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	type accepted struct {
		c   Conn
		err error
	}
	acceptCh := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		acceptCh <- accepted{c, err}
	}()
	cli, err := tr.Dial(context.Background(), ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	srvSide := <-acceptCh
	if srvSide.err != nil {
		t.Fatal(srvSide.err)
	}
	t.Cleanup(func() { srvSide.c.Close() })
	return cli, srvSide.c
}

// TestSessionTokenHandshake checks DialWithToken carries the session
// token to the acceptor's Hello verbatim, on every transport that speaks
// sessions, that the dialer's Hello is the listener's (token zero), and
// that a plain dial presents token zero.
func TestSessionTokenHandshake(t *testing.T) {
	const token uint64 = 0x8000beefcafe0001
	for name, tr := range transports(t, Options{}) {
		t.Run(name, func(t *testing.T) {
			ln, err := tr.Listen(listenAddr(tr))
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			type accepted struct {
				c   Conn
				err error
			}
			acceptCh := make(chan accepted, 2)
			go func() {
				for i := 0; i < 2; i++ {
					c, err := ln.Accept()
					acceptCh <- accepted{c, err}
				}
			}()
			cli, err := DialWithToken(context.Background(), tr, ln.Addr(), token)
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			if h := cli.Hello(); h.Token != 0 {
				t.Fatalf("dialer saw token %#x in the listener's hello, want 0", h.Token)
			}
			got := <-acceptCh
			if got.err != nil {
				t.Fatal(got.err)
			}
			defer got.c.Close()
			if h := got.c.Hello(); h.Token != token {
				t.Fatalf("acceptor saw token %#x, want %#x", h.Token, token)
			}
			plain, err := tr.Dial(context.Background(), ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer plain.Close()
			got = <-acceptCh
			if got.err != nil {
				t.Fatal(got.err)
			}
			defer got.c.Close()
			if h := got.c.Hello(); h.Token != 0 {
				t.Fatalf("plain dial presented token %#x, want 0", h.Token)
			}
		})
	}
}

// TestReadDeadline checks a Recv past the read deadline fails with a
// typed ErrDeadline (the server's hung-connection detection) and the
// connection survives once the deadline is cleared.
func TestReadDeadline(t *testing.T) {
	for name, tr := range transports(t, Options{}) {
		t.Run(name, func(t *testing.T) {
			cli, srv := pair(t, tr)
			if err := srv.SetReadDeadline(time.Now().Add(30 * time.Millisecond)); err != nil {
				t.Fatal(err)
			}
			if _, _, err := srv.Recv(); !errors.Is(err, ErrDeadline) {
				t.Fatalf("Recv past deadline = %v, want ErrDeadline", err)
			}
			// A deadline miss is not a connection loss: clearing it and
			// sending again must work (tcp semantics; inproc matches).
			if err := srv.SetReadDeadline(time.Time{}); err != nil {
				t.Fatal(err)
			}
			if _, err := cli.Send([]byte("late")); err != nil {
				t.Fatal(err)
			}
			b, _, err := srv.Recv()
			if err != nil || string(b) != "late" {
				t.Fatalf("Recv after clearing deadline = %q, %v", b, err)
			}
		})
	}
}

// helloBytes builds a raw hello with the given field overrides,
// for the malformed-handshake table.
func helloBytes(magic string, version, dtype, codec uint32, token uint64) []byte {
	b := make([]byte, helloSize)
	copy(b, magic)
	binary.LittleEndian.PutUint32(b[len(tcpMagic):], version)
	binary.LittleEndian.PutUint32(b[len(tcpMagic)+4:], dtype)
	binary.LittleEndian.PutUint32(b[len(tcpMagic)+8:], codec)
	binary.LittleEndian.PutUint64(b[len(tcpMagic)+12:], token)
	return b
}

// TestTCPHandshakeHardeningAccept feeds the accept loop truncated, junk
// and field-garbage hellos; every one must be rejected with a typed
// ErrHandshake and a reason, never parsed into the protocol.
func TestTCPHandshakeHardeningAccept(t *testing.T) {
	cases := []struct {
		name string
		raw  []byte
		want string
	}{
		{"truncated", []byte("FEDW"), "truncated"},
		{"one-byte", []byte{0x00}, "truncated"},
		{"almost-complete", helloBytes(tcpMagic, Version, 0, 0, 0)[:helloSize-1], "truncated"},
		{"garbage", []byte("GET / HTTP/1.1\r\nHost: chaos\r\n\r\n...."), "magic"},
		{"zeros", make([]byte, helloSize), "magic"},
		{"old-magic", helloBytes("FEDWIRE2", Version, 0, 0, 0), "magic"},
		// A v4 peer reads the shared tree dispatch as a malformed batch: it
		// is refused at the hello, never admitted to misread one.
		{"v4-peer", helloBytes("FEDWIRE4", 4, 0, 0, 0), "magic"},
		{"bad-dtype", helloBytes(tcpMagic, Version, 99, 0, 0), "dtype"},
		{"bad-codec", helloBytes(tcpMagic, Version, 0, 99, 0), "codec"},
		{"oversized", append(helloBytes(tcpMagic, Version, 99, 0, 0), make([]byte, 4096)...), "dtype"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewTCP(Options{})
			ln, err := tr.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			acceptErr := make(chan error, 1)
			go func() {
				_, err := ln.Accept()
				acceptErr <- err
			}()
			nc, err := net.Dial("tcp", ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			nc.Write(tc.raw)
			// Half-close the write side so a short hello is seen as
			// truncated rather than waiting out the handshake deadline.
			nc.(*net.TCPConn).CloseWrite()
			defer nc.Close()
			err = <-acceptErr
			if !errors.Is(err, ErrHandshake) {
				t.Fatalf("accept error = %v, want ErrHandshake", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("accept error %q should mention %q", err, tc.want)
			}
		})
	}
}

// TestTCPHandshakeHardeningDial points a dialer at servers that answer
// its hello with truncation or garbage; the dialer must reject with
// ErrHandshake symmetrically to the accept side.
func TestTCPHandshakeHardeningDial(t *testing.T) {
	cases := []struct {
		name string
		raw  []byte
		want string
	}{
		{"truncated", []byte("FEDWIRE3"), "truncated"},
		{"v4-peer", helloBytes("FEDWIRE4", 4, 0, 0, 0), "magic"},
		{"garbage", []byte("SSH-2.0-OpenSSH_9.6 go away now.....")[:helloSize], "magic"},
		{"bad-dtype", helloBytes(tcpMagic, Version, 77, 0, 0), "dtype"},
		{"bad-codec", helloBytes(tcpMagic, Version, 0, 77, 0), "codec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				nc, err := ln.Accept()
				if err != nil {
					return
				}
				// Swallow the dialer's hello, answer with the bad bytes.
				buf := make([]byte, helloSize)
				nc.Read(buf)
				nc.Write(tc.raw)
				nc.(*net.TCPConn).CloseWrite()
			}()
			_, err = NewTCP(Options{}).Dial(context.Background(), ln.Addr().String())
			if !errors.Is(err, ErrHandshake) {
				t.Fatalf("dial error = %v, want ErrHandshake", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("dial error %q should mention %q", err, tc.want)
			}
		})
	}
}

// TestDialRetrySucceedsWhenServerAppears retries against an address that
// only starts listening after a delay — fedclient's "server still coming
// up" path.
func TestDialRetrySucceedsWhenServerAppears(t *testing.T) {
	tr := NewInproc(Options{})
	go func() {
		time.Sleep(150 * time.Millisecond)
		ln, err := tr.Listen("late")
		if err != nil {
			return
		}
		for {
			if _, err := ln.Accept(); err != nil {
				return
			}
		}
	}()
	var attempts int
	conn, err := DialRetry(context.Background(), tr, "late", RetryOptions{
		Budget:  10 * time.Second,
		Seed:    1,
		OnRetry: func(int, error, time.Duration) { attempts++ },
	})
	if err != nil {
		t.Fatalf("retried dial failed: %v (after %d retries)", err, attempts)
	}
	conn.Close()
	if attempts == 0 {
		t.Fatal("dial succeeded without retrying a cold address")
	}
}

// TestDialRetryExhaustsBudget checks a dead address fails with a
// diagnosis naming the attempt count and budget, within bounded time.
func TestDialRetryExhaustsBudget(t *testing.T) {
	tr := NewInproc(Options{})
	start := time.Now()
	_, err := DialRetry(context.Background(), tr, "nowhere", RetryOptions{Budget: 200 * time.Millisecond, Seed: 2})
	if err == nil {
		t.Fatal("dial to an unbound address succeeded")
	}
	if !strings.Contains(err.Error(), "attempts") {
		t.Fatalf("exhaustion error should report attempts: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("exhaustion took %v, budget was 200ms", elapsed)
	}
}

// TestDialRetryFailsFastOnHandshake checks a deterministic handshake
// rejection is surfaced immediately — retrying a dtype mismatch for the
// whole budget would hammer the server for nothing.
func TestDialRetryFailsFastOnHandshake(t *testing.T) {
	srv := NewTCP(Options{})
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			if _, err := ln.Accept(); err != nil {
				return
			}
		}
	}()
	var retries int
	start := time.Now()
	_, err = DialRetry(context.Background(), NewTCP(Options{Spec: comm.Spec{Value: comm.I8}}), ln.Addr(), RetryOptions{
		Budget:  30 * time.Second,
		Seed:    3,
		OnRetry: func(int, error, time.Duration) { retries++ },
	})
	if !errors.Is(err, ErrHandshake) {
		t.Fatalf("error = %v, want ErrHandshake", err)
	}
	if retries != 0 {
		t.Fatalf("handshake rejection was retried %d times", retries)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("fail-fast took %v", elapsed)
	}
}

// TestDialRetryContextCancel checks cancellation wins over the budget.
func TestDialRetryContextCancel(t *testing.T) {
	tr := NewInproc(Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := DialRetry(ctx, tr, "nowhere", RetryOptions{Budget: time.Hour, Seed: 4})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded", err)
	}
}

// chaosPair builds a connection whose dialer side injects faults from a
// seeded stream; the accept side stays clean so fault schedules are
// deterministic (a single chaos instance wrapping both ends would order
// its connection indices by accept/dial race).
func chaosPair(t *testing.T, cfg ChaosConfig) (Conn, Conn) {
	t.Helper()
	inner := NewInproc(Options{})
	ch := NewChaos(inner, cfg)
	ln, err := inner.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	connCh := make(chan Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			connCh <- c
		}
	}()
	cli, err := ch.Dial(context.Background(), "srv")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	srv := <-connCh
	t.Cleanup(func() { srv.Close() })
	return cli, srv
}

// TestChaosDropIsDeterministic runs the same send schedule twice under
// the same seed and checks the injected connection loss lands on the
// same frame index — the reproducibility contract of the chaos wrapper.
func TestChaosDropIsDeterministic(t *testing.T) {
	failAt := func(seed int64) int {
		cli, srv := chaosPair(t, ChaosConfig{Seed: seed, Drop: 0.15})
		go func() {
			for {
				if _, _, err := srv.Recv(); err != nil {
					return
				}
			}
		}()
		for i := 0; i < 1000; i++ {
			if _, err := cli.Send([]byte("frame")); err != nil {
				if !strings.Contains(err.Error(), "chaos") {
					t.Fatalf("send %d failed with a non-chaos error: %v", i, err)
				}
				return i
			}
		}
		t.Fatal("1000 sends at drop 0.15 survived — injector inert")
		return -1
	}
	a, b := failAt(7), failAt(7)
	if a != b {
		t.Fatalf("same seed dropped at frame %d then %d", a, b)
	}
	if c := failAt(8); c == a {
		t.Logf("different seed coincidentally dropped at the same frame %d", c)
	}
}

// TestChaosDupReplaysFrames checks Dup=1 delivers every frame twice —
// the replayed-message tolerance the node runtime's dedup handles.
func TestChaosDupReplaysFrames(t *testing.T) {
	cli, srv := chaosPair(t, ChaosConfig{Seed: 9, Dup: 1})
	if _, err := srv.Send([]byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Send([]byte("beta")); err != nil {
		t.Fatal(err)
	}
	var got []string
	for i := 0; i < 4; i++ {
		b, _, err := cli.Recv()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(b))
	}
	want := []string{"alpha", "alpha", "beta", "beta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("duplicated stream = %v, want %v", got, want)
		}
	}
}

// TestChaosPartitionFailsDials checks Partition=1 fails every dial
// attempt without touching the network, and that DialRetry treats the
// partition as transient (it retries rather than failing fast).
func TestChaosPartitionFailsDials(t *testing.T) {
	inner := NewInproc(Options{})
	if _, err := inner.Listen("srv"); err != nil {
		t.Fatal(err)
	}
	ch := NewChaos(inner, ChaosConfig{Seed: 5, Partition: 1})
	if _, err := ch.Dial(context.Background(), "srv"); err == nil || !strings.Contains(err.Error(), "partition") {
		t.Fatalf("partitioned dial = %v, want injected partition", err)
	}
	var retries int
	_, err := DialRetry(context.Background(), ch, "srv", RetryOptions{
		Budget:  150 * time.Millisecond,
		Seed:    6,
		OnRetry: func(int, error, time.Duration) { retries++ },
	})
	if err == nil {
		t.Fatal("dial through a full partition succeeded")
	}
	if retries == 0 {
		t.Fatal("partition was treated as non-retryable")
	}
}

// TestChaosDelayStaysBounded checks injected delays honour MaxDelay and
// deliver the frame intact afterwards.
func TestChaosDelayStaysBounded(t *testing.T) {
	cli, srv := chaosPair(t, ChaosConfig{Seed: 11, Delay: 1, MaxDelay: 20 * time.Millisecond})
	start := time.Now()
	for i := 0; i < 5; i++ {
		if _, err := srv.Send([]byte("tick")); err != nil {
			t.Fatal(err)
		}
		b, _, err := cli.Recv()
		if err != nil || string(b) != "tick" {
			t.Fatalf("delayed frame %d = %q, %v", i, b, err)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("5 delayed frames took %v with a 20ms cap", elapsed)
	}
}
