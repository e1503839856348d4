package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/tensor"
)

// each transport under test, built fresh per subtest so namespaces and
// ports never collide.
func transports(t *testing.T, opts Options) map[string]Transport {
	t.Helper()
	return map[string]Transport{
		"inproc": NewInproc(opts),
		"tcp":    NewTCP(opts),
	}
}

func listenAddr(tr Transport) string {
	if tr.Name() == "tcp" {
		return "127.0.0.1:0"
	}
	return "srv"
}

// TestRoundTrip sends frames both ways over each transport and checks
// contents and the byte accounting contract (FrameOverhead + len).
func TestRoundTrip(t *testing.T) {
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
			acceptCh := make(chan accepted, 1)
			go func() {
				c, err := ln.Accept()
				acceptCh <- accepted{c, err}
			}()
			cli, err := tr.Dial(context.Background(), ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			srvSide := <-acceptCh
			if srvSide.err != nil {
				t.Fatal(srvSide.err)
			}
			srv := srvSide.c
			defer srv.Close()

			frame := comm.MarshalSpecInto(nil, comm.Spec{}, 7, []float64{1, 2, 3}, nil)
			sent, err := cli.Send(frame)
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(FrameOverhead + len(frame)); sent != want {
				t.Fatalf("Send reported %d wire bytes, want %d", sent, want)
			}
			got, recvd, err := srv.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if recvd != sent {
				t.Fatalf("Recv reported %d wire bytes, Send reported %d", recvd, sent)
			}
			if string(got) != string(frame) {
				t.Fatalf("frame corrupted in transit")
			}
			// Mutating the sent buffer must not reach a frame already
			// delivered (or in flight).
			reply := []byte("pong")
			if _, err := srv.Send(reply); err != nil {
				t.Fatal(err)
			}
			reply[0] = 'X'
			got2, _, err := cli.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if string(got2) != "pong" {
				t.Fatalf("reply = %q, want %q (sender mutation leaked)", got2, "pong")
			}
		})
	}
}

// TestCloseUnblocksRecv closes the peer and checks the blocked reader
// observes EOF-like termination instead of hanging.
func TestCloseUnblocksRecv(t *testing.T) {
	for name, tr := range transports(t, Options{}) {
		t.Run(name, func(t *testing.T) {
			ln, err := tr.Listen(listenAddr(tr))
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			connCh := make(chan Conn, 1)
			go func() {
				c, err := ln.Accept()
				if err == nil {
					connCh <- c
				}
			}()
			cli, err := tr.Dial(context.Background(), ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			srv := <-connCh
			errCh := make(chan error, 1)
			go func() {
				_, _, err := srv.Recv()
				errCh <- err
			}()
			cli.Close()
			select {
			case err := <-errCh:
				if err == nil {
					t.Fatal("Recv on a closed connection returned a frame")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Recv did not unblock after peer close")
			}
			srv.Close()
		})
	}
}

// TestHandshakeRejectsMismatch wires an f32 dialer into an f64 listener
// (and a codec mismatch) and checks both fail with a descriptive error.
func TestHandshakeRejectsMismatch(t *testing.T) {
	cases := []struct {
		name         string
		dialer       Options
		wantFragment string
	}{
		{"dtype", Options{DType: tensor.F32}, "dtype"},
		{"codec", Options{Spec: comm.Spec{Value: comm.I8}}, "i8"},
		{"spec", Options{Spec: comm.NewSpec(comm.F32, 0.05, true)}, "topk"},
	}
	for _, tc := range cases {
		t.Run("tcp/"+tc.name, func(t *testing.T) {
			srvTr := NewTCP(Options{})
			ln, err := srvTr.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			acceptErr := make(chan error, 1)
			go func() {
				_, err := ln.Accept()
				acceptErr <- err
			}()
			_, err = NewTCP(tc.dialer).Dial(context.Background(), ln.Addr())
			if !errors.Is(err, ErrHandshake) {
				t.Fatalf("dialer error = %v, want ErrHandshake (deterministic, non-retryable)", err)
			}
			if err := <-acceptErr; !errors.Is(err, ErrHandshake) {
				t.Fatalf("acceptor error = %v, want ErrHandshake", err)
			}
		})
	}
	// inproc validates synchronously at Dial against the options the
	// listener was bound with.
	srv := NewInproc(Options{})
	if _, err := srv.Listen("srv"); err != nil {
		t.Fatal(err)
	}
	cli := NewInproc(Options{DType: tensor.F32})
	// Dial resolves the listener inside the dialing transport's namespace,
	// so connect through the server's namespace with mismatched options.
	if err := func() error {
		_, err := (&Inproc{opts: cli.opts, listeners: srv.listeners}).Dial(context.Background(), "srv")
		return err
	}(); !errors.Is(err, ErrHandshake) {
		t.Fatalf("inproc dtype mismatch error = %v, want ErrHandshake", err)
	}
}

// TestTCPRejectsBadMagic points the accept loop at a client that speaks
// something other than the federation protocol.
func TestTCPRejectsBadMagic(t *testing.T) {
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
	defer nc.Close()
	nc.Write([]byte("GET / HTTP/1.1\r\nHost: chaos\r\n\r\n....")) // ≥ helloSize bytes of non-protocol traffic
	err = <-acceptErr
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("accept error = %v, want bad-magic rejection", err)
	}
}

// TestTCPReadLimit declares a frame beyond the connection's limit and
// checks the reader rejects it before allocating.
func TestTCPReadLimit(t *testing.T) {
	tr := NewTCP(Options{MaxFrame: 128})
	ln, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	connCh := make(chan Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			connCh <- c
		}
	}()
	cli, err := NewTCP(Options{MaxFrame: 1 << 20}).Dial(context.Background(), ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv := <-connCh
	defer srv.Close()
	if _, err := cli.Send(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Recv(); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("Recv error = %v, want read-limit rejection", err)
	}
}

// TestTCPHandshakeBytes checks the handshake byte accounting matches the
// fixed hello size each way.
func TestTCPHandshakeBytes(t *testing.T) {
	tr := NewTCP(Options{})
	ln, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	connCh := make(chan Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			connCh <- c
		}
	}()
	cli, err := tr.Dial(context.Background(), ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv := <-connCh
	defer srv.Close()
	for _, c := range []Conn{cli, srv} {
		sent, recvd := c.HandshakeBytes()
		if sent != int64(helloSize) || recvd != int64(helloSize) {
			t.Fatalf("handshake bytes = (%d, %d), want (%d, %d)", sent, recvd, helloSize, helloSize)
		}
	}
	if h := cli.Hello(); h.Version != Version {
		t.Fatalf("negotiated version %d, want %d", h.Version, Version)
	}
}

// TestDialContextCancel checks Dial respects an already-cancelled context.
func TestDialContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewTCP(Options{}).Dial(ctx, "127.0.0.1:1"); err == nil {
		t.Fatal("cancelled dial must fail")
	}
	tr := NewInproc(Options{})
	if _, err := tr.Dial(ctx, "nowhere"); err == nil {
		t.Fatal("inproc dial to an unbound address must fail")
	}
}

// TestInprocNamespaceIsolation checks two Inproc instances do not share
// addresses.
func TestInprocNamespaceIsolation(t *testing.T) {
	a, b := NewInproc(Options{}), NewInproc(Options{})
	if _, err := a.Listen("srv"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Dial(context.Background(), "srv"); err == nil {
		t.Fatal("dial across namespaces must fail")
	}
	if _, err := b.Listen("srv"); err != nil {
		t.Fatalf("second namespace cannot bind the same name: %v", err)
	}
}

// TestFrameWireFormat pins the tcp frame layout: little-endian u32 length
// prefix followed by the raw frame — the contract DESIGN.md §8 documents
// and the ledger's byte accounting assumes.
func TestFrameWireFormat(t *testing.T) {
	tr := NewTCP(Options{})
	ln, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	connCh := make(chan Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			connCh <- c
		}
	}()
	cli, err := tr.Dial(context.Background(), ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv := <-connCh
	defer srv.Close()

	// Read the raw socket bytes of one frame from the server side by
	// peeking beneath the abstraction.
	raw := srv.(*tcpConn).nc
	payload := []byte{0xde, 0xad, 0xbe, 0xef, 0x01}
	if _, err := cli.Send(payload); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, FrameOverhead+len(payload))
	if _, err := io.ReadFull(raw, buf); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(buf); got != uint32(len(payload)) {
		t.Fatalf("length prefix = %d, want %d", got, len(payload))
	}
	if string(buf[FrameOverhead:]) != string(payload) {
		t.Fatal("payload bytes differ on the wire")
	}
}
