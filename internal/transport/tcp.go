package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/tensor"
)

// The tcp transport: length-prefixed frames over real sockets. The wire
// format per connection is
//
//	handshake  "FEDWIRE5" [version u32][dtype u32][spec u32][token u64]  (28 bytes, each way)
//	frame      [length u32][frame bytes]                                  (length-prefixed, little-endian)
//
// The dialer sends its hello first; the acceptor validates it, replies
// with its own, and the dialer validates that. Either side rejecting the
// handshake closes the socket, so an f32 client can never join an f64
// federation and a version skew fails before any payload moves. The token
// word carries a session claim for reconnecting clients; it is opaque to
// the transport. Every hello read is exactly helloSize bytes under a
// deadline — a peer that sends less (truncated), junk (bad magic,
// out-of-range dtype/codec) or something else entirely is rejected with a
// typed ErrHandshake before any payload is parsed. Every Recv enforces
// the per-connection read limit before growing its read buffer.

// tcpMagic guards against pointing a node at an arbitrary TCP service
// (and a stale node at a newer federation: the magic carries the generation).
const tcpMagic = "FEDWIRE5"

// helloSize is the fixed handshake size per direction.
const helloSize = len(tcpMagic) + 12 + 8

// handshakeTimeout bounds how long an endpoint waits for its peer's hello,
// so a stray connection cannot wedge the accept loop.
const handshakeTimeout = 10 * time.Second

// TCP is the socket Transport.
type TCP struct {
	opts Options
}

// NewTCP builds a TCP transport endpoint.
func NewTCP(opts Options) *TCP { return &TCP{opts: opts.withDefaults()} }

// Name reports "tcp".
func (t *TCP) Name() string { return "tcp" }

// Listen binds a TCP address ("127.0.0.1:0" picks a free port).
func (t *TCP) Listen(addr string) (Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return &tcpListener{ln: ln, opts: t.opts}, nil
}

// Dial connects and handshakes; ctx bounds the whole attempt including the
// handshake round trip.
func (t *TCP) Dial(ctx context.Context, addr string) (Conn, error) {
	return t.dial(ctx, addr, 0)
}

// DialSession dials presenting a per-call session token in the hello.
func (t *TCP) DialSession(ctx context.Context, addr string, token uint64) (Conn, error) {
	return t.dial(ctx, addr, token)
}

func (t *TCP) dial(ctx context.Context, addr string, token uint64) (Conn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	if dl, ok := ctx.Deadline(); ok {
		nc.SetDeadline(dl)
	} else {
		nc.SetDeadline(time.Now().Add(handshakeTimeout))
	}
	c := &tcpConn{nc: nc, limit: t.opts.MaxFrame}
	// Dialer speaks first, then validates the reply.
	if err := c.sendHello(t.opts, token); err != nil {
		nc.Close()
		return nil, err
	}
	peer, err := c.recvHello()
	if err != nil {
		nc.Close()
		return nil, err
	}
	if err := checkHello(peer, t.opts); err != nil {
		nc.Close()
		return nil, err
	}
	c.peer = peer
	nc.SetDeadline(time.Time{})
	return c, nil
}

type tcpListener struct {
	ln   net.Listener
	opts Options
}

// Accept returns the next connection whose handshake validated. The
// handshake runs synchronously under a deadline; a peer that fails it is
// closed and surfaced as an error (callers decide whether to keep
// accepting). The reply hello goes out before validation, so a
// mismatched dialer also learns exactly what the server speaks — both
// ends fail with ErrHandshake instead of one seeing a bare EOF.
func (l *tcpListener) Accept() (Conn, error) {
	nc, err := l.ln.Accept()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return nil, fmt.Errorf("transport: %v: %w", err, ErrClosed)
		}
		return nil, fmt.Errorf("transport: %w", err)
	}
	nc.SetDeadline(time.Now().Add(handshakeTimeout))
	c := &tcpConn{nc: nc, limit: l.opts.MaxFrame}
	peer, err := c.recvHello()
	if err != nil {
		nc.Close()
		return nil, err
	}
	if err := c.sendHello(l.opts, 0); err != nil {
		nc.Close()
		return nil, err
	}
	if err := checkHello(peer, l.opts); err != nil {
		nc.Close()
		return nil, err
	}
	c.peer = peer
	nc.SetDeadline(time.Time{})
	return c, nil
}

func (l *tcpListener) Addr() string { return l.ln.Addr().String() }
func (l *tcpListener) Close() error { return l.ln.Close() }

// tcpConn frames bytes over one socket.
type tcpConn struct {
	nc    net.Conn
	limit int64
	peer  Hello

	sendMu sync.Mutex // Send is called from round and shutdown paths

	// free holds the released read buffers a Recv fills and returns a
	// prefix of, reusing one when it fits (freeList.take) and growing a
	// fresh one otherwise.
	free freeList

	hsSent, hsRecv int64
}

func (c *tcpConn) sendHello(o Options, token uint64) error {
	b := make([]byte, helloSize)
	copy(b, tcpMagic)
	binary.LittleEndian.PutUint32(b[len(tcpMagic):], Version)
	binary.LittleEndian.PutUint32(b[len(tcpMagic)+4:], uint32(o.DType))
	binary.LittleEndian.PutUint32(b[len(tcpMagic)+8:], o.Spec.Pack())
	binary.LittleEndian.PutUint64(b[len(tcpMagic)+12:], token)
	if _, err := c.nc.Write(b); err != nil {
		return fmt.Errorf("transport: sending handshake: %w", err)
	}
	c.hsSent += int64(helloSize)
	return nil
}

func (c *tcpConn) recvHello() (Hello, error) {
	b := make([]byte, helloSize)
	if n, err := io.ReadFull(c.nc, b); err != nil {
		if n > 0 {
			// The peer started a hello and stopped: that is a malformed
			// handshake (deterministic), not a transient network fault.
			return Hello{}, fmt.Errorf("transport: truncated handshake (%d of %d bytes): %w", n, helloSize, ErrHandshake)
		}
		return Hello{}, fmt.Errorf("transport: reading handshake: %w", err)
	}
	c.hsRecv += int64(helloSize)
	if string(b[:len(tcpMagic)]) != tcpMagic {
		return Hello{}, fmt.Errorf("transport: peer is not a federation endpoint (bad magic %q): %w", b[:len(tcpMagic)], ErrHandshake)
	}
	h := Hello{
		Version: binary.LittleEndian.Uint32(b[len(tcpMagic):]),
		DType:   tensor.DType(binary.LittleEndian.Uint32(b[len(tcpMagic)+4:])),
		Token:   binary.LittleEndian.Uint64(b[len(tcpMagic)+12:]),
	}
	// Field garbage behind a valid magic is still a rejection with a
	// precise reason, not a mysterious mismatch downstream.
	if !h.DType.Valid() {
		return Hello{}, fmt.Errorf("transport: handshake declares unknown dtype %d: %w", uint32(h.DType), ErrHandshake)
	}
	spec, err := comm.UnpackSpec(binary.LittleEndian.Uint32(b[len(tcpMagic)+8:]))
	if err != nil {
		return Hello{}, fmt.Errorf("transport: %v: %w", err, ErrHandshake)
	}
	h.Spec = spec
	return h, nil
}

// wrapIOErr marks timeout errors with ErrDeadline so callers can test
// with errors.Is instead of type-asserting net.Error.
func wrapIOErr(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("transport: %v: %w", err, ErrDeadline)
	}
	return fmt.Errorf("transport: %w", err)
}

func (c *tcpConn) Send(frame []byte) (int64, error) {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	var prefix [FrameOverhead]byte
	binary.LittleEndian.PutUint32(prefix[:], uint32(len(frame)))
	if _, err := c.nc.Write(prefix[:]); err != nil {
		return 0, wrapIOErr(err)
	}
	if _, err := c.nc.Write(frame); err != nil {
		return FrameOverhead, wrapIOErr(err)
	}
	return FrameOverhead + int64(len(frame)), nil
}

func (c *tcpConn) Recv() ([]byte, int64, error) {
	var prefix [FrameOverhead]byte
	if _, err := io.ReadFull(c.nc, prefix[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, wrapIOErr(err)
	}
	n := int64(binary.LittleEndian.Uint32(prefix[:]))
	if n > c.limit {
		return nil, FrameOverhead, fmt.Errorf("transport: peer declared a %d-byte frame, connection limit is %d", n, c.limit)
	}
	b := c.free.take(int(n))
	if b == nil {
		b = make([]byte, n)
	}
	b = b[:n]
	if _, err := io.ReadFull(c.nc, b); err != nil {
		c.free.put(b)
		return nil, FrameOverhead, wrapIOErr(err)
	}
	return b, FrameOverhead + n, nil
}

// Release puts a received frame's buffer back on the connection's free list.
func (c *tcpConn) Release(frame []byte) { c.free.put(frame) }

func (c *tcpConn) Close() error { return c.nc.Close() }

func (c *tcpConn) SetReadDeadline(t time.Time) error  { return c.nc.SetReadDeadline(t) }
func (c *tcpConn) SetWriteDeadline(t time.Time) error { return c.nc.SetWriteDeadline(t) }

func (c *tcpConn) Hello() Hello { return c.peer }

func (c *tcpConn) HandshakeBytes() (int64, int64) { return c.hsSent, c.hsRecv }
