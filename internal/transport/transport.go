// Package transport is the federation's wire seam: a frame-oriented
// connection abstraction between a server node and its client nodes, with
// two implementations. The inproc transport moves frames over in-memory
// channels inside one process — it is fully deterministic (a single reader
// observes a single writer's frames in order, with no timeouts or partial
// reads) and is what the node tests and `fedsim -transport tcp`'s cheaper
// sibling build on. The tcp transport moves the same frames over real
// sockets with length-prefixed framing, a version/dtype/codec handshake,
// per-connection read limits and context-aware dialing — the multi-process
// `fedserver`/`fedclient` deployment.
//
// The transport layer is payload-agnostic: a frame is an opaque byte slice.
// The federation's message envelope (joins, dispatches, updates) lives in
// internal/fl, and the payload vectors inside those messages are
// internal/comm codec frames. What transport adds on the wire is exactly
// FrameOverhead bytes per frame (the length prefix) plus the fixed-size
// handshake per connection — both reported to callers so traffic ledgers
// can account every byte that actually crosses the wire.
package transport

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/tensor"
)

// ErrClosed marks errors caused by a closed listener or connection, so
// callers can tell a dead endpoint (fatal: stop accepting) from one bad
// peer (tolerable: keep accepting). Test with errors.Is.
var ErrClosed = errors.New("endpoint closed")

// ErrHandshake marks a connection that reached the peer but was rejected
// during the handshake (version/dtype/codec mismatch, bad magic). The
// rejection is deterministic — retrying the dial cannot succeed — so
// callers should fail immediately instead of retrying. Test with
// errors.Is.
var ErrHandshake = errors.New("handshake rejected")

// ErrDeadline marks a Send or Recv that missed a deadline set via
// SetReadDeadline/SetWriteDeadline. The connection may still be usable
// (tcp leaves the socket open), but the federation layer treats a missed
// heartbeat deadline as a dead peer. Test with errors.Is.
var ErrDeadline = errors.New("deadline exceeded")

// Version is the wire-protocol generation spoken by this build. Both ends
// of a tcp connection must agree; the handshake rejects mismatches.
// Version 2 added the session-token word to the hello (magic "FEDWIRE2"),
// so a v1 peer fails the magic check before it can misparse the longer
// hello. Version 3 added the tree-topology envelope kinds (tree join,
// batched dispatch, aggregated update, passthrough bundle); the hello
// layout is unchanged, and flat clients speak v3 untouched — the bump
// only fences v2 peers, which would drop the new kinds as unknown.
// Version 4 widened the hello's codec word to a packed comm.Spec (top-k
// fraction and delta flag alongside the value codec) and added the TOPK
// and DELTA frame families. The hello layout is again unchanged and a
// plain dense spec packs to the bare codec value, but a v3 peer would
// truncate the packed word to its low byte and silently misread a sparse
// negotiation — the bump turns that corruption into a clean rejection.
// Version 5 added the shared layout of the batched tree dispatch (one
// payload for every member of a subtree, marked in the envelope's b slot).
// The hello layout is again unchanged, but a v4 aggregator ignores the mark
// and would read the frame as a batch whose members have no payload counts —
// so the magic moves to "FEDWIRE5" and a v4 peer is refused at the hello.
const Version = 5

// FrameOverhead is the per-frame wire overhead: the uint32 length prefix.
// The inproc transport books the same arithmetic so byte accounting is
// transport-independent for frames (inproc has no handshake bytes).
const FrameOverhead = 4

// DefaultMaxFrame is the default per-connection read limit. A peer
// declaring a larger frame is cut off before the read buffer grows — the limit
// bounds memory, not correctness (the largest legitimate frame is a full
// model broadcast, far below this).
const DefaultMaxFrame = 64 << 20

// Options configure an endpoint. The zero value is a float64/f64-codec
// endpoint with the default read limit.
type Options struct {
	// DType is the model element type this endpoint trains or serves.
	// Handshakes reject peers at a different dtype — silently mixing f32
	// and f64 nodes would corrupt parity, exactly like resuming a
	// checkpoint at the wrong dtype.
	DType tensor.DType
	// Spec is the payload framing this endpoint speaks: the dense value
	// codec plus optional top-k sparsification and delta framing. Both
	// ends must agree so ledger accounting, dequantization and delta
	// basis tracking match. The zero value is plain dense f64.
	Spec comm.Spec
	// MaxFrame caps the size of any single received frame in bytes
	// (default DefaultMaxFrame).
	MaxFrame int64
}

func (o Options) withDefaults() Options {
	if o.MaxFrame <= 0 {
		o.MaxFrame = DefaultMaxFrame
	}
	return o
}

// Hello is the negotiated handshake: what the peer declared at connect
// time, after validation against the local options.
type Hello struct {
	Version uint32
	DType   tensor.DType
	Spec    comm.Spec
	// Token is the session token the peer presented: 0 for a fresh
	// connection, a server-issued token when a client reconnects to resume
	// its federation session. On an accepted connection this is the
	// dialer's claim; a listener always presents zero. The handshake
	// carries it as opaque data — the federation layer decides what a
	// nonzero token resumes (a token is an identity claim, not a
	// compatibility property).
	Token uint64
}

// Conn is one frame-oriented connection. Send and Recv may be used
// concurrently with each other (one writer, one reader); neither is safe
// for concurrent use with itself. Both return the wire bytes moved,
// framing overhead included, so callers can account real traffic.
type Conn interface {
	// Send writes one frame and returns the bytes put on the wire
	// (FrameOverhead + len(frame)). Who owns the frame afterwards depends on
	// its buffer:
	//   - A frame whose buffer is not lent (Lend) is the caller's again when
	//     Send returns: no transport keeps a reference to it, and the inproc
	//     transport delivers a copy.
	//   - A lent frame crosses an inproc connection as it lies: the receiver
	//     reads the caller's buffer, which stays held (Held) until the
	//     receiver releases it. A buffer sent to k connections, or k times,
	//     is held until the k-th release, and the caller rewrites it only
	//     when Held reports it free. A tcp Send writes the bytes out and
	//     holds nothing.
	//   - A Send that fails keeps nothing: the frame is the caller's, and a
	//     lent one is not held.
	// The chaos wrapper fails a send it drops before the frame reaches the
	// connection it wraps, so the frame stays the caller's. It delays a
	// frame without changing who holds it. It releases a received frame it
	// drops before it closes the connection. A duplicate it delivers is its
	// own copy, so the duplicate's release ends no hold on the caller's
	// buffer.
	Send(frame []byte) (int64, error)
	// Recv reads the next frame and returns the wire bytes consumed. The
	// frame belongs to the caller until it hands it back with Release,
	// however many Recvs later: a reader may read a frame where it lies
	// instead of copying it out first. A cleanly closed peer yields io.EOF.
	Recv() ([]byte, int64, error)
	// Release hands back a frame Recv returned; the connection may reuse
	// its memory for a later frame, so nothing may read it afterwards.
	// Release each frame at most once. A frame never released is left to
	// the garbage collector, and a later Recv grows a buffer of its own.
	// Release may run concurrently with Send and Recv, and after Close.
	Release(frame []byte)
	// Close tears the connection down, unblocking any pending Recv.
	Close() error
	// SetReadDeadline bounds every subsequent Recv: a Recv not completed by
	// t fails with an error satisfying errors.Is(err, ErrDeadline). The
	// zero time clears the deadline. This is the failure-discipline seam —
	// a peer that stops sending (hung) is distinguished from one that sends
	// slowly (alive) by whether traffic arrives before the deadline.
	SetReadDeadline(t time.Time) error
	// SetWriteDeadline bounds every subsequent Send the same way.
	SetWriteDeadline(t time.Time) error
	// Hello reports the peer's negotiated handshake.
	Hello() Hello
	// HandshakeBytes reports the wire bytes the handshake itself moved
	// (sent, received). Zero on the inproc transport.
	HandshakeBytes() (sent, received int64)
}

// Listener accepts connections, performing the handshake before returning
// them.
type Listener interface {
	// Accept blocks for the next handshaken connection.
	Accept() (Conn, error)
	// Addr reports the bound address (for tcp, the concrete port when
	// listening on :0).
	Addr() string
	// Close stops accepting and unblocks a pending Accept.
	Close() error
}

// Transport builds listeners and outbound connections.
type Transport interface {
	// Name is the flag value naming this transport ("inproc" | "tcp").
	Name() string
	// Listen binds addr and starts accepting.
	Listen(addr string) (Listener, error)
	// Dial connects (and handshakes) to a listener; ctx bounds the attempt.
	Dial(ctx context.Context, addr string) (Conn, error)
}

// SessionDialer is implemented by transports whose Dial can present a
// per-call session token; a plain Dial presents zero. A client learns its
// token only after the first welcome, long after the transport was
// constructed — reconnects need to attach it per dial.
type SessionDialer interface {
	DialSession(ctx context.Context, addr string, token uint64) (Conn, error)
}

// DialWithToken dials addr presenting token in the hello when the
// transport supports per-dial tokens. A zero token (or a transport
// without per-dial support) falls back to a plain Dial, which presents
// zero.
func DialWithToken(ctx context.Context, tr Transport, addr string, token uint64) (Conn, error) {
	if sd, ok := tr.(SessionDialer); ok && token != 0 {
		return sd.DialSession(ctx, addr, token)
	}
	return tr.Dial(ctx, addr)
}

// ParseName validates a -transport flag value.
func ParseName(s string) (string, error) {
	switch s {
	case "inproc", "":
		return "inproc", nil
	case "tcp":
		return "tcp", nil
	}
	return "", fmt.Errorf("transport: unknown transport %q (want inproc | tcp)", s)
}

// checkHello validates a peer's handshake against local options.
func checkHello(peer Hello, local Options) error {
	if peer.Version != Version {
		return fmt.Errorf("transport: peer speaks protocol version %d, this build speaks %d: %w", peer.Version, Version, ErrHandshake)
	}
	if peer.DType != local.DType {
		return fmt.Errorf("transport: peer trains at dtype %s, this endpoint at %s: %w", peer.DType, local.DType, ErrHandshake)
	}
	if peer.Spec != local.Spec {
		return fmt.Errorf("transport: peer frames payloads as %s, this endpoint as %s: %w", peer.Spec, local.Spec, ErrHandshake)
	}
	return nil
}
