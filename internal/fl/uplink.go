package fl

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// uplink is the link a node keeps to whoever is above it — a ClientNode's
// to its server or aggregator, an AggregatorNode's to the root — written
// once for both. It owns the connection and its incarnation counter, the
// read pump bounded by the announced dead interval, the deadline-bounded
// send, welcome/resume validation with token intake, the heartbeat echo,
// and the re-dial rule:
//
//	a lost connection is re-dialed with the session token (a fresh join
//	is due instead while no token was granted) until the node's stop
//	acknowledgement has been sent; a re-dial that fails ends the node.
//
// There is no "unless stopping" clause: a node that lost its link after
// the stop reached it still owes the acknowledgement, and the peer above is
// holding the session open for exactly that re-dial.
//
// Everything except the pump and dial goroutines runs on the owning role's
// event-loop goroutine, which selects on frames and dials.
type uplink struct {
	ctx    context.Context
	cancel context.CancelFunc
	// who names the node in errors ("client 3", "aggregator 1"); algo is
	// the algorithm it runs, checked against every welcome.
	who     string
	algo    string
	lossy   bool
	dialer  func(ctx context.Context, token uint64) (transport.Conn, error)
	onToken func(uint64)

	conn    transport.Conn
	gen     int
	dialing bool
	token   uint64
	// wc frames what this connection carries up. It is rebuilt per
	// connection: delta bases die with it, so the first upload after a
	// reconnect goes dense — matching the equally fresh decoder above.
	wc *wireCodec
	// out is the frame a client's upload is encoded into, lent to the peer
	// above (lendMsg), and ctl the one every other uncached message the role
	// sends up is; each comes into being with its first send.
	out, ctl []byte
	// deadMs is the announced dead interval in milliseconds, read by the
	// pump to bound each Recv (atomic: the event loop stores it when a
	// welcome arrives).
	deadMs atomic.Int64

	frames chan upFrame
	dials  chan upDial
	// err is the link's terminal state: no dialer to re-dial with, a failed
	// re-dial, a refusal or a protocol violation from above, cancellation.
	err error
}

// upFrame is one pump delivery: a decoded message, the error that ended the
// connection (err), or the reason a frame did not decode (bad). gen stamps
// the connection incarnation so frames from an abandoned connection are
// recognizable.
type upFrame struct {
	gen int
	m   *wireMsg
	err error
	bad error
}

// upDial is one dial-goroutine delivery; cause is the loss that triggered
// the dial (nil for a first dial).
type upDial struct {
	conn  transport.Conn
	cause error
	err   error
}

// newUplink builds a link for the node named who, running algo, holding
// token (0: none granted yet).
func newUplink(ctx context.Context, who string, algo WireAlgorithm, token uint64,
	dialer func(context.Context, uint64) (transport.Conn, error), onToken func(uint64)) *uplink {
	u := &uplink{
		who:     who,
		algo:    algo.Name(),
		lossy:   lossyUploads(algo),
		token:   token,
		dialer:  dialer,
		onToken: onToken,
		frames:  make(chan upFrame, 4), // lets the pump run a few frames ahead of a busy event loop
		dials:   make(chan upDial, 1),
	}
	u.ctx, u.cancel = context.WithCancel(ctx)
	return u
}

// close ends the link for good: the connection closes (its pump's Recv
// fails), and cancellation releases a pump or dial blocked on delivery.
func (u *uplink) close() {
	u.cancel()
	if u.conn != nil {
		u.conn.Close()
		u.conn = nil
	}
}

// fail records the link's terminal error (the first one wins).
func (u *uplink) fail(format string, args ...any) {
	if u.err == nil {
		u.err = fmt.Errorf("fl: "+u.who+": "+format, args...)
	}
}

// dial starts one asynchronous dial attempt presenting the held token.
func (u *uplink) dial(cause error) {
	u.dialing = true
	token := u.token
	go func() {
		conn, err := u.dialer(u.ctx, token)
		select {
		case u.dials <- upDial{conn: conn, cause: cause, err: err}:
		case <-u.ctx.Done():
			if conn != nil {
				conn.Close()
			}
		}
	}()
}

// dialed takes one dial delivery: a failed dial ends the node, a connection
// becomes the link. It reports whether a fresh join is due — no token was
// ever granted, so there is no session to resume (a pre-assembly join is
// idempotent above).
func (u *uplink) dialed(d upDial) (join bool) {
	u.dialing = false
	switch {
	case d.err != nil && u.ctx.Err() != nil:
		u.err = u.ctx.Err()
	case d.err != nil && d.cause != nil:
		u.fail("reconnect after %v: %w", d.cause, d.err)
	case d.err != nil:
		u.fail("upstream dial: %w", d.err)
	default:
		return u.attach(d.conn)
	}
	return false
}

// attach makes conn the link's connection and starts its pump.
func (u *uplink) attach(conn transport.Conn) (join bool) {
	u.conn = conn
	u.gen++
	u.wc = newWireCodec(conn.Hello().Spec, u.lossy)
	go u.pump(u.gen, conn)
	return u.token == 0
}

// pump moves one connection's messages into the event loop until it dies,
// releasing each frame once it is decoded, unless its message holds it
// (readMsg) until the role releases the message. Once a welcome
// announced the dead interval it bounds every read: a peer that goes silent
// — not merely slow — trips the deadline and is re-dialed.
func (u *uplink) pump(gen int, conn transport.Conn) {
	for {
		if d := u.deadMs.Load(); d > 0 {
			conn.SetReadDeadline(time.Now().Add(time.Duration(d) * time.Millisecond))
		}
		f := upFrame{gen: gen}
		var b []byte
		if b, _, f.err = conn.Recv(); f.err == nil {
			f.m, f.bad = readMsg(conn, b, nil) // nothing sent down is sparse or delta framed
		}
		select {
		case u.frames <- f:
		case <-u.ctx.Done():
			return
		}
		if f.err != nil || f.bad != nil {
			return
		}
	}
}

// sendMsg encodes one control message into the link's control frame and
// sends it up.
func (u *uplink) sendMsg(m *wireMsg) bool {
	u.ctl = appendMsg(u.ctl[:0], m, u.wc)
	return u.send(u.ctl)
}

// sendUpload encodes an upload into the link's upload frame and hands it
// over: lent, it crosses an inproc lane as it lies, and the next upload
// reuses it once the peer above released it.
func (u *uplink) sendUpload(m *wireMsg) bool {
	u.out = lendMsg(u.out, m, u.wc)
	return u.send(u.out)
}

// send writes one frame up, bounded by the announced dead interval (by
// joinTimeout before any welcome). A failure loses the connection; the
// frame stays owed — every upstream frame is either re-derivable or cached
// by its role, and the peer above replays on adoption what prompts it.
func (u *uplink) send(frame []byte) bool {
	if u.conn == nil {
		return false
	}
	d := time.Duration(u.deadMs.Load()) * time.Millisecond
	if d <= 0 {
		d = joinTimeout
	}
	u.conn.SetWriteDeadline(time.Now().Add(d))
	if _, err := u.conn.Send(frame); err != nil {
		u.lost(err)
		return false
	}
	u.conn.SetWriteDeadline(time.Time{})
	return true
}

// lost tears the connection down and applies the re-dial rule.
func (u *uplink) lost(cause error) {
	if u.conn != nil {
		u.conn.Close()
		u.conn = nil
	}
	u.gen++
	switch {
	case u.ctx.Err() != nil:
		u.err = u.ctx.Err()
	case u.dialer == nil:
		u.fail("connection lost: %v", cause)
	case !u.dialing && u.err == nil:
		u.dial(cause)
	}
}

// receive turns one pump delivery into the message the role must act on,
// or nil when the link consumed it: a stale generation, a lost connection,
// a heartbeat (echoed verbatim — traffic is the liveness signal, and the
// echo keeps flowing while the role is busy), a refusal. A welcome or
// resume is validated and its token and dead interval taken in before the
// role sees it.
func (u *uplink) receive(f upFrame) *wireMsg {
	m := f.m
	if f.gen != u.gen {
		m.release()
		return nil
	}
	if f.err != nil {
		u.lost(f.err)
		return nil
	}
	if f.bad != nil {
		u.fail("upstream frame: %w", f.bad)
		return nil
	}
	switch m.kind {
	case msgHeartbeat:
		u.sendMsg(&wireMsg{kind: msgHeartbeat, a: m.a})
		return nil
	case msgErr:
		u.fail("refused by server: %s", m.name)
		return nil
	case msgWelcome, msgResume:
		if len(m.ints) != welIntCount {
			u.fail("malformed welcome")
			return nil
		}
		if m.name != u.algo {
			u.fail("runs %q, the federation runs %q", u.algo, m.name)
			return nil
		}
		u.deadMs.Store(m.ints[welDeadMs])
		if tok := uint64(m.ints[welToken]); tok != 0 && tok != u.token {
			u.token = tok
			if u.onToken != nil {
				u.onToken(tok)
			}
		}
	}
	return m
}
