package transport

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Chaos wraps any Transport with deterministic fault injection at frame
// boundaries, for driving the federation's failure paths in tests and the
// CI chaos job. Faults are drawn from seeded per-connection RNG streams,
// so a chaos run is reproducible: the same seed injects the same faults
// at the same frame indices regardless of real scheduling.
//
// The protocol assumes reliable in-order delivery, so a "dropped" frame
// is modeled the way TCP surfaces it: the connection dies (the frame is
// discarded and the underlying conn closed), forcing the reconnect
// machinery rather than silently corrupting the stream. Duplicates
// redeliver the previous frame — exercising the receivers' tolerance for
// replayed messages after a reconnect resend. Delays sleep a bounded,
// seeded amount before delivery — exercising deadlines without killing
// the peer. Partitions fail dial attempts — exercising backoff budgets.

// ChaosConfig sets per-event fault probabilities. All probabilities are
// in [0, 1); zero disables that fault.
type ChaosConfig struct {
	// Seed drives every fault stream. Connections get distinct,
	// deterministic substreams by connection index.
	Seed int64
	// Drop is the per-frame probability (on both Send and Recv) that the
	// frame is lost and the connection is torn down.
	Drop float64
	// Delay is the per-frame probability of a delivery delay, uniform in
	// (0, MaxDelay].
	Delay float64
	// MaxDelay bounds an injected delay (default 50ms).
	MaxDelay time.Duration
	// Dup is the per-frame probability (on Recv) that the frame is
	// delivered twice.
	Dup float64
	// Partition is the per-dial probability that the attempt fails as if
	// the network were partitioned.
	Partition float64
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.MaxDelay <= 0 {
		c.MaxDelay = 50 * time.Millisecond
	}
	return c
}

// Chaos is the fault-injecting Transport wrapper.
type Chaos struct {
	inner Transport
	cfg   ChaosConfig

	mu      sync.Mutex
	dialRng *rand.Rand
	conns   int64
}

// NewChaos wraps a transport with fault injection.
func NewChaos(inner Transport, cfg ChaosConfig) *Chaos {
	cfg = cfg.withDefaults()
	return &Chaos{inner: inner, cfg: cfg, dialRng: rand.New(rand.NewSource(cfg.Seed))}
}

// Name reports the wrapped transport's name — a chaos endpoint speaks the
// same protocol, it just breaks on schedule.
func (t *Chaos) Name() string { return t.inner.Name() }

// Listen wraps the inner listener so accepted connections inject faults.
func (t *Chaos) Listen(addr string) (Listener, error) {
	ln, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &chaosListener{ln: ln, tr: t}, nil
}

// Dial connects through the partition schedule: a partitioned attempt
// fails before touching the network (the caller's backoff handles it).
func (t *Chaos) Dial(ctx context.Context, addr string) (Conn, error) {
	return t.dialVia(addr, func() (Conn, error) { return t.inner.Dial(ctx, addr) })
}

// DialSession passes a per-call session token through to the inner
// transport (chaos endpoints reconnect like real ones).
func (t *Chaos) DialSession(ctx context.Context, addr string, token uint64) (Conn, error) {
	return t.dialVia(addr, func() (Conn, error) { return DialWithToken(ctx, t.inner, addr, token) })
}

func (t *Chaos) dialVia(addr string, dial func() (Conn, error)) (Conn, error) {
	t.mu.Lock()
	partitioned := t.cfg.Partition > 0 && t.dialRng.Float64() < t.cfg.Partition
	t.mu.Unlock()
	if partitioned {
		return nil, fmt.Errorf("transport: chaos: injected partition dialing %s", addr)
	}
	conn, err := dial()
	if err != nil {
		return nil, err
	}
	return t.wrap(conn), nil
}

// wrap builds a chaos connection with its own deterministic fault
// streams, derived from the chaos seed and the connection index.
func (t *Chaos) wrap(conn Conn) Conn {
	t.mu.Lock()
	idx := t.conns
	t.conns++
	t.mu.Unlock()
	return &chaosConn{
		Conn:    conn,
		cfg:     t.cfg,
		sendRng: rand.New(rand.NewSource(t.cfg.Seed ^ (idx*2 + 1))),
		recvRng: rand.New(rand.NewSource(t.cfg.Seed ^ (idx*2 + 2))),
	}
}

type chaosListener struct {
	ln Listener
	tr *Chaos
}

func (l *chaosListener) Accept() (Conn, error) {
	conn, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	return l.tr.wrap(conn), nil
}

func (l *chaosListener) Addr() string { return l.ln.Addr() }
func (l *chaosListener) Close() error { return l.ln.Close() }

// chaosConn injects faults around an inner connection. Send and Recv own
// separate RNG streams (they may run concurrently); each is used only
// under its caller's single-goroutine contract. A lent frame (Lend) meets
// the same faults as any other: a send dropped before the inner Send fails
// with the frame still the caller's, a dropped received frame is released
// to the inner connection, a delay only holds it longer, and a duplicate
// is this connection's own copy — the reader may release the original, and
// so end its hold on the sender's buffer, before the copy is delivered.
type chaosConn struct {
	Conn
	cfg     ChaosConfig
	sendRng *rand.Rand
	recvRng *rand.Rand
	// replay is the connection's own copy of a duplicated frame — the reader
	// may release the original before the copy is delivered — and replaying
	// marks it as awaiting redelivery. Delivered, a copy is the reader's
	// like any frame (lent, by first byte); released, its buffer goes to
	// spares for the duplicates after it. mu guards lent, which Release
	// touches; spares locks itself.
	replay     []byte
	replayWire int64
	replaying  bool
	spares     freeList
	mu         sync.Mutex
	lent       map[*byte]bool
}

func (c *chaosConn) Send(frame []byte) (int64, error) {
	if c.cfg.Drop > 0 && c.sendRng.Float64() < c.cfg.Drop {
		c.Conn.Close()
		return 0, fmt.Errorf("transport: chaos: injected connection loss on send")
	}
	if c.cfg.Delay > 0 && c.sendRng.Float64() < c.cfg.Delay {
		time.Sleep(time.Duration(c.sendRng.Int63n(int64(c.cfg.MaxDelay))) + 1)
	}
	return c.Conn.Send(frame)
}

func (c *chaosConn) Recv() ([]byte, int64, error) {
	if c.replaying {
		c.replaying = false
		if len(c.replay) > 0 {
			c.mu.Lock()
			if c.lent == nil {
				c.lent = make(map[*byte]bool)
			}
			c.lent[&c.replay[0]] = true
			c.mu.Unlock()
		}
		return c.replay, c.replayWire, nil
	}
	b, wire, err := c.Conn.Recv()
	if err != nil {
		return b, wire, err
	}
	if c.cfg.Drop > 0 && c.recvRng.Float64() < c.cfg.Drop {
		c.Conn.Release(b)
		c.Conn.Close()
		return nil, 0, fmt.Errorf("transport: chaos: injected connection loss on recv")
	}
	if c.cfg.Delay > 0 && c.recvRng.Float64() < c.cfg.Delay {
		time.Sleep(time.Duration(c.recvRng.Int63n(int64(c.cfg.MaxDelay))) + 1)
	}
	if c.cfg.Dup > 0 && c.recvRng.Float64() < c.cfg.Dup {
		c.replay = append(c.spares.take(len(b))[:0], b...)
		c.replayWire, c.replaying = wire, true
	}
	return b, wire, nil
}

// Release keeps a released replay copy's buffer for the duplicates to come
// and hands every other frame to the inner connection.
func (c *chaosConn) Release(frame []byte) {
	c.mu.Lock()
	mine := len(frame) > 0 && c.lent[&frame[0]]
	if mine {
		delete(c.lent, &frame[0])
	}
	c.mu.Unlock()
	if mine {
		c.spares.put(frame)
	} else {
		c.Conn.Release(frame)
	}
}
