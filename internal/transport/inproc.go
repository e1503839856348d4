package transport

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"
)

// The inproc transport: frames move over in-memory channels between
// goroutines of one process. Each Inproc instance is its own namespace of
// addresses, so tests and in-process federations never collide. Delivery
// is ordered and lossless; byte accounting uses the same FrameOverhead
// arithmetic as tcp so ledgers agree across transports (there are no
// handshake bytes — both ends live in one process and the compatibility
// check happens synchronously at Dial).

// Inproc is a channel-based Transport for nodes sharing one process.
type Inproc struct {
	opts Options

	mu        sync.Mutex
	listeners map[string]*inprocListener
}

// NewInproc builds an isolated in-process transport namespace.
func NewInproc(opts Options) *Inproc {
	return &Inproc{opts: opts.withDefaults(), listeners: make(map[string]*inprocListener)}
}

// Name reports "inproc".
func (t *Inproc) Name() string { return "inproc" }

// Listen binds a name in this transport's namespace.
func (t *Inproc) Listen(addr string) (Listener, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.listeners[addr]; ok {
		return nil, fmt.Errorf("transport: inproc address %q already bound", addr)
	}
	ln := &inprocListener{
		tr:      t,
		opts:    t.opts,
		addr:    addr,
		backlog: make(chan *inprocConn, 16),
		done:    make(chan struct{}),
	}
	t.listeners[addr] = ln
	return ln, nil
}

// Dial connects to a listener in this namespace. The handshake is a
// synchronous compatibility check against the options the listener was
// bound with — within one namespace they usually coincide, but a test or
// harness that wires two endpoints with different options together still
// fails loudly instead of corrupting payloads.
func (t *Inproc) Dial(ctx context.Context, addr string) (Conn, error) {
	return t.dial(ctx, addr, 0)
}

// DialSession dials presenting a per-call session token in the hello,
// within this instance's namespace.
func (t *Inproc) DialSession(ctx context.Context, addr string, token uint64) (Conn, error) {
	return t.dial(ctx, addr, token)
}

func (t *Inproc) dial(ctx context.Context, addr string, token uint64) (Conn, error) {
	t.mu.Lock()
	ln := t.listeners[addr]
	t.mu.Unlock()
	if ln == nil {
		return nil, fmt.Errorf("transport: no inproc listener at %q", addr)
	}
	hello := Hello{Version: Version, DType: t.opts.DType, Spec: t.opts.Spec, Token: token}
	if err := checkHello(hello, ln.opts); err != nil {
		return nil, err
	}
	// One buffered channel per direction; capacity bounds in-flight frames,
	// and a full channel applies real backpressure to the sender.
	pipe := &pipeState{closed: make(chan struct{})}
	c2s, s2c := &pipe.lanes[0], &pipe.lanes[1]
	c2s.frames = make(chan []byte, 64)
	s2c.frames = make(chan []byte, 64)
	// Each end holds its peer's hello: the dialer the listener's, which
	// presents no token, as a tcp listener's does.
	dialer := &inprocConn{send: c2s, recv: s2c, pipe: pipe, peer: Hello{Version: Version, DType: ln.opts.DType, Spec: ln.opts.Spec}}
	accepted := &inprocConn{send: s2c, recv: c2s, pipe: pipe, peer: hello}
	select {
	case ln.backlog <- accepted:
		return dialer, nil
	case <-ln.done:
		return nil, fmt.Errorf("transport: inproc listener at %q: %w", addr, ErrClosed)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

type inprocListener struct {
	tr      *Inproc
	opts    Options // the options the listener was bound with
	addr    string
	backlog chan *inprocConn
	done    chan struct{}
	once    sync.Once
}

func (l *inprocListener) Accept() (Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, fmt.Errorf("transport: inproc listener at %q: %w", l.addr, ErrClosed)
	}
}

func (l *inprocListener) Addr() string { return l.addr }

func (l *inprocListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.tr.mu.Lock()
		delete(l.tr.listeners, l.addr)
		l.tr.mu.Unlock()
	})
	return nil
}

// pipeState is what the two endpoints of one inproc connection share: the
// teardown signal (closing either side tears the pipe down, like a socket)
// and one lane per direction.
type pipeState struct {
	once   sync.Once
	closed chan struct{}
	lanes  [2]lane
}

func (p *pipeState) close() { p.once.Do(func() { close(p.closed) }) }

// lane is one direction of an inproc connection: the frames in flight and
// the free list their copies cycle through. The sender copies every frame
// that is not lent into a buffer it takes from the list; the receiver puts
// that buffer back when it releases the frame. A lent frame crosses as it
// lies and never enters the list.
type lane struct {
	frames chan []byte
	freeList
}

// freeList is a connection's spare frame buffers: inproc's per lane, tcp's
// per connection for what it reads. Two slots, so a direction that
// alternates a model-sized frame with a control frame keeps one buffer of
// each size instead of growing the small one every round.
type freeList struct {
	mu   sync.Mutex
	free [2][]byte
}

// freeSlack is how many times its frame's size a free buffer may be and
// still be taken for it. A control frame that took the model-sized buffer
// would leave the model frame that follows it — arriving before the control
// frame is released — without one, so whether a connection grew a second
// model-sized buffer would depend on goroutine timing. A frame a quarter
// of its buffer (an aggregate in the buffer its subtree's join grew) still
// reuses it.
const freeSlack = 16

// take removes and returns the tightest free buffer that holds n bytes and
// is at most freeSlack times n, or nil when neither is.
func (l *freeList) take(n int) []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	best := -1
	for i, b := range l.free {
		if c := cap(b); c >= n && c <= freeSlack*n && (best < 0 || c < cap(l.free[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	b := l.free[best]
	l.free[best] = nil
	return b
}

// put returns a released frame's buffer to the list, displacing the smaller
// resident when both slots are taken.
func (l *freeList) put(b []byte) {
	if cap(b) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	small := 0
	if cap(l.free[1]) < cap(l.free[0]) {
		small = 1
	}
	if cap(b) > cap(l.free[small]) {
		l.free[small] = b
	}
}

// inprocConn is one endpoint: the lane it sends on and the lane it
// receives from.
type inprocConn struct {
	send *lane
	recv *lane
	pipe *pipeState
	peer Hello

	mu            sync.Mutex
	readDeadline  time.Time
	writeDeadline time.Time

	// sendTimer and recvTimer are the two directions' deadline timers, each
	// built by the first deadline-bounded call and Reset by the later ones.
	// Each is touched only by its direction's single caller.
	sendTimer, recvTimer *time.Timer
}

// arm points the direction's timer at the deadline and returns its channel,
// or nil (a never-ready select case) when no deadline is set. A Reset timer
// delivers no stale tick (go 1.23 timer semantics), so there is nothing to
// drain.
func arm(t **time.Timer, dl time.Time) <-chan time.Time {
	if dl.IsZero() {
		return nil
	}
	if *t == nil {
		*t = time.NewTimer(time.Until(dl))
	} else {
		(*t).Reset(time.Until(dl))
	}
	return (*t).C
}

// disarm stops a direction's timer once its call is over, if it has one.
func disarm(t *time.Timer) {
	if t != nil {
		t.Stop()
	}
}

// Send hands the receiver a lent frame itself, counting it held until the
// receiver releases it. Any other frame is copied at the boundary — the
// receiver must never observe a sender-side mutation, exactly as bytes on a
// socket would not — into a buffer recycled through the lane's free list.
// A Send that fails keeps nothing: the frame is the caller's, and not held.
func (c *inprocConn) Send(frame []byte) (int64, error) {
	select {
	case <-c.pipe.closed:
		return 0, io.ErrClosedPipe
	default:
	}
	b, held := frame, loanOf(frame)
	if held != nil {
		held.Add(1)
	} else {
		// A lane with no buffer to spare grows one by append, which does not
		// clear what the copy is about to overwrite.
		b = append(c.send.take(len(frame))[:0], frame...)
	}
	c.mu.Lock()
	dl := c.writeDeadline
	c.mu.Unlock()
	expire := arm(&c.sendTimer, dl)
	defer disarm(c.sendTimer)
	var err error
	select {
	case c.send.frames <- b:
		return FrameOverhead + int64(len(b)), nil
	case <-expire:
		err = fmt.Errorf("transport: inproc send: %w", ErrDeadline)
	case <-c.pipe.closed:
		err = io.ErrClosedPipe
	}
	if held != nil {
		held.Add(-1)
	} else {
		c.send.put(b)
	}
	return 0, err
}

func (c *inprocConn) Recv() ([]byte, int64, error) {
	c.mu.Lock()
	dl := c.readDeadline
	c.mu.Unlock()
	expire := arm(&c.recvTimer, dl)
	defer disarm(c.recvTimer)
	select {
	case b := <-c.recv.frames:
		return b, FrameOverhead + int64(len(b)), nil
	case <-expire:
		return nil, 0, fmt.Errorf("transport: inproc recv: %w", ErrDeadline)
	case <-c.pipe.closed:
		// Drain frames that were already in flight before the close, so a
		// graceful shutdown message is not lost to a racing Close.
		select {
		case b := <-c.recv.frames:
			return b, FrameOverhead + int64(len(b)), nil
		default:
			return nil, 0, io.EOF
		}
	}
}

// Release ends the receiver's hold on a lent frame, and puts a copied
// frame's buffer back on its lane's free list.
func (c *inprocConn) Release(frame []byte) {
	if held := loanOf(frame); held != nil {
		held.Add(-1)
		return
	}
	c.recv.put(frame)
}

// LaneSpares reports the capacity of each spare buffer the lane c receives
// on keeps for the copies its peer's Sends make, or nil when c is no inproc
// connection. It is a test instrument: the root package's
// TestInprocLanesKeepNoModelBuffer reads every lane of a tree federation
// with it.
func LaneSpares(c Conn) []int {
	ic, ok := c.(*inprocConn)
	if !ok {
		return nil
	}
	l := &ic.recv.freeList
	l.mu.Lock()
	defer l.mu.Unlock()
	var caps []int
	for _, b := range l.free {
		if cap(b) > 0 {
			caps = append(caps, cap(b))
		}
	}
	return caps
}

func (c *inprocConn) Close() error {
	c.pipe.close()
	return nil
}

func (c *inprocConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return nil
}

func (c *inprocConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDeadline = t
	c.mu.Unlock()
	return nil
}

func (c *inprocConn) Hello() Hello { return c.peer }

func (c *inprocConn) HandshakeBytes() (int64, int64) { return 0, 0 }
