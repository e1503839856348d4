package main

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/transport"
)

// This file holds every shim the benchmark puts around a public seam of the
// program under test. Nothing under internal/ knows it is being measured.

// roundClock is the end-to-end run's only instrumentation on the inproc
// engine: the moment the first round opens and one timestamp per commit.
type roundClock struct {
	open     time.Time
	openCtrs procCounters
	marks    []time.Time
}

func newRoundClock(rounds int) *roundClock {
	return &roundClock{marks: make([]time.Time, 0, rounds)}
}

// opened stamps the first round's opening: everything before it is set-up.
func (c *roundClock) opened() {
	c.openCtrs = readCounters()
	c.open = time.Now()
}

func (c *roundClock) commit() { c.marks = append(c.marks, time.Now()) }

// traceCtx links the spans of one traced run: the round in progress, the
// sync round's span, and per client the span of the dispatch or local
// update in flight — what a nested optimizer step or client build names as
// its parent. A nil traceCtx is the untraced run; every method is nil-safe.
type traceCtx struct {
	rec       *recorder
	round     atomic.Int64
	roundSpan atomic.Int64
	inFlight  []atomic.Int64
}

func newTraceCtx(rec *recorder, clients int) *traceCtx {
	tc := &traceCtx{rec: rec, inFlight: make([]atomic.Int64, clients)}
	tc.roundSpan.Store(-1)
	for i := range tc.inFlight {
		tc.inFlight[i].Store(-1)
	}
	return tc
}

func (tc *traceCtx) begin(name string, parent int) int {
	if tc == nil {
		return -1
	}
	return tc.rec.begin(name, parent, int(tc.round.Load()))
}

func (tc *traceCtx) end(id int) {
	if tc != nil {
		tc.rec.end(id)
	}
}

// parentFor names the span a call made on behalf of client is nested in.
func (tc *traceCtx) parentFor(client int) int {
	if tc == nil {
		return -1
	}
	if client >= 0 && client < len(tc.inFlight) {
		if id := tc.inFlight[client].Load(); id >= 0 {
			return int(id)
		}
	}
	return int(tc.roundSpan.Load())
}

func (tc *traceCtx) setInFlight(client, id int) {
	if tc != nil && client >= 0 && client < len(tc.inFlight) {
		tc.inFlight[client].Store(int64(id))
	}
}

// classAvgShim marks round boundaries around FedClassAvg under the sync
// scheduler. Embedding the concrete type keeps every optional interface
// (checkpointing, lossy uploads) satisfied.
type classAvgShim struct {
	*core.FedClassAvg
	clk *roundClock
	tc  *traceCtx
}

func (s *classAvgShim) Setup(sim *fl.Simulation) error {
	err := s.FedClassAvg.Setup(sim)
	s.clk.opened()
	return err
}

func (s *classAvgShim) Round(sim *fl.Simulation, round int, participants []int) error {
	if s.tc != nil {
		s.tc.round.Store(int64(round))
	}
	id := s.tc.begin("algo.round", -1)
	if s.tc != nil {
		s.tc.roundSpan.Store(int64(id))
	}
	err := s.FedClassAvg.Round(sim, round, participants)
	if s.tc != nil {
		s.tc.roundSpan.Store(-1)
	}
	s.tc.end(id)
	s.clk.commit()
	return err
}

// fedAvgShim marks commit boundaries around FedAvg under the async
// scheduler; traced, it also spans the four split halves.
type fedAvgShim struct {
	*baselines.FedAvg
	clk *roundClock
	tc  *traceCtx
}

func (s *fedAvgShim) Setup(sim *fl.Simulation) error {
	err := s.FedAvg.Setup(sim)
	s.clk.opened()
	return err
}

func (s *fedAvgShim) AsyncCommit(sim *fl.Simulation) error {
	id := s.tc.begin("algo.commit", -1)
	err := s.FedAvg.AsyncCommit(sim)
	s.tc.end(id)
	s.clk.commit()
	if s.tc != nil {
		s.tc.round.Add(1)
	}
	return err
}

func (s *fedAvgShim) AsyncDispatch(sim *fl.Simulation, client int) error {
	if s.tc == nil {
		return s.FedAvg.AsyncDispatch(sim, client)
	}
	id := s.tc.begin("algo.dispatch", -1)
	s.tc.setInFlight(client, id)
	err := s.FedAvg.AsyncDispatch(sim, client)
	s.tc.setInFlight(client, -1)
	s.tc.end(id)
	return err
}

func (s *fedAvgShim) AsyncLocal(sim *fl.Simulation, client int) (*fl.Update, error) {
	if s.tc == nil {
		return s.FedAvg.AsyncLocal(sim, client)
	}
	id := s.tc.begin("algo.local", -1)
	s.tc.setInFlight(client, id)
	u, err := s.FedAvg.AsyncLocal(sim, client)
	s.tc.setInFlight(client, -1)
	s.tc.end(id)
	return u, err
}

func (s *fedAvgShim) AsyncLocalGroup(sim *fl.Simulation, clients []int) ([]*fl.Update, error) {
	if s.tc == nil {
		return s.FedAvg.AsyncLocalGroup(sim, clients)
	}
	id := s.tc.begin("algo.local", -1)
	for _, c := range clients {
		s.tc.setInFlight(c, id)
	}
	us, err := s.FedAvg.AsyncLocalGroup(sim, clients)
	for _, c := range clients {
		s.tc.setInFlight(c, -1)
	}
	s.tc.end(id)
	return us, err
}

func (s *fedAvgShim) AsyncApply(sim *fl.Simulation, u *fl.Update) error {
	id := s.tc.begin("algo.apply", -1)
	err := s.FedAvg.AsyncApply(sim, u)
	s.tc.end(id)
	return err
}

// optShim spans and counts optimizer steps. It forwards opt.Checkpointable,
// which spilling and checkpointing a client require.
type optShim struct {
	inner  opt.Checkpointable
	client int
	tc     *traceCtx
	steps  *atomic.Int64
}

func (o *optShim) Step(params []*nn.Param) {
	id := o.tc.begin("opt.step", o.tc.parentFor(o.client))
	o.inner.Step(params)
	o.tc.end(id)
	o.steps.Add(1)
}

func (o *optShim) State() opt.State            { return o.inner.State() }
func (o *optShim) SetState(st opt.State) error { return o.inner.SetState(st) }

// wrapOptimizer puts an optShim around a client's optimizer; optimizers
// that cannot be checkpointed stay unwrapped.
func wrapOptimizer(c *fl.Client, tc *traceCtx, steps *atomic.Int64) {
	if inner, ok := c.Optimizer.(opt.Checkpointable); ok {
		c.Optimizer = &optShim{inner: inner, client: c.ID, tc: tc, steps: steps}
	}
}

// streamSeed positions client id's training stream (batch order and
// augmentation draws) for a workload seed.
func streamSeed(seed int64, id int) int64 {
	return (seed*1000003 + int64(id)*7919) ^ 0x62656e6368 // "bench"
}

// lazyBuilder wraps a per-client builder: it applies the workload seed to
// the built client's training stream, counts builds, and in a traced run
// spans the build and wraps the optimizer. The result is still a pure
// function of the client id, as the lazy store requires.
func lazyBuilder(build experiments.ClientBuilder, seed int64, tc *traceCtx, builds, steps *atomic.Int64) experiments.ClientBuilder {
	return func(i int) *fl.Client {
		id := tc.begin("experiments.build_client", tc.parentFor(i))
		c := build(i)
		c.Src.Seed(streamSeed(seed, i))
		if tc != nil {
			wrapOptimizer(c, tc, steps)
		}
		tc.end(id)
		builds.Add(1)
		return c
	}
}

// meter wraps a transport in the style of transport.Chaos. Untraced it only
// clocks dials — the last dial's return is where a node federation's set-up
// ends — and hands out the inner connections untouched. Traced it wraps
// every connection to span sends and receive waits and to count the bytes
// and frames the accepting side moves.
type meter struct {
	inner transport.Transport
	tc    *traceCtx
	t0    time.Time

	dials      atomic.Int64
	dialNs     atomic.Int64
	lastDialNs atomic.Int64 // since t0
	openCtrs   atomic.Pointer[procCounters]
	wantDials  int64

	acceptSent, acceptRecv atomic.Int64 // wire bytes, handshakes included
	acceptFrames           atomic.Int64
	accepted               atomic.Int64
}

func newMeter(inner transport.Transport, tc *traceCtx, wantDials int) *meter {
	return &meter{inner: inner, tc: tc, t0: time.Now(), wantDials: int64(wantDials)}
}

func (m *meter) Name() string { return m.inner.Name() }

func (m *meter) Listen(addr string) (transport.Listener, error) {
	ln, err := m.inner.Listen(addr)
	if err != nil || m.tc == nil {
		return ln, err
	}
	return &meterListener{Listener: ln, m: m}, nil
}

func (m *meter) Dial(ctx context.Context, addr string) (transport.Conn, error) {
	return m.dialVia(func() (transport.Conn, error) { return m.inner.Dial(ctx, addr) })
}

// DialSession passes a per-call session token through, so reconnects behave
// as they do on the bare transport.
func (m *meter) DialSession(ctx context.Context, addr string, token uint64) (transport.Conn, error) {
	return m.dialVia(func() (transport.Conn, error) { return transport.DialWithToken(ctx, m.inner, addr, token) })
}

func (m *meter) dialVia(dial func() (transport.Conn, error)) (transport.Conn, error) {
	id := m.tc.begin("transport.dial", -1)
	t0 := time.Now()
	conn, err := dial()
	m.dialNs.Add(time.Since(t0).Nanoseconds())
	m.tc.end(id)
	if err != nil {
		return nil, err
	}
	m.lastDialNs.Store(time.Since(m.t0).Nanoseconds())
	if m.dials.Add(1) == m.wantDials {
		// Every node is connected: the joins follow and round 1 opens.
		c := readCounters()
		m.openCtrs.Store(&c)
	}
	if m.tc == nil {
		return conn, nil
	}
	return &meterConn{Conn: conn, m: m}, nil
}

// openedAt is when the last node finished dialing.
func (m *meter) openedAt() time.Time { return m.t0.Add(time.Duration(m.lastDialNs.Load())) }

type meterListener struct {
	transport.Listener
	m *meter
}

func (l *meterListener) Accept() (transport.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	sent, recv := conn.HandshakeBytes()
	l.m.acceptSent.Add(sent)
	l.m.acceptRecv.Add(recv)
	l.m.accepted.Add(1)
	return &meterConn{Conn: conn, m: l.m, accept: true}, nil
}

// meterConn spans one connection's sends and receive waits. Bytes are
// counted on the accepting side only, so each frame is counted once.
type meterConn struct {
	transport.Conn
	m      *meter
	accept bool
}

func (c *meterConn) Send(frame []byte) (int64, error) {
	id := c.m.tc.begin("transport.send", -1)
	n, err := c.Conn.Send(frame)
	c.m.tc.end(id)
	if c.accept {
		c.m.acceptSent.Add(n)
		c.m.acceptFrames.Add(1)
	}
	return n, err
}

func (c *meterConn) Recv() ([]byte, int64, error) {
	name := "transport.recv_wait_peer"
	if c.accept {
		name = "transport.recv_wait"
	}
	id := c.m.tc.begin(name, -1)
	b, n, err := c.Conn.Recv()
	c.m.tc.end(id)
	if c.accept && err == nil {
		c.m.acceptRecv.Add(n)
		c.m.acceptFrames.Add(1)
	}
	return b, n, err
}
