package fl

import (
	"context"
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// This file is the client half of the node runtime: a ClientNode that owns
// one client's model, data and optimizer, serves the dispatch and
// evaluation requests of whoever it dialed — the server, or an edge
// aggregator it cannot tell from one — and survives connection loss by
// re-dialing with its session token. The link itself (read pump, welcome
// intake, heartbeat echo, the re-dial rule) is the uplink of uplink.go,
// shared with the aggregator; what is here is what only a client does.
//
// A long local-training step never blocks the protocol: the uplink's pump
// keeps frames flowing (heartbeats are echoed, so the server sees a slow
// trainer as alive), and a training worker runs WireLocal off the event
// loop, delivering its result through a channel — across a reconnect if
// need be: an update trained on the old connection is delivered on the new
// one. Replay tolerance is symmetrical with the server's: a duplicate
// dispatch for the round already being trained is ignored, a re-dispatch
// for a round already answered triggers a resend of the cached update (the
// server evidently lost it), and the server deduplicates whatever arrives
// twice.

// ClientNode runs one client's half of a federation over a transport.
type ClientNode struct {
	Client *Client
	Algo   WireAlgorithm
	// Dialer, when non-nil, re-establishes the connection after a loss,
	// presenting the session token (transport.DialRetry with RetryOptions
	// .Token is the expected implementation). A nil Dialer reproduces the
	// legacy fail-fast behavior: the first connection loss ends Run.
	Dialer func(ctx context.Context, token uint64) (transport.Conn, error)
	// Token, when nonzero, is a session token from a previous process
	// incarnation: Run skips the join and waits for the server's resume
	// message instead (the dial presented the token in the hello).
	Token uint64
	// OnToken, when non-nil, observes every token grant — fedclient
	// persists it so a restarted process can resume its identity.
	OnToken func(uint64)
}

// trainResult is one finished local round, delivered by the training
// worker.
type trainResult struct {
	version uint64
	u       *Update
	err     error
}

// clientRun is the single-goroutine event loop driving one Run call.
type clientRun struct {
	cn       *ClientNode
	c        *Client
	up       *uplink
	batch    int
	welcomed bool

	// The vectors a dispatch was decoded into for WireLocal go back to the
	// pool when WireLocal has returned — not when the next dispatch is
	// decoded, which may be queued in nextDispatch while the worker is
	// still training against this one — and a dispatch dropped as a
	// duplicate is released at once.
	training     bool
	trainVersion uint64
	trainVecs    [][]float64 // the dispatch the worker is training on
	trainDone    chan trainResult
	// nextDispatch holds a dispatch that arrived mid-training (the server
	// moved on — async redispatch); pendingEval an evaluation request that
	// must wait for the local round to finish.
	nextDispatch *wireMsg
	pendingEval  *wireMsg
	// lastUpdate caches the message of the last finished round, so a
	// re-dispatched round the server lost the answer to is resent instead
	// of retrained. The message — not its encoding — is cached, because a
	// delta-framed upload is stateful: every send must be re-encoded
	// through the connection's current wireCodec so encoder and decoder
	// advance their delta bases in lockstep (a verbatim byte replay would
	// desync the tags). Its vectors are WireLocal's result, valid until the
	// next WireLocal on this client: handle re-encodes it only while no
	// worker is training, so it is never read past that.
	lastUpdate  *wireMsg
	lastVersion uint64
	haveLast    bool

	fatal error
	done  bool
}

// Run joins the federation over conn and serves dispatch and evaluation
// requests until the server's stop has been acknowledged (nil) or the link
// irrecoverably dies (error). With a Dialer, a connection loss triggers a
// re-dial that resumes the session instead of ending the run. Cancelling
// ctx closes the connection and returns ctx.Err().
func (cn *ClientNode) Run(ctx context.Context, conn transport.Conn) error {
	cr := &clientRun{cn: cn, c: cn.Client, batch: 32, trainDone: make(chan trainResult, 1)}
	cr.up = newUplink(ctx, fmt.Sprintf("client %d", cn.Client.ID), cn.Algo, cn.Token, cn.Dialer, cn.OnToken)
	defer cr.drain()
	defer cr.up.close()
	if cr.up.attach(conn) {
		cr.join()
	}
	for cr.fatal == nil && cr.up.err == nil && !cr.done {
		select {
		case f := <-cr.up.frames:
			if m := cr.up.receive(f); m != nil && !cr.handle(m) {
				m.release()
			}
		case d := <-cr.up.dials:
			if cr.up.dialed(d) {
				cr.join()
			}
		case res := <-cr.trainDone:
			cr.training = false
			for _, v := range cr.trainVecs {
				tensor.PutStorage(v)
			}
			cr.trainVecs = nil
			cr.finishTraining(res)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if cr.fatal != nil {
		return cr.fatal
	}
	return cr.up.err
}

// drain reaps an in-flight training worker so Run never leaks a goroutine,
// even when it returns mid-round.
func (cr *clientRun) drain() {
	if cr.training {
		<-cr.trainDone
		cr.training = false
	}
}

// join declares this client on a connection that resumes no session.
func (cr *clientRun) join() {
	j, err := newJoin(cr.cn.Algo, cr.c)
	if err != nil {
		cr.fatal = err
		return
	}
	join := &wireMsg{kind: msgJoin, name: cr.cn.Algo.Name(), vecs: f64Bodies(nil, j.Init), ints: j.AppendInts(nil)}
	// Sent once per connection, and as large as the init payload: a frame of
	// its own, so the uplink's upload frame is sized by an upload, and lent,
	// so it crosses an inproc lane without a copy. The frame holds the
	// payload, so its vectors go back to the pool.
	frame := appendMsg(nil, join, cr.up.wc)
	for _, v := range j.Init {
		tensor.PutStorage(v)
	}
	cr.up.send(transport.Lend(frame))
}

// handle processes one server message the uplink passed through and reports
// whether it kept the message (a dispatch to train on, now or next); any
// other is the caller's to release. A failed send anywhere below needs no
// handling here: the uplink re-dials, and the server replays on adoption
// whatever prompts the frame again.
func (cr *clientRun) handle(m *wireMsg) (kept bool) {
	switch m.kind {
	case msgWelcome, msgResume:
		if b := int(m.ints[welBatch]); b > 0 {
			cr.batch = b
		}
		cr.welcomed = true
	case msgDispatch:
		switch {
		case !cr.welcomed:
			cr.fatal = fmt.Errorf("fl: client %d: dispatch before welcome", cr.c.ID)
		case cr.training && m.a == cr.trainVersion:
			// A resend of the round being trained (the server adopted a
			// reconnect while the worker was mid-round): already in hand.
		case cr.training:
			cr.nextDispatch.release() // superseded unread, if any
			cr.nextDispatch = m
			return true
		case cr.haveLast && m.a == cr.lastVersion:
			// The server re-dispatched a round already answered: the update
			// was lost in the disconnect. Re-encode the cached message
			// through this connection's codec state and resend.
			cr.up.sendUpload(cr.lastUpdate)
		default:
			cr.startTraining(m)
			return true
		}
	case msgEvalReq:
		if cr.training {
			cr.pendingEval = m
		} else {
			cr.sendEval(m)
		}
	case msgStop:
		// Acknowledge the goodbye; the server holds the session open until
		// the ack lands (both transports flush in-flight frames on close,
		// so exiting immediately after the send is safe). If the send
		// fails, the re-dial is handed the stop again.
		cr.done = cr.up.sendMsg(&wireMsg{kind: msgStopAck})
	default:
		// Unknown kinds and replayed frames are tolerated noise; the
		// reconnect machinery makes duplicates a normal occurrence.
	}
	return false
}

// startTraining takes one dispatch out of its frame and hands it to the
// worker goroutine. A frame installer's broadcast body is decoded straight
// into the client's parameters — nothing trains or evaluates on them until
// the worker is done — and the local round runs on what it installed; any
// other dispatch is decoded into pool storage for WireLocal. The message is
// recycled either way.
func (cr *clientRun) startTraining(m *wireMsg) {
	version, batch := m.a, cr.batch
	var local func() (*Update, error)
	var err error
	if params := cr.installParams(m); params != nil {
		vals, _ := nn.Flat(params)
		err = m.vecs[0].DecodeInto(&vals)
		fi := cr.cn.Algo.(frameInstaller)
		local = func() (*Update, error) { return fi.localInstalled(cr.c, batch, nil) }
	} else {
		vecs := decodeVecs(m.vecs)
		cr.trainVecs = vecs
		local = func() (*Update, error) { return cr.cn.Algo.WireLocal(cr.c, batch, vecs) }
	}
	m.recycle()
	if err != nil {
		cr.fatal = fmt.Errorf("fl: client %d: dispatch: %w", cr.c.ID, err)
		return
	}
	cr.training = true
	cr.trainVersion = version
	go func() {
		u, err := local()
		cr.trainDone <- trainResult{version: version, u: u, err: err}
	}()
}

// installParams returns the parameters a dispatch's one vector installs
// into straight from its body, or nil when the dispatch must be decoded:
// the algorithm is no frame installer, or its local round reads the vector
// too, or the body's length is not the parameters' (WireLocal then reports
// it).
func (cr *clientRun) installParams(m *wireMsg) []*nn.Param {
	fi, ok := cr.cn.Algo.(frameInstaller)
	if !ok || len(m.vecs) != 1 || m.vecs[0].Nil() {
		return nil
	}
	params := fi.installParams(cr.c)
	if m.vecs[0].Len() != nn.NumParams(params) {
		return nil
	}
	return params
}

// finishTraining uploads a finished round, caching the message for
// replay, then services whatever queued up behind the training.
func (cr *clientRun) finishTraining(res trainResult) {
	if res.err != nil {
		cr.up.sendMsg(&wireMsg{kind: msgErr, name: res.err.Error()})
		cr.fatal = fmt.Errorf("fl: client %d local round: %w", cr.c.ID, res.err)
		return
	}
	up := &wireMsg{kind: msgUpdate, a: res.version, b: math.Float64bits(res.u.Scale), vecs: res.u.Vecs, counts: res.u.Counts}
	cr.lastUpdate, cr.lastVersion, cr.haveLast = up, res.version, true
	cr.up.sendUpload(up)
	if nd := cr.nextDispatch; nd != nil {
		cr.nextDispatch = nil
		cr.startTraining(nd)
	} else if pe := cr.pendingEval; pe != nil {
		cr.pendingEval = nil
		cr.sendEval(pe)
	}
}

func (cr *clientRun) sendEval(m *wireMsg) {
	cr.up.sendMsg(&wireMsg{kind: msgEvalRes, a: m.a, b: math.Float64bits(cr.c.EvalAccuracy())})
}
