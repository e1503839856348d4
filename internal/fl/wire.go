package fl

import (
	"encoding/binary"
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// This file is the federation's node-mode wire protocol: the message
// envelope that crosses a transport.Conn between a ServerNode and its
// ClientNodes, and the WireAlgorithm interface that splits an algorithm
// into a server half (aggregation state, broadcasts) and a client half
// (local training, uploads) with nothing shared but payload vectors.
//
// # Message format
//
// Every message is one transport frame:
//
//	[kind u32][a u64][b u64]
//	[nameLen u64][name bytes]
//	[nInts u64][int64 ...]
//	[nCounts u64][int64 ...]
//	[nVecs u64] per vec: [present u8] + [frameLen u64][comm frame]
//
// in little-endian byte order. a and b are per-kind scalar slots (round
// numbers, float64 bit patterns). Payload vectors are internal/comm codec
// frames — the same frames the simulation's ledger prices — tagged with the
// message kind so a decoder desync surfaces as a tag mismatch. Nil vector
// entries are first-class (FedProto prototype tables); a lossy codec
// quantizes uploads and broadcasts exactly as the wire would, because the
// frame IS the wire.
//
// A message decodes through comm.Reader, whose bounding rule (comm's
// reader.go) makes corrupt or hostile frames fail cleanly without
// allocating for what they claim.

// The message kinds. The base offset keeps them disjoint from the ckpt
// frame tags, so a checkpoint fed to the message decoder dies loudly.
const (
	msgJoin uint32 = 0x4657 + iota // client → server: identity + init payload
	msgWelcome
	msgDispatch
	msgUpdate
	msgEvalReq
	msgEvalRes
	msgStop
	msgErr
	// msgHeartbeat is the liveness probe: the server sends one every
	// heartbeat interval with a = its committed version, and the client
	// echoes it back verbatim. Either side reading silence past its dead
	// interval declares the peer hung — traffic, not progress, is the
	// liveness signal, so a slow trainer stays alive while a wedged one
	// does not.
	msgHeartbeat
	// msgResume is the server's welcome-back on an accepted reconnect:
	// a = the committed version, ints = the welcome layout (the client may
	// be a restarted process that never saw the original welcome). The
	// server follows it with a resend of any dispatch or evaluation
	// request the client still owes.
	msgResume
	// msgStopAck is the client's goodbye: a send success on the server's
	// stop frame proves nothing about delivery, so the server holds a
	// session open — re-delivering the stop to any re-dial — until this
	// acknowledgement arrives or the reconnect window churns the session.
	msgStopAck
	// The tree-topology kinds (FEDWIRE3, hierarchical aggregation). An
	// edge aggregator joins the root on behalf of its whole child range
	// (msgTreeJoin), receives one batched broadcast per round
	// (msgTreeDispatch), and answers with either a pre-reduced aggregate
	// (msgAggUpdate) or the raw child updates bundled unreduced
	// (msgTreeUpdate, the passthrough for non-associative algorithms).
	// Layouts are documented on the encode helpers in wire_tree.go.
	msgTreeJoin
	msgTreeDispatch
	msgAggUpdate
	msgTreeUpdate
)

// A join's integer declarations, in the order WireJoin.AppendInts writes
// them for a flat join, each child of a tree join and a checkpoint.
const (
	joinID = iota
	joinTrainSize
	joinFeatDim
	joinNumClasses
	joinNumParams
	joinNumClassifier
	// JoinInts is how many integers a join declares.
	JoinInts
)

// welcome-message ints layout (shared by msgWelcome and msgResume).
// welToken carries the server-issued session token (a uint64 bit pattern
// in an int64 slot) the client presents when re-dialing after a
// connection loss. welHeartbeatMs/welDeadMs announce the server's
// failure discipline so both ends agree on what "hung" means.
const (
	welClients = iota
	welRounds
	welBatch
	welEvalEvery
	welToken
	welHeartbeatMs
	welDeadMs
	welIntCount
)

// wireMsg is one decoded protocol message. Its payload vectors are bodies
// (comm.Body): a dense vector frame is read where it lies in the received
// frame, which held keeps — the message's until it is released — and a top-k
// or delta frame is decoded into tensor pool storage.
type wireMsg struct {
	kind   uint32
	a, b   uint64
	name   string
	ints   []int64
	counts []int
	vecs   []comm.Body
	held   heldFrame
}

// heldFrame is the frame a message was decoded from, and the connection it
// goes back to while the message still reads it (nil once it went back).
type heldFrame struct {
	frame []byte
	conn  transport.Conn
}

// release hands the frame back, once.
func (h *heldFrame) release() {
	if h.conn != nil {
		h.conn.Release(h.frame)
	}
	*h = heldFrame{}
}

// holds reports whether b lies inside the frame.
func (h *heldFrame) holds(b []byte) bool {
	if len(b) == 0 || len(h.frame) == 0 {
		return false
	}
	at, lo := uintptr(unsafe.Pointer(&b[0])), uintptr(unsafe.Pointer(&h.frame[0]))
	return at >= lo && at < lo+uintptr(len(h.frame))
}

// release hands the frame the message still reads back to its connection
// and takes the vectors off the message, leaving any it decoded to the
// collector: the message is dropped, or its reader is done with it without
// having used them (a nil message has none). Anything still reading its
// vectors — an Update built from it — must be done too. Releasing a message
// twice is a no-op.
func (m *wireMsg) release() {
	if m != nil {
		m.vecs = nil
		m.held.release()
	}
}

// recycle is release for a message whose vectors its role has used — folded,
// pre-reduced, re-encoded or trained on — so that the vectors it decoded
// (those not in its frame) are of lengths the role decodes again, and go
// back to the tensor pool for that. A dropped message is only released: the
// pool keeps a list per length, and a vector of a length nothing asks for
// again would stay in it for good.
func (m *wireMsg) recycle() {
	if m != nil {
		for _, b := range m.vecs {
			if !m.held.holds(b.Bytes()) {
				tensor.PutStorage(b.Floats())
			}
		}
		m.release()
	}
}

// f64Bodies appends vs to dst as F64 bodies over their own memory.
func f64Bodies(dst []comm.Body, vs [][]float64) []comm.Body {
	for _, v := range vs {
		dst = append(dst, comm.AsF64Body(v))
	}
	return dst
}

// decodeVecs decodes bodies into vectors of tensor pool storage, nil for an
// absent one: for a client's dispatch reader, which hands them to WireLocal
// and tensor.PutStorage takes them back.
func decodeVecs(bodies []comm.Body) [][]float64 {
	if bodies == nil {
		return nil
	}
	vs := make([][]float64, len(bodies))
	for i, b := range bodies {
		if !b.Nil() {
			vs[i] = b.Decode(nil)
		}
	}
	return vs
}

// lendMsg encodes m into buf and lends the frame (transport.Lend), so an
// inproc Send hands its receivers the buffer itself. A buffer a receiver
// still holds stays as it is, and the frame gets a buffer of its own.
func lendMsg(buf []byte, m *wireMsg, wc *wireCodec) []byte {
	if transport.Held(buf) {
		buf = nil
	}
	return transport.Lend(appendMsg(buf[:0], m, wc))
}

// appendMsg serializes a message after dst[:len(dst)] and returns the
// extended buffer, framing payload vectors per the connection's wireCodec
// (nil = plain dense f64): a body already framed at its slot's spec is
// copied as it lies, any other is encoded from its elements. The buffer is
// the caller's: a role passes the same one back every round (buf =
// appendMsg(buf[:0], …)) and the frame is valid until it does; a frame
// encoded once and kept (a join, the stop) starts from nil. Vectors are
// written straight into it — grown once, from MarshalSpecBound, when its
// capacity is short.
func appendMsg(dst []byte, m *wireMsg, wc *wireCodec) []byte {
	size := 4 + 8 + 8 + 8 + len(m.name) + 8 + 8*len(m.ints) + 8 + 8*len(m.counts) + 8
	for _, v := range m.vecs {
		size++ // presence byte
		if !v.Nil() {
			size += 8 + comm.MarshalSpecBound(wc.specFor(m.kind, v.Len()), v.Len())
		}
	}
	b := dst
	if cap(b)-len(b) < size {
		b = append(make([]byte, 0, len(dst)+size), dst...)
	}
	b = binary.LittleEndian.AppendUint32(b, m.kind)
	b = binary.LittleEndian.AppendUint64(b, m.a)
	b = binary.LittleEndian.AppendUint64(b, m.b)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(m.name)))
	b = append(b, m.name...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(m.ints)))
	for _, v := range m.ints {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(m.counts)))
	for _, v := range m.counts {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(v)))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(m.vecs)))
	for i, v := range m.vecs {
		if v.Nil() {
			b = append(b, 0)
			continue
		}
		b = v.AppendFrame(append(b, 1), wc.specFor(m.kind, v.Len()), m.kind, wc.ref(m.kind, i, v.Len()))
	}
	return b
}

// decodeMsg parses one message frame, resolving sparse and delta vector
// frames through the connection's wireCodec (nil accepts dense and top-k
// frames but rejects delta, which needs a negotiated basis). Nothing in the
// result aliases frame but the bodies of its dense vector frames, which are
// read where they lie: a message with any is the frame's reader until it is
// released (readMsg). A top-k or delta frame is decoded into exact-length
// storage from the tensor pool, which comm draws only for a frame whose
// declared length has passed its checks: it is the message's until the
// message is recycled or released.
func decodeMsg(frame []byte, wc *wireCodec) (*wireMsg, error) {
	r := comm.NewReader(frame, "fl: wire message")
	m := &wireMsg{kind: r.U32(), a: r.U64(), b: r.U64(), held: heldFrame{frame: frame}}
	m.name = string(r.Take(r.Count(1)))
	if n := r.Count(8); n > 0 {
		m.ints = make([]int64, n)
		for i := range m.ints {
			m.ints[i] = r.I64()
		}
	}
	if n := r.Count(8); n > 0 {
		m.counts = make([]int, n)
		for i := range m.counts {
			m.counts[i] = int(r.I64())
		}
	}
	if n := r.Count(1); n > 0 {
		// A vector slot costs one presence byte on the wire but a body's
		// 40 bytes decoded, so the table grows with the slots actually
		// parsed instead of trusting the declared count.
		m.vecs = make([]comm.Body, 0, min(n, 64))
		for i := 0; i < n && r.Err() == nil; i++ {
			var body comm.Body
			if r.Bool() {
				vb := r.Frame()
				if r.Err() != nil {
					break
				}
				_, tag, count, err := comm.FrameInfo(vb)
				var ref *comm.DeltaRef
				if err == nil {
					ref = wc.ref(m.kind, i, count)
				}
				if body.SetFrame(vb) {
					if ref != nil {
						// A dense frame on a delta slot establishes its basis.
						ref.Base, ref.Tag = body.Decode(ref.Base), 1
					}
				} else if _, v, err := comm.DecodeSpec(nil, vb, ref); err != nil {
					r.Failf("vector %d: %v", i, err)
					break
				} else {
					body = comm.AsF64Body(v)
				}
				if tag != m.kind {
					r.Failf("vector %d tagged %#x inside a %#x message", i, tag, m.kind)
				}
			}
			m.vecs = append(m.vecs, body)
		}
	}
	if err := r.End(); err != nil {
		m.release()
		return nil, err
	}
	return m, nil
}

// readMsg decodes one frame conn received. The frame goes back to conn at
// once unless a vector of the message lies in it, which then holds it.
func readMsg(conn transport.Conn, frame []byte, wc *wireCodec) (*wireMsg, error) {
	m, err := decodeMsg(frame, wc)
	if err == nil && slices.ContainsFunc(m.vecs, func(b comm.Body) bool { return m.held.holds(b.Bytes()) }) {
		m.held.conn = conn
		return m, nil
	}
	conn.Release(frame)
	return m, err
}

// WireJoin is a client's handshake-time declaration: its identity, data
// size and model geometry, plus the algorithm-specific init payload the
// server folds into its initial global state (initial classifier weights
// for FedClassAvg, the common model for FedAvg — whatever WireInit
// returns). The server node collects one per client before the first
// round. A WireSetup reads the payload through initBodies, whichever form
// it is in.
type WireJoin struct {
	ID            int
	TrainSize     int
	FeatDim       int
	NumClasses    int
	NumParams     int
	NumClassifier int
	// Init is the payload in its in-process form: WireInit's vectors (a
	// client's join, SetupJoins' probe set) or a checkpoint's records.
	Init [][]float64
	// payload is the payload as a fan-in received it: bodies lying in the
	// join's frame, which the table holds while they are read (DESIGN §8).
	payload []comm.Body
}

// initBodies returns j's init payload as bodies: as it was received, or
// Init's vectors as F64 bodies over their own memory.
func (j *WireJoin) initBodies() []comm.Body {
	if j.payload != nil {
		return j.payload
	}
	return f64Bodies(nil, j.Init)
}

// newJoin builds c's declaration under algo: its id, |D_k|, model geometry
// and WireInit payload. A ClientNode joins with it, and SetupJoins builds
// the in-process probe set with it.
func newJoin(algo WireAlgorithm, c *Client) (WireJoin, error) {
	init, err := algo.WireInit(c)
	if err != nil {
		return WireJoin{}, fmt.Errorf("fl: client %d init payload: %w", c.ID, err)
	}
	j := WireJoin{ID: c.ID, TrainSize: len(c.Train), Init: init}
	if c.Model != nil {
		j.FeatDim = c.Model.Cfg.FeatDim
		j.NumClasses = c.Model.Cfg.NumClasses
		j.NumParams = nn.NumParams(c.Model.Params())
		j.NumClassifier = nn.NumParams(c.Model.ClassifierParams())
	}
	return j, nil
}

// AppendInts appends j's JoinInts integer declarations to dst.
func (j *WireJoin) AppendInts(dst []int64) []int64 {
	return append(dst, int64(j.ID), int64(j.TrainSize), int64(j.FeatDim),
		int64(j.NumClasses), int64(j.NumParams), int64(j.NumClassifier))
}

// ParseJoin is AppendInts' inverse over ints[:JoinInts], without the init
// payload. A join is a peer's claim, so a negative size is refused by name:
// a negative |D_k| can cancel the start's weight total to zero.
func ParseJoin(ints []int64) (WireJoin, error) {
	for k, name := range [...]string{"TrainSize", "FeatDim", "NumClasses", "NumParams", "NumClassifier"} {
		if v := ints[joinTrainSize+k]; v < 0 {
			return WireJoin{}, fmt.Errorf("client %d declares %s %d", ints[joinID], name, v)
		}
	}
	return WireJoin{
		ID:            int(ints[joinID]),
		TrainSize:     int(ints[joinTrainSize]),
		FeatDim:       int(ints[joinFeatDim]),
		NumClasses:    int(ints[joinNumClasses]),
		NumParams:     int(ints[joinNumParams]),
		NumClassifier: int(ints[joinNumClassifier]),
	}, nil
}

// frameInstaller is a wire algorithm whose broadcast is one vector
// installed whole into the client's parameters: WeightAvg's methods. A
// client node decodes such a dispatch's body straight into installParams
// and runs localInstalled — WireLocal after the install, with ref the Ref
// the broadcast would give — instead of WireLocal.
type frameInstaller interface {
	// installParams returns the parameters c installs a broadcast into, or
	// nil when its local round also reads the broadcast vector (a proximal
	// reference), which then arrives decoded through WireLocal.
	installParams(c *Client) []*nn.Param
	localInstalled(c *Client, batchSize int, ref []float64) (*Update, error)
}

// WireAlgorithm splits an algorithm across a process boundary. The server
// half (WireSetup, WireDispatch, WireApply, WireCommit) owns aggregation
// state — sharded accumulators, coefficient matrices, prototype tables —
// and never touches a client model. The client half (WireInit, WireLocal)
// owns one client's model, data and optimizer and never sees server state
// beyond the dispatch payload it is handed. In node mode a server process
// holds one instance running the server half, and every client process
// holds its own instance running the client half; the inproc engine keeps
// using the monolithic Algorithm/AsyncAlgorithm surface, whose numerics
// the wire halves reuse.
type WireAlgorithm interface {
	Algorithm
	// WireInit returns the client's join-time init payload (client half):
	// vectors that alias no live state, so a caller done with them may hand
	// them to the tensor pool (tensor.PutStorage).
	WireInit(c *Client) ([][]float64, error)
	// WireSetup builds initial server state from the full fleet's joins,
	// ordered by client id (server half). It replaces Setup+AsyncSetup in
	// node mode; shards caps the pool ranges an accumulator fold splits
	// into (NewSharded). A join's init payload may lie in the frame it
	// arrived in, which a node hands back once WireSetup returns, so
	// nothing of it may be kept: what is kept is decoded.
	WireSetup(joins []WireJoin, shards int) error
	// WireDispatch encodes the broadcast payload for one client (server
	// half). A nil or empty result is a valid "nothing to send" broadcast
	// (the local-only baseline, KT-pFL before the first commit). Vectors it
	// returns to more than one client (a shared global) must change only in
	// WireCommit: the server encodes them once per committed version.
	WireDispatch(client int) ([][]float64, error)
	// WireLocal installs a decoded broadcast into the client, runs local
	// training and returns the upload (client half). The dispatch payload
	// arrives exactly as WireDispatch produced it, modulo codec
	// quantization; it is the caller's again when WireLocal returns, so
	// nothing of it may be kept. The returned Update.Vecs are valid until
	// the next WireLocal on the same client — or until a client node
	// installs its next dispatch (frameInstaller): they may be the
	// client's own parameters (WeightAvg's upload of an F64 model is its
	// value slab), so nothing may write them.
	WireLocal(c *Client, batchSize int, dispatch [][]float64) (*Update, error)
	// WireApply folds one weighted update into the server's accumulators
	// (server half; u.Weight is final). u.Vecs are bodies, most often read
	// where they lie in the frame the upload arrived in: nothing of them
	// may be retained past the call — the fan-in releases them to the next
	// uploads — and what is kept is decoded into storage of its own.
	WireApply(u *Update) error
	// WireCommit merges accumulated state into the committed globals,
	// completing one round (server half).
	WireCommit() error
}
