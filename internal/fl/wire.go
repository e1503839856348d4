package fl

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/comm"
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
// Decoding bounds every collection length by the bytes remaining in the
// buffer, so corrupt or hostile frames fail cleanly without allocation.

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

// join-message ints layout.
const (
	joinID = iota
	joinTrainSize
	joinFeatDim
	joinNumClasses
	joinNumParams
	joinNumClassifier
	joinIntCount
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

// wireMsg is one decoded protocol message.
type wireMsg struct {
	kind   uint32
	a, b   uint64
	name   string
	ints   []int64
	counts []int
	vecs   [][]float64
}

// f64bits / bitsF64 move float64 scalars through the b slot.
func f64bits(v float64) uint64 { return math.Float64bits(v) }
func bitsF64(b uint64) float64 { return math.Float64frombits(b) }

// encodeMsg serializes a message into a fresh frame the caller owns — the
// form for frames encoded once and kept (a join, the stop) and for cold
// control traffic; everything a round repeats goes through appendMsg.
func encodeMsg(m *wireMsg, wc *wireCodec) []byte { return appendMsg(nil, m, wc) }

// appendMsg serializes a message after dst[:len(dst)] and returns the
// extended buffer, framing payload vectors per the connection's wireCodec
// (nil = plain dense f64). The buffer is the caller's: a role passes the
// same one back every round (buf = appendMsg(buf[:0], …)) and the frame is
// valid until it does. Vectors are encoded straight into it — grown once,
// from MarshalSpecBound, when its capacity is short — with the frame length
// patched in after the fact.
func appendMsg(dst []byte, m *wireMsg, wc *wireCodec) []byte {
	size := 4 + 8 + 8 + 8 + len(m.name) + 8 + 8*len(m.ints) + 8 + 8*len(m.counts) + 8
	for _, v := range m.vecs {
		size++ // presence byte
		if v != nil {
			size += 8 + comm.MarshalSpecBound(wc.specFor(m.kind, len(v)), len(v))
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
		if v == nil {
			b = append(b, 0)
			continue
		}
		b = append(b, 1)
		lenAt := len(b)
		b = append(b, 0, 0, 0, 0, 0, 0, 0, 0)
		b = comm.MarshalSpecInto(b, wc.specFor(m.kind, len(v)), m.kind, v, wc.ref(m.kind, i, len(v)))
		binary.LittleEndian.PutUint64(b[lenAt:], uint64(len(b)-lenAt-8))
	}
	return b
}

// msgDecoder walks a message frame, latching the first error.
type msgDecoder struct {
	b   []byte
	off int
	err error
}

func (d *msgDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("fl: wire message: "+format, args...)
	}
}

func (d *msgDecoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail("truncated at byte %d (want %d more)", d.off, n)
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *msgDecoder) u32() uint32 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (d *msgDecoder) u64() uint64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

// count reads a collection length bounded by the remaining bytes divided
// by the per-element encoded cost, so a hostile length field can never
// make the decoder allocate more memory than the frame itself occupies
// (a count of N int64s must be backed by 8N bytes, a count of vector
// slots by at least one presence byte each).
func (d *msgDecoder) count(elemBytes int) int {
	v := d.u64()
	if v > uint64((len(d.b)-d.off)/elemBytes) {
		d.fail("count %d exceeds the %d remaining bytes", v, len(d.b)-d.off)
		return 0
	}
	return int(v)
}

// decodeMsg parses one message frame of the plain dense protocol into
// freshly allocated vectors the caller keeps (a join's init payload).
func decodeMsg(frame []byte) (*wireMsg, error) {
	return decodeMsgWc(frame, nil)
}

// decodeMsgWc parses one message frame, resolving sparse and delta vector
// frames through the connection's wireCodec (nil accepts dense and top-k
// frames but rejects delta, which needs a negotiated basis). Nothing in the
// result aliases frame. Payload vectors are drawn from the codec's vecList
// when it has one: they are the message's until the role that owns the list
// puts them back, and a message that fails to decode returns its own.
func decodeMsgWc(frame []byte, wc *wireCodec) (*wireMsg, error) {
	list := wc.list()
	d := &msgDecoder{b: frame}
	m := &wireMsg{}
	m.kind = d.u32()
	m.a = d.u64()
	m.b = d.u64()
	nameLen := d.count(1)
	m.name = string(d.take(nameLen))
	nInts := d.count(8)
	if nInts > 0 && d.err == nil {
		m.ints = make([]int64, nInts)
		for i := range m.ints {
			m.ints[i] = int64(d.u64())
		}
	}
	nCounts := d.count(8)
	if nCounts > 0 && d.err == nil {
		m.counts = make([]int, nCounts)
		for i := range m.counts {
			m.counts[i] = int(int64(d.u64()))
		}
	}
	nVecs := d.count(1)
	if nVecs > 0 && d.err == nil {
		// A vector slot costs one presence byte on the wire but 24 bytes
		// of slice header decoded, so the table grows with the bytes
		// actually parsed instead of trusting the declared count.
		m.vecs = make([][]float64, 0, min(nVecs, 64))
		for i := 0; i < nVecs; i++ {
			present := d.take(1)
			if present == nil {
				break
			}
			if present[0] == 0 {
				m.vecs = append(m.vecs, nil)
				continue
			}
			frameLen := d.count(1)
			vb := d.take(frameLen)
			if vb == nil {
				break
			}
			// The scratch is only ever resized after DecodeSpec has checked
			// the declared count against the bytes the frame carries, so a
			// hostile count allocates nothing, with or without scratch.
			var ref *comm.DeltaRef
			var scratch []float64
			if wc != nil {
				if _, _, n, err := comm.FrameInfo(vb); err == nil {
					ref = wc.ref(m.kind, i, n)
					scratch = list.take(n)
				}
			}
			tag, payload, err := comm.DecodeSpec(scratch, vb, ref)
			if err != nil {
				list.put(scratch)
				d.fail("vector %d: %v", i, err)
				break
			}
			m.vecs = append(m.vecs, payload)
			if tag != m.kind {
				d.fail("vector %d tagged %#x inside a %#x message", i, tag, m.kind)
				break
			}
		}
		if d.err == nil && len(m.vecs) != nVecs {
			d.fail("message declared %d vectors, carried %d", nVecs, len(m.vecs))
		}
		if len(m.vecs) == 0 {
			m.vecs = nil
		}
	}
	if d.err == nil && d.off != len(d.b) {
		d.fail("%d trailing bytes", len(d.b)-d.off)
	}
	if d.err != nil {
		list.put(m.vecs...)
		return nil, d.err
	}
	return m, nil
}

// WireJoin is a client's handshake-time declaration: its identity, data
// size and model geometry, plus the algorithm-specific init payload the
// server folds into its initial global state (initial classifier weights
// for FedClassAvg, the common model for FedAvg — whatever WireInit
// returns). The server node collects one per client before the first
// round.
type WireJoin struct {
	ID            int
	TrainSize     int
	FeatDim       int
	NumClasses    int
	NumParams     int
	NumClassifier int
	Init          [][]float64
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
	// WireInit returns the client's join-time init payload (client half).
	WireInit(c *Client) ([][]float64, error)
	// WireSetup builds initial server state from the full fleet's joins,
	// ordered by client id (server half). It replaces Setup+AsyncSetup in
	// node mode; shards caps the pool ranges an accumulator fold splits
	// into (NewSharded).
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
	// the next WireLocal on the same client (Client.FlatUpload's vector).
	WireLocal(c *Client, batchSize int, dispatch [][]float64) (*Update, error)
	// WireApply folds one weighted update into the server's accumulators
	// (server half; u.Weight is final). It must not retain u.Vecs past the
	// call — the fan-in decodes the next upload into them — and copies what
	// it needs to keep.
	WireApply(u *Update) error
	// WireCommit merges accumulated state into the committed globals,
	// completing one round (server half).
	WireCommit() error
}
