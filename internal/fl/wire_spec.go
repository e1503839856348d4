package fl

import "repro/internal/comm"

// This file is the per-connection codec seam of the node-mode protocol: a
// wireCodec resolves the connection's negotiated comm.Spec into a per-vector
// framing decision and owns the delta bases that decision creates.
//
// Policy: only client weight uploads (msgUpdate) ever sparsify or delta-
// frame, and only when the algorithm's uploads tolerate loss
// (a LossyUploads method). Dispatches, joins, evaluation traffic and the
// tree-topology bundles stay dense — those frames are cached and re-sent
// verbatim across reconnects (pendingDispatch, the aggregator's join and
// update frames), which a stateful delta frame could never survive, and
// prototype/soft-prediction payloads must stay lossless per the selector
// contract. Delta bases live strictly inside one connection: each side
// builds its wireCodec when the connection is established, so churn or
// reconnect discards the bases and the first frames of the new connection
// re-establish them densely — the fallback is the protocol, not a special
// case.

// vecSlot names one delta-tracked vector position: a message kind, the
// vector's index in the envelope, and its length. A geometry change (never
// expected within a session) lands on a different slot and starts a fresh
// basis rather than corrupting the old one.
type vecSlot struct {
	kind uint32
	idx  int
	n    int
}

// wireCodec is one connection's codec state. The in-process simulation
// holds a single one for the whole fleet's uplink and passes the client id
// as the vector index, so the same policy and basis bookkeeping serve both
// engines.
type wireCodec struct {
	sel  comm.Selector
	refs map[vecSlot]*comm.DeltaRef
}

// uploadKind gates sparse and delta framing to client weight uploads.
func uploadKind(kind uint32) bool { return kind == msgUpdate }

// plainWire is the dense-only wireCodec for a bare codec — control-plane
// encodes and every pre-spec call site.
func plainWire(c comm.Codec) *wireCodec {
	return &wireCodec{sel: comm.Selector{Spec: comm.Spec{Value: c}}}
}

// newWireCodec builds the codec state for one connection speaking spec.
// lossy reports whether the algorithm's uploads tolerate loss; when they
// do not (FedProto prototypes, KT-pFL soft predictions), the spec's
// sparsification and delta framing are dropped and only its value codec
// survives — both ends derive this identically from the algorithm name, so
// the connection stays in agreement.
func newWireCodec(spec comm.Spec, lossy bool) *wireCodec {
	if !lossy {
		return plainWire(spec.Value)
	}
	return &wireCodec{sel: comm.Selector{Spec: spec, Kinds: uploadKind}}
}

// specFor resolves the framing of one vector. A nil wireCodec is the plain
// dense f64 protocol.
func (wc *wireCodec) specFor(kind uint32, n int) comm.Spec {
	if wc == nil {
		return comm.Spec{}
	}
	return wc.sel.For(kind, n)
}

// ref returns the delta basis for one vector slot, creating it on first
// use — nil when the slot's framing is not delta (including always for a
// nil wireCodec), which is exactly the ref argument comm's spec paths
// expect in the dense case.
func (wc *wireCodec) ref(kind uint32, idx, n int) *comm.DeltaRef {
	if wc == nil || !wc.sel.For(kind, n).Delta {
		return nil
	}
	if wc.refs == nil {
		wc.refs = make(map[vecSlot]*comm.DeltaRef)
	}
	s := vecSlot{kind: kind, idx: idx, n: n}
	r := wc.refs[s]
	if r == nil {
		r = &comm.DeltaRef{}
		wc.refs[s] = r
	}
	return r
}

// lossyUploads reports whether a's client uploads are weight vectors that
// tolerate lossy framing (sparsification, delta residuals): the algorithm
// says so with a LossyUploads() bool method. Algorithms whose uploads are
// structural — prototype tables, soft-prediction rows — do not have one and
// always upload densely.
func lossyUploads(a Algorithm) bool {
	l, ok := a.(interface{ LossyUploads() bool })
	return ok && l.LossyUploads()
}
