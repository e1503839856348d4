package fl

import "repro/internal/comm"

// IsStopFrame lets the external test package recognize the goodbye on the
// wire without exporting the envelope.
func IsStopFrame(frame []byte) bool {
	m, err := decodeMsg(frame, nil)
	return err == nil && m.kind == msgStop
}

// LazyTestBuilder and TrainAlgo lend the external test package the lazy
// fleet and the training algorithm of the store tests.
var LazyTestBuilder = lazyTestBuilder

type TrainAlgo = trainAlgo

// bodiesOf returns vs as F64 bodies over their own memory: a test builds a
// payload from float literals.
func bodiesOf(vs [][]float64) []comm.Body { return f64Bodies(nil, vs) }

// floatsOf returns bodies decoded into fresh vectors, nil for an absent one:
// a test reads a payload as floats.
func floatsOf(bs []comm.Body) [][]float64 {
	if bs == nil {
		return nil
	}
	vs := make([][]float64, len(bs))
	for i, b := range bs {
		if !b.Nil() {
			vs[i] = b.Decode(make([]float64, b.Len()))
		}
	}
	return vs
}

// payloadsOf is bodiesOf for per-member payloads.
func payloadsOf(ps [][][]float64) [][]comm.Body {
	out := make([][]comm.Body, len(ps))
	for i, p := range ps {
		out[i] = bodiesOf(p)
	}
	return out
}
