package fl

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
