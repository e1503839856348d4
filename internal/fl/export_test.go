package fl

// IsStopFrame lets the external test package recognize the goodbye on the
// wire without exporting the envelope.
func IsStopFrame(frame []byte) bool {
	m, err := decodeMsg(frame)
	return err == nil && m.kind == msgStop
}
