package fl

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/transport"
)

// TestWireMsgRoundTripAllocs is the wireMsgRoundTrip hot path — one model-
// sized msgUpdate encoded into an owned frame, sent over an inproc
// connection, received, decoded (its body read where it lies) and recycled —
// at the wire benchmark's geometry (d = 107 722). In steady state the frame,
// the transport's copy and the decoded vector are all recycled: what is left
// is the decoded message's envelope. It lives here rather than among the
// root package's hotPaths because the envelope is unexported.
func TestWireMsgRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the alloc gate runs without -race")
	}
	const d = 107722
	tr := transport.NewInproc(transport.Options{})
	ln, err := tr.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cli, err := tr.Dial(context.Background(), "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	up := &wireMsg{kind: msgUpdate, a: 3, b: math.Float64bits(30), vecs: bodiesOf([][]float64{ramp(d, 0.25)})}
	enc, dec := plainWire(comm.F64), plainWire(comm.F64)
	var frame []byte
	roundTrip := func() {
		frame = appendMsg(frame[:0], up, enc)
		if _, err := cli.Send(frame); err != nil {
			t.Fatal(err)
		}
		b, _, err := srv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		m, err := decodeMsg(b, dec)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.vecs) != 1 || !bytes.Equal(m.vecs[0].Bytes()[8*(d-1):], up.vecs[0].Bytes()[8*(d-1):]) {
			t.Fatal("round trip lost the payload")
		}
		m.recycle()
	}
	roundTrip()
	roundTrip() // the second trip retires the first frame into the lane's free list
	if got := testing.AllocsPerRun(20, roundTrip); got > 4 {
		t.Fatalf("wire message round trip: %v allocs/op, want <= 4", got)
	}
}
