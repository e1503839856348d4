package transport

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestRecvFrameValidUntilNextRecv pins Conn.Recv's lifetime rule on every
// transport that recycles frame memory: a received frame stays intact while
// the sender sends — and then scribbles over — the next two frames, right up
// to the receiver's next Recv. Frame sizes alternate between large and tiny
// so recycled buffers change hands between size classes. Under Chaos{Dup: 1}
// every frame also arrives a second time from the chaos connection's own
// copy, which must hold the original bytes even though the inner connection
// is free to recycle the original. Over tcp, a frame above MaxFrame is
// refused without growing the connection's read buffer.
func TestRecvFrameValidUntilNextRecv(t *testing.T) {
	const maxFrame = 1 << 16
	opts := Options{MaxFrame: maxFrame}
	cases := map[string]struct {
		tr     Transport
		copies int // deliveries per frame
	}{
		"inproc": {NewInproc(opts), 1},
		"tcp":    {NewTCP(opts), 1},
		"chaos":  {NewChaos(NewInproc(opts), ChaosConfig{Seed: 5, Dup: 1}), 2},
	}
	sizes := []int{40000, 9, 52, 40000, 1, 30000, 52, 40000, 17, 52, 36000, 3}
	pattern := func(i int) []byte {
		b := make([]byte, sizes[i])
		for j := range b {
			b[j] = byte(i*31 + j)
		}
		return b
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			ln, err := tc.tr.Listen(listenAddr(tc.tr))
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			accepted := make(chan Conn, 1)
			go func() {
				if c, err := ln.Accept(); err == nil {
					accepted <- c
				}
			}()
			cli, err := tc.tr.Dial(context.Background(), ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			srv := <-accepted
			defer srv.Close()

			// send writes frame i and then overwrites the sender's buffer: the
			// receiver must never see the scribble.
			send := func(i int) {
				if i >= len(sizes) {
					return
				}
				b := pattern(i)
				if _, err := cli.Send(b); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
				for j := range b {
					b[j] = 0xEE
				}
			}
			send(0)
			send(1)
			for i := range sizes {
				for c := 0; c < tc.copies; c++ {
					got, wire, err := srv.Recv()
					if err != nil {
						t.Fatalf("recv %d (copy %d): %v", i, c, err)
					}
					if c == 0 {
						send(i + 2) // frames i+1 and i+2 are now sent and scribbled over
					}
					if want := pattern(i); !bytes.Equal(got, want) || wire != int64(FrameOverhead+len(want)) {
						t.Fatalf("frame %d (copy %d) changed while held: %d bytes (wire %d), want %d",
							i, c, len(got), wire, len(want))
					}
				}
			}

			if tcp, ok := srv.(*tcpConn); ok {
				before := cap(tcp.rbuf)
				if before == 0 || before > maxFrame {
					t.Fatalf("read buffer holds %d bytes after frames of at most %d", before, maxFrame)
				}
				if _, err := cli.Send(make([]byte, maxFrame+1)); err != nil {
					t.Fatal(err)
				}
				if _, _, err := srv.Recv(); err == nil || !strings.Contains(err.Error(), "limit") {
					t.Fatalf("oversized frame: err = %v, want a read-limit rejection", err)
				}
				if cap(tcp.rbuf) != before {
					t.Fatalf("refused frame grew the read buffer from %d to %d bytes", before, cap(tcp.rbuf))
				}
			}
		})
	}
}

// TestInprocControlFrameLeavesModelBuffer pins which buffer an inproc lane
// hands a frame: a control frame sent while the receiver still holds the
// previous one does not take the lane's model-sized buffer, so the model
// frame sent right after it reuses that buffer instead of growing a second
// one. How many model-sized buffers a lane allocates then depends on the
// frames sent, not on when the receiver's next Recv retires a frame.
func TestInprocControlFrameLeavesModelBuffer(t *testing.T) {
	tr := NewInproc(Options{})
	ln, err := tr.Listen("lane")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c
		}
	}()
	cli, err := tr.Dial(context.Background(), ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv := <-accepted
	defer srv.Close()

	const model, control = 1 << 16, 52
	send := func(n int) {
		if _, err := cli.Send(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	recv := func(n int) []byte {
		got, _, err := srv.Recv()
		if err != nil || len(got) != n {
			t.Fatalf("recv: %d bytes, err %v; want %d bytes", len(got), err, n)
		}
		return got
	}
	send(model)
	first := &recv(model)[0]
	send(control)
	recv(control) // retires the model frame: its buffer is free again
	// The receiver still holds the first control frame.
	send(control)
	send(model)
	recv(control)
	if got := &recv(model)[0]; got != first {
		t.Fatal("the model frame sent after a control frame grew a new buffer instead of reusing the free one")
	}
}
