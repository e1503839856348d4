package transport

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestRecvFrameValidUntilReleased pins Conn.Recv's lifetime rule on every
// transport: a received frame is the reader's until it releases it. The
// reader holds every frame across the next three Recvs — while the sender
// sends, and then scribbles over, the frames after it — and each must still
// be byte-identical when it is released. Frame sizes alternate between large
// and tiny so recycled buffers change hands between size classes, and a
// frame received after the releases must land in a buffer released before.
// Under Chaos{Dup: 1} every frame also arrives a second time from the chaos
// connection's own copy, which must hold the original bytes however long
// the original is held, and whose release recycles it for the next
// duplicate. Over tcp, a frame above MaxFrame is refused without growing
// the connection's free buffers.
func TestRecvFrameValidUntilReleased(t *testing.T) {
	const maxFrame, hold = 1 << 16, 3
	opts := Options{MaxFrame: maxFrame}
	cases := map[string]struct {
		tr     Transport
		copies int // deliveries per frame
	}{
		"inproc": {NewInproc(opts), 1},
		"tcp":    {NewTCP(opts), 1},
		"chaos":  {NewChaos(NewInproc(opts), ChaosConfig{Seed: 5, Dup: 1}), 2},
	}
	sizes := []int{40000, 9, 52, 40000, 1, 30000, 52, 40000, 17, 52, 36000, 3, 40000, 52}
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
				b := pattern(i)
				if _, err := cli.Send(b); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
				for j := range b {
					b[j] = 0xEE
				}
			}
			type held struct {
				i     int
				frame []byte
			}
			var window []held
			released := map[*byte]bool{}
			check := func(h held, when string) {
				if !bytes.Equal(h.frame, pattern(h.i)) {
					t.Fatalf("frame %d changed while held (%s)", h.i, when)
				}
			}
			release := func(h held) {
				check(h, "at release")
				if len(h.frame) > 0 {
					released[&h.frame[:1][0]] = true
				}
				srv.Release(h.frame)
			}
			for i := range sizes {
				send(i)
				for c := 0; c < tc.copies; c++ {
					got, wire, err := srv.Recv()
					if err != nil {
						t.Fatalf("recv %d (copy %d): %v", i, c, err)
					}
					if wire != int64(FrameOverhead+sizes[i]) {
						t.Fatalf("frame %d (copy %d): wire %d, want %d", i, c, wire, FrameOverhead+sizes[i])
					}
					window = append(window, held{i, got})
					for _, h := range window {
						check(h, "a later Recv returned")
					}
				}
				if len(window) > hold*tc.copies {
					for _, h := range window[:tc.copies] {
						release(h)
					}
					window = window[tc.copies:]
				}
			}
			for _, h := range window {
				release(h)
			}
			// A frame the size of one released keeps to the released buffers.
			send(0)
			for c := 0; c < tc.copies; c++ {
				got, _, err := srv.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, pattern(0)) {
					t.Fatalf("copy %d of the last frame arrived changed", c)
				}
				if !released[&got[0]] {
					t.Fatalf("copy %d of the last frame grew a buffer instead of reusing a released one", c)
				}
				srv.Release(got)
			}

			if tcp, ok := srv.(*tcpConn); ok {
				caps := func() [2]int { return [2]int{cap(tcp.free.free[0]), cap(tcp.free.free[1])} }
				before := caps()
				if before[0] == 0 && before[1] == 0 || max(before[0], before[1]) > maxFrame {
					t.Fatalf("free buffers of %v bytes after frames of at most %d", before, maxFrame)
				}
				if _, err := cli.Send(make([]byte, maxFrame+1)); err != nil {
					t.Fatal(err)
				}
				if _, _, err := srv.Recv(); err == nil || !strings.Contains(err.Error(), "limit") {
					t.Fatalf("oversized frame: err = %v, want a read-limit rejection", err)
				}
				if after := caps(); after != before {
					t.Fatalf("refused frame changed the free buffers from %v to %v bytes", before, after)
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
// frames sent, not on when the receiver releases a frame.
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
	m := recv(model)
	first := &m[0]
	send(control)
	c := recv(control)
	srv.Release(m) // the model frame's buffer is free again
	// The receiver still holds the first control frame.
	send(control)
	send(model)
	srv.Release(c)
	recv(control)
	if got := &recv(model)[0]; got != first {
		t.Fatal("the model frame sent after a control frame grew a new buffer instead of reusing the free one")
	}
}
