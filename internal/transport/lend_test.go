package transport

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"
	"weak"
)

// lendPairs listens on inner and dials it k times through dial (inner
// itself, or a wrapper of it), returning the accepted ends — the sender's —
// and the dialed ends, the receivers.
func lendPairs(t *testing.T, inner, dial Transport, k int) (senders, receivers []Conn) {
	t.Helper()
	ln, err := inner.Listen(listenAddr(inner))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	for range k {
		accepted := make(chan Conn, 1)
		go func() {
			if c, err := ln.Accept(); err == nil {
				accepted <- c
			}
		}()
		cli, err := dial.Dial(context.Background(), ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		srv := <-accepted
		t.Cleanup(func() { cli.Close(); srv.Close() })
		senders, receivers = append(senders, srv), append(receivers, cli)
	}
	return senders, receivers
}

func lendPattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

// TestLendHandsTheFrameOver pins the hand-over on an inproc lane: a lent
// frame arrives in the sender's own backing array, not in a copy; it stays
// byte-identical while the receiver holds it across later sends — lent ones,
// which the sender encodes into buffers of their own while the first is
// held, and copied ones the sender scribbles over; and its buffer is the
// sender's again (Held false) only once the receiver released it. Over tcp
// the frame is the sender's again as soon as Send returns: the receiver
// reads a buffer of its own.
func TestLendHandsTheFrameOver(t *testing.T) {
	const size = 40000
	t.Run("inproc", func(t *testing.T) {
		tr := NewInproc(Options{})
		snd, rcv := lendPairs(t, tr, tr, 1)
		out := Lend(lendPattern(size, 1))
		if _, err := snd[0].Send(out); err != nil {
			t.Fatal(err)
		}
		got, wire, err := rcv[0].Recv()
		if err != nil {
			t.Fatal(err)
		}
		if wire != FrameOverhead+size || &got[0] != &out[0] {
			t.Fatalf("a lent frame arrived as a copy (wire %d)", wire)
		}
		if !Held(out) {
			t.Fatal("a received, unreleased frame is not held")
		}
		// Later sends while the first frame is held.
		for i := byte(2); i < 6; i++ {
			next := lendPattern(size, i)
			if i%2 == 0 {
				Lend(next)
			}
			if _, err := snd[0].Send(next); err != nil {
				t.Fatal(err)
			}
			for j := range next {
				if i%2 == 1 {
					next[j] = 0xEE // a copied frame is the sender's to scribble on
				}
			}
			b, _, err := rcv[0].Recv()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b, lendPattern(size, i)) {
				t.Fatalf("frame %d arrived changed", i)
			}
			if !bytes.Equal(got, lendPattern(size, 1)) {
				t.Fatalf("the held frame changed while frame %d was sent", i)
			}
			if !Held(out) {
				t.Fatalf("the held frame's buffer went back to its sender before its release (frame %d)", i)
			}
			rcv[0].Release(b)
		}
		rcv[0].Release(got)
		if Held(out) {
			t.Fatal("a released frame is still held")
		}
	})
	t.Run("tcp", func(t *testing.T) {
		tr := NewTCP(Options{})
		snd, rcv := lendPairs(t, tr, tr, 1)
		out := Lend(lendPattern(size, 1))
		if _, err := snd[0].Send(out); err != nil {
			t.Fatal(err)
		}
		if Held(out) {
			t.Fatal("a tcp Send kept a hold on a lent frame")
		}
		got, _, err := rcv[0].Recv()
		if err != nil {
			t.Fatal(err)
		}
		if &got[0] == &out[0] || !bytes.Equal(got, lendPattern(size, 1)) {
			t.Fatal("a tcp frame did not arrive in a buffer of the receiver's own")
		}
		rcv[0].Release(got)
	})
}

// TestLendToManyReceivers lends one frame to k receivers, as a broadcast
// cached for replay is: every receiver reads the sender's buffer, and the
// buffer is writable again only after the k-th release. Under Chaos{Dup: 1}
// each receiver also gets a duplicate, which is the chaos connection's own
// copy: it holds nothing of the sender's buffer, and keeps its bytes when
// the sender rewrites the buffer after the k-th release. Then the receivers
// read and release concurrently, round after round, with the sender
// rewriting the buffer whenever Held reports it free.
func TestLendToManyReceivers(t *testing.T) {
	const k, size = 4, 30000
	for _, tc := range []struct {
		name   string
		copies int
		wrap   func(Transport) Transport
	}{
		{"inproc", 1, func(tr Transport) Transport { return tr }},
		{"chaos", 2, func(tr Transport) Transport { return NewChaos(tr, ChaosConfig{Seed: 3, Dup: 1}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner := NewInproc(Options{})
			snd, rcv := lendPairs(t, inner, tc.wrap(inner), k)
			frame := Lend(lendPattern(size, 9))
			for _, s := range snd {
				if _, err := s.Send(frame); err != nil {
					t.Fatal(err)
				}
			}
			var orig, dups [][]byte
			for _, r := range rcv {
				for c := range tc.copies {
					b, _, err := r.Recv()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(b, lendPattern(size, 9)) {
						t.Fatalf("copy %d arrived changed", c)
					}
					if (&b[0] == &frame[0]) != (c == 0) {
						t.Fatalf("delivery %d: lent buffer %v, want %v", c, &b[0] == &frame[0], c == 0)
					}
					if c == 0 {
						orig = append(orig, b)
					} else {
						dups = append(dups, b)
					}
				}
			}
			for i, r := range rcv {
				if !Held(frame) {
					t.Fatalf("the frame is free with %d of %d receivers holding it", k-i, k)
				}
				r.Release(orig[i])
			}
			if Held(frame) {
				t.Fatalf("the frame is held after all %d releases", k)
			}
			copy(frame, lendPattern(size, 10)) // the sender rewrites it
			for i, d := range dups {
				if !bytes.Equal(d, lendPattern(size, 9)) {
					t.Fatalf("receiver %d's duplicate changed when the sender rewrote its buffer", i)
				}
				rcv[i].Release(d) // a duplicate's release ends no hold
			}
			if Held(frame) {
				t.Fatal("releasing the duplicates took a hold")
			}

			// Round after round, the receivers read and release on goroutines of
			// their own while the sender waits on nothing but Held before it
			// rewrites the buffer: the hold count alone orders every read before
			// the next write (under -race, a missing edge is a reported race).
			const rounds = 20
			errs := make(chan error, k)
			for _, r := range rcv {
				go func() {
					for i := range rounds {
						for range tc.copies {
							b, _, err := r.Recv()
							if err != nil {
								errs <- err
								return
							}
							if !bytes.Equal(b, lendPattern(size, byte(i))) {
								errs <- errors.New("a lent frame changed while held")
								return
							}
							r.Release(b)
						}
					}
					errs <- nil
				}()
			}
			for i := range rounds {
				for Held(frame) {
					runtime.Gosched()
				}
				copy(frame, lendPattern(size, byte(i)))
				for _, s := range snd {
					if _, err := s.Send(frame); err != nil {
						t.Fatal(err)
					}
				}
			}
			for range rcv {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestLendFailedSendKeepsFrame pins the failure rule: a Send that fails
// takes no hold, so the frame is its caller's again at once — on a closed
// inproc connection, on a full lane past its write deadline, and when chaos
// drops the connection on send. Nothing of the frame is delivered.
func TestLendFailedSendKeepsFrame(t *testing.T) {
	t.Run("closed", func(t *testing.T) {
		tr := NewInproc(Options{})
		snd, rcv := lendPairs(t, tr, tr, 1)
		snd[0].Close()
		frame := Lend(lendPattern(100, 1))
		if _, err := snd[0].Send(frame); !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("send on a closed connection: %v", err)
		}
		if Held(frame) {
			t.Fatal("a failed send left its frame held")
		}
		if _, _, err := rcv[0].Recv(); err != io.EOF {
			t.Fatalf("the peer received %v after a failed send, want EOF", err)
		}
	})
	t.Run("deadline", func(t *testing.T) {
		tr := NewInproc(Options{})
		snd, _ := lendPairs(t, tr, tr, 1)
		for {
			// Fill the lane: a Send that cannot enqueue fails at its deadline.
			snd[0].SetWriteDeadline(time.Now().Add(20 * time.Millisecond))
			if _, err := snd[0].Send([]byte("x")); err != nil {
				if !errors.Is(err, ErrDeadline) {
					t.Fatal(err)
				}
				break
			}
		}
		frame := Lend(lendPattern(100, 2))
		if _, err := snd[0].Send(frame); !errors.Is(err, ErrDeadline) {
			t.Fatalf("send on a full lane: %v, want a missed deadline", err)
		}
		if Held(frame) {
			t.Fatal("a send that missed its deadline left its frame held")
		}
	})
	t.Run("chaos drop", func(t *testing.T) {
		inner := NewInproc(Options{})
		_, rcv := lendPairs(t, inner, NewChaos(inner, ChaosConfig{Seed: 1, Drop: 1}), 1)
		frame := Lend(lendPattern(100, 3))
		if _, err := rcv[0].Send(frame); err == nil || !strings.Contains(err.Error(), "chaos") {
			t.Fatalf("send through a dropping chaos connection: %v", err)
		}
		if Held(frame) {
			t.Fatal("a dropped send left its frame held")
		}
	})
}

// TestLendForgetsDroppedBuffers checks that lending never has to be undone:
// a lent buffer its owner drops is collected, and its entry leaves the loan
// table with it, while a buffer still in use keeps its mark.
func TestLendForgetsDroppedBuffers(t *testing.T) {
	left := func(keys []weak.Pointer[byte]) (n int) {
		loans.mu.RLock()
		defer loans.mu.RUnlock()
		for _, k := range keys {
			if loans.held[k] != nil {
				n++
			}
		}
		return n
	}
	kept := Lend(make([]byte, 4096))
	var dropped []weak.Pointer[byte]
	for range 100 {
		dropped = append(dropped, weak.Make(&Lend(make([]byte, 4096))[0]))
	}
	if n := left(dropped); n != len(dropped) {
		t.Fatalf("%d of %d lent buffers are in the loan table", n, len(dropped))
	}
	deadline := time.Now().Add(10 * time.Second)
	for left(dropped) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d entries of dropped buffers left after 10 s of collections", left(dropped))
		}
		runtime.GC()
		runtime.Gosched()
	}
	if loanOf(kept) == nil {
		t.Fatal("a buffer still in use lost its mark")
	}
	runtime.KeepAlive(kept)
}
