package transport

import (
	"runtime"
	"sync"
	"sync/atomic"
	"weak"
)

// Lending: a frame its sender keeps — to replay it, or to encode the next
// one into once this one is read — crosses an inproc lane without a copy.
// The sender marks the buffer with Lend; every inproc Send of a frame that
// starts at the buffer's first byte then hands the receiver the buffer
// itself and counts it held until the receiver releases it, and the sender
// rewrites it only once Held reports that nobody holds it. A frame handed
// over for good (an upload, a join) is lent the same way: it is lent once,
// and its buffer is the sender's again when its receiver releases it.
//
// The mark lives in a table keyed by the buffer, so it reaches the inproc
// connection through any wrapper that passes the frame on to Send, and the
// Conn interface is unchanged. Its keys are weak: a lent buffer its owner
// drops is collected like any other, and its entry goes with it, so nothing
// ever has to be unlent.

var loans = struct {
	mu sync.RWMutex
	// held counts, per lent buffer, the receivers holding a frame in it.
	held map[weak.Pointer[byte]]*atomic.Int32
}{held: make(map[weak.Pointer[byte]]*atomic.Int32)}

// Lend marks frame's buffer as lent and returns frame. A frame sent from it
// is the sender's to leave alone until Held reports it free; lending a
// buffer twice is lending it once.
func Lend(frame []byte) []byte {
	if cap(frame) == 0 {
		return frame
	}
	p := &frame[:1][0]
	k := weak.Make(p)
	loans.mu.Lock()
	_, lent := loans.held[k]
	if !lent {
		loans.held[k] = new(atomic.Int32)
	}
	loans.mu.Unlock()
	if lent {
		return frame
	}
	runtime.AddCleanup(p, func(k weak.Pointer[byte]) {
		loans.mu.Lock()
		delete(loans.held, k)
		loans.mu.Unlock()
	}, k)
	return frame
}

// Held reports whether a receiver still holds a frame lent from buf's
// buffer. An unlent buffer is never held.
func Held(buf []byte) bool {
	n := loanOf(buf)
	return n != nil && n.Load() > 0
}

// loanOf returns the hold count of the lent buffer b starts, or nil when b
// does not start a lent buffer.
func loanOf(b []byte) *atomic.Int32 {
	if cap(b) == 0 {
		return nil
	}
	k := weak.Make(&b[:1][0])
	loans.mu.RLock()
	n := loans.held[k]
	loans.mu.RUnlock()
	return n
}
