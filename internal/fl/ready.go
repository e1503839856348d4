package fl

import (
	"container/heap"
	"math/bits"
)

// readySet indexes the async engine's schedulable clients — idle and not
// churned away — so a dispatch costs O(log N) instead of two scans of the
// fleet. Engine.idle and Engine.away stay the checkpointed truth; the set is
// derived from them (rebuild) and kept in step by the engine's transitions.
//
// Membership is a bitmap with a Fenwick tree over the popcounts of its
// 64-client words (3 bits per client together, so the tree of a million
// clients stays in cache): n is the number of schedulable clients and kth
// the k-th of them in id order, which is exactly what the scans computed, so
// the RNG sees the same n and picks the same id. rejoin is a min-heap of the
// away times of departed clients; advancing the clock moves the ones that
// are due back into the set.
type readySet struct {
	words  []uint64
	tree   []int32 // 1-based over words
	n      int     // members
	rejoin rejoinHeap
}

type rejoinEntry struct {
	at float64
	id int
}

// rejoinHeap orders departed clients by return time, then id.
type rejoinHeap []rejoinEntry

func (h rejoinHeap) Len() int { return len(h) }
func (h rejoinHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].id < h[j].id
}
func (h rejoinHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *rejoinHeap) Push(x any)   { *h = append(*h, x.(rejoinEntry)) }
func (h *rejoinHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// rebuild derives the set from the flags at virtual time now, in O(N).
func (s *readySet) rebuild(idle []bool, away []float64, now float64) {
	s.words = make([]uint64, (len(idle)+63)/64)
	s.tree = make([]int32, len(s.words)+1)
	s.n = 0
	s.rejoin = s.rejoin[:0]
	for id, ok := range idle {
		switch {
		case away[id] > now:
			s.rejoin = append(s.rejoin, rejoinEntry{at: away[id], id: id})
		case ok:
			s.words[id>>6] |= 1 << (id & 63)
			s.tree[id>>6+1]++
			s.n++
		}
	}
	for i := 1; i < len(s.tree); i++ {
		if p := i + i&-i; p < len(s.tree) {
			s.tree[p] += s.tree[i]
		}
	}
	heap.Init(&s.rejoin)
}

// add puts id into the set (d = 1) or takes it out (d = -1).
func (s *readySet) add(id int, d int32) {
	s.words[id>>6] ^= 1 << (id & 63)
	s.n += int(d)
	for i := id>>6 + 1; i < len(s.tree); i += i & -i {
		s.tree[i] += d
	}
}

// kth returns the k-th member (0-based) in id order; k must be below n.
func (s *readySet) kth(k int) int {
	w := 0
	for step := 1 << (bits.Len(uint(len(s.words))) - 1); step > 0; step >>= 1 {
		if next := w + step; next < len(s.tree) && int(s.tree[next]) <= k {
			w = next
			k -= int(s.tree[next])
		}
	}
	word := s.words[w]
	for ; k > 0; k-- {
		word &= word - 1
	}
	return w<<6 + bits.TrailingZeros64(word)
}

// leave takes a member out until virtual time at.
func (s *readySet) leave(id int, at float64) {
	s.add(id, -1)
	heap.Push(&s.rejoin, rejoinEntry{at: at, id: id})
}

// advance readmits every departed client due back by now. The engine only
// ever rolls an idle client for departure, so a busy one here comes from a
// malformed checkpoint; it joins the set when its flight resolves.
func (s *readySet) advance(now float64, idle []bool) {
	for len(s.rejoin) > 0 && s.rejoin[0].at <= now {
		if id := heap.Pop(&s.rejoin).(rejoinEntry).id; idle[id] {
			s.add(id, 1)
		}
	}
}
