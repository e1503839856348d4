package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by a shim in this
// directory. Times are nanoseconds since the recorder was created. Parent
// is the id of the span whose call caused this one (-1 for a root); Round
// is the federation round (or async commit version) the work belongs to.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Round  int    `json:"round"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so the untraced run pays one nil check per shim call.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id; the caller closes it with end.
func (r *recorder) begin(name string, parent, round int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Name: name, Start: now, End: now, Parent: parent, Round: round})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far. The node runtime's
// reader goroutines may outlive the run that started them, so the spans are
// read under the lock they are written under.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover (children of one parent may overlap
// when they ran on different goroutines, so the cover is a union).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		dur := s.End - s.Start
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return spans[ch[i]].Start < spans[ch[j]].Start })
		var covered int64
		cursor := s.Start
		for _, id := range ch {
			lo, hi := spans[id].Start, spans[id].End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = dur - covered
	}
	return self
}

// spanTotals sums durations, self times and counts by span name.
type spanTotal struct {
	Count  int
	DurNs  int64
	SelfNs int64
}

func totalsByName(spans []span) map[string]spanTotal {
	self := selfTimes(spans)
	out := make(map[string]spanTotal)
	for _, s := range spans {
		t := out[s.Name]
		t.Count++
		t.DurNs += s.End - s.Start
		t.SelfNs += self[s.ID]
		out[s.Name] = t
	}
	return out
}

// traceFile is what benchmark/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Rounds   int    `json:"rounds"`
	Spans    []span `json:"spans"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	b, err := json.Marshal(tf)
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
