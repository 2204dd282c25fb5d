package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry point. Spans of one request share Trace;
// Parent names the span that caused this one (0 for a root).
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"startNs"`
	End   int64 `json:"endNs"`
}

func (s span) duration() int64 { return s.End - s.Start }

// recorder keeps spans in memory for the whole run; dump writes them out
// once the run ends, so recording costs one lock and one append.
type recorder struct {
	base   time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), spans: make([]span, 0, 1<<14)}
}

// id allocates a span or trace identifier; identifiers start at 1.
func (r *recorder) id() uint64 { return r.nextID.Add(1) }

// ns converts an instant to the recorder's clock.
func (r *recorder) ns(t time.Time) int64 { return int64(t.Sub(r.base)) }

// add records a finished span and returns its ID. A zero id allocates
// one; pass a preallocated id when children must name this span as their
// parent before it ends.
func (r *recorder) add(trace, id, parent uint64, name string, start, end time.Time) uint64 {
	if id == 0 {
		id = r.id()
	}
	s := span{Trace: trace, ID: id, Parent: parent, Name: name, Start: r.ns(start), End: r.ns(end)}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return id
}

// snapshot returns a copy of every span recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// dump writes every span as one JSON object per line.
func (r *recorder) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is the parent's duration minus the part of its interval that
// the children cover. Overlapping children count once, and the parts of
// children outside the parent's interval do not count.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered := int64(0)
	curLo, curHi := int64(0), int64(-1)
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
			continue
		}
		curHi = max(curHi, v.hi)
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return parent.duration() - covered
}

// spanStats summarizes the spans of one name.
type spanStats struct {
	n       int
	totalNs int64
	selfNs  int64
}

// meanUS and meanSelfUS are 0 for a name with no spans.
func (s spanStats) meanUS() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.totalNs) / float64(s.n) / 1e3
}

func (s spanStats) meanSelfUS() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.selfNs) / float64(s.n) / 1e3
}

// summarize groups spans by name and computes each name's count, total
// and self time; a name with no spans maps to the zero spanStats.
func summarize(spans []span) map[string]spanStats {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]spanStats{}
	for _, s := range spans {
		st := out[s.Name]
		st.n++
		st.totalNs += s.duration()
		st.selfNs += selfTime(s, children[s.ID])
		out[s.Name] = st
	}
	return out
}

// traceFile is where a traced run dumps its spans, relative to the
// working directory.
func traceFile(workload string, seed int64) string {
	return filepath.Join(".bench_out", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
