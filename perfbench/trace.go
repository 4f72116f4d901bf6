package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one simulation run, sweep
// job or HTTP request share Trace; Parent is the index of the enclosing span
// in the recorder, or -1 for a root.
type span struct {
	Name   string `json:"name"`
	Trace  int64  `json:"trace"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory; they are written out once, at the end of
// the run, so that recording costs one locked append per call.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index, for end and as a parent.
func (r *recorder) begin(name string, trace int64, parent int) int {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Trace: trace, Parent: parent, Start: now})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// timed records fn as one span and returns the span's index.
func (r *recorder) timed(name string, trace int64, parent int, fn func()) int {
	i := r.begin(name, trace, parent)
	fn()
	r.end(i)
	return i
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// it that its children cover. Overlapping children (parallel jobs under one
// sweep) count their union once, and children are clipped to the parent.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		ivs := make([]iv, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, reach := int64(0), s.Start
		for _, v := range ivs {
			if v.hi <= reach {
				continue
			}
			covered += v.hi - max(v.lo, reach)
			reach = v.hi
		}
		self[i] = s.dur() - covered
	}
	return self
}

// durations returns the durations in milliseconds of the spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// coverage is the share of root's duration that the self times of its
// descendants account for: the part of a traced operation that the layer
// spans explain, as opposed to the benchmark's own glue between calls.
func coverage(spans []span, root int) float64 {
	self := selfTimes(spans)
	var inside int64
	for i := range spans {
		for p := spans[i].Parent; p >= 0; p = spans[p].Parent {
			if p == root {
				inside += self[i]
				break
			}
		}
	}
	return float64(inside) / float64(spans[root].dur())
}

// writeSpans writes the spans and the run's provenance as one JSON file.
func writeSpans(path string, prov provenance, spans []span) error {
	data, err := json.Marshal(struct {
		Provenance provenance `json:"provenance"`
		Spans      []span     `json:"spans"`
	}{prov, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
