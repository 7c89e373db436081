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

// noSpan is the parent of a root span and the id every call returns on a
// disabled tracer.
const noSpan = -1

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's origin; Parent is the id of the span that caused this one.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory; they are written out once, when the run
// ends. A nil *tracer is the untraced mode: every method is a no-op, so
// the untraced run pays one nil check per boundary.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds an already-timed span (for calls timed with a local clock
// in a hot loop, where a lock per call would distort the timing).
func (t *tracer) record(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))})
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval covered by its children. Children may overlap each
// other (concurrent workers), so the covered part is the length of the
// union of the children's intervals clipped to the parent's. Open spans
// have zero self time.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != noSpan && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered int64
		cur := s.Start // everything before cur is already counted
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[i] = s.dur() - time.Duration(covered)
	}
	return out
}

// spanStats aggregates the spans of each name.
type spanStats struct {
	durs map[string][]float64 // seconds, in recording order
	self map[string]float64   // summed self time, seconds
}

func aggregate(spans []span) spanStats {
	st := spanStats{durs: map[string][]float64{}, self: map[string]float64{}}
	self := selfTimes(spans)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		st.durs[s.Name] = append(st.durs[s.Name], s.dur().Seconds())
		st.self[s.Name] += self[i].Seconds()
	}
	return st
}

// medianOf returns the median duration (seconds) of the named spans, 0 if
// there are none.
func (st spanStats) medianOf(name string) float64 { return median(st.durs[name]) }

// total returns the summed duration (seconds) of the named spans.
func (st spanStats) total(name string) float64 {
	s := 0.0
	for _, d := range st.durs[name] {
		s += d
	}
	return s
}

// writeTrace writes the run's provenance and spans as JSON under dir.
func writeTrace(dir string, prov provenance, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", prov.Workload, prov.Seed, prov.Trace))
	b, err := json.Marshal(struct {
		Provenance provenance `json:"provenance"`
		Spans      []span     `json:"spans"`
	}{prov, spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
