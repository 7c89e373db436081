// Package obs is the observability layer of the serving stack: atomic
// request/decision counters, a log-linear (HDR) latency histogram, and a
// JSON-safe Snapshot that both the HTTP /metrics endpoint and the
// fleet/experiment CLIs render.
//
// The package deliberately depends on nothing but the standard library
// (and not even the clock): callers time their own operations and hand
// durations in, so tests are free of time-of-day dependence and the
// recording path stays allocation-free. All recorders are safe for
// concurrent use; Snapshot is a plain value safe to marshal, compare
// and render.
package obs

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// DefaultLatencyBounds are the bucket upper bounds in seconds that a
// Snapshot folds the decide-latency histogram into (1 us to 1 s, roughly
// 1-2.5-5 per decade). The final implicit bucket is +Inf; keeping the
// explicit bounds finite keeps every Snapshot field representable in
// JSON.
func DefaultLatencyBounds() []float64 {
	return []float64{
		1e-6, 2.5e-6, 5e-6,
		1e-5, 2.5e-5, 5e-5,
		1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3,
		1e-2, 2.5e-2, 5e-2,
		1e-1, 2.5e-1, 5e-1,
		1,
	}
}

// HistogramSnapshot is the JSON-safe fixed-bucket view of an
// HDRHistogram that /metrics renders: the bounds are finite (the +Inf
// overflow bucket is implicit as the final count), so encoding/json
// accepts every field.
type HistogramSnapshot struct {
	// BoundsSeconds are the finite bucket upper bounds.
	BoundsSeconds []float64 `json:"bounds_seconds"`
	// Counts[i] is the number of observations in bucket i under the
	// Buckets rule; the final extra entry counts those above every bound.
	Counts []uint64 `json:"counts"`
	// Count is the total number of observations, exactly.
	Count uint64 `json:"count"`
	// SumSeconds is the total observed time, exactly.
	SumSeconds float64 `json:"sum_seconds"`
}

// Buckets folds an HDR snapshot into fixed buckets over the given
// ascending bounds in seconds. A slot counts toward bound b when its
// highest value is at most b, so an observation moves up at most one
// bucket, and only when it lies within one sub-bucket (<=1.6%) of a
// bound. Count, SumSeconds and the cumulative +Inf total stay exact.
func (s HDRSnapshot) Buckets(boundsSeconds []float64) HistogramSnapshot {
	out := HistogramSnapshot{
		BoundsSeconds: append([]float64(nil), boundsSeconds...),
		Counts:        make([]uint64, len(boundsSeconds)+1),
		Count:         s.Count,
		SumSeconds:    time.Duration(s.SumNanos).Seconds(),
	}
	b := 0
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		for b < len(boundsSeconds) && time.Duration(hdrValueAt(i)).Seconds() > boundsSeconds[b] {
			b++
		}
		out.Counts[b] += c
	}
	out.Counts[len(boundsSeconds)] += s.Overflow
	return out
}

// Metrics is the serving layer's counter set. All fields are safe for
// concurrent use; the zero value records no latency (NewMetrics adds the
// histogram).
type Metrics struct {
	// Requests counts HTTP requests accepted by the decision service;
	// BadRequests counts the subset rejected as malformed (4xx).
	Requests, BadRequests atomic.Uint64
	// Decisions counts Session.Decide calls served. Throttles, Climbs
	// and Holds partition Decisions by the commanded direction; Clamps
	// counts decisions whose raw controller output had to be clamped to
	// a legal operating point.
	Decisions, Throttles, Climbs, Holds, Clamps atomic.Uint64
	// SessionsCreated and SessionsEvicted track registry churn
	// (evictions split by cause: idle TTL vs capacity LRU).
	SessionsCreated, EvictedIdle, EvictedLRU atomic.Uint64

	// DecideLatency is the per-decision service time distribution.
	DecideLatency *HDRHistogram
}

// NewMetrics returns a Metrics with a decide-latency histogram.
func NewMetrics() *Metrics {
	return &Metrics{DecideLatency: NewHDRHistogram()}
}

// RecordDecision folds one decision into the counters: prev and next
// are the operating frequencies before and after the decision, clamped
// reports whether the raw controller output was clamped, d is the
// decide service time.
func (m *Metrics) RecordDecision(prev, next float64, clamped bool, d time.Duration) {
	m.Decisions.Add(1)
	switch {
	case next < prev:
		m.Throttles.Add(1)
	case next > prev:
		m.Climbs.Add(1)
	default:
		m.Holds.Add(1)
	}
	if clamped {
		m.Clamps.Add(1)
	}
	if m.DecideLatency != nil {
		m.DecideLatency.Record(d)
	}
}

// AddDecisions folds pre-aggregated decision counts in (the fleet and
// experiment CLIs render campaign results through the same Snapshot the
// daemon serves on /metrics).
func (m *Metrics) AddDecisions(decisions, throttles, climbs, holds, clamps uint64) {
	m.Decisions.Add(decisions)
	m.Throttles.Add(throttles)
	m.Climbs.Add(climbs)
	m.Holds.Add(holds)
	m.Clamps.Add(clamps)
}

// Snapshot is the JSON-safe point-in-time state of a Metrics. Every
// field is finite, so encoding/json accepts it as-is.
type Snapshot struct {
	Requests    uint64 `json:"requests"`
	BadRequests uint64 `json:"bad_requests"`

	Decisions uint64 `json:"decisions"`
	Throttles uint64 `json:"throttles"`
	Climbs    uint64 `json:"climbs"`
	Holds     uint64 `json:"holds"`
	Clamps    uint64 `json:"clamps"`

	SessionsCreated uint64 `json:"sessions_created"`
	EvictedIdle     uint64 `json:"evicted_idle"`
	EvictedLRU      uint64 `json:"evicted_lru"`
	// Sessions is the live session count at snapshot time (filled by the
	// registry, not the counters).
	Sessions int `json:"sessions"`

	DecideLatency HistogramSnapshot `json:"decide_latency"`
}

// Snapshot captures the counters.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Requests:        m.Requests.Load(),
		BadRequests:     m.BadRequests.Load(),
		Decisions:       m.Decisions.Load(),
		Throttles:       m.Throttles.Load(),
		Climbs:          m.Climbs.Load(),
		Holds:           m.Holds.Load(),
		Clamps:          m.Clamps.Load(),
		SessionsCreated: m.SessionsCreated.Load(),
		EvictedIdle:     m.EvictedIdle.Load(),
		EvictedLRU:      m.EvictedLRU.Load(),
	}
	if m.DecideLatency != nil {
		s.DecideLatency = m.DecideLatency.Snapshot().Buckets(DefaultLatencyBounds())
	}
	return s
}

// Render formats the snapshot as the aligned text block the CLIs print.
func (s Snapshot) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests  %10d (bad %d)\n", s.Requests, s.BadRequests)
	fmt.Fprintf(&b, "decisions %10d (throttle %d, climb %d, hold %d, clamped %d)\n",
		s.Decisions, s.Throttles, s.Climbs, s.Holds, s.Clamps)
	fmt.Fprintf(&b, "sessions  %10d live (created %d, evicted %d idle + %d lru)\n",
		s.Sessions, s.SessionsCreated, s.EvictedIdle, s.EvictedLRU)
	if s.DecideLatency.Count > 0 {
		mean := s.DecideLatency.SumSeconds / float64(s.DecideLatency.Count)
		fmt.Fprintf(&b, "decide    %10.1f us mean over %d decisions\n", mean*1e6, s.DecideLatency.Count)
	}
	return b.String()
}

// Prom renders the snapshot in the Prometheus text exposition format
// under the given metric prefix (e.g. "boreas"). The +Inf histogram
// bucket exists only here, as the conventional le="+Inf" label — the
// Snapshot itself stays JSON-safe.
func (s Snapshot) Prom(prefix string) string {
	var b strings.Builder
	counter := func(name string, v uint64) {
		fmt.Fprintf(&b, "# TYPE %s_%s counter\n%s_%s %d\n", prefix, name, prefix, name, v)
	}
	counter("requests_total", s.Requests)
	counter("bad_requests_total", s.BadRequests)
	counter("decisions_total", s.Decisions)
	counter("throttles_total", s.Throttles)
	counter("climbs_total", s.Climbs)
	counter("holds_total", s.Holds)
	counter("clamps_total", s.Clamps)
	counter("sessions_created_total", s.SessionsCreated)
	counter("sessions_evicted_idle_total", s.EvictedIdle)
	counter("sessions_evicted_lru_total", s.EvictedLRU)
	fmt.Fprintf(&b, "# TYPE %s_sessions gauge\n%s_sessions %d\n", prefix, prefix, s.Sessions)

	h := s.DecideLatency
	if len(h.Counts) == len(h.BoundsSeconds)+1 {
		fmt.Fprintf(&b, "# TYPE %s_decide_latency_seconds histogram\n", prefix)
		cum := uint64(0)
		for i, bound := range h.BoundsSeconds {
			cum += h.Counts[i]
			fmt.Fprintf(&b, "%s_decide_latency_seconds_bucket{le=%q} %d\n", prefix, formatBound(bound), cum)
		}
		cum += h.Counts[len(h.Counts)-1]
		fmt.Fprintf(&b, "%s_decide_latency_seconds_bucket{le=\"+Inf\"} %d\n", prefix, cum)
		fmt.Fprintf(&b, "%s_decide_latency_seconds_sum %g\n", prefix, h.SumSeconds)
		fmt.Fprintf(&b, "%s_decide_latency_seconds_count %d\n", prefix, h.Count)
	}
	return b.String()
}

// formatBound renders a bucket bound the shortest exact way.
func formatBound(v float64) string { return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0") }
