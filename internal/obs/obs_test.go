package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBuckets pins the fixed-bucket rendering rule of the HDR
// histogram: a slot counts toward bound b only when its highest value
// is at most b. An observation exactly on a bound whose slot straddles
// it therefore moves up one bucket; one that sits a sub-bucket below
// stays.
func TestHistogramBuckets(t *testing.T) {
	h := NewHDRHistogram()
	h.Record(500 * time.Nanosecond) // <= 1us
	h.Record(992 * time.Nanosecond) // slot [992, 999]: <= 1us
	h.Record(1 * time.Microsecond)  // slot [1000, 1007] straddles 1us: <= 1ms
	h.Record(2 * time.Microsecond)  // <= 1ms
	h.Record(time.Millisecond)      // slot [999424, 1007615] straddles 1ms: <= 1s
	h.Record(2 * time.Millisecond)  // <= 1s
	h.Record(2 * time.Second)       // above every bound: +Inf

	s := h.Snapshot().Buckets([]float64{1e-6, 1e-3, 1})
	want := []uint64{2, 2, 2, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Errorf("count = %d, want 7", s.Count)
	}
	wantSum := (500*time.Nanosecond + 992*time.Nanosecond + time.Microsecond + 2*time.Microsecond +
		time.Millisecond + 2*time.Millisecond + 2*time.Second).Seconds()
	if s.SumSeconds != wantSum {
		t.Errorf("sum = %v, want %v", s.SumSeconds, wantSum)
	}
}

// TestHistogramBucketsAtMostOneUp checks the documented error bound of
// the rendering rule against the exact bucket of every observation: the
// rendered bucket is the exact one or the next, and the next only within
// one sub-bucket (1/64) of the exact bucket's bound.
func TestHistogramBucketsAtMostOneUp(t *testing.T) {
	bounds := DefaultLatencyBounds()
	exact := func(d time.Duration) int {
		for i, b := range bounds {
			if d.Seconds() <= b {
				return i
			}
		}
		return len(bounds)
	}
	for v := time.Duration(1); v < 3*time.Second; v += v/97 + 1 {
		h := NewHDRHistogram()
		h.Record(v)
		counts := h.Snapshot().Buckets(bounds).Counts
		got := -1
		for i, c := range counts {
			if c == 1 {
				got = i
			}
		}
		want := exact(v)
		switch {
		case got == want:
		case got == want+1 && v.Seconds() > bounds[want]*(1-1.0/hdrSub):
		default:
			t.Fatalf("%v rendered into bucket %d, exact bucket %d (counts %v)", v, got, want, counts)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHDRHistogram()
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(time.Duration(g*per+i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot().Buckets(DefaultLatencyBounds())
	if s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
	total := uint64(0)
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket sum %d != count %d", total, s.Count)
	}
}

func TestMetricsRecordDecision(t *testing.T) {
	m := NewMetrics()
	m.RecordDecision(3.75, 3.5, false, time.Microsecond)  // throttle
	m.RecordDecision(3.5, 3.75, false, time.Microsecond)  // climb
	m.RecordDecision(3.75, 3.75, false, time.Microsecond) // hold
	m.RecordDecision(3.75, 3.5, true, time.Microsecond)   // throttle + clamp
	m.AddDecisions(10, 4, 3, 3, 1)

	s := m.Snapshot()
	if s.Decisions != 14 || s.Throttles != 6 || s.Climbs != 4 || s.Holds != 4 || s.Clamps != 2 {
		t.Fatalf("snapshot counters wrong: %+v", s)
	}
	if s.DecideLatency.Count != 4 {
		t.Fatalf("latency count = %d, want 4", s.DecideLatency.Count)
	}
}

// TestSnapshotJSONSafe pins the contract the serving layer depends on:
// a snapshot always marshals (no ±Inf or NaN anywhere) and round-trips.
func TestSnapshotJSONSafe(t *testing.T) {
	m := NewMetrics()
	m.Requests.Add(3)
	m.RecordDecision(4.0, 3.75, true, 80*time.Microsecond)
	m.RecordDecision(3.75, 3.75, false, 2*time.Hour) // lands in the +Inf overflow bucket
	s := m.Snapshot()
	s.Sessions = 2

	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("snapshot does not unmarshal: %v", err)
	}
	if back.Decisions != s.Decisions || back.Sessions != 2 ||
		back.DecideLatency.Count != s.DecideLatency.Count ||
		back.DecideLatency.SumSeconds != s.DecideLatency.SumSeconds {
		t.Fatalf("round trip changed the snapshot: %+v vs %+v", back, s)
	}
	for _, bound := range back.DecideLatency.BoundsSeconds {
		if math.IsInf(bound, 0) || math.IsNaN(bound) {
			t.Fatalf("non-finite bucket bound %v escaped into the snapshot", bound)
		}
	}
}

func TestPromRendering(t *testing.T) {
	m := NewMetrics()
	m.Requests.Add(2)
	m.RecordDecision(3.75, 3.5, false, 3*time.Microsecond)
	s := m.Snapshot()
	text := s.Prom("boreas")
	for _, want := range []string{
		"boreas_requests_total 2",
		"boreas_decisions_total 1",
		"boreas_throttles_total 1",
		`boreas_decide_latency_seconds_bucket{le="+Inf"} 1`,
		"boreas_decide_latency_seconds_count 1",
		"# TYPE boreas_decide_latency_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prom output missing %q:\n%s", want, text)
		}
	}
	// Bucket counts must be cumulative: every le bucket at or above 5us
	// already contains the 3us observation.
	if !strings.Contains(text, `boreas_decide_latency_seconds_bucket{le="5e-06"} 1`) {
		t.Errorf("cumulative bucket missing:\n%s", text)
	}
	if s.Render() == "" {
		t.Error("text rendering is empty")
	}
}
