package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hotgauge/boreas/internal/platform"
	"github.com/hotgauge/boreas/internal/serve"
)

// smallReplay is a serve workload small enough for a unit test: 8
// chips in 2 batches, a registry pre-filled to capacity and a never-seen
// chip in every request. A steady chip is evicted only if its client
// stalls while the other creates capacity-8 sessions, so the capacity
// leaves room for a loaded test machine.
func smallReplay() replayConfig {
	return replayConfig{
		chips: 8, batch: 4, traces: 3, ticks: 4, capacity: 1024, churn: true,
		tracedPasses: 50, tracedLatency: 40,
	}
}

// generate records and renders a replay without booting a daemon and
// returns the first rounds of every batch's request stream.
func generate(t *testing.T, seed uint64) [][]byte {
	t.Helper()
	ctrl, err := loadController(platform.Default().VF)
	if err != nil {
		t.Fatal(err)
	}
	r := &replay{cfg: smallReplay(), seed: seed, ctrl: ctrl}
	if err := r.record(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := r.render(); err != nil {
		t.Fatal(err)
	}
	var stream [][]byte
	var scratch []byte
	for round := 0; round < 2*r.cfg.ticks; round++ {
		for b := 0; b < r.batches(); b++ {
			stream = append(stream, append([]byte(nil), r.requestBody(b, round, &scratch)...))
		}
	}
	return stream
}

func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	a, again, other := generate(t, 7), generate(t, 7), generate(t, 8)
	if len(a) != len(again) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(again))
	}
	for i := range a {
		if !bytes.Equal(a[i], again[i]) {
			t.Fatalf("request %d differs between two generations from seed 7:\n%s\n%s", i, a[i], again[i])
		}
		var req serve.DecideRequest
		if err := json.Unmarshal(a[i], &req); err != nil || len(req.Batch) != smallReplay().batch+1 {
			t.Fatalf("request %d is not a %d-item batch (err %v): %s", i, smallReplay().batch+1, err, a[i])
		}
	}
	same := 0
	for i := range a {
		if bytes.Equal(a[i], other[i]) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 generate byte-identical request streams")
	}
}

// flipOneFrequency returns a handler wrapper that flips the lowest bit of
// the first served frequency in the n-th decide response.
func flipOneFrequency(n int64) func(http.Handler) http.Handler {
	var seen atomic.Int64
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path != "/v1/decide" || seen.Add(1) != n {
				next.ServeHTTP(w, req)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, req)
			var resp serve.DecideResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Decisions) == 0 {
				panic("unexpected decide response: " + rec.Body.String())
			}
			d := &resp.Decisions[0]
			d.FreqGHz = math.Float64frombits(math.Float64bits(d.FreqGHz) ^ 1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(rec.Code)
			if err := json.NewEncoder(w).Encode(resp); err != nil {
				panic(err)
			}
		})
	}
}

func runSmallServe(t *testing.T, wrap func(http.Handler) http.Handler, tr *tracer) *runCtx {
	t.Helper()
	cfg := smallReplay()
	cfg.wrap = wrap
	rc := &runCtx{seed: 3, seconds: time.Second, tr: tr, log: testLog{t}, metrics: map[string]float64{}}
	if err := runServe(context.Background(), rc, cfg); err != nil {
		t.Fatal(err)
	}
	return rc
}

func TestServeVerifiesEveryDecision(t *testing.T) {
	rc := runSmallServe(t, nil, nil)
	if rc.failed != 0 || len(rc.problems) != 0 {
		t.Fatalf("clean run failed %d of %d: %v", rc.failed, rc.attempted, rc.problems)
	}
	if rc.attempted < 100 {
		t.Fatalf("only %d decisions attempted", rc.attempted)
	}
	for _, d := range endToEnd {
		if _, ok := rc.metrics[d.name]; !ok && d.name != "peak_rss_mb" {
			t.Errorf("metric %s not measured", d.name)
		}
	}
}

func TestFlippedFrequencyBitIsAFailure(t *testing.T) {
	rc := runSmallServe(t, flipOneFrequency(5), nil)
	if frac := float64(rc.failed) / float64(rc.attempted); !(frac > 0) {
		t.Fatalf("failed_frac = %v after a flipped frequency bit; problems %v", frac, rc.problems)
	}
}

// TestDecideShareIsAShareOfHandlerTime checks that serve.decide_share
// counts only the registry time spent inside traced handler spans: the
// run checks that the decisions it timed are exactly the traced
// requests', so the untraced reference slices cannot inflate it.
func TestDecideShareIsAShareOfHandlerTime(t *testing.T) {
	rc := runSmallServe(t, nil, newTracer())
	if rc.failed != 0 || len(rc.problems) != 0 {
		t.Fatalf("traced run failed %d of %d: %v", rc.failed, rc.attempted, rc.problems)
	}
	if share, ok := rc.metrics["serve.decide_share"]; !ok || !(share > 0 && share <= 1) {
		t.Fatalf("serve.decide_share = %v (measured %v), want in (0, 1]", share, ok)
	}
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: noSpan, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},   // overlaps a
		{Name: "a.1", Parent: 1, Start: 15, End: 20}, // grandchild: a's, not root's
		{Name: "c", Parent: 0, Start: 90, End: 120},  // runs past root's end
		{Name: "open", Parent: 0, Start: 70, End: -1},
	}
	got := selfTimes(spans)
	// root covers [10,60] and [90,100] through its children: 60 of 100.
	want := []time.Duration{40, 25, 30, 5, 30, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	st := aggregate(spans)
	if st.self["root"] != (40*time.Nanosecond).Seconds() || len(st.durs["open"]) != 0 {
		t.Errorf("aggregate: self(root) = %v, open spans %v", st.self["root"], st.durs["open"])
	}
}

func TestTracerIsANoOpWhenOff(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", noSpan)
	tr.end(id)
	tr.record("y", id, time.Now(), time.Now())
	if id != noSpan || tr.snapshot() != nil {
		t.Fatal("a nil tracer recorded spans")
	}
}

func TestFixtureMatchesItsPin(t *testing.T) {
	ctrl, err := loadController(platform.Default().VF)
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.Name() != "ML05" {
		t.Fatalf("fixture controller is %s, want ML05", ctrl.Name())
	}
}

// TestBenchmarkJSONMatchesTheCode keeps BENCHMARK.json and the code's
// metric and workload tables in step, and the open-loop rate the serve
// workloads' descriptions state equal to the one they run at.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if strings.HasPrefix(w.Name, "serve-") && !strings.Contains(w.Why, strconv.Itoa(openLoopRate)+" req/s") {
			t.Errorf("workload %s: why does not state the %d req/s open-loop rate", w.Name, openLoopRate)
		}
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, workloadNames())
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit string }
		code []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the code", c.kind, len(c.json), len(c.code))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, code %s %s", c.kind, i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}
