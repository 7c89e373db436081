package main

import (
	"context"
	"runtime"
	"strconv"
	"time"

	"github.com/hotgauge/boreas/internal/platform"
)

const (
	// serveSetups is how many times set-up runs; setup_s is the median
	// and the last set-up is the one measured.
	serveSetups = 3
	// registryProbeDecides and registryProbeCreates size the traced
	// run's direct registry probes.
	registryProbeDecides = 20000
	registryProbeCreates = 400
	// serveSlices is how many capacity and latency slices alternate in
	// the untraced run.
	serveSlices = 5
)

// runServe runs a serve workload: the fixture controller behind
// serve.NewHandler on loopback, fed the replay's pre-rendered requests
// by one process's client goroutines.
//
// Untraced: closed-loop capacity slices (decisions_per_s, and job_s as
// the median client pass over its half of the fleet) alternate with
// open-loop latency slices at the fixed rate (rtt_p50_us), half the run's
// seconds each.
//
// Traced: alternating untraced and traced capacity slices and a traced
// latency phase, each a fixed number of requests so the counts repeat
// exactly, then direct probes of the registry and the decision path.
func runServe(ctx context.Context, rc *runCtx, cfg replayConfig) error {
	pf := platform.Default()
	var setups []float64
	var r *replay
	for i := 0; i < serveSetups; i++ {
		if r != nil {
			// Collect the last set-up's daemon before the next is built, so
			// peak_rss_mb is one set-up's footprint, not a collector race.
			r.close()
			runtime.GC()
		}
		t0 := time.Now()
		ctrl, err := loadController(pf.VF)
		if err != nil {
			return err
		}
		if r, err = newReplay(ctx, cfg, rc.seed, ctrl, rc.tr); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.close()
	runtime.GC() // set-up's garbage is not the daemon's: collect it before timing

	items := float64(r.itemsPerRequest())
	var phaseErr error
	// account books a phase's failed requests and, outside its timed
	// window, checks and drops the answers it was served.
	account := func(p phaseResult) phaseResult {
		rc.failed += int64(p.failed)
		rc.attempted += int64(p.failed)
		if p.err != nil && phaseErr == nil {
			phaseErr = p.err
		}
		r.verify(rc.logf)
		return p
	}

	if !rc.traced() {
		// The phases alternate in short slices so both sample the same
		// spread of host states; throughput is the median slice's.
		slice := rc.seconds / (2 * serveSlices)
		var rates, passes, lat, late []float64
		requests := 0
		for i := 0; i < serveSlices; i++ {
			c := account(r.capacity(ctx, time.Now().Add(slice), 0, noSpan))
			rates = append(rates, float64(c.requests)*items/c.wall)
			passes = append(passes, c.passes...)
			requests += c.requests
			l := account(r.latency(ctx, 0, slice, noSpan))
			lat, late = append(lat, l.lat...), append(late, l.late...)
		}
		rc.set("setup_s", median(setups))
		rc.set("job_s", median(passes))
		rc.set("decisions_per_s", median(rates))
		rc.set("rtt_p50_us", quantile(lat, 0.50)*1e6)
		rc.logf("capacity: %d requests, slice rates %.0f decisions/s; latency: %d samples at %v req/s, p50 %.0f us, p99 %.0f us, generator late p99 %.0f us",
			requests, rates, len(lat), openLoopRate, quantile(lat, 0.50)*1e6, quantile(lat, 0.99)*1e6, quantile(late, 0.99)*1e6)
	} else {
		// Only the traced phases record handler spans, so only their
		// registry decide time counts towards serve.decide_share; the
		// decisions it covers must be exactly the traced requests'.
		var decideSecs float64
		var decideCount int
		traced := func(name string, run func(root int) phaseResult) phaseResult {
			before := r.reg.Snapshot()
			root := rc.tr.begin(name, noSpan)
			p := run(root)
			rc.tr.end(root)
			after := r.reg.Snapshot()
			account(p)
			decideSecs += after.DecideLatency.SumSeconds - before.DecideLatency.SumSeconds
			decideCount += int(after.DecideLatency.Count - before.DecideLatency.Count)
			return p
		}
		// Untraced and traced capacity slices alternate, so the tracing
		// overhead is not confounded with warm-up or host drift.
		var refRates, rates []float64
		passes := cfg.tracedPasses / serveSlices
		requests := 0
		for i := 0; i < serveSlices; i++ {
			ref := account(r.capacity(ctx, time.Time{}, passes, noSpan))
			refRates = append(refRates, float64(ref.requests)/ref.wall)
			c := traced("serve.capacity", func(root int) phaseResult { return r.capacity(ctx, time.Time{}, passes, root) })
			rates = append(rates, float64(c.requests)/c.wall)
			requests += c.requests
		}
		latRes := traced("serve.latency", func(root int) phaseResult { return r.latency(ctx, cfg.tracedLatency, 0, root) })
		after := r.reg.Snapshot()

		st := aggregate(rc.tr.snapshot())
		handler := st.total("serve.handler")
		if n := len(st.durs["http.request"]); n > 0 {
			rc.set("http.transport_us", st.self["http.request"]/float64(n)*1e6)
		}
		if want := (requests + latRes.requests) * int(items); decideCount != want {
			rc.fail("serve: the registry timed %d decisions in the traced phases, want %d", decideCount, want)
		}
		if handler > 0 {
			rc.set("serve.decide_share", decideSecs/handler)
		}
		rc.set("serve.requests", float64(requests+latRes.requests))
		rc.set("serve.decisions_per_request", items)
		rc.set("serve.sessions_created", float64(after.SessionsCreated))
		rc.set("serve.evicted_lru", float64(after.EvictedLRU))
		rc.set("bench.generator_late_p99_us", quantile(latRes.late, 0.99)*1e6)
		rc.set("rtt_p99_us", quantile(latRes.lat, 0.99)*1e6)
		rc.set("trace.overhead_frac", 1-median(rates)/median(refRates))
		probe := rc.tr.begin("probes", noSpan)
		if err := probeRegistry(rc.tr, probe, r); err != nil {
			return err
		}
		if err := probeDecide(rc.tr, probe, r.ctrl, r.pool, registryProbeDecides); err != nil {
			return err
		}
		rc.tr.end(probe)
		layerMetrics(rc, aggregate(rc.tr.snapshot()))
	}

	if phaseErr != nil {
		rc.fail("serve: %v", phaseErr)
	}
	r.verify(rc.logf)
	rc.attempted += int64(r.checked)
	rc.failed += int64(r.diverged)
	if r.diverged > 0 {
		rc.fail("serve: %d of %d served decisions diverge from the oracle", r.diverged, r.checked)
	}
	if phaseErr == nil {
		r.checkRegistry(rc)
	}
	return nil
}

// probeRegistry times serve.Registry.Decide directly on a registry built
// like the workload's: a steady chip's decide at the workload's session
// count, and, when the workload creates sessions at capacity, a
// never-seen chip's decide (an idle sweep, an LRU eviction and a
// session build).
func probeRegistry(tr *tracer, parent int, r *replay) error {
	reg, _, err := r.newRegistry()
	if err != nil {
		return err
	}

	ids := make([]string, r.cfg.chips)
	for c := range ids {
		ids[c] = chipID(c)
		if _, err := reg.Decide(ids[c], r.pool[c%len(r.pool)]); err != nil {
			return err
		}
	}
	for i := 0; i < registryProbeDecides; i++ {
		t0 := time.Now()
		if _, err := reg.Decide(ids[i%len(ids)], r.pool[i%len(r.pool)]); err != nil {
			return err
		}
		tr.record("serve.registry_decide", parent, t0, time.Now())
	}
	if !r.cfg.churn {
		return nil
	}
	for i := 0; i < registryProbeCreates; i++ {
		id := "probe-" + strconv.Itoa(i)
		t0 := time.Now()
		if _, err := reg.Decide(id, r.pool[i%len(r.pool)]); err != nil {
			return err
		}
		tr.record("serve.registry_create", parent, t0, time.Now())
	}
	return nil
}
