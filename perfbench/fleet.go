package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/hotgauge/boreas/internal/core"
	"github.com/hotgauge/boreas/internal/engine"
	"github.com/hotgauge/boreas/internal/loadgen"
	"github.com/hotgauge/boreas/internal/platform"
)

const (
	// The fleet: 8 chips at full skylake-7nm fidelity, advanced by 2
	// simulator workers, served in batches of 4 with 2 requests in
	// flight, so both requests of a round are outstanding together.
	fleetChips    = 8
	fleetWorkers  = 2
	fleetBatch    = 4
	fleetInflight = 2
	// fleetSetupRuns are the extra one-tick runs that time the fleet's
	// set-up (warm starts, daemon boot); with the measured run's own
	// set-up they give the setup_s median.
	fleetSetupRuns = 4
	// fleetTracedTicks bounds the traced run's two load runs, so their
	// counts repeat exactly and their replay digests must match.
	fleetTracedTicks = 100
	// The traced run's probes: fleetProbeDecisions closed-loop decisions
	// per test workload, then fleetProbeWarmStarts warm starts, each
	// followed by simulator steps.
	fleetProbeDecisions  = 100
	fleetProbeWarmStarts = 6
)

// runFleetLoop drives loadgen.Run with its in-process daemon and the ML05
// fixture controller. Each chip warm-starts once in loadgen's fleet build
// and then runs long, so the timed rounds are dominated by simulator
// steps.
func runFleetLoop(ctx context.Context, rc *runCtx) error {
	pf := platform.Default()
	t0 := time.Now()
	ctrl, err := loadController(pf.VF)
	if err != nil {
		return err
	}
	loadModel := time.Since(t0).Seconds()
	cfg := loadgen.Config{
		Platform:    pf,
		Controller:  ctrl,
		Chips:       fleetChips,
		Batch:       fleetBatch,
		MaxInflight: fleetInflight,
		Workers:     fleetWorkers,
		Seed:        rc.seed,
	}

	var setups []float64
	var digest string
	for i := 0; i < fleetSetupRuns; i++ {
		c := cfg
		c.Ticks = 1
		rep, setup, err := fleetRun(ctx, rc, c)
		if err != nil {
			return err
		}
		setups = append(setups, setup)
		if i > 0 && rep.Replay.Digest != digest {
			rc.fail("fleet: one-tick replay digest differs between identical runs: %s vs %s", digest, rep.Replay.Digest)
		}
		digest = rep.Replay.Digest
	}

	if !rc.traced() {
		c := cfg
		c.Duration = rc.seconds
		rep, setup, err := fleetRun(ctx, rc, c)
		if err != nil {
			return err
		}
		setups = append(setups, setup)
		rc.set("setup_s", loadModel+median(setups))
		rc.set("job_s", rep.Timing.DurationSec/float64(rep.Replay.Ticks))
		rc.set("decisions_per_s", rep.Timing.DecisionsPerSec)
		rc.set("rtt_p50_us", rep.Timing.Latency.P50Micros)
		rc.logf("fleet-loop: %d ticks, %d decisions, %d requests (rtt samples)", rep.Replay.Ticks, rep.Replay.Decisions, rep.Timing.Latency.Count)
		return nil
	}

	c := cfg
	c.Ticks = fleetTracedTicks
	ref, _, err := fleetRun(ctx, rc, c)
	if err != nil {
		return err
	}
	id := rc.tr.begin("loadgen.run", noSpan)
	rep, _, err := fleetRun(ctx, rc, c)
	rc.tr.end(id)
	if err != nil {
		return err
	}
	if ref.Replay.Digest != rep.Replay.Digest {
		rc.fail("fleet: replay digest differs between identical runs: %s vs %s", ref.Replay.Digest, rep.Replay.Digest)
	}
	t := rep.Timing
	rc.set("loadgen.rtt_share", t.Latency.MeanMicros*1e-6*float64(t.Requests)/t.DurationSec)
	rc.set("serve.requests", float64(t.Requests))
	rc.set("serve.decisions_per_request", float64(rep.Replay.Decisions)/float64(t.Requests))
	rc.set("trace.overhead_frac", 1-t.DecisionsPerSec/ref.Timing.DecisionsPerSec)
	rc.set("rtt_p99_us", t.Latency.P99Micros)
	return fleetProbes(rc, pf, ctrl)
}

// fleetRun runs one load replay and checks it: every served decision must
// match the oracle. It returns the report and the run's set-up time (its
// wall time outside the timed rounds).
func fleetRun(ctx context.Context, rc *runCtx, cfg loadgen.Config) (*loadgen.Report, float64, error) {
	runtime.GC() // the last run's fleet is garbage: collect it outside the timed window
	t0 := time.Now()
	rep, err := loadgen.Run(ctx, cfg)
	wall := time.Since(t0).Seconds()
	if err != nil {
		return nil, 0, fmt.Errorf("loadgen: %w", err)
	}
	rc.attempted += int64(rep.Replay.Decisions)
	rc.failed += int64(rep.Replay.Divergences)
	if rep.Replay.Divergences > 0 {
		rc.fail("fleet: %d oracle divergences, first %+v", rep.Replay.Divergences, *rep.Replay.FirstDivergence)
	}
	if want := rep.Replay.Ticks * cfg.Chips; rep.Replay.Decisions != want {
		rc.fail("fleet: %d decisions served, want %d", rep.Replay.Decisions, want)
	}
	return rep, wall - rep.Timing.DurationSec, nil
}

// fleetProbes times the simulator layers and the decision path on the
// fleet's own configuration: the platform's full-fidelity simulator, its
// test workloads, and the frequencies the controller commands. A closed
// loop of the fleet's first chips, one per test workload, runs first;
// the simulator layers are then probed at the frequencies its decisions
// commanded, as often as each was commanded.
func fleetProbes(rc *runCtx, pf *platform.Platform, ctrl *core.Controller) error {
	probe := rc.tr.begin("probes", noSpan)
	defer rc.tr.end(probe)
	mix := simMix{cfg: pf.SimConfig(), names: pf.Workloads.TestNames()}
	loop := engine.DefaultLoopConfig()
	loop.VF = pf.VF
	chips, err := newLoopChips(mix, loop, rc.seed, len(mix.names))
	if err != nil {
		return err
	}
	cl, err := newClosedLoop(chips, ctrl, loop)
	if err != nil {
		return err
	}
	p, err := cl.pass(rc.tr, probe, fleetProbeDecisions)
	if err != nil {
		return err
	}
	mix.freqs = freqQuantiles(p.freqs, fleetProbeWarmStarts)
	rc.logf("fleet-loop: simulator layers probed at %v GHz", mix.freqs)
	if err := probeSim(rc.tr, probe, mix, rc.seed, fleetProbeWarmStarts, 40); err != nil {
		return err
	}
	if err := probeDecide(rc.tr, probe, ctrl, p.obs, 20000); err != nil {
		return err
	}
	layerMetrics(rc, aggregate(rc.tr.snapshot()))
	return nil
}
