package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"github.com/hotgauge/boreas/internal/engine"
	"github.com/hotgauge/boreas/internal/experiments"
)

const (
	// campaignWorkers is the quick campaign's worker count; the traced
	// run also runs it at campaignCrossWorkers, and the fig7 digests must
	// match, so the campaign is bit-identical at another parallelism.
	campaignWorkers      = 2
	campaignCrossWorkers = 3
	// campaignSetups is how many times set-up runs; setup_s is the median
	// and the last set-up is the one measured.
	campaignSetups = 9
	// The closed-loop probe runs loopChipsPerWorkload chips of every test
	// workload in loopPasses passes of loopDecisions decisions per chip;
	// the end-to-end figures are the median pass's. The decision
	// interval's cost differs by workload and phase, so it is only steady
	// across seeds when each workload is sampled on several chips.
	loopChipsPerWorkload = 4
	loopPasses           = 5
	loopDecisions        = 50
)

// campaignStages are the Lab getters in dependency order, each timed as
// one span, so every span is that stage's self time. The fig7 closed
// loops follow as the span fig7Span.
var campaignStages = []struct {
	span string
	get  func(*experiments.Lab) error
}{
	{"experiments.crit_temps", func(l *experiments.Lab) error { _, err := l.CriticalTemps(); return err }},
	{"experiments.th00", func(l *experiments.Lab) error { _, err := l.TH00(); return err }},
	{"experiments.train_data", func(l *experiments.Lab) error { _, err := l.TrainingData(); return err }},
	{"experiments.test_data", func(l *experiments.Lab) error { _, err := l.TestData(); return err }},
	{"experiments.train_model", func(l *experiments.Lab) error { _, err := l.Predictor(); return err }},
}

const fig7Span = "experiments.fig7_loops"

// runCampaign runs the quick fig7 campaign on fresh Labs.
//
// Set-up builds the Lab and the closed-loop probe's warm-started chips;
// setup_s is the median of campaignSetups builds.
//
// Untraced: campaigns repeat while another fits in the run's seconds (at
// least one runs); job_s is their median wall time. The trained ML05
// controller then runs the probe's chips closed loop in process, in
// passes; the median pass gives decisions_per_s and the decision-interval
// round trip rtt_p50_us.
//
// Traced: an untraced and a traced campaign at campaignWorkers and an
// untraced one at campaignCrossWorkers; their fig7 digests must match.
// Then the layer probes on the campaign's simulator configuration and
// mix.
func runCampaign(ctx context.Context, rc *runCtx) error {
	cfg := experiments.QuickConfig()
	newLab := func(workers int) (*experiments.Lab, error) {
		c := cfg
		c.Workers = workers
		return experiments.NewLabContext(ctx, c)
	}
	loop := engine.DefaultLoopConfig()
	loop.SensorIndex = cfg.SensorIndex
	loop.VF = cfg.Sim.ResolvedVF()
	loop.StartFreq = cfg.StartFreq
	testMix := simMix{cfg: cfg.Sim, names: cfg.TestNames, freqs: cfg.Frequencies}

	var setups []float64
	var lab *experiments.Lab
	var chips []*engine.ChipStream
	for i := 0; i < campaignSetups; i++ {
		runtime.GC() // the last set-up's chips are garbage
		t0 := time.Now()
		var err error
		if lab, err = newLab(campaignWorkers); err != nil {
			return err
		}
		if chips, err = newLoopChips(testMix, loop, rc.seed, loopChipsPerWorkload*len(cfg.TestNames)); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	if !rc.traced() {
		var jobs []float64
		start := time.Now()
		// Run another campaign while it should still end within the run's
		// seconds.
		for len(jobs) == 0 || time.Since(start)+time.Duration(jobs[len(jobs)-1]*float64(time.Second)) <= rc.seconds {
			if len(jobs) > 0 {
				var err error
				if lab, err = newLab(campaignWorkers); err != nil {
					return err
				}
			}
			runtime.GC() // start every campaign from the same collector state
			t0 := time.Now()
			res, err := campaignJob(lab, nil, noSpan)
			if err != nil {
				return err
			}
			jobs = append(jobs, time.Since(t0).Seconds())
			checkFig7(rc, res)
		}
		rc.set("setup_s", median(setups))
		rc.set("job_s", median(jobs))
		rc.logf("campaign: %d campaign(s), median %.3f s", len(jobs), median(jobs))
		_, err := campaignLoop(rc, lab, chips, loop)
		return err
	}

	// The reference and the traced campaign share a worker count, so
	// their wall times give the tracing overhead; a third campaign at
	// another worker count must reproduce the same fig7 digest.
	var digests []string
	var walls []float64
	for i, run := range []struct {
		workers int
		traced  bool
	}{{campaignWorkers, false}, {campaignWorkers, true}, {campaignCrossWorkers, false}} {
		l := lab
		if i > 0 {
			var err error
			if l, err = newLab(run.workers); err != nil {
				return err
			}
		}
		tr, root := (*tracer)(nil), noSpan
		if run.traced {
			tr, root = rc.tr, rc.tr.begin("campaign", noSpan)
		}
		runtime.GC()
		t0 := time.Now()
		res, err := campaignJob(l, tr, root)
		walls = append(walls, time.Since(t0).Seconds())
		tr.end(root)
		if err != nil {
			return err
		}
		checkFig7(rc, res)
		digests = append(digests, fig7Digest(res))
	}
	if digests[0] != digests[1] || digests[0] != digests[2] {
		rc.fail("fig7 digests differ across runs (%d, %d traced, %d workers): %v",
			campaignWorkers, campaignWorkers, campaignCrossWorkers, digests)
	}
	rc.set("trace.overhead_frac", walls[1]/walls[0]-1)

	probe := rc.tr.begin("probes", noSpan)
	allMix := simMix{cfg: cfg.Sim, names: append(append([]string{}, cfg.TrainNames...), cfg.TestNames...), freqs: cfg.Frequencies}
	if err := probeSim(rc.tr, probe, allMix, rc.seed, 11, 30); err != nil {
		return err
	}
	obs, err := campaignLoop(rc, lab, chips, loop)
	if err != nil {
		return err
	}
	ctrl, err := lab.MLController(fixtureGuardband)
	if err != nil {
		return err
	}
	if err := probeDecide(rc.tr, probe, ctrl, obs, 20000); err != nil {
		return err
	}
	rc.tr.end(probe)

	st := aggregate(rc.tr.snapshot())
	for _, s := range campaignStages {
		rc.set(s.span+"_s", st.self[s.span])
	}
	rc.set(fig7Span+"_s", st.self[fig7Span])
	rc.set("experiments.unattributed_s", st.self["campaign"])
	layerMetrics(rc, st)
	return nil
}

// campaignJob runs the campaign's stages on a fresh Lab, each a span
// under parent, and returns the fig7 result.
func campaignJob(l *experiments.Lab, tr *tracer, parent int) (*experiments.Fig7Result, error) {
	for _, s := range campaignStages {
		id := tr.begin(s.span, parent)
		err := s.get(l)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.span, err)
		}
	}
	id := tr.begin(fig7Span, parent)
	res, err := experiments.Fig7Performance(l)
	tr.end(id)
	return res, err
}

// checkFig7 counts one campaign as an attempted operation and checks the
// controllers the paper claims safe: TH-00 and ML05 incur no hotspots.
func checkFig7(rc *runCtx, res *experiments.Fig7Result) {
	rc.attempted++
	ok := true
	for _, c := range []string{"TH-00", "ML05"} {
		if n, found := res.TotalIncursions[c]; !found || n != 0 {
			rc.fail("fig7: %s reports %d incursions (found=%v), want 0", c, n, found)
			ok = false
		}
	}
	if !ok {
		rc.failed++
	}
}

// fig7Digest is the sha256 of the fig7 result's JSON form; encoding/json
// prints floats in their shortest exact form, so equal digests mean
// bit-identical results.
func fig7Digest(res *experiments.Fig7Result) string {
	b, err := json.Marshal(res)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// campaignLoop runs a trained Lab's ML05 controller closed loop on the
// probe's chips at the campaign's fidelity, in loopPasses passes, and
// sets the end-to-end decision metrics from the median pass. It returns
// the observations seen.
func campaignLoop(rc *runCtx, lab *experiments.Lab, chips []*engine.ChipStream, loop engine.LoopConfig) ([]engine.Observation, error) {
	ctrl, err := lab.MLController(fixtureGuardband)
	if err != nil {
		return nil, err
	}
	cl, err := newClosedLoop(chips, ctrl, loop)
	if err != nil {
		return nil, err
	}
	runtime.GC() // the campaign's datasets are garbage: collect them before timing
	parent := rc.tr.begin("campaign.loop", noSpan)
	defer rc.tr.end(parent)
	var obs []engine.Observation
	var rates, p50s, rtts []float64
	for i := 0; i < loopPasses; i++ {
		p, err := cl.pass(rc.tr, parent, loopDecisions)
		if err != nil {
			return nil, err
		}
		rates = append(rates, float64(len(p.rtts))/p.wall)
		p50s = append(p50s, quantile(p.rtts, 0.50))
		rtts = append(rtts, p.rtts...)
		obs = append(obs, p.obs...)
	}
	rc.set("decisions_per_s", median(rates))
	rc.set("rtt_p50_us", median(p50s)*1e6)
	rc.set("rtt_p99_us", quantile(rtts, 0.99)*1e6)
	return obs, nil
}
