package main

import (
	"fmt"
	"sort"
	"time"

	"github.com/hotgauge/boreas/internal/arch"
	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/core"
	"github.com/hotgauge/boreas/internal/engine"
	"github.com/hotgauge/boreas/internal/hotspot"
	"github.com/hotgauge/boreas/internal/runner"
	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/thermal"
	"github.com/hotgauge/boreas/internal/workload"
)

// simMix is the simulator configuration and workload/frequency mix a
// workload runs; the layer probes replay it so each layer is timed on the
// inputs that workload gives it.
type simMix struct {
	cfg   sim.Config
	names []string
	freqs []float64
}

// at returns the i-th (workload, frequency) pair of the mix.
func (m simMix) at(p *sim.Pipeline, i int) (*workload.Workload, float64, error) {
	w, err := p.Workloads().ByName(m.names[i%len(m.names)])
	return w, m.freqs[i%len(m.freqs)], err
}

// probeSim times the simulator layers on the mix: sim.Pipeline.WarmStart
// and StepInto on a pipeline, and, fed the same inputs, arch.Core.Step,
// thermal.Model.StepFor and hotspot.Analyzer.Analyze on instances built
// from the same configuration. Every call is one span under parent.
func probeSim(tr *tracer, parent int, mix simMix, seed uint64, warmStarts, stepsPer int) error {
	cfg := mix.cfg
	cfg.Seed = seed
	p, err := sim.New(cfg)
	if err != nil {
		return err
	}
	vf := p.VF()
	cpu, err := arch.NewCore(cfg.Core, seed)
	if err != nil {
		return err
	}
	th, err := thermal.New(cfg.Thermal)
	if err != nil {
		return err
	}
	an, err := hotspot.NewAnalyzer(th.NX(), th.NY(), th.CellW(), th.CellH(), cfg.Severity)
	if err != nil {
		return err
	}
	cellPower := make([]float64, th.NumCells())
	die := make([]float64, th.NumCells())
	var res sim.StepResult
	for i := 0; i < warmStarts; i++ {
		w, f, err := mix.at(p, i)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := p.WarmStart(w, f); err != nil {
			return err
		}
		tr.record("sim.warm_start", parent, t0, time.Now())

		run := w.NewRun(seed)
		for s := 0; s < stepsPer; s++ {
			t0 := time.Now()
			if err := p.StepInto(run, f, &res); err != nil {
				return err
			}
			tr.record("sim.step", parent, t0, time.Now())

			params := run.ParamsAt(res.Time)
			t0 = time.Now()
			if _, err := cpu.Step(params, f, vf.VoltageFor(f), cfg.TimestepSec); err != nil {
				return err
			}
			tr.record("arch.core_step", parent, t0, time.Now())

			// The transient solve's cost does not depend on the power
			// values, so a uniform map of the step's total power stands
			// in for the floorplan-mapped one.
			for c := range cellPower {
				cellPower[c] = res.TotalPower / float64(len(cellPower))
			}
			t0 = time.Now()
			if err := th.StepFor(cellPower, cfg.TimestepSec); err != nil {
				return err
			}
			tr.record("thermal.step", parent, t0, time.Now())

			copy(die, p.Thermal().Die())
			t0 = time.Now()
			if _, err := an.Analyze(die); err != nil {
				return err
			}
			tr.record("hotspot.analyze", parent, t0, time.Now())
		}
	}
	return nil
}

// newLoopChips builds and warm-starts chips for a closed-loop probe:
// chip c runs the mix's workload c (cyclically) on its own pipeline,
// seeded from seed and c.
func newLoopChips(mix simMix, loop engine.LoopConfig, seed uint64, chips int) ([]*engine.ChipStream, error) {
	out := make([]*engine.ChipStream, chips)
	for c := range out {
		cfg := mix.cfg
		cfg.Seed = runner.DeriveSeed(seed, uint64(c))
		p, err := sim.New(cfg)
		if err != nil {
			return nil, err
		}
		w, err := p.Workloads().ByName(mix.names[c%len(mix.names)])
		if err != nil {
			return nil, err
		}
		if out[c], err = engine.NewChipStream(p, w, loop); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// closedLoop is a closed-loop probe: chips, each with its own
// engine.Session deciding, that advance in passes and keep their state
// between passes.
type closedLoop struct {
	chips []*engine.ChipStream
	sess  []*engine.Session
	freq  []float64 // the frequency each chip runs at next
}

func newClosedLoop(chips []*engine.ChipStream, ctrl control.Controller, loop engine.LoopConfig) (*closedLoop, error) {
	cl := &closedLoop{chips: chips}
	for range chips {
		sess, err := engine.NewSession(engine.SessionConfig{Controller: control.CloneController(ctrl), VF: loop.VF, StartFreq: loop.StartFreq})
		if err != nil {
			return nil, err
		}
		cl.sess = append(cl.sess, sess)
		cl.freq = append(cl.freq, sess.Freq())
	}
	return cl, nil
}

// loopPass is what one pass of a closed loop saw.
type loopPass struct {
	obs   []engine.Observation // the boundary observations
	freqs []float64            // the frequency each decision commanded
	rtts  []float64            // each decision interval (Next + Decide), seconds
	wall  float64              // the pass's wall time, seconds
}

// pass advances every chip by the given decision count, timing every
// ChipStream.Next as a span under parent.
func (cl *closedLoop) pass(tr *tracer, parent int, decisions int) (loopPass, error) {
	var p loopPass
	start := time.Now()
	for c, cs := range cl.chips {
		for d := 0; d < decisions; d++ {
			t0 := time.Now()
			o, err := cs.Next(cl.freq[c])
			if err != nil {
				return p, err
			}
			t1 := time.Now()
			dec := cl.sess[c].Decide(o)
			t2 := time.Now()
			tr.record("engine.chip_next", parent, t0, t1)
			p.rtts = append(p.rtts, t2.Sub(t0).Seconds())
			p.obs = append(p.obs, o)
			p.freqs = append(p.freqs, dec.Freq)
			cl.freq[c] = dec.Freq
		}
	}
	p.wall = time.Since(start).Seconds()
	return p, nil
}

// freqQuantiles returns n frequencies spread evenly through the
// distribution of the commanded ones: the midpoints of n equal-count
// bins of freqs sorted, so a frequency appears as often as the
// controller commands it.
func freqQuantiles(freqs []float64, n int) []float64 {
	s := append([]float64(nil), freqs...)
	sort.Float64s(s)
	out := make([]float64, n)
	for k := range out {
		out[k] = s[(2*k+1)*len(s)/(2*n)]
	}
	return out
}

// probeDecide times core.Predictor.PredictAt and engine.Session.Decide on
// recorded observations, each call a span under parent. The what-if frequency
// walks the VF steps so every prediction path is exercised.
func probeDecide(tr *tracer, parent int, ctrl *core.Controller, obs []engine.Observation, calls int) error {
	if len(obs) == 0 {
		return fmt.Errorf("no observations to probe predictions on")
	}
	pred := ctrl.Pred.Clone()
	steps := ctrl.VF.FrequencySteps()
	for i := 0; i < calls; i++ {
		o := obs[i%len(obs)]
		t0 := time.Now()
		pred.PredictAt(o.Counters, o.SensorTemp, steps[i%len(steps)])
		tr.record("core.predict", parent, t0, time.Now())
	}
	sess, err := engine.NewSession(engine.SessionConfig{Controller: control.CloneController(ctrl), VF: ctrl.VF})
	if err != nil {
		return err
	}
	for i := 0; i < calls; i++ {
		t0 := time.Now()
		sess.Decide(obs[i%len(obs)])
		tr.record("engine.decide", parent, t0, time.Now())
	}
	return nil
}

// layerMetrics fills the per-layer metrics that are medians of per-call
// spans.
func layerMetrics(rc *runCtx, st spanStats) {
	for _, m := range []struct {
		metric, span string
		scale        float64
	}{
		{"sim.warm_start_ms", "sim.warm_start", 1e3},
		{"sim.step_us", "sim.step", 1e6},
		{"arch.core_step_us", "arch.core_step", 1e6},
		{"thermal.step_us", "thermal.step", 1e6},
		{"hotspot.analyze_us", "hotspot.analyze", 1e6},
		{"engine.chip_next_ms", "engine.chip_next", 1e3},
		{"core.predict_us", "core.predict", 1e6},
		{"engine.decide_us", "engine.decide", 1e6},
		{"serve.registry_decide_us", "serve.registry_decide", 1e6},
		{"serve.registry_create_us", "serve.registry_create", 1e6},
		{"serve.handler_us", "serve.handler", 1e6},
	} {
		if len(st.durs[m.span]) > 0 {
			rc.set(m.metric, st.medianOf(m.span)*m.scale)
		}
	}
}
