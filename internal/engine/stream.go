package engine

import (
	"fmt"

	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/workload"
)

// ChipStream is the simulator side of a closed loop, advanced one
// decision interval at a time. The caller calls Next, receives the
// telemetry a real chip would report at that decision boundary, obtains
// a frequency from wherever it likes — an in-process Session, an HTTP
// decision daemon, a replayed log — and feeds it back into the next Next
// call. That inversion is what lets the load-replay harness put a
// network between the chip and its controller. RunLoop is the in-process
// caller: it steps a stream with a Session and records per-step columns.
//
// A ChipStream is stateful and not safe for concurrent use: run
// concurrent chips on separate streams over cloned pipelines, exactly
// like RunFleet shards sessions.
type ChipStream struct {
	p       *sim.Pipeline
	run     *workload.Run
	cfg     LoopConfig
	scratch sim.StepResult

	steps        int
	sumFreq      float64
	peakSeverity float64
	peakMLTD     float64
	incursions   int
}

// StreamSummary aggregates what a ChipStream has simulated so far; RunLoop
// takes its LoopResult scores from it.
type StreamSummary struct {
	// Workload is the workload the stream is running.
	Workload string
	// Steps counts the 80 us timesteps executed so far.
	Steps int
	// AvgFreq is the time-average commanded frequency in GHz.
	AvgFreq float64
	// PeakSeverity is the maximum ground-truth severity so far.
	PeakSeverity float64
	// PeakMLTD is the maximum ground-truth local gradient (C) so far.
	PeakMLTD float64
	// Incursions counts timesteps with severity >= 1.0.
	Incursions int
}

// NewChipStream warm-starts the pipeline at cfg.StartFreq and positions
// a stream at step zero. cfg.Steps is ignored — a stream is open-ended,
// the caller decides how many intervals to run — but every other
// LoopConfig field keeps its RunLoop meaning, fault taps included. The
// pipeline is owned by the stream until the stream is abandoned; a
// sensor tap stays installed on it until the caller removes it.
func NewChipStream(p *sim.Pipeline, w *workload.Workload, cfg LoopConfig) (*ChipStream, error) {
	if cfg.Steps <= 0 {
		cfg.Steps = cfg.DecisionPeriod
	}
	return openStream(p, w, cfg)
}

// openStream validates cfg (Steps included), warm-starts the pipeline
// and installs the fault taps.
func openStream(p *sim.Pipeline, w *workload.Workload, cfg LoopConfig) (*ChipStream, error) {
	if cfg.VF.IsZero() {
		cfg.VF = p.VF()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.SensorIndex >= p.NumSensors() {
		return nil, fmt.Errorf("engine: sensor index %d out of range", cfg.SensorIndex)
	}
	if err := p.WarmStart(w, cfg.StartFreq); err != nil {
		return nil, err
	}
	if cfg.SensorTap != nil {
		// Installed after WarmStart so the fault window is measured in
		// run steps.
		p.SetSensorTap(cfg.SensorTap)
	}
	if cfg.CounterTap != nil {
		cfg.CounterTap.Reset()
	}
	return &ChipStream{p: p, run: w.NewRun(p.Config().Seed), cfg: cfg}, nil
}

// step executes one timestep at freq, folds it into the aggregates and
// returns the stream's scratch result, which the next step overwrites.
func (cs *ChipStream) step(freq float64) (*sim.StepResult, error) {
	r := &cs.scratch
	if err := cs.p.StepInto(cs.run, freq, r); err != nil {
		return nil, err
	}
	cs.steps++
	cs.sumFreq += freq
	if r.Severity.Max > cs.peakSeverity {
		cs.peakSeverity = r.Severity.Max
	}
	if r.Severity.MaxMLTD > cs.peakMLTD {
		cs.peakMLTD = r.Severity.MaxMLTD
	}
	if r.Severity.Max >= 1.0 {
		cs.incursions++
	}
	return r, nil
}

// observation is what a controller receives after the latest step: its
// counters, passed through the counter tap at that run-step index, and
// the delayed reading of the configured sensor. Call it at most once per
// step: the tap corrupts the scratch counters in place (a local copy
// would escape through the interface call and cost an allocation per
// decision), and the next step overwrites them.
func (cs *ChipStream) observation() Observation {
	if cs.cfg.CounterTap != nil {
		cs.cfg.CounterTap.Apply(cs.steps-1, &cs.scratch.Counters)
	}
	return Observation{
		Counters:   cs.scratch.Counters,
		SensorTemp: cs.scratch.SensorDelayed[cs.cfg.SensorIndex],
	}
}

// Advance executes steps timesteps at the commanded frequency and
// returns the observation a controller would receive at the last of
// them. Aggregates (Summary) fold in every executed step.
func (cs *ChipStream) Advance(freq float64, steps int) (Observation, error) {
	if steps <= 0 {
		return Observation{}, fmt.Errorf("engine: stream advance needs a positive step count, got %d", steps)
	}
	for i := 0; i < steps; i++ {
		if _, err := cs.step(freq); err != nil {
			return Observation{}, err
		}
	}
	return cs.observation(), nil
}

// Next advances one full decision interval (DecisionPeriod timesteps) at
// the commanded frequency and returns the boundary observation.
func (cs *ChipStream) Next(freq float64) (Observation, error) {
	return cs.Advance(freq, cs.cfg.DecisionPeriod)
}

// Steps returns the number of timesteps executed so far.
func (cs *ChipStream) Steps() int { return cs.steps }

// Summary reduces the stream's history to its aggregate scores.
func (cs *ChipStream) Summary() StreamSummary {
	s := StreamSummary{
		Workload:     cs.run.Workload().Name,
		Steps:        cs.steps,
		PeakSeverity: cs.peakSeverity,
		PeakMLTD:     cs.peakMLTD,
		Incursions:   cs.incursions,
	}
	if cs.steps > 0 {
		s.AvgFreq = cs.sumFreq / float64(cs.steps)
	}
	return s
}
