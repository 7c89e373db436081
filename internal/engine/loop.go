package engine

import (
	"fmt"

	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/power"
	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/workload"
)

// LoopConfig parametrises a closed-loop run.
type LoopConfig struct {
	// Steps is the total trace length in 80 us timesteps (150 = 12 ms).
	Steps int
	// DecisionPeriod is the controller interval in timesteps (12 = 960 us).
	DecisionPeriod int
	// StartFreq is the initial frequency (the 3.75 GHz safe baseline).
	StartFreq float64
	// SensorIndex selects the sensor feeding the controller.
	SensorIndex int
	// SensorTap, when non-nil, is installed on the pipeline for the
	// measured run (after warm-start) and corrupts the delayed sensor
	// readings the controller and the recorded trace see. Ground-truth
	// severity is untouched. Taps are stateful: use a fresh tap (or one
	// that fully resets) per run.
	SensorTap sim.SensorTap
	// CounterTap, when non-nil, corrupts the counter vector the
	// controller observes at each decision point. The recorded trace
	// keeps the clean counters; only the controller is lied to.
	CounterTap control.CounterTap
	// VF is the operating curve StartFreq is validated against and
	// controller decisions are clamped with. The zero value means "the
	// pipeline's curve": RunLoop and NewChipStream fill it from the
	// pipeline, so only standalone Validate calls fall back to the
	// default Table I curve.
	VF power.VFCurve
}

// DefaultLoopConfig matches the paper's dynamic runs: 150 steps, decisions
// every 12 steps, starting at the 3.75 GHz global limit, sensor tsens03.
func DefaultLoopConfig() LoopConfig {
	return LoopConfig{
		Steps:          150,
		DecisionPeriod: 12,
		StartFreq:      3.75,
		SensorIndex:    sim.DefaultSensorIndex,
	}
}

// Validate reports configuration errors.
func (c LoopConfig) Validate() error {
	if c.Steps <= 0 || c.DecisionPeriod <= 0 || c.DecisionPeriod > c.Steps {
		return fmt.Errorf("engine: need 0 < period <= steps, got %d/%d", c.DecisionPeriod, c.Steps)
	}
	vf := c.VF
	if vf.IsZero() {
		vf = power.DefaultVF()
	}
	if _, err := vf.FrequencyIndex(c.StartFreq); err != nil {
		return fmt.Errorf("engine: StartFreq: %w", err)
	}
	if c.SensorIndex < 0 {
		return fmt.Errorf("engine: negative sensor index")
	}
	return nil
}

// LoopResult scores one closed-loop run.
type LoopResult struct {
	Workload   string
	Controller string
	// Freqs holds the frequency in effect at every timestep.
	Freqs []float64
	// Severity holds the ground-truth max severity at every timestep.
	Severity []float64
	// SensorTemp holds the delayed sensor reading at every timestep.
	SensorTemp []float64
	// AvgFreq is the time-average frequency in GHz.
	AvgFreq float64
	// PeakSeverity is the maximum ground-truth severity over the run.
	PeakSeverity float64
	// PeakMLTD is the maximum ground-truth local temperature gradient
	// (C) over the run.
	PeakMLTD float64
	// Incursions counts timesteps with severity >= 1.0 (hotspot events).
	Incursions int
	// Stats are the decision diagnostics of the session that drove the
	// run (throttle/climb/hold partition, clamp count).
	Stats Stats
}

// RunLoop executes a closed-loop run of the controller on the workload:
// it opens a ChipStream (warm-started at the starting frequency, fault
// taps installed), steps it cfg.Steps times at the frequency a Session
// wrapping the controller commands, and hands the session each decision
// boundary's observation. The scores come from the stream's Summary.
func RunLoop(p *sim.Pipeline, w *workload.Workload, ctrl control.Controller, cfg LoopConfig) (*LoopResult, error) {
	cs, err := openStream(p, w, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.SensorTap != nil {
		// Leave the caller's pipeline clean for the next run.
		defer p.SetSensorTap(nil)
	}
	sess, err := NewSession(SessionConfig{Controller: ctrl, VF: cs.cfg.VF, StartFreq: cfg.StartFreq})
	if err != nil {
		return nil, err
	}
	res := &LoopResult{
		Workload:   w.Name,
		Controller: ctrl.Name(),
		Freqs:      make([]float64, 0, cfg.Steps),
		Severity:   make([]float64, 0, cfg.Steps),
		SensorTemp: make([]float64, 0, cfg.Steps),
	}
	for step := 0; step < cfg.Steps; step++ {
		freq := sess.Freq()
		r, err := cs.step(freq)
		if err != nil {
			return nil, err
		}
		res.Freqs = append(res.Freqs, freq)
		res.Severity = append(res.Severity, r.Severity.Max)
		res.SensorTemp = append(res.SensorTemp, r.SensorDelayed[cfg.SensorIndex])
		if (step+1)%cfg.DecisionPeriod == 0 && step+1 < cfg.Steps {
			sess.Decide(cs.observation())
		}
	}
	sum := cs.Summary()
	res.AvgFreq = sum.AvgFreq
	res.PeakSeverity = sum.PeakSeverity
	res.PeakMLTD = sum.PeakMLTD
	res.Incursions = sum.Incursions
	res.Stats = sess.Stats
	return res, nil
}
