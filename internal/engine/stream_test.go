package engine

import (
	"reflect"
	"testing"

	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/faults"
	"github.com/hotgauge/boreas/internal/sim"
)

// gradedTable builds a thermal table whose threshold falls linearly with
// frequency (95C at the bottom step down to 65C at the top), so a TH
// controller over it actually moves the operating point instead of
// pinning at one end — the equivalence test must exercise a changing
// frequency trajectory.
func gradedTable(p *sim.Pipeline) *control.CriticalTemps {
	steps := p.VF().FrequencySteps()
	table := &control.CriticalTemps{Global: map[float64]float64{}}
	for i, f := range steps {
		frac := 0.0
		if len(steps) > 1 {
			frac = float64(i) / float64(len(steps)-1)
		}
		table.Global[f] = 95 - 30*frac
	}
	return table
}

// TestChipStreamMatchesRunLoop pins the stream's core contract: driving
// a ChipStream externally with a Session — the exact decomposition the
// load-replay harness performs with an HTTP daemon in the middle — is
// bit-identical to RunLoop on the same pipeline seed: same aggregate
// scores, same decision stats, down to float equality. It holds with
// sensor and counter fault taps installed too.
func TestChipStreamMatchesRunLoop(t *testing.T) {
	p := fastSim(t)
	table := gradedTable(p)
	w, err := p.Workloads().ByName("gamess")
	if err != nil {
		t.Fatal(err)
	}
	clean := DefaultLoopConfig()
	clean.Steps = 60 // 4 decisions at period 12, plus a 12-step tail
	withTaps := func() LoopConfig {
		cfg := clean
		sensor, err := faults.NewSensor(faults.Scenario{Class: faults.SensorNoise, Intensity: 0.5, Start: 3, Sensor: -1, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		counter, err := faults.NewCounter(faults.Scenario{Class: faults.CounterCorrupt, Intensity: 1, Start: 20, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		cfg.SensorTap, cfg.CounterTap = sensor, counter
		return cfg
	}
	for _, tc := range []struct {
		name string
		cfg  func() LoopConfig
	}{
		{"clean", func() LoopConfig { return clean }},
		{"fault taps", withTaps},
	} {
		cfg := tc.cfg()
		ref, err := RunLoop(p, w, control.NewThermalController(table, 0), cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The trajectory must actually move, or the equivalence is vacuous.
		if ref.Stats.Throttles+ref.Stats.Climbs == 0 {
			t.Fatalf("%s: reference trajectory never moved: %+v", tc.name, ref.Stats)
		}

		// Same pipeline: NewChipStream warm-starts from scratch, so the
		// stream replays the identical run (with fresh taps).
		cfg = tc.cfg()
		cs, err := NewChipStream(p, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := NewSession(SessionConfig{
			Controller: control.NewThermalController(table, 0),
			VF:         p.VF(),
			StartFreq:  cfg.StartFreq,
		})
		if err != nil {
			t.Fatal(err)
		}
		decisions := (cfg.Steps - 1) / cfg.DecisionPeriod
		freq := cfg.StartFreq
		for k := 0; k < decisions; k++ {
			obs, err := cs.Next(freq)
			if err != nil {
				t.Fatalf("%s: tick %d: %v", tc.name, k, err)
			}
			freq = sess.Decide(obs).Freq
		}
		if tail := cfg.Steps - decisions*cfg.DecisionPeriod; tail > 0 {
			if _, err := cs.Advance(freq, tail); err != nil {
				t.Fatal(err)
			}
		}
		p.SetSensorTap(nil)

		sum := cs.Summary()
		got := LoopResult{Workload: sum.Workload, AvgFreq: sum.AvgFreq, PeakSeverity: sum.PeakSeverity,
			PeakMLTD: sum.PeakMLTD, Incursions: sum.Incursions, Stats: sess.Stats}
		want := LoopResult{Workload: ref.Workload, AvgFreq: ref.AvgFreq, PeakSeverity: ref.PeakSeverity,
			PeakMLTD: ref.PeakMLTD, Incursions: ref.Incursions, Stats: ref.Stats}
		if sum.Steps != cfg.Steps {
			t.Fatalf("%s: stream ran %d steps, want %d", tc.name, sum.Steps, cfg.Steps)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: stream %+v\n != RunLoop %+v", tc.name, got, want)
		}
	}
}

// TestChipStreamOpenEnded pins that a stream is not bound by
// LoopConfig.Steps: a zero-Steps config validates, and the stream keeps
// producing intervals for as long as the caller asks.
func TestChipStreamOpenEnded(t *testing.T) {
	p := fastSim(t)
	w, err := p.Workloads().ByName("gamess")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultLoopConfig()
	cfg.Steps = 0
	cs, err := NewChipStream(p, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 20; k++ { // 240 steps, past the default 150
		if _, err := cs.Next(cfg.StartFreq); err != nil {
			t.Fatalf("tick %d: %v", k, err)
		}
	}
	if got := cs.Steps(); got != 20*cfg.DecisionPeriod {
		t.Fatalf("Steps = %d, want %d", got, 20*cfg.DecisionPeriod)
	}
}

// TestChipStreamNextZeroAlloc pins that advancing a stream allocates
// nothing: the step loop reuses one scratch result and the boundary
// observation is returned by value.
func TestChipStreamNextZeroAlloc(t *testing.T) {
	p := fastSim(t)
	w, err := p.Workloads().ByName("gamess")
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewChipStream(p, w, DefaultLoopConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Next(3.75); err != nil { // first call sizes the scratch
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(5, func() {
		if _, err := cs.Next(3.75); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ChipStream.Next allocates %v times per call, want 0", n)
	}
}

func TestChipStreamErrors(t *testing.T) {
	p := fastSim(t)
	w, err := p.Workloads().ByName("gamess")
	if err != nil {
		t.Fatal(err)
	}
	bad := DefaultLoopConfig()
	bad.StartFreq = 3.83
	if _, err := NewChipStream(p, w, bad); err == nil {
		t.Fatal("expected StartFreq error")
	}
	bad = DefaultLoopConfig()
	bad.SensorIndex = 99
	if _, err := NewChipStream(p, w, bad); err == nil {
		t.Fatal("expected sensor range error")
	}
	cs, err := NewChipStream(p, w, DefaultLoopConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Advance(3.75, 0); err == nil {
		t.Fatal("expected non-positive step error")
	}
}
