package sim

import (
	"math"
	"testing"

	"github.com/hotgauge/boreas/internal/workload"
)

func TestSensorDelayStepsDerivedFromConfig(t *testing.T) {
	cfg := testConfig()
	cfg.SensorDelaySec = 960e-6
	cfg.TimestepSec = 80e-6
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Sensors().DelaySteps(); got != 12 {
		t.Fatalf("delay steps = %d, want 12 (960us / 80us)", got)
	}
}

func TestZeroDelayConfigMatchesCurrent(t *testing.T) {
	cfg := testConfig()
	cfg.SensorDelaySec = 0
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workload.DefaultSet().ByName("calculix")
	run := w.NewRun(1)
	var r StepResult
	for i := 0; i < 10; i++ {
		if err := p.StepInto(run, 4.0, &r); err != nil {
			t.Fatal(err)
		}
		for s := range r.SensorDelayed {
			if r.SensorDelayed[s] != r.SensorCurrent[s] {
				t.Fatalf("zero delay: sensor %d delayed %v != current %v",
					s, r.SensorDelayed[s], r.SensorCurrent[s])
			}
		}
	}
}

func TestVoltageFollowsTableI(t *testing.T) {
	p := newPipeline(t)
	w, _ := workload.DefaultSet().ByName("gamess")
	run := w.NewRun(1)
	var r StepResult
	for _, c := range []struct{ f, v float64 }{{2.0, 0.64}, {3.5, 0.87}, {5.0, 1.40}} {
		if err := p.StepInto(run, c.f, &r); err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.Voltage-c.v) > 1e-9 {
			t.Fatalf("voltage at %v GHz = %v, want %v", c.f, r.Voltage, c.v)
		}
	}
}

func TestPowerTracksFrequency(t *testing.T) {
	p := newPipeline(t)
	w, _ := workload.DefaultSet().ByName("calculix")
	run := w.NewRun(1)
	var r StepResult
	var lowP, highP float64
	for i := 0; i < 15; i++ {
		if err := p.StepInto(run, 2.0, &r); err != nil {
			t.Fatal(err)
		}
		lowP = r.TotalPower
	}
	for i := 0; i < 15; i++ {
		if err := p.StepInto(run, 5.0, &r); err != nil {
			t.Fatal(err)
		}
		highP = r.TotalPower
	}
	if highP < 3*lowP {
		t.Fatalf("5 GHz power %v should far exceed 2 GHz power %v", highP, lowP)
	}
}
