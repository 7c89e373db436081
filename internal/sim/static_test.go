package sim_test

import (
	"math"
	"testing"

	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/trace"
)

// These tests observe whole fixed-frequency runs, so they drive the
// pipeline through trace.RunStatic (the warm-started static run) from the
// external test package.

func newPipeline(t *testing.T) *sim.Pipeline {
	t.Helper()
	p, err := sim.New(sim.FastConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// record runs the named workload statically and returns its trace.
func record(t *testing.T, p *sim.Pipeline, name string, fGHz float64, steps int) *trace.Trace {
	t.Helper()
	var rec trace.Recorder
	if err := trace.RunStatic(p, name, fGHz, steps, &rec); err != nil {
		t.Fatal(err)
	}
	return &rec.T
}

// peak runs the named workload statically and returns its peak severity.
func peak(t *testing.T, p *sim.Pipeline, name string, fGHz float64, steps int) float64 {
	t.Helper()
	var pr trace.PeakReducer
	if err := trace.RunStatic(p, name, fGHz, steps, &pr); err != nil {
		t.Fatal(err)
	}
	return pr.PeakSeverity
}

func TestRunStaticTraceLength(t *testing.T) {
	if n := record(t, newPipeline(t), "gamess", 3.0, 25).Len(); n != 25 {
		t.Fatalf("trace length %d, want 25", n)
	}
}

func TestRunStaticUnknownWorkload(t *testing.T) {
	p := newPipeline(t)
	if err := trace.RunStatic(p, "quake", 3.0, 10); err == nil {
		t.Fatal("expected unknown-workload error")
	}
	if err := trace.RunStatic(p, "gamess", 3.0, 0); err == nil {
		t.Fatal("expected step-count error")
	}
}

func TestHigherFrequencyHigherSeverity(t *testing.T) {
	p := newPipeline(t)
	lo := peak(t, p, "calculix", 2.5, 40)
	hi := peak(t, p, "calculix", 4.75, 40)
	if hi <= lo {
		t.Fatalf("severity must grow with frequency: %v vs %v", hi, lo)
	}
}

func TestWorkloadDiversity(t *testing.T) {
	// A hot FP workload and a memory-bound workload must separate clearly
	// at the same frequency - the paper's application-dependence premise.
	p := newPipeline(t)
	hot := peak(t, p, "calculix", 4.25, 40)
	cool := peak(t, p, "omnetpp", 4.25, 40)
	if hot < cool+0.15 {
		t.Fatalf("calculix (%v) should be far more severe than omnetpp (%v)", hot, cool)
	}
}

func TestDeterministicTraces(t *testing.T) {
	ta := record(t, newPipeline(t), "gromacs", 4.0, 15)
	tb := record(t, newPipeline(t), "gromacs", 4.0, 15)
	for i := 0; i < ta.Len(); i++ {
		if ta.Severities[i].Max != tb.Severities[i].Max || ta.Power[i] != tb.Power[i] {
			t.Fatalf("same-config pipelines diverged at step %d", i)
		}
	}
}

func TestSpikyWorkloadSeverityVariance(t *testing.T) {
	// The spiky workloads must show visibly larger step-to-step severity
	// swings than the smooth ones - the application-dependence the paper
	// is built on.
	variance := func(name string) float64 {
		tr := record(t, newPipeline(t), name, 4.0, 60)
		s := 0.0
		for i := 1; i < tr.Len(); i++ {
			s += math.Abs(tr.Severities[i].Max - tr.Severities[i-1].Max)
		}
		return s / float64(tr.Len()-1)
	}
	spiky := variance("gromacs")
	smooth := variance("hmmer")
	if spiky < 2*smooth {
		t.Fatalf("gromacs step variance %v should dwarf hmmer %v", spiky, smooth)
	}
}

func TestResetRestoresAmbient(t *testing.T) {
	p := newPipeline(t)
	if err := trace.RunStatic(p, "calculix", 4.5, 30); err != nil {
		t.Fatal(err)
	}
	p.Reset()
	if p.Thermal().MaxDieTemp() != p.Config().Thermal.Ambient {
		t.Fatal("Reset did not restore ambient")
	}
	if p.Time() != 0 {
		t.Fatal("Reset did not zero the clock")
	}
}
