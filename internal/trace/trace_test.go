package trace_test

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/trace"
	"github.com/hotgauge/boreas/internal/workload"
)

func testConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Thermal.NX, cfg.Thermal.NY = 24, 18
	cfg.WarmStartProbeSteps = 5
	return cfg
}

// materialize is the reference the streamed observers are held to: the
// same warm-started static run as trace.RunStatic, stepped by hand with
// a fresh StepResult (and so fresh sensor slices) per step.
func materialize(t *testing.T, cfg sim.Config, name string, fGHz float64, steps int) []sim.StepResult {
	t.Helper()
	p, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := p.Workloads().ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WarmStart(w, fGHz); err != nil {
		t.Fatal(err)
	}
	run := w.NewRun(cfg.Seed)
	out := make([]sim.StepResult, steps)
	for i := range out {
		if err := p.StepInto(run, fGHz, &out[i]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestRecorderMatchesMaterializedRunStatic is the core golden test of the
// layer: the streamed Recorder must reproduce a hand-stepped run bit for
// bit, although Drive reuses one scratch StepResult for every step.
func TestRecorderMatchesMaterializedRunStatic(t *testing.T) {
	cfg := testConfig()
	const (
		name  = "gromacs"
		fGHz  = 4.25
		steps = 40
	)
	want := materialize(t, cfg, name, fGHz, steps)

	p, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Recorder
	if err := trace.RunStatic(p, name, fGHz, steps, &rec); err != nil {
		t.Fatal(err)
	}

	if rec.T.Len() != steps {
		t.Fatalf("recorded %d steps, want %d", rec.T.Len(), steps)
	}
	for i := range want {
		if got := rec.T.At(i); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("step %d diverges:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
	if rec.T.Workload != name {
		t.Fatalf("trace workload %q, want %q", rec.T.Workload, name)
	}
}

// TestPeakReducerMatchesMaterialized checks every reduction against the
// trace-walking reference.
func TestPeakReducerMatchesMaterialized(t *testing.T) {
	cfg := testConfig()
	const steps = 40
	ref := materialize(t, cfg, "gamess", 4.5, steps)

	p, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pr trace.PeakReducer
	if err := trace.RunStatic(p, "gamess", 4.5, steps, &pr); err != nil {
		t.Fatal(err)
	}

	if pr.Steps != steps {
		t.Fatalf("reducer saw %d steps, want %d", pr.Steps, steps)
	}
	wantSev, wantTemp, wantMLTD, wantEnergy, wantInc := 0.0, 0.0, 0.0, 0.0, 0
	for _, r := range ref {
		wantSev = math.Max(wantSev, r.Severity.Max)
		wantTemp = math.Max(wantTemp, r.Severity.MaxTemp)
		wantMLTD = math.Max(wantMLTD, r.Severity.MaxMLTD)
		wantEnergy += r.TotalPower * cfg.TimestepSec
		if r.Severity.Max >= 1.0 {
			wantInc++
		}
	}
	if pr.PeakSeverity != wantSev {
		t.Fatalf("PeakSeverity %v, want %v", pr.PeakSeverity, wantSev)
	}
	if pr.PeakTemp != wantTemp {
		t.Fatalf("PeakTemp %v, want %v", pr.PeakTemp, wantTemp)
	}
	if pr.PeakMLTD != wantMLTD {
		t.Fatalf("PeakMLTD %v, want %v", pr.PeakMLTD, wantMLTD)
	}
	if pr.Incursions != wantInc {
		t.Fatalf("Incursions %d, want %d", pr.Incursions, wantInc)
	}
	if math.Abs(pr.EnergyJ-wantEnergy) > 1e-12 {
		t.Fatalf("EnergyJ %v, want %v", pr.EnergyJ, wantEnergy)
	}
}

// TestObserversAreReusable pins the Begin-resets contract: driving the
// same observer twice must leave it in the single-run state, not an
// accumulated one.
func TestObserversAreReusable(t *testing.T) {
	cfg := testConfig()
	const steps = 20

	p, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Recorder
	var pr trace.PeakReducer
	if err := trace.RunStatic(p, "bzip2", 4.0, steps, &rec, &pr); err != nil {
		t.Fatal(err)
	}
	firstTimes := append([]float64(nil), rec.T.Times...)
	firstPeak := pr.PeakSeverity

	if err := trace.RunStatic(p, "bzip2", 4.0, steps, &rec, &pr); err != nil {
		t.Fatal(err)
	}
	if rec.T.Len() != steps {
		t.Fatalf("second run recorded %d steps, want %d", rec.T.Len(), steps)
	}
	if pr.Steps != steps {
		t.Fatalf("second run reduced %d steps, want %d", pr.Steps, steps)
	}
	if !reflect.DeepEqual(rec.T.Times, firstTimes) {
		t.Fatal("second identical run recorded different times")
	}
	if pr.PeakSeverity != firstPeak {
		t.Fatal("second identical run reduced a different peak")
	}
}

// TestObserverFunc: a plain function adapted to an Observer sees every
// step, alongside other observers of the same drive.
func TestObserverFunc(t *testing.T) {
	const steps = 10
	p, err := sim.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	countA, countB := 0, 0
	if err := trace.RunStatic(p, "mcf", 3.5, steps,
		trace.ObserverFunc(func(step int, r *sim.StepResult) { countA++ }),
		trace.ObserverFunc(func(step int, r *sim.StepResult) { countB++ }),
	); err != nil {
		t.Fatal(err)
	}
	if countA != steps || countB != steps {
		t.Fatalf("observers saw %d/%d steps, want %d", countA, countB, steps)
	}
}

type endErrObserver struct{ err error }

func (o *endErrObserver) Begin(trace.Meta)             {}
func (o *endErrObserver) Observe(int, *sim.StepResult) {}
func (o *endErrObserver) End() error                   { return o.err }

// TestDriveSurfacesEndError: the first observer End error must reach the
// caller.
func TestDriveSurfacesEndError(t *testing.T) {
	cfg := testConfig()

	p, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("observer failed")
	err = trace.RunStatic(p, "lbm", 3.0, 5, &endErrObserver{err: sentinel})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want the observer's End error", err)
	}
}

// TestDriveRejectsBadSteps: non-positive step counts are an error before
// any observer is touched.
func TestDriveRejectsBadSteps(t *testing.T) {
	cfg := testConfig()
	p, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.DefaultSet().ByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	run := w.NewRun(1)
	if err := trace.Drive(p, run, func(int) float64 { return 3.0 }, 0); err == nil {
		t.Fatal("Drive accepted zero steps")
	}
	if err := trace.RunStatic(p, "bzip2", 3.0, -1); err == nil {
		t.Fatal("RunStatic accepted negative steps")
	}
}

// TestDriveMetaAndFreqFn: Meta carries the run coordinates and freqFn is
// consulted per step (a frequency schedule realized by the drive loop).
func TestDriveMetaAndFreqFn(t *testing.T) {
	cfg := testConfig()
	const steps = 8

	p, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.DefaultSet().ByName("calculix")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WarmStart(w, 3.5); err != nil {
		t.Fatal(err)
	}
	run := w.NewRun(cfg.Seed)

	var meta trace.Meta
	var rec trace.Recorder
	schedule := []float64{3.5, 3.5, 3.75, 3.75, 4.0, 4.0, 3.5, 3.5}
	err = trace.Drive(p, run, func(step int) float64 { return schedule[step] }, steps,
		trace.ObserverFunc(func(step int, r *sim.StepResult) {}),
		&rec, observeMeta(&meta))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Workload != "calculix" || meta.Steps != steps || meta.NumSensors != p.NumSensors() {
		t.Fatalf("bad meta %+v", meta)
	}
	if meta.TimestepSec != cfg.TimestepSec {
		t.Fatalf("meta timestep %v, want %v", meta.TimestepSec, cfg.TimestepSec)
	}
	if !reflect.DeepEqual(rec.T.Freqs, schedule) {
		t.Fatalf("recorded frequencies %v, want %v", rec.T.Freqs, schedule)
	}
}

type metaCapture struct {
	dst *trace.Meta
}

func observeMeta(dst *trace.Meta) trace.Observer { return &metaCapture{dst: dst} }

func (m *metaCapture) Begin(meta trace.Meta)        { *m.dst = meta }
func (m *metaCapture) Observe(int, *sim.StepResult) {}
func (m *metaCapture) End() error                   { return nil }

// TestTraceViews pins the columnar accessors: At and the sensor views
// must agree with the flat matrices.
func TestTraceViews(t *testing.T) {
	cfg := testConfig()
	const steps = 6

	p, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Recorder
	if err := trace.RunStatic(p, "gromacs", 4.0, steps, &rec); err != nil {
		t.Fatal(err)
	}
	tr := &rec.T
	n := tr.NumSensors
	if len(tr.SensorDelayed) != steps*n || len(tr.SensorCurrent) != steps*n {
		t.Fatalf("sensor matrices %dx%d, want %d rows of %d",
			len(tr.SensorDelayed), len(tr.SensorCurrent), steps, n)
	}
	for i := 0; i < steps; i++ {
		r := tr.At(i)
		if r.Time != tr.Times[i] || r.FrequencyGHz != tr.Freqs[i] || r.TotalPower != tr.Power[i] {
			t.Fatalf("At(%d) scalar mismatch", i)
		}
		for s := 0; s < n; s++ {
			if r.SensorDelayed[s] != tr.SensorDelayed[i*n+s] {
				t.Fatalf("At(%d) delayed sensor %d mismatch", i, s)
			}
			if r.SensorCurrent[s] != tr.SensorCurrent[i*n+s] {
				t.Fatalf("At(%d) current sensor %d mismatch", i, s)
			}
		}
	}
}
