// Golden pins for the streamed simulator paths (trace.Drive /
// PeakReducer / DatasetAppender / ChipStream). Every constant below was
// captured from the materialized []sim.StepResult reference
// implementation (full trace first, reductions and labelling post hoc)
// while it still existed, so these tests keep holding the streamed paths
// to it bit for bit. The campaign-shaped pins are checked at -j1 and -j8.
package boreas_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/engine"
	"github.com/hotgauge/boreas/internal/faults"
	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/telemetry"
	"github.com/hotgauge/boreas/internal/workload"
)

func equivSimConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Thermal.NX, cfg.Thermal.NY = 24, 18
	cfg.WarmStartProbeSteps = 5
	return cfg
}

// g17 renders a float with enough digits to round-trip exactly.
func g17(v float64) string { return fmt.Sprintf("%.17g", v) }

func hashFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

// floatsDigest is the sha256 of the little-endian IEEE-754 bits of xs.
func floatsDigest(xs []float64) string {
	h := sha256.New()
	for _, v := range xs {
		hashFloat(h, v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// datasetDigest is the sha256 of a dataset's feature names followed by
// every row in order: workload name, label bits, feature bits.
func datasetDigest(ds *telemetry.Dataset) string {
	h := sha256.New()
	for _, n := range ds.FeatureNames {
		h.Write(append([]byte(n), 0))
	}
	for i := range ds.X {
		h.Write(append([]byte(ds.Workloads[i]), 0))
		hashFloat(h, ds.Y[i])
		for _, v := range ds.X[i] {
			hashFloat(h, v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func requireDatasetPin(t *testing.T, ds *telemetry.Dataset, rows int, digest, what string) {
	t.Helper()
	if ds.Len() != rows {
		t.Fatalf("%s: %d rows, pinned %d", what, ds.Len(), rows)
	}
	if got := datasetDigest(ds); got != digest {
		t.Fatalf("%s: digest %s, pinned %s", what, got, digest)
	}
}

// requireTablePin compares a workload x frequency table against pinned
// %.17g renderings.
func requireTablePin(t *testing.T, got map[string]map[float64]float64, want map[string]map[float64]string, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d workloads, pinned %d", what, len(got), len(want))
	}
	for name, row := range want {
		if len(got[name]) != len(row) {
			t.Fatalf("%s: %s has %d frequencies, pinned %d", what, name, len(got[name]), len(row))
		}
		for f, v := range row {
			if g := g17(got[name][f]); g != v {
				t.Fatalf("%s: %s @ %g GHz = %s, pinned %s", what, name, f, g, v)
			}
		}
	}
}

// TestEquivalence_BuildDataset pins the streamed telemetry.Build against
// the materialized campaign (RunStatic + post-hoc labelling per task,
// merged in canonical order).
func TestEquivalence_BuildDataset(t *testing.T) {
	const (
		pinRows   = 324
		pinDigest = "347a01d379ab27a9d1c2205ec55d0aaefddb3d883a26d37cb5284d49a9382081"
	)
	cfg := telemetry.DefaultBuildConfig(
		[]string{"gromacs", "bzip2", "calculix"}, []float64{3.5, 4.0, 4.5})
	cfg.Sim = equivSimConfig()
	cfg.StepsPerRun = 48
	cfg.Horizon = 12
	for _, j := range []int{1, 8} {
		c := cfg
		c.Workers = j
		got, err := telemetry.Build(c)
		if err != nil {
			t.Fatalf("streamed build at -j%d: %v", j, err)
		}
		requireDatasetPin(t, got, pinRows, pinDigest, fmt.Sprintf("static build -j%d", j))
	}
}

// TestEquivalence_BuildWalkDataset pins the streamed walk build against
// the materialized walk (record the whole trace and hold schedule, then
// label).
func TestEquivalence_BuildWalkDataset(t *testing.T) {
	const (
		pinRows   = 288
		pinDigest = "7439fede1a7f0f03d92adc33ecffe6fe86ff59f356ce5b3c811a5bb112e61cfd"
	)
	cfg := telemetry.DefaultWalkConfig([]string{"gromacs", "gamess"},
		[]float64{3.0, 3.25, 3.5, 3.75, 4.0, 4.25, 4.5, 4.75})
	cfg.Sim = equivSimConfig()
	cfg.StepsPerWalk = 120
	cfg.HoldSteps = 30
	cfg.Horizon = 12
	cfg.WalksPerWorkload = 2
	for _, j := range []int{1, 8} {
		c := cfg
		c.Workers = j
		got, err := telemetry.BuildWalk(c)
		if err != nil {
			t.Fatalf("streamed walk at -j%d: %v", j, err)
		}
		requireDatasetPin(t, got, pinRows, pinDigest, fmt.Sprintf("walk build -j%d", j))
	}
}

// TestEquivalence_OraclePeaks pins the PeakReducer-streamed oracle table
// against peaks of materialized traces.
func TestEquivalence_OraclePeaks(t *testing.T) {
	pin := map[string]map[float64]string{
		"gromacs": {3.5: "0.7140026630378713", 4.0: "0.99322405493242705", 4.5: "1.4899360742924099"},
		"bzip2":   {3.5: "0.38980384473178259", 4.0: "0.54394012296901195", 4.5: "0.81916553332180997"},
	}
	p, err := sim.New(equivSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{1, 8} {
		table, err := engine.BuildOracleContext(context.Background(), p,
			[]string{"gromacs", "bzip2"}, []float64{3.5, 4.0, 4.5}, 48, j)
		if err != nil {
			t.Fatalf("oracle at -j%d: %v", j, err)
		}
		requireTablePin(t, table.Peak, pin, fmt.Sprintf("oracle peaks -j%d", j))
	}
}

// TestEquivalence_CriticalTemps pins the streamed critical-temperature
// sweep against the materialized per-trace minimum (+Inf where a run
// never reaches severity 1).
func TestEquivalence_CriticalTemps(t *testing.T) {
	pin := map[string]map[float64]string{
		"gromacs": {4.25: "86.123585515777918", 4.5: "94.411275730249017", 4.75: "107.22655410721444"},
		"gamess":  {4.25: "+Inf", 4.5: "+Inf", 4.75: "104.74121540258771"},
	}
	p, err := sim.New(equivSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{1, 8} {
		ct, err := engine.BuildCriticalTempsContext(context.Background(), p,
			[]string{"gromacs", "gamess"}, []float64{4.25, 4.5, 4.75}, 48, sim.DefaultSensorIndex, j)
		if err != nil {
			t.Fatalf("crit temps at -j%d: %v", j, err)
		}
		requireTablePin(t, ct.PerWorkload, pin, fmt.Sprintf("crit temps -j%d", j))
	}
}

// loopPin is the pinned outcome of one closed-loop run.
type loopPin struct {
	freqs, severity, sensorTemp string // floatsDigest of each column
	avgFreq, peakSeverity       string // g17
	incursions                  int
}

func requireLoopPin(t *testing.T, res *engine.LoopResult, want loopPin, what string) {
	t.Helper()
	got := loopPin{
		freqs:        floatsDigest(res.Freqs),
		severity:     floatsDigest(res.Severity),
		sensorTemp:   floatsDigest(res.SensorTemp),
		avgFreq:      g17(res.AvgFreq),
		peakSeverity: g17(res.PeakSeverity),
		incursions:   res.Incursions,
	}
	if got != want {
		t.Fatalf("%s:\n got %+v\npin %+v", what, got, want)
	}
}

// equivLoop runs the pinned closed loop: a TH controller calibrated on a
// critical-temperature table built at the given worker count drives
// gromacs for 60 steps (four decisions at period 12).
func equivLoop(t *testing.T, workers int, ctrl func(control.Controller) control.Controller, lc engine.LoopConfig) *engine.LoopResult {
	t.Helper()
	p, err := sim.New(equivSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.DefaultSet().ByName("gromacs")
	if err != nil {
		t.Fatal(err)
	}
	table, err := engine.BuildCriticalTempsContext(context.Background(), p, []string{"gromacs", "gamess"},
		[]float64{3.5, 3.75, 4.0, 4.25, 4.5}, 48, lc.SensorIndex, workers)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.RunLoop(p, w, ctrl(control.NewThermalController(table, 0)), lc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func equivLoopConfig() engine.LoopConfig {
	lc := engine.DefaultLoopConfig()
	lc.Steps = 60
	lc.DecisionPeriod = 12
	return lc
}

// TestEquivalence_RunLoop pins RunLoop's recorded columns against the
// materialized step loop (recorded trace, decisions and scores).
func TestEquivalence_RunLoop(t *testing.T) {
	pin := loopPin{
		freqs:        "bbebcfbdfd7e5e644f6b7e96ee0511b457f7f2f8378d27e1e1072c1803d7b09e",
		severity:     "50c9a32650e5861322fe9117b15cdf0c2e8a0c0487ebe7e1d934c3df3254e5f0",
		sensorTemp:   "8806a6f3ba14169ce214c9240787de136b49637a746c3088992b463b2f35d779",
		avgFreq:      "4.25",
		peakSeverity: "1.512318379776596",
		incursions:   14,
	}
	for _, j := range []int{1, 8} {
		res := equivLoop(t, j, func(c control.Controller) control.Controller { return c }, equivLoopConfig())
		requireLoopPin(t, res, pin, fmt.Sprintf("RunLoop -j%d", j))
	}
}

// pmuWatchdog drops one 250 MHz VF step whenever the observed counters
// report zero cycles (the signature of a dead PMU) and defers to the
// wrapped controller otherwise, so a counter fault window shows in the
// frequency trajectory.
type pmuWatchdog struct{ control.Controller }

func (w pmuWatchdog) Decide(o control.Observation) float64 {
	if o.Counters.TotalCycles == 0 {
		return o.CurrentFreq - 0.25
	}
	return w.Controller.Decide(o)
}

// TestEquivalence_RunLoopFaultTaps pins RunLoop with a sensor and a
// counter fault tap installed together. Sensor jitter replays readings
// up to 8 steps stale from run step 0, so the recorded SensorTemp column
// also pins that the tap is installed after the warm start (earlier, its
// history would hold warm-up probe readings). A zeroed PMU over run steps
// 24-47 covers the decision boundaries at steps 35 and 47 but not 23 or
// 59, which pins the counter tap's step index.
func TestEquivalence_RunLoopFaultTaps(t *testing.T) {
	pin := loopPin{
		freqs:        "a78c5cbed5d6fd917b69e7bfa40194794c7902e388d0d7a8504df59ebd79c968",
		severity:     "f5fe3d6d4650c0f60d31ed8a477cb848afa3fb539720c610068803867c85d19b",
		sensorTemp:   "d6a46590e42d6f7cfa3e4e3181a2ea788b3e02c0afcb1226986080bd023a34c0",
		avgFreq:      "3.9500000000000002",
		peakSeverity: "1.0574600759703376",
		incursions:   1,
	}
	for _, j := range []int{1, 8} {
		sensor, _, err := faults.Taps(faults.Scenario{
			Class: faults.SensorJitter, Intensity: 1, Sensor: -1, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		_, counter, err := faults.Taps(faults.Scenario{
			Class: faults.CounterZero, Intensity: 1, Start: 24, Duration: 24, Seed: 12})
		if err != nil {
			t.Fatal(err)
		}
		lc := equivLoopConfig()
		lc.SensorTap, lc.CounterTap = sensor, counter
		res := equivLoop(t, j, func(c control.Controller) control.Controller { return pmuWatchdog{c} }, lc)
		requireLoopPin(t, res, pin, fmt.Sprintf("RunLoop with fault taps -j%d", j))
	}
}
