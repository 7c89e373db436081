// Package boreas is the public API of the Boreas reproduction: a machine
// learning driven DVFS controller that predicts Hotspot-Severity from
// hardware telemetry (one delayed thermal sensor reading plus
// micro-architectural performance counters) and picks the highest safe
// frequency every ~1 ms, as published in "Boreas: A Cost-Effective
// Mitigation Method for Advanced Hotspots using Machine Learning and
// Hardware Telemetry" (ISPASS 2023).
//
// The package re-exports the paper's pipeline, end to end:
//
//   - The HotGauge-style simulation pipeline (performance, power and
//     thermal models of a Skylake-class 7 nm core) that generates
//     telemetry and ground-truth severity: NewPipeline, streamed to
//     observers by RunStaticObserved. PlatformByName builds the other
//     registered chip scenarios.
//   - Dataset construction from static sweeps and frequency walks:
//     BuildDataset, BuildWalkDataset.
//   - The gradient-boosted-tree severity predictor and its guardbanded
//     controller (the paper's contribution): TrainPredictor, NewMLController.
//   - The baselines it is evaluated against: the thermal-threshold
//     controllers (BuildCriticalTemps, CalibrateThermalMargin,
//     NewThermalController) and the static oracle (BuildOracle).
//   - The closed-loop evaluation harness: RunLoop.
//   - The per-table/figure experiment campaign: NewLab.
//
// Serving, fleets, fault injection and checkpointed campaigns live in the
// internal packages behind the CLIs (boreas serve, boreas loadtest,
// -experiment fleet/faults, -checkpoint); see DESIGN.md.
//
// Parallel execution: the dataset builders (BuildConfig.Workers,
// WalkConfig.Workers) and the Lab (ExperimentConfig.Workers) run
// independent simulations on a worker pool. Zero or negative means one
// worker per CPU. Results are bit-identical at any worker count -
// parallelism is purely a wall-clock optimisation.
//
// A minimal end-to-end use looks like:
//
//	ds, _ := boreas.BuildDataset(boreas.DefaultBuildConfig(boreas.TrainWorkloads(), boreas.Frequencies()))
//	pred, _ := boreas.TrainPredictor(ds, boreas.DefaultTrainConfig())
//	ctrl, _ := boreas.NewMLController(pred, 0.05) // ML05
//	pipe, _ := boreas.NewPipeline(boreas.DefaultSimConfig())
//	w, _ := boreas.WorkloadByName("bzip2")
//	res, _ := boreas.RunLoop(pipe, w, ctrl, boreas.DefaultLoopConfig())
package boreas

import (
	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/core"
	"github.com/hotgauge/boreas/internal/engine"
	"github.com/hotgauge/boreas/internal/experiments"
	"github.com/hotgauge/boreas/internal/hotspot"
	"github.com/hotgauge/boreas/internal/platform"
	"github.com/hotgauge/boreas/internal/power"
	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/telemetry"
	"github.com/hotgauge/boreas/internal/trace"
	"github.com/hotgauge/boreas/internal/workload"
)

// Platform is one complete simulated-chip scenario: floorplan, thermal
// and power configuration, VF curve, core model, severity calibration,
// sensors, workload catalogue and train/test split. The CLIs load
// scenario files through -platform.
type Platform = platform.Platform

// PlatformByName builds a registered platform ("skylake-7nm",
// "mobile-7nm", "server-7nm-hires").
func PlatformByName(name string) (*Platform, error) { return platform.ByName(name) }

// Simulation pipeline (the HotGauge-equivalent substrate).
type (
	// SimConfig assembles the performance/power/thermal pipeline.
	SimConfig = sim.Config
	// Pipeline is one instantiated simulation.
	Pipeline = sim.Pipeline
	// StepResult is one 80 us timestep's telemetry and ground truth.
	StepResult = sim.StepResult
	// SeverityParams calibrates the Hotspot-Severity metric.
	SeverityParams = hotspot.SeverityParams
)

// DefaultSimConfig returns the standard experiment pipeline configuration.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// NewPipeline builds a simulation pipeline.
func NewPipeline(cfg SimConfig) (*Pipeline, error) { return sim.New(cfg) }

// DefaultSeverityParams returns the HotGauge-calibrated severity metric.
func DefaultSeverityParams() SeverityParams { return hotspot.DefaultSeverityParams() }

// DefaultSensorIndex is the paper's preferred sensor (tsens03, EX stage).
const DefaultSensorIndex = sim.DefaultSensorIndex

// Streaming telemetry (the trace/observer layer). Consumers that only
// need a reduction of a run — a peak, a dataset row, a CSV line —
// observe the step stream instead of materializing []StepResult.
type (
	// TraceObserver consumes a stream of pipeline timesteps. The
	// StepResult handed to Observe is scratch: copy what you retain.
	TraceObserver = trace.Observer
	// TraceObserverFunc adapts a per-step function to TraceObserver.
	TraceObserverFunc = trace.ObserverFunc
	// TraceRecorder is an observer that fills a columnar trace.
	TraceRecorder = trace.Recorder
	// PeakReducer folds a run to its peaks and energy in O(1) memory.
	PeakReducer = trace.PeakReducer
)

// RunStaticObserved warm-starts the pipeline and streams a fixed-
// frequency run of the named workload to the observers.
func RunStaticObserved(p *Pipeline, name string, fGHz float64, steps int, obs ...TraceObserver) error {
	return trace.RunStatic(p, name, fGHz, steps, obs...)
}

// Workload is a synthetic SPEC CPU2006 behavioural model.
type Workload = workload.Workload

// Workloads returns the full 27-benchmark catalogue.
func Workloads() []*Workload { return workload.DefaultSet().Catalog() }

// WorkloadByName looks up one benchmark.
func WorkloadByName(name string) (*Workload, error) { return workload.DefaultSet().ByName(name) }

// TrainWorkloads returns the Table III training-set names.
func TrainWorkloads() []string { return workload.DefaultSet().TrainNames() }

// TestWorkloads returns the Table III test-set names.
func TestWorkloads() []string { return workload.DefaultSet().TestNames() }

// Frequencies returns the 13 DVFS operating points (2.0-5.0 GHz).
func Frequencies() []float64 { return power.DefaultVF().FrequencySteps() }

// VoltageFor returns the Table I supply voltage for a frequency.
func VoltageFor(fGHz float64) float64 { return power.DefaultVF().VoltageFor(fGHz) }

// Telemetry and datasets.
type (
	// Dataset is a labelled telemetry feature matrix.
	Dataset = telemetry.Dataset
	// BuildConfig describes a static-sweep dataset campaign.
	BuildConfig = telemetry.BuildConfig
	// WalkConfig describes a frequency-walk dataset campaign.
	WalkConfig = telemetry.WalkConfig
)

// DefaultBuildConfig returns the standard static extraction campaign.
func DefaultBuildConfig(workloads []string, freqs []float64) BuildConfig {
	return telemetry.DefaultBuildConfig(workloads, freqs)
}

// DefaultWalkConfig returns the standard frequency-walk campaign.
func DefaultWalkConfig(workloads []string, freqs []float64) WalkConfig {
	return telemetry.DefaultWalkConfig(workloads, freqs)
}

// BuildDataset runs a static extraction campaign (cfg.Workers runs in
// flight).
func BuildDataset(cfg BuildConfig) (*Dataset, error) { return telemetry.Build(cfg) }

// BuildWalkDataset runs a frequency-walk extraction campaign (cfg.Workers
// runs in flight).
func BuildWalkDataset(cfg WalkConfig) (*Dataset, error) { return telemetry.BuildWalk(cfg) }

// FeatureNames returns the full 78-feature telemetry vocabulary.
func FeatureNames() []string { return telemetry.FullFeatureNames() }

// TableIVFeatures returns the paper's top-20 attribute list.
func TableIVFeatures() []string { return telemetry.TableIVFeatureNames() }

// The Boreas model and controller (the paper's contribution).
type (
	// Predictor is the trained severity predictor.
	Predictor = core.Predictor
	// TrainConfig selects features and GBT hyper-parameters.
	TrainConfig = core.TrainConfig
	// MLController is the guardbanded Boreas frequency controller.
	MLController = core.Controller
)

// DefaultTrainConfig returns the paper's Table II training configuration.
func DefaultTrainConfig() TrainConfig { return core.DefaultTrainConfig() }

// TrainPredictor fits the Boreas severity predictor.
func TrainPredictor(ds *Dataset, cfg TrainConfig) (*Predictor, error) { return core.Train(ds, cfg) }

// NewMLController builds an ML-xx controller (guardband 0, 0.05, 0.10 for
// the paper's ML00/ML05/ML10).
func NewMLController(pred *Predictor, guardband float64) (*MLController, error) {
	return core.NewController(pred, guardband)
}

// Controllers and the closed-loop harness. Controllers are pure decision
// functions (internal/control); the engine drives them against the
// simulator.
type (
	// Controller selects the next frequency from telemetry.
	Controller = control.Controller
	// LoopConfig parametrises a closed-loop run.
	LoopConfig = engine.LoopConfig
	// LoopResult scores one run.
	LoopResult = engine.LoopResult
	// CriticalTemps is the thermal-threshold table.
	CriticalTemps = control.CriticalTemps
	// ThermalController is the TH-xx reactive baseline.
	ThermalController = control.ThermalController
	// OracleTable is the static-sweep upper bound.
	OracleTable = control.OracleTable
)

// DefaultLoopConfig matches the paper's dynamic runs.
func DefaultLoopConfig() LoopConfig { return engine.DefaultLoopConfig() }

// RunLoop executes one closed-loop evaluation.
func RunLoop(p *Pipeline, w *Workload, ctrl Controller, cfg LoopConfig) (*LoopResult, error) {
	return engine.RunLoop(p, w, ctrl, cfg)
}

// BuildCriticalTemps extracts the thermal-threshold table from sweeps.
func BuildCriticalTemps(p *Pipeline, workloads []string, freqs []float64, steps, sensorIndex int) (*CriticalTemps, error) {
	return engine.BuildCriticalTemps(p, workloads, freqs, steps, sensorIndex)
}

// NewThermalController builds a TH-xx controller.
func NewThermalController(table *CriticalTemps, relax float64) *ThermalController {
	return control.NewThermalController(table, relax)
}

// CalibrateThermalMargin constructs the paper's TH-00: the smallest
// threshold margin that is incursion-free on the calibration workloads.
func CalibrateThermalMargin(p *Pipeline, table *CriticalTemps, workloads []string, cfg LoopConfig, maxMargin float64) (*ThermalController, error) {
	return engine.CalibrateThermalMargin(p, table, workloads, cfg, maxMargin)
}

// BuildOracle sweeps every workload over every frequency with perfect
// knowledge (the upper bound of Fig 2).
func BuildOracle(p *Pipeline, workloads []string, freqs []float64, steps int) (*OracleTable, error) {
	return engine.BuildOracle(p, workloads, freqs, steps)
}

// Experiments: the per-table/figure generators.
type (
	// Lab caches the expensive shared artefacts of the experiment suite.
	Lab = experiments.Lab
	// ExperimentConfig scales the experiment campaign.
	ExperimentConfig = experiments.Config
)

// ExperimentConfigForPlatform derives a paper-scale campaign from a
// platform's own VF curve, split and sensors.
func ExperimentConfigForPlatform(pf *Platform) ExperimentConfig {
	return experiments.ConfigForPlatform(pf)
}

// QuickenExperimentConfig shrinks a campaign for fast iteration on any
// platform (QuickExperimentConfig is its default-platform counterpart).
func QuickenExperimentConfig(cfg ExperimentConfig) ExperimentConfig {
	return experiments.QuickenForPlatform(cfg)
}

// QuickExperimentConfig is a reduced campaign for fast iteration.
func QuickExperimentConfig() ExperimentConfig { return experiments.QuickConfig() }

// NewLab builds the experiment context.
func NewLab(cfg ExperimentConfig) (*Lab, error) { return experiments.NewLab(cfg) }
