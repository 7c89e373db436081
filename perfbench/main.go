// Command perfbench is the repository's benchmark: it runs one named
// workload against the Boreas packages, checks every output it can check,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as the last line of standard output:
//
//	bash perfbench/run.sh --workload serve-steady --seed 1 --seconds 22 --trace 0
//
// It drives the program only through the packages' public functions and
// times each layer from outside, with spans recorded around the calls
// into it. See README.md for the workloads, the metrics and what each
// per-layer metric is expected to move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. README.md defines each per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_s", "s"},
	{"decisions_per_s", "1/s"},
	{"rtt_p50_us", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0. The run's tail latency rtt_p99_us and its
// failed_frac are reported here too: on a shared 2-CPU virtual machine
// the p99 moves by more than any bound allows between identical runs,
// and failed_frac is 0 at a correct commit, so neither can be an
// end-to-end metric with a bound (failed and attempted are on every
// result line).
var perLayer = []metricDef{
	{"experiments.crit_temps_s", "s"},
	{"experiments.th00_s", "s"},
	{"experiments.train_data_s", "s"},
	{"experiments.test_data_s", "s"},
	{"experiments.train_model_s", "s"},
	{"experiments.fig7_loops_s", "s"},
	{"experiments.unattributed_s", "s"},
	{"sim.warm_start_ms", "ms"},
	{"sim.step_us", "us"},
	{"arch.core_step_us", "us"},
	{"thermal.step_us", "us"},
	{"hotspot.analyze_us", "us"},
	{"engine.chip_next_ms", "ms"},
	{"loadgen.rtt_share", "ratio"},
	{"core.predict_us", "us"},
	{"engine.decide_us", "us"},
	{"serve.registry_decide_us", "us"},
	{"serve.registry_create_us", "us"},
	{"serve.handler_us", "us"},
	{"serve.decide_share", "ratio"},
	{"http.transport_us", "us"},
	{"serve.requests", "count"},
	{"serve.decisions_per_request", "count"},
	{"serve.sessions_created", "count"},
	{"serve.evicted_lru", "count"},
	{"bench.generator_late_p99_us", "us"},
	{"trace.overhead_frac", "ratio"},
	{"rtt_p99_us", "us"},
	{"failed_frac", "ratio"},
}

// traceDir is where the traced run writes its spans, under the build
// directory run.sh uses.
const traceDir = ".bench_build/traces"

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *runCtx) error{
	"campaign":     runCampaign,
	"fleet-loop":   runFleetLoop,
	"serve-steady": func(ctx context.Context, rc *runCtx) error { return runServe(ctx, rc, steadyReplay()) },
	"serve-churn":  func(ctx context.Context, rc *runCtx) error { return runServe(ctx, rc, churnReplay()) },
}

// runCtx carries one run's parameters and collects its outcome.
type runCtx struct {
	seed    uint64
	seconds time.Duration
	tr      *tracer // nil: untraced run
	log     io.Writer

	metrics   map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

func (rc *runCtx) traced() bool { return rc.tr != nil }

func (rc *runCtx) set(name string, v float64) { rc.metrics[name] = v }

// fail records a failed correctness check.
func (rc *runCtx) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	rc.problems = append(rc.problems, msg)
	fmt.Fprintln(rc.log, "perfbench: CHECK FAILED:", msg)
}

func (rc *runCtx) logf(format string, args ...any) {
	fmt.Fprintf(rc.log, "perfbench: "+format+"\n", args...)
}

// provenance stamps every output with what produced it.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Fixture    string  `json:"fixture_sha256"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (campaign, fleet-loop, serve-steady, serve-churn)")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Int("seconds", 10, "how long the timed phase measures")
	traceFlag := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	regen := fs.String("regen-fixture", "", "retrain the serving model fixture and write it to this path, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *regen != "" {
		if err := regenerateFixture(*regen, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %v), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}

	rc := &runCtx{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		log:     stderr,
		metrics: map[string]float64{},
	}
	if *traceFlag == 1 {
		rc.tr = newTracer()
	}
	prov := provenance{
		Workload: *name, Seed: *seed, Seconds: float64(*seconds), Trace: *traceFlag,
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Fixture: fixtureSHA256,
	}

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	err := drive(ctx, rc)
	if err != nil {
		rc.fail("%s: %v", *name, err)
		rc.failed = max(rc.failed, 1)
	}
	rc.attempted = max(rc.attempted, 1)

	defs := endToEnd
	if rc.traced() {
		defs = perLayer
		rc.set("failed_frac", float64(rc.failed)/float64(rc.attempted))
		path, werr := writeTrace(traceDir, prov, rc.tr.snapshot())
		if werr != nil {
			rc.fail("writing trace: %v", werr)
		} else {
			rc.logf("spans written to %s", path)
		}
	} else if rss, rerr := peakRSSMB(); rerr != nil {
		rc.logf("peak_rss_mb not measured: %v", rerr)
	} else {
		rc.set("peak_rss_mb", rss)
	}
	res := result{Attempted: rc.attempted, Failed: rc.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := rc.metrics[d.name]
		switch {
		case !ok && !rc.traced() && err == nil:
			rc.fail("end-to-end metric %s was not measured", d.name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			rc.fail("metric %s is not finite", d.name)
			v = 0
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	res.Correct = len(rc.problems) == 0 && rc.failed == 0

	pj, _ := json.Marshal(prov) // plain struct: cannot fail
	fmt.Fprintf(stdout, "provenance %s\n", pj)
	rj, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(stderr, "perfbench: encoding result:", jerr)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", rj)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
