// Command boreas regenerates the paper's tables and figures.
//
//	boreas -experiment all          # everything (minutes)
//	boreas -experiment fig7         # just the headline comparison
//	boreas -quick -experiment fig2  # reduced campaign for fast iteration
//	boreas -experiment fig8 -out ./traces   # also write per-run CSVs
//	boreas -quick -experiment faults        # controllers under injected telemetry faults
//	boreas -quick -experiment fleet -chips 32  # N chips served by one trained model
//	boreas -platform mobile-7nm -quick -experiment fig7      # on a registered variant
//	boreas -platform scenario.json -experiment fig2          # on a scenario file
//	boreas -experiment all -checkpoint ckpt                  # crash-safe: completed work persists
//	boreas -experiment all -checkpoint ckpt -resume          # continue an interrupted campaign
//	boreas -experiment all -checkpoint ckpt -deadline 30m    # stop cleanly after 30 minutes (exit 3)
//
// Ctrl-C (or SIGTERM, or the -deadline) stops the run at the next cell
// boundary with exit code 3; with -checkpoint, everything finished so
// far is saved and a -resume rerun picks up where it left off, with
// artefacts bit-identical to an uninterrupted run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/hotgauge/boreas/internal/atomicio"
	"github.com/hotgauge/boreas/internal/cliutil"
	"github.com/hotgauge/boreas/internal/experiments"
	"github.com/hotgauge/boreas/internal/hotspot"
	"github.com/hotgauge/boreas/internal/platform"
	"github.com/hotgauge/boreas/internal/runner"
)

var experimentNames = []string{
	"table1", "fig1", "fig2", "table2", "table3", "table4",
	"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "overhead",
	"cochran", "delay", "placement", "faults", "fleet",
}

func main() {
	// `boreas serve` is a subcommand with its own flag set; everything
	// else stays on the historical single-level flag interface.
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "loadtest" {
		runLoadtest(os.Args[2:])
		return
	}
	var (
		expr    = flag.String("experiment", "all", "experiment to run: all | "+strings.Join(experimentNames, " | "))
		quick   = flag.Bool("quick", false, "use the reduced campaign (seconds instead of minutes)")
		out     = flag.String("out", "", "directory for CSV artefacts (fig5/fig8 traces); empty disables")
		workers = flag.Int("j", runner.DefaultWorkers(), "campaign parallelism (simulation runs in flight); results are identical at any -j")
		chips   = flag.Int("chips", 16, "fleet size for -experiment fleet")
		pfArg   = flag.String("platform", "skylake-7nm", "platform: a registered name ("+strings.Join(platform.Names(), ", ")+") or a scenario .json file")
	)
	ck := cliutil.RegisterFlags()
	flag.Parse()
	checkpointDir = ck.Dir
	if err := cliutil.CheckPositive("j", *workers); err != nil {
		cliutil.FatalUsage("boreas", err)
	}
	if err := cliutil.CheckPositive("chips", *chips); err != nil {
		cliutil.FatalUsage("boreas", err)
	}

	ctx, stop := ck.Context()
	defer stop()

	// The default platform keeps the historical DefaultConfig/QuickConfig
	// campaigns (QuickConfig additionally coarsens the thermal grid, which
	// is a campaign choice, not a platform property). Any other platform
	// derives its campaign from the scenario itself.
	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *pfArg != "skylake-7nm" {
		pf, err := platform.Resolve(*pfArg)
		if err != nil {
			fatal(err)
		}
		cfg = experiments.ConfigForPlatform(pf)
		if *quick {
			cfg = experiments.QuickenForPlatform(cfg)
		}
		fmt.Printf("boreas: platform %s", pf.Name)
		if pf.Description != "" {
			fmt.Printf(" (%s)", pf.Description)
		}
		fmt.Println()
	}
	cfg.Workers = *workers
	store, err := ck.OpenStore("boreas")
	if err != nil {
		fatal(err)
	}
	if store != nil {
		// A directory that belongs to a differently-configured campaign
		// is a warning without -resume: run clean with checkpointing off
		// rather than mixing artefacts across campaigns.
		scope, err := cfg.Scope()
		if err != nil {
			fatal(err)
		}
		if store, err = ck.BindStore("boreas", store, scope, cfg.ScopeDesc()); err != nil {
			fatal(err)
		}
		if store == nil {
			checkpointDir = ""
		}
	}
	cfg.Checkpoint = store
	fmt.Printf("boreas: running with -j %d\n\n", runner.Normalize(*workers))
	lab, err := experiments.NewLabContext(ctx, cfg)
	if err != nil {
		fatal(err)
	}

	want := map[string]bool{}
	if *expr == "all" {
		for _, n := range experimentNames {
			want[n] = true
		}
	} else {
		for _, n := range strings.Split(*expr, ",") {
			want[strings.TrimSpace(n)] = true
		}
	}

	start := time.Now()
	run := func(name string, f func() (string, error)) {
		if !want[name] {
			return
		}
		delete(want, name)
		t0 := time.Now()
		text, err := f()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Println(text)
		fmt.Printf("  [%s took %.1fs]\n\n", name, time.Since(t0).Seconds())
	}

	run("table1", func() (string, error) {
		return experiments.TableI().Render(), nil
	})
	run("fig1", func() (string, error) {
		r, err := experiments.Fig1SeveritySurface(hotspot.DefaultSeverityParams())
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("fig2", func() (string, error) {
		r, err := experiments.Fig2StaticSweep(lab)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("table2", func() (string, error) {
		r, err := experiments.TableIIModel(lab)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("table3", func() (string, error) {
		r, err := experiments.TableIIISplit(lab)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("table4", func() (string, error) {
		r, err := experiments.TableIVFeatureImportance(lab)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("fig4", func() (string, error) {
		r, err := experiments.Fig4ThermalThresholds(lab)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("fig5", func() (string, error) {
		r, err := experiments.Fig5SensorStudy(lab, "calculix", 4.25)
		if err != nil {
			return "", err
		}
		if *out != "" {
			if err := writeFig5CSV(*out, r); err != nil {
				return "", err
			}
		}
		return r.Render(), nil
	})
	run("fig6", func() (string, error) {
		r, err := experiments.Fig6Guardbands(lab)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("fig7", func() (string, error) {
		r, err := experiments.Fig7Performance(lab)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("fig8", func() (string, error) {
		r, err := experiments.Fig8DynamicTraces(lab)
		if err != nil {
			return "", err
		}
		if *out != "" {
			for name, runs := range r.Runs {
				for ctrl, lr := range runs {
					path := filepath.Join(*out, fmt.Sprintf("fig8_%s_%s.csv", name, ctrl))
					if err := atomicio.WriteFile(path, []byte(experiments.TraceCSV(lr, lab.Config().Sim.TimestepSec)), 0o644); err != nil {
						return "", err
					}
				}
			}
		}
		return r.Render(), nil
	})
	run("fig9", func() (string, error) {
		r, err := experiments.Fig9MSEvsSize(lab, nil)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("overhead", func() (string, error) {
		r, err := experiments.Overhead(lab)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("cochran", func() (string, error) {
		r, err := experiments.CochranComparison(lab)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("delay", func() (string, error) {
		r, err := experiments.DelayStudy(lab, "gromacs", 40)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("placement", func() (string, error) {
		r, err := experiments.SensorPlacement(lab, 7)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("faults", func() (string, error) {
		r, err := experiments.FaultGrid(lab, experiments.FaultGridConfig{})
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("fleet", func() (string, error) {
		r, err := experiments.FleetStudy(lab, *chips)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})

	for name := range want {
		fatal(fmt.Errorf("unknown experiment %q (known: all, %s)", name, strings.Join(experimentNames, ", ")))
	}
	fmt.Printf("all requested experiments done in %.1fs\n", time.Since(start).Seconds())
}

func writeFig5CSV(dir string, r *experiments.Fig5Result) error {
	return atomicio.WriteTo(filepath.Join(dir, "fig5_sensors.csv"), 0o644, func(w io.Writer) error {
		if _, err := io.WriteString(w, "time_ms"); err != nil {
			return err
		}
		for _, n := range r.SensorNames {
			if _, err := io.WriteString(w, ","+n); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, ",severity\n"); err != nil {
			return err
		}
		for i := range r.TimesMs {
			fmt.Fprintf(w, "%.3f", r.TimesMs[i])
			for s := range r.SensorNames {
				fmt.Fprintf(w, ",%.2f", r.SensorTemps[s][i])
			}
			if _, err := fmt.Fprintf(w, ",%.4f\n", r.Severity[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// checkpointDir names the active -checkpoint directory for the
// interrupted-exit resume hint ("" when checkpointing is off).
var checkpointDir string

func fatal(err error) {
	cliutil.Fatal("boreas", err, checkpointDir)
}
