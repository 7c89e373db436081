package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/hotgauge/boreas/internal/checkpoint"
	"github.com/hotgauge/boreas/internal/checkpoint/chaostest"
	"github.com/hotgauge/boreas/internal/control"
)

// chaosConfig is a deliberately tiny campaign: two training workloads,
// three frequencies, short runs. Small enough that a full build takes
// seconds, large enough to exercise every checkpointed artefact kind
// (dataset fragments, oracle, thresholds, calibration, models, loop
// cells).
func chaosConfig(workers int) Config {
	cfg := QuickConfig()
	cfg.Frequencies = []float64{3.0, 3.75, 4.5}
	cfg.StepsPerRun = 40
	cfg.Horizon = 12
	cfg.WalksPerWorkload = 1
	cfg.TrainNames = []string{"gromacs", "mcf"}
	cfg.TestNames = []string{"gamess"}
	cfg.Workers = workers
	return cfg
}

// chaosArtifacts is everything the campaign produces, in bit-comparable
// form: the training dataset CSV, the trained model binary, and the
// rendered headline comparison.
type chaosArtifacts struct {
	trainCSV []byte
	model    []byte
	fig7     string
}

// buildArtifacts runs the full tiny campaign against the given store
// (nil: checkpointing off).
func buildArtifacts(ctx context.Context, cfg Config, store *checkpoint.Store) (*chaosArtifacts, error) {
	cfg.Checkpoint = store
	lab, err := NewLabContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	ds, err := lab.TrainingData()
	if err != nil {
		return nil, err
	}
	var csv bytes.Buffer
	if err := ds.WriteCSV(&csv); err != nil {
		return nil, err
	}
	pred, err := lab.Predictor()
	if err != nil {
		return nil, err
	}
	mb, err := pred.Model().Bytes()
	if err != nil {
		return nil, err
	}
	fig7, err := Fig7Performance(lab)
	if err != nil {
		return nil, err
	}
	return &chaosArtifacts{trainCSV: csv.Bytes(), model: mb, fig7: fig7.Render()}, nil
}

func assertChaosEqual(t *testing.T, want, got *chaosArtifacts, what string) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: campaign never completed", what)
	}
	if !bytes.Equal(want.trainCSV, got.trainCSV) {
		t.Errorf("%s: training dataset differs from uninterrupted reference", what)
	}
	if !bytes.Equal(want.model, got.model) {
		t.Errorf("%s: trained model differs from uninterrupted reference", what)
	}
	if want.fig7 != got.fig7 {
		t.Errorf("%s: fig7 rendering differs from uninterrupted reference:\nwant:\n%s\ngot:\n%s", what, want.fig7, got.fig7)
	}
}

// TestChaosKillResumeSmoke is the always-on variant: one seed-derived
// kill, one resume, artifacts must match an uninterrupted run. `make
// soak-smoke` runs exactly this.
func TestChaosKillResumeSmoke(t *testing.T) {
	cfg := chaosConfig(1)
	ref, err := buildArtifacts(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var final *chaosArtifacts
	res, err := chaostest.Run(chaostest.Config{
		Dir: t.TempDir(), Seed: 11, Kills: 1, MaxPutsPerKill: 3, Warnf: t.Logf,
	}, func(ctx context.Context, store *checkpoint.Store) error {
		a, err := buildArtifacts(ctx, cfg, store)
		if err == nil {
			final = a
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Killed != 1 {
		t.Fatalf("expected the campaign to be killed once, got %d (kill points %v)", res.Killed, res.KillPoints)
	}
	assertChaosEqual(t, ref, final, "resumed campaign")
}

// TestChaosKillResumeBitIdentical is the full soak: three seed-derived
// kill/resume cycles, at -j1 and at -j8, every artifact bit-identical
// to the uninterrupted reference. This is the tentpole's core claim —
// crash anywhere, resume, converge to the same bytes.
func TestChaosKillResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test (run by make soak-smoke / full go test)")
	}
	ref, err := buildArtifacts(context.Background(), chaosConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("j%d", workers), func(t *testing.T) {
			cfg := chaosConfig(workers)
			var final *chaosArtifacts
			res, err := chaostest.Run(chaostest.Config{
				Dir: t.TempDir(), Seed: 1234 + uint64(workers), Kills: 3, MaxPutsPerKill: 3, Warnf: t.Logf,
			}, func(ctx context.Context, store *checkpoint.Store) error {
				a, err := buildArtifacts(ctx, cfg, store)
				if err == nil {
					final = a
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.KillPoints) != 3 {
				t.Fatalf("expected 3 scheduled kill points, got %v", res.KillPoints)
			}
			if res.Killed != 3 {
				t.Fatalf("expected all 3 kills to fire, got %d (kill points %v)", res.Killed, res.KillPoints)
			}
			assertChaosEqual(t, ref, final, fmt.Sprintf("-j%d chaos campaign", workers))
		})
	}
}

// TestCampaignSurvivesCellCorruption corrupts a checkpointed cell on
// disk between runs: the campaign must quarantine it, rebuild, and
// still produce the reference artifacts.
func TestCampaignSurvivesCellCorruption(t *testing.T) {
	cfg := chaosConfig(1)
	dir := t.TempDir()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := buildArtifacts(context.Background(), cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := os.ReadDir(filepath.Join(dir, "cells"))
	if err != nil || len(cells) == 0 {
		t.Fatalf("no cells on disk (err %v)", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "cells", cells[0].Name()), []byte("flipped bits"), 0o644); err != nil {
		t.Fatal(err)
	}
	store2, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := buildArtifacts(context.Background(), cfg, store2)
	if err != nil {
		t.Fatal(err)
	}
	assertChaosEqual(t, ref, got, "campaign after cell corruption")
	if st := store2.Stats(); st.Quarantined != 1 {
		t.Fatalf("expected 1 quarantined cell, stats %+v", st)
	}
}

// TestMismatchedCheckpointRejected verifies the acceptance contract: a
// checkpoint bound to a different campaign is rejected with an error
// naming both campaigns and suggesting a way out.
func TestMismatchedCheckpointRejected(t *testing.T) {
	dir := t.TempDir()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig(1)
	cfg.Checkpoint = store
	if _, err := NewLabContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}

	store2, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := chaosConfig(1)
	cfg2.StepsPerRun++
	cfg2.Checkpoint = store2
	_, err = NewLabContext(context.Background(), cfg2)
	if !errors.Is(err, checkpoint.ErrScopeMismatch) {
		t.Fatalf("expected ErrScopeMismatch, got %v", err)
	}
	for _, want := range []string{"40 steps/run", "41 steps/run", "-checkpoint"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("mismatch error %q does not mention %q", err, want)
		}
	}
}

// TestCritTempsCellDecodesPreviousEncoding pins checkpoint compatibility
// for the threshold-table cell: bytes written by the cell's former
// dedicated encoder (string-encoded keys and values, +Inf spelled out,
// both maps always present) decode to the same table through
// control.CriticalTemps' own JSON codec, and that codec writes the same
// bytes back, so existing checkpoints resume.
func TestCritTempsCellDecodesPreviousEncoding(t *testing.T) {
	cases := []struct {
		name string
		old  string
		want *control.CriticalTemps
	}{
		{
			name: "populated",
			old:  `{"per_workload":{"gromacs":{"3":"+Inf","3.75":"84.125"},"mcf":{"3":"91.5","3.75":"80.0625"}},"global":{"3":"91.5","3.75":"80.0625"}}`,
			want: &control.CriticalTemps{
				PerWorkload: map[string]map[float64]float64{
					"gromacs": {3: math.Inf(1), 3.75: 84.125},
					"mcf":     {3: 91.5, 3.75: 80.0625},
				},
				Global: map[float64]float64{3: 91.5, 3.75: 80.0625},
			},
		},
		{
			name: "empty",
			old:  `{"per_workload":{},"global":{}}`,
			want: &control.CriticalTemps{PerWorkload: map[string]map[float64]float64{}, Global: map[float64]float64{}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := jsonDec[*control.CriticalTemps]([]byte(tc.old))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("decoded %+v, want %+v", got, tc.want)
			}
			if len(tc.want.Global) == 0 {
				return // the codec omits empty maps; only populated tables re-encode identically
			}
			data, err := jsonEnc(got)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != tc.old {
				t.Fatalf("re-encoded cell differs:\n got %s\nwant %s", data, tc.old)
			}
		})
	}
}
