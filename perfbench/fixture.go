package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"io"
	"os"

	"github.com/hotgauge/boreas/internal/core"
	"github.com/hotgauge/boreas/internal/experiments"
	"github.com/hotgauge/boreas/internal/ml/gbt"
	"github.com/hotgauge/boreas/internal/power"
)

// fixtureBytes is the serving model: the quick campaign's predictor in
// the BGT2 format, regenerated with
//
//	bash perfbench/run.sh --regen-fixture perfbench/fixtures/ml05.bgt
//
// and pinned by fixtureSHA256. The serving workloads load it instead of
// training, so their set-up leaves training out and a trainer change
// cannot shift what they serve.
//
//go:embed fixtures/ml05.bgt
var fixtureBytes []byte

// fixtureSHA256 pins fixtures/ml05.bgt; update it together with the file.
const fixtureSHA256 = "d0d7285f5bf5f316fb8f07e3a21daa336b444dd5cb64ebde1c3b59fb581677c1"

// fixtureGuardband makes the served controller ML05.
const fixtureGuardband = 0.05

// loadController verifies the fixture against its pin, decodes it and
// binds it to the VF curve as an ML05 controller.
func loadController(vf power.VFCurve) (*core.Controller, error) {
	sum := sha256.Sum256(fixtureBytes)
	if got := hex.EncodeToString(sum[:]); got != fixtureSHA256 {
		return nil, fmt.Errorf("model fixture sha256 %s does not match the pinned %s", got, fixtureSHA256)
	}
	m, err := gbt.LoadModel(fixtureBytes)
	if err != nil {
		return nil, fmt.Errorf("decoding model fixture: %w", err)
	}
	pred, err := core.NewPredictor(m)
	if err != nil {
		return nil, err
	}
	pred.VF = vf
	ctrl, err := core.NewController(pred, fixtureGuardband)
	if err != nil {
		return nil, err
	}
	ctrl.VF = vf
	return ctrl, nil
}

// regenerateFixture trains the quick campaign's predictor and writes it to
// path, printing the sha256 to pin.
func regenerateFixture(path string, log io.Writer) error {
	cfg := experiments.QuickConfig()
	cfg.Workers = 2
	lab, err := experiments.NewLab(cfg)
	if err != nil {
		return err
	}
	pred, err := lab.Predictor()
	if err != nil {
		return err
	}
	b, err := pred.Model().Bytes()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	sum := sha256.Sum256(b)
	fmt.Fprintf(log, "wrote %s (%d bytes), sha256 %s: set fixtureSHA256 in fixture.go\n", path, len(b), hex.EncodeToString(sum[:]))
	return nil
}
