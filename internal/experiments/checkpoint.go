package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"

	"github.com/hotgauge/boreas/internal/checkpoint"
	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/engine"
	"github.com/hotgauge/boreas/internal/ml/gbt"
)

// Checkpointed campaigns. When Config carries a checkpoint store, every
// expensive lab artefact — the oracle, the threshold table, the TH-00
// calibration, the trained models — and every closed-loop grid cell is
// persisted as its own content-addressed cell the moment it completes.
// An interrupted campaign resumed against the same store replays
// completed cells and recomputes only the rest; all codecs round-trip
// float64 exactly, so the resumed campaign's artifacts are bit-identical
// to an uninterrupted run (see the chaos soak test).
//
// Dataset fragments are not handled here: TrainingData/TestData pass the
// store down to internal/telemetry, which checkpoints each (workload,
// frequency) and (workload, walk) fragment under its own scope.

// Scope fingerprints the content-defining parts of the campaign
// configuration for checkpoint keying. Workers and the store itself are
// excluded: they change wall-clock behaviour, never artefact content, so
// a campaign checkpointed at -j8 resumes at -j1 (and vice versa).
func (c Config) Scope() (checkpoint.Scope, error) {
	c.Workers = 0
	c.Checkpoint = nil
	return checkpoint.NewScope("experiments/v1", c)
}

// ScopeDesc is the human-readable campaign description recorded at Bind
// time, shown when a resume is attempted with a different configuration.
func (c Config) ScopeDesc() string {
	return fmt.Sprintf("experiment campaign: %d train + %d test workloads, %d frequencies, %d steps/run, seed %d",
		len(c.TrainNames), len(c.TestNames), len(c.Frequencies), c.StepsPerRun, c.Sim.Seed)
}

// labCell replays one artefact cell from the store or builds and
// persists it. Each call starts with a per-stage cancellation check, so
// a SIGINT between cells stops the campaign at a clean cell boundary. A
// cell that fails to decode is quarantined and rebuilt: corruption costs
// one recompute, never a wrong artefact.
func labCell[T any](l *Lab, kind string, coords []string,
	enc func(T) ([]byte, error), dec func([]byte) (T, error), build func() (T, error)) (T, error) {
	var zero T
	if err := l.ctx.Err(); err != nil {
		return zero, fmt.Errorf("experiments: %s cancelled: %w", kind, context.Cause(l.ctx))
	}
	if l.store == nil {
		return build()
	}
	key := l.scope.Key(coords...)
	if data, ok := l.store.Get(key); ok {
		v, err := dec(data)
		if err == nil {
			return v, nil
		}
		l.store.Discard(key, fmt.Sprintf("%s cell does not decode: %v", kind, err))
	}
	v, err := build()
	if err != nil {
		return zero, err
	}
	data, err := enc(v)
	if err != nil {
		return zero, fmt.Errorf("experiments: encoding %s cell: %w", kind, err)
	}
	if err := l.store.Put(key, kind, data); err != nil {
		return zero, err
	}
	return v, nil
}

// jsonEnc and jsonDec are the codec pair for plain-JSON cells: types
// whose float64 fields are always finite (Go's JSON encoding of float64
// is exact, so these cells round-trip bit-identically), or that carry
// their own exact JSON codec, as control.CriticalTemps does for its +Inf
// thresholds.
func jsonEnc[T any](v T) ([]byte, error) { return json.Marshal(v) }
func jsonDec[T any](data []byte) (T, error) {
	var v T
	err := json.Unmarshal(data, &v)
	return v, err
}

// floatKey renders a float64 map key exactly; parseFloatKey inverts it.
// JSON objects require string keys, and the shortest round-trip form is
// bit-exact both ways.
func floatKey(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func parseFloatKey(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// oracleCell mirrors control.OracleTable with string-encoded frequency
// keys and values (values may not be ±Inf today, but string encoding
// keeps the codec total either way).
type oracleCell struct {
	Best map[string]string            `json:"best"`
	Peak map[string]map[string]string `json:"peak"`
}

func encodeOracle(t *control.OracleTable) ([]byte, error) {
	cell := oracleCell{Best: map[string]string{}, Peak: map[string]map[string]string{}}
	for w, f := range t.Best {
		cell.Best[w] = floatKey(f)
	}
	for w, row := range t.Peak {
		m := map[string]string{}
		for f, sev := range row {
			m[floatKey(f)] = floatKey(sev)
		}
		cell.Peak[w] = m
	}
	return json.Marshal(cell)
}

func decodeOracle(data []byte) (*control.OracleTable, error) {
	var cell oracleCell
	if err := json.Unmarshal(data, &cell); err != nil {
		return nil, err
	}
	t := &control.OracleTable{
		Best: make(map[string]float64, len(cell.Best)),
		Peak: make(map[string]map[float64]float64, len(cell.Peak)),
	}
	for w, s := range cell.Best {
		f, err := parseFloatKey(s)
		if err != nil {
			return nil, err
		}
		t.Best[w] = f
	}
	for w, row := range cell.Peak {
		m := make(map[float64]float64, len(row))
		for fs, sevs := range row {
			f, err := parseFloatKey(fs)
			if err != nil {
				return nil, err
			}
			sev, err := parseFloatKey(sevs)
			if err != nil {
				return nil, err
			}
			m[f] = sev
		}
		t.Peak[w] = m
	}
	return t, nil
}

// th00Cell stores the calibration outcome only; the threshold table and
// VF curve are reattached from the lab's own artefacts on decode.
type th00Cell struct {
	Margin   float64 `json:"margin"`
	Headroom float64 `json:"headroom"`
}

// modelCodec stores trained ensembles in the BGT2 binary format, which
// is bit-exact by construction (see internal/ml/gbt/serialize.go).
func encodeModel(m *gbt.Model) ([]byte, error) { return m.Bytes() }

func decodeModel(data []byte) (*gbt.Model, error) { return gbt.LoadModel(data) }

// loopCell replays one closed-loop grid cell. LoopResult contains only
// finite float64s, so plain JSON is an exact codec.
func (l *Lab) loopCell(workload string, ctrlName string, build func() (*engine.LoopResult, error)) (*engine.LoopResult, error) {
	return labCell(l, "loop-result", []string{"loop", workload, ctrlName},
		jsonEnc[*engine.LoopResult], jsonDec[*engine.LoopResult], build)
}

// faultRunCell is the persisted form of one fault-grid run: the loop
// result plus the guard telemetry of the controller instance that
// produced it.
type faultRunCell struct {
	Res      *engine.LoopResult `json:"res"`
	Faulty   int                `json:"faulty"`
	Degraded int                `json:"degraded"`
}

// faultGridTag fingerprints the fault-grid configuration for cell
// keying. Controllers are identified by name (the factories hold
// function pointers); Workers is excluded as always.
func faultGridTag(fc FaultGridConfig) (string, error) {
	names := make([]string, len(fc.Controllers))
	for i, f := range fc.Controllers {
		names[i] = f.Name
	}
	s, err := checkpoint.NewScope("experiments/faultgrid/v1",
		fc.Workloads, fc.Classes, fc.Intensities, fc.FaultStart, fc.Seed, names)
	if err != nil {
		return "", err
	}
	return s.Hex()[:16], nil
}
