package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"reflect"

	"github.com/hotgauge/boreas/internal/arch"
	"github.com/hotgauge/boreas/internal/engine"
)

// MaxBatch bounds the number of observations in one /v1/decide request.
const MaxBatch = 4096

// MaxChipIDBytes bounds a chip ID. The registry keeps one key per live
// chip, so an unbounded ID would be unbounded memory a client controls.
const MaxChipIDBytes = 256

// MaxBodyBytes bounds a /v1/decide request body (413 beyond it). It fits
// a MaxBatch batch of fully populated observations - MaxChipIDBytes chip
// IDs, every counter at its longest JSON rendering - indented with two
// spaces per level (about 13.6 MB).
const MaxBodyBytes = 16 << 20

// MetricsPrefix is the metric-name prefix on /metrics.
const MetricsPrefix = "boreas"

// Observation is the wire form of one chip observation. The counter
// vector uses arch.Counters' Go field names as JSON keys; omitted
// counters are zero, unknown fields are rejected.
type Observation struct {
	// SensorTemp is the delayed thermal-sensor reading in Celsius.
	SensorTemp float64 `json:"sensor_temp"`
	// Counters is the telemetry of the interval that just finished.
	Counters arch.Counters `json:"counters"`
}

// DecideItem is one chip's entry in a batched decide request.
type DecideItem struct {
	Chip        string      `json:"chip"`
	Observation Observation `json:"observation"`
}

// DecideRequest is the /v1/decide payload: either a single chip
// observation (chip + observation) or a batch (batch), not both.
type DecideRequest struct {
	Chip        string       `json:"chip,omitempty"`
	Observation *Observation `json:"observation,omitempty"`
	Batch       []DecideItem `json:"batch,omitempty"`
}

// Decision is the wire form of one commanded operating point.
type Decision struct {
	Chip string `json:"chip"`
	// FreqGHz is the commanded frequency after clamping to the VF curve.
	FreqGHz float64 `json:"freq_ghz"`
	// RawGHz is the controller's unclamped output.
	RawGHz float64 `json:"raw_ghz"`
	// Tick is the zero-based decision index within the chip's session.
	Tick int `json:"tick"`
}

// DecideResponse answers /v1/decide: Decision for a single request,
// Decisions for a batch.
type DecideResponse struct {
	Decision  *Decision  `json:"decision,omitempty"`
	Decisions []Decision `json:"decisions,omitempty"`
}

// errorResponse is the JSON error body.
type errorResponse struct {
	Error string `json:"error"`
}

// NewHandler wires the decision service around a registry:
//
//	POST /v1/decide            single or batched decisions
//	GET  /v1/sessions          every live session's stats
//	GET  /v1/sessions/{chip}   one chip's stats
//	GET  /healthz              liveness
//	GET  /metrics              Prometheus text (?format=json for the Snapshot)
//	     /debug/pprof/...      the standard profiling endpoints
//
// Batched requests decide chip by chip in request order; every
// prediction runs on the session controller's compiled flat-tree
// kernel, so one HTTP round trip amortises across the whole batch.
// Malformed or non-finite payloads and over-long chip IDs are rejected
// with 400, bodies over MaxBodyBytes with 413 — the handler never panics
// and never converts bad input into a 500.
func NewHandler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/decide", func(w http.ResponseWriter, r *http.Request) {
		handleDecide(reg, w, r)
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		reg.metrics.Requests.Add(1)
		writeJSON(w, http.StatusOK, struct {
			Sessions []SessionInfo `json:"sessions"`
		}{reg.Sessions()})
	})
	mux.HandleFunc("GET /v1/sessions/{chip}", func(w http.ResponseWriter, r *http.Request) {
		reg.metrics.Requests.Add(1)
		info, ok := reg.Session(r.PathValue("chip"))
		if !ok {
			writeJSON(w, http.StatusNotFound, errorResponse{fmt.Sprintf("no session for chip %q", r.PathValue("chip"))})
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			Status   string `json:"status"`
			Sessions int    `json:"sessions"`
		}{"ok", reg.Len()})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := reg.Snapshot()
		if r.URL.Query().Get("format") == "json" {
			writeJSON(w, http.StatusOK, snap)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, snap.Prom(MetricsPrefix))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return recoverMiddleware(mux)
}

// recoverMiddleware converts a handler panic into a 500 instead of
// killing the connection goroutine silently; request handling bugs must
// never take the daemon down.
func recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				writeJSON(w, http.StatusInternalServerError, errorResponse{fmt.Sprintf("internal error: %v", v)})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// handleDecide serves POST /v1/decide.
func handleDecide(reg *Registry, w http.ResponseWriter, r *http.Request) {
	reg.metrics.Requests.Add(1)
	var req DecideRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			reg.metrics.BadRequests.Add(1)
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorResponse{fmt.Sprintf("request body exceeds the %d-byte limit", MaxBodyBytes)})
			return
		}
		badRequest(reg, w, fmt.Sprintf("decoding request: %v", err))
		return
	}
	switch {
	case len(req.Batch) > 0:
		if req.Chip != "" || req.Observation != nil {
			badRequest(reg, w, "request mixes a single observation with a batch; send one or the other")
			return
		}
		if len(req.Batch) > MaxBatch {
			badRequest(reg, w, fmt.Sprintf("batch of %d exceeds the %d-observation limit", len(req.Batch), MaxBatch))
			return
		}
		// Validate the whole batch before deciding any of it: a rejected
		// batch must leave every session untouched, or a client retrying
		// it would advance the chips ahead of the bad item twice.
		for i, item := range req.Batch {
			if err := checkItem(item.Chip, item.Observation); err != nil {
				badRequest(reg, w, fmt.Sprintf("batch[%d]: %v", i, err))
				return
			}
		}
		out := make([]Decision, 0, len(req.Batch))
		for i, item := range req.Batch {
			d, err := decideOne(reg, item.Chip, item.Observation)
			if err != nil {
				badRequest(reg, w, fmt.Sprintf("batch[%d]: %v", i, err))
				return
			}
			out = append(out, d)
		}
		writeJSON(w, http.StatusOK, DecideResponse{Decisions: out})
	case req.Observation != nil:
		if err := checkItem(req.Chip, *req.Observation); err != nil {
			badRequest(reg, w, err.Error())
			return
		}
		d, err := decideOne(reg, req.Chip, *req.Observation)
		if err != nil {
			badRequest(reg, w, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, DecideResponse{Decision: &d})
	default:
		badRequest(reg, w, "request carries neither an observation nor a batch")
	}
}

// checkItem validates one wire observation: a chip ID of bounded length
// and finite numbers throughout.
func checkItem(chip string, o Observation) error {
	if chip == "" {
		return fmt.Errorf("empty chip ID")
	}
	if len(chip) > MaxChipIDBytes {
		return fmt.Errorf("chip ID of %d bytes exceeds the %d-byte limit", len(chip), MaxChipIDBytes)
	}
	if err := checkFinite(o); err != nil {
		return fmt.Errorf("chip %s: %w", chip, err)
	}
	return nil
}

// decideOne runs one observation, already validated by checkItem,
// through the registry.
func decideOne(reg *Registry, chip string, o Observation) (Decision, error) {
	d, err := reg.Decide(chip, engine.Observation{
		Counters:   o.Counters,
		SensorTemp: o.SensorTemp,
	})
	if err != nil {
		return Decision{}, err
	}
	return Decision{Chip: chip, FreqGHz: d.Freq, RawGHz: d.Raw, Tick: d.Tick}, nil
}

// checkFinite rejects observations carrying NaN or ±Inf anywhere. JSON
// itself cannot encode non-finite numbers, so on the HTTP path this is
// defence in depth; callers feeding the handler programmatically get
// the same 400 contract.
func checkFinite(o Observation) error {
	if math.IsNaN(o.SensorTemp) || math.IsInf(o.SensorTemp, 0) {
		return fmt.Errorf("non-finite sensor_temp %v", o.SensorTemp)
	}
	v := reflect.ValueOf(o.Counters)
	t := v.Type()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Float64 {
			continue
		}
		if f := v.Field(i).Float(); math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("non-finite counter %s = %v", t.Field(i).Name, f)
		}
	}
	return nil
}

// badRequest answers 400 and counts it.
func badRequest(reg *Registry, w http.ResponseWriter, msg string) {
	reg.metrics.BadRequests.Add(1)
	writeJSON(w, http.StatusBadRequest, errorResponse{msg})
}

// writeJSON renders one JSON response. Every value this service writes
// is JSON-safe by construction (no non-finite floats), so an encoding
// failure is a programming error surfaced as a 500 by the middleware.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
