package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/hotgauge/boreas/internal/obs"
)

func newTestServer(t *testing.T) (*Registry, *httptest.Server) {
	t.Helper()
	r, _ := newTestRegistry(t, nil)
	srv := httptest.NewServer(NewHandler(r))
	t.Cleanup(srv.Close)
	return r, srv
}

func postDecide(t *testing.T, srv *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/decide", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp, []byte(readAll(t, resp))
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestHandleDecideSingle(t *testing.T) {
	_, srv := newTestServer(t)
	for want := 0; want < 2; want++ {
		resp, body := postDecide(t, srv, `{"chip":"c0","observation":{"sensor_temp":55}}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, body %s", resp.StatusCode, body)
		}
		var out DecideResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Decision == nil || out.Decision.Tick != want || out.Decision.Chip != "c0" {
			t.Fatalf("decision %+v, want tick %d for c0", out.Decision, want)
		}
		if out.Decision.FreqGHz <= 0 {
			t.Fatalf("non-positive commanded frequency %v", out.Decision.FreqGHz)
		}
	}
}

func TestHandleDecideBatch(t *testing.T) {
	reg, srv := newTestServer(t)
	resp, body := postDecide(t, srv,
		`{"batch":[
			{"chip":"a","observation":{"sensor_temp":50}},
			{"chip":"b","observation":{"sensor_temp":60}},
			{"chip":"a","observation":{"sensor_temp":51}}
		]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var out DecideResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Decisions) != 3 {
		t.Fatalf("got %d decisions, want 3", len(out.Decisions))
	}
	// Responses are in request order; chip a appears twice so its second
	// decision is tick 1.
	wantTicks := []struct {
		chip string
		tick int
	}{{"a", 0}, {"b", 0}, {"a", 1}}
	for i, w := range wantTicks {
		if d := out.Decisions[i]; d.Chip != w.chip || d.Tick != w.tick {
			t.Fatalf("decisions[%d] = %+v, want chip %s tick %d", i, d, w.chip, w.tick)
		}
	}
	if reg.Len() != 2 {
		t.Fatalf("registry has %d sessions after batch, want 2", reg.Len())
	}
}

// TestHandleDecideBadPayloads pins the 400-never-500 contract for every
// malformed payload shape, including non-finite numbers (1e999 overflows
// float64; NaN/Infinity are not JSON at all).
func TestHandleDecideBadPayloads(t *testing.T) {
	reg, srv := newTestServer(t)
	cases := []struct {
		name string
		body string
	}{
		{"malformed JSON", `{"chip":"c0",`},
		{"not an object", `[1,2,3]`},
		{"empty object", `{}`},
		{"unknown field", `{"chip":"c0","observation":{"sensor_temp":55},"extra":1}`},
		{"unknown observation field", `{"chip":"c0","observation":{"sensor_temp":55,"bogus":1}}`},
		{"missing chip", `{"observation":{"sensor_temp":55}}`},
		{"missing observation", `{"chip":"c0"}`},
		{"overflowing sensor", `{"chip":"c0","observation":{"sensor_temp":1e999}}`},
		{"token NaN", `{"chip":"c0","observation":{"sensor_temp":NaN}}`},
		{"token Infinity", `{"chip":"c0","observation":{"sensor_temp":Infinity}}`},
		{"string sensor", `{"chip":"c0","observation":{"sensor_temp":"55"}}`},
		{"overflowing counter", `{"chip":"c0","observation":{"sensor_temp":55,"counters":{"TotalCycles":1e999}}}`},
		{"batch with empty chip", `{"batch":[{"chip":"","observation":{"sensor_temp":55}}]}`},
		{"batch mixed with single", `{"chip":"c0","observation":{"sensor_temp":55},"batch":[{"chip":"b","observation":{"sensor_temp":55}}]}`},
		{"batch good then empty chip", `{"batch":[{"chip":"a","observation":{"sensor_temp":55}},{"chip":"","observation":{"sensor_temp":55}}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postDecide(t, srv, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", resp.StatusCode, body)
			}
			var e errorResponse
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("400 body is not an error JSON: %s", body)
			}
			// A rejected request is transactional: no session created or
			// advanced, no decision counted.
			if n := reg.Len(); n != 0 {
				t.Fatalf("rejected payload left %d sessions", n)
			}
			if d := reg.Snapshot().Decisions; d != 0 {
				t.Fatalf("rejected payload counted %d decisions", d)
			}
		})
	}
	if snap := reg.Snapshot(); snap.BadRequests != uint64(len(cases)) {
		t.Fatalf("BadRequests = %d, want %d", snap.BadRequests, len(cases))
	}
}

func TestHandleDecideOversizeBatch(t *testing.T) {
	_, srv := newTestServer(t)
	var sb strings.Builder
	sb.WriteString(`{"batch":[`)
	for i := 0; i <= MaxBatch; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"chip":"c%d","observation":{"sensor_temp":55}}`, i)
	}
	sb.WriteString(`]}`)
	resp, body := postDecide(t, srv, sb.String())
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversize batch: status %d, body %.200s", resp.StatusCode, body)
	}
}

func TestHandleDecideWrongMethod(t *testing.T) {
	_, srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/decide")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/decide: status %d, want 405", resp.StatusCode)
	}
}

func TestSessionsEndpoints(t *testing.T) {
	_, srv := newTestServer(t)
	postDecide(t, srv, `{"chip":"beta","observation":{"sensor_temp":55}}`)
	postDecide(t, srv, `{"chip":"alpha","observation":{"sensor_temp":55}}`)

	resp, err := http.Get(srv.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Sessions []SessionInfo `json:"sessions"`
	}
	if err := json.Unmarshal([]byte(readAll(t, resp)), &list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Sessions) != 2 || list.Sessions[0].Chip != "alpha" || list.Sessions[1].Chip != "beta" {
		t.Fatalf("sessions not sorted by chip: %+v", list.Sessions)
	}
	if list.Sessions[0].Stats.Decisions != 1 {
		t.Fatalf("alpha stats %+v, want 1 decision", list.Sessions[0].Stats)
	}

	resp, err = http.Get(srv.URL + "/v1/sessions/alpha")
	if err != nil {
		t.Fatal(err)
	}
	var info SessionInfo
	if err := json.Unmarshal([]byte(readAll(t, resp)), &info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Chip != "alpha" || info.Tick != 1 {
		t.Fatalf("session info %+v", info)
	}

	resp, err = http.Get(srv.URL + "/v1/sessions/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown chip: status %d, want 404", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	_, srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthz: status %d body %s", resp.StatusCode, body)
	}
}

// TestMetricsEndpoint pins that /metrics reflects exactly the decisions
// the service made, in both the Prometheus text and JSON formats.
func TestMetricsEndpoint(t *testing.T) {
	_, srv := newTestServer(t)
	postDecide(t, srv, `{"chip":"c0","observation":{"sensor_temp":55}}`)
	postDecide(t, srv, `{"batch":[{"chip":"c0","observation":{"sensor_temp":55}},{"chip":"c1","observation":{"sensor_temp":55}}]}`)
	postDecide(t, srv, `{"bad`)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := readAll(t, resp)
	resp.Body.Close()
	for _, want := range []string{
		"boreas_decisions_total 3",
		"boreas_bad_requests_total 1",
		"boreas_sessions 2",
		`le="+Inf"`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}

	resp, err = http.Get(srv.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(readAll(t, resp)), &snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Decisions != 3 || snap.Sessions != 2 || snap.BadRequests != 1 {
		t.Fatalf("json snapshot %+v", snap)
	}
	if snap.DecideLatency.Count != 3 {
		t.Fatalf("latency histogram counted %d decisions, want 3", snap.DecideLatency.Count)
	}
}

func TestRecoverMiddleware(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	srv := httptest.NewServer(recoverMiddleware(mux))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(body, "kaboom") {
		t.Fatalf("panic not converted to 500: status %d body %s", resp.StatusCode, body)
	}
}
