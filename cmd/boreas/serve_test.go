package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func buildBoreas(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "boreas")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building boreas: %v\n%s", err, out)
	}
	return bin
}

// TestServeSmoke is the end-to-end daemon contract: start on a random
// port, decide over HTTP, verify /metrics reflects exactly those
// decisions, SIGTERM, and verify a graceful exit 0.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildBoreas(t)
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The first stdout line announces the resolved listen address.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no startup line; stderr:\n%s", stderr.String())
	}
	first := sc.Text()
	const marker = "listening on "
	i := strings.Index(first, marker)
	if i < 0 {
		t.Fatalf("startup line %q does not announce the address", first)
	}
	base := "http://" + strings.TrimSpace(first[i+len(marker):])
	// Drain the rest of stdout (through the same scanner — it may have
	// buffered past the first line) so the daemon never blocks on the
	// pipe; drained closes before rest is read back.
	var rest bytes.Buffer
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for sc.Scan() {
			rest.WriteString(sc.Text())
			rest.WriteByte('\n')
		}
	}()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v; stderr:\n%s", path, err, stderr.String())
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthz: %d %s", code, body)
	}

	resp, err := http.Post(base+"/v1/decide", "application/json", strings.NewReader(
		`{"batch":[
			{"chip":"c0","observation":{"sensor_temp":55}},
			{"chip":"c1","observation":{"sensor_temp":60}},
			{"chip":"c0","observation":{"sensor_temp":56}}
		]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batched decide: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Decisions []struct {
			Chip    string  `json:"chip"`
			FreqGHz float64 `json:"freq_ghz"`
			Tick    int     `json:"tick"`
		} `json:"decisions"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	if len(out.Decisions) != 3 || out.Decisions[2].Chip != "c0" || out.Decisions[2].Tick != 1 {
		t.Fatalf("batch decisions %+v", out.Decisions)
	}

	// The scraped counters must match the decisions this test made: 3
	// decisions across 2 sessions.
	if code, metrics := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(metrics, "boreas_decisions_total 3") ||
		!strings.Contains(metrics, "boreas_sessions 2") {
		t.Fatalf("metrics do not reflect the smoke decisions: %d\n%s", code, metrics)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit after SIGTERM = %v (stderr:\n%s), want exit 0", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	<-drained
	if !strings.Contains(rest.String(), "decisions") {
		t.Errorf("shutdown did not print the final metrics snapshot; stdout:\n%s", rest.String())
	}
}

// TestFlagValidationExitsUsage pins the flag contract: zero or negative
// count flags exit 2 with a message naming the flag, before any
// simulation work starts.
func TestFlagValidationExitsUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildBoreas(t)
	cases := []struct {
		name string
		args []string
		flag string
	}{
		{"zero workers", []string{"-quick", "-experiment", "table1", "-j", "0"}, "-j"},
		{"negative workers", []string{"-quick", "-experiment", "table1", "-j", "-2"}, "-j"},
		{"zero chips", []string{"-quick", "-experiment", "fleet", "-chips", "0"}, "-chips"},
		{"negative serve capacity", []string{"serve", "-addr", "127.0.0.1:0", "-max-sessions", "-1"}, "-max-sessions"},
		{"zero loadtest chips", []string{"loadtest", "-chips", "0"}, "-chips"},
		{"zero loadtest ticks", []string{"loadtest", "-ticks", "0"}, "-ticks"},
		{"negative loadtest qps", []string{"loadtest", "-qps", "-5"}, "-qps"},
		{"oversized loadtest batch", []string{"loadtest", "-batch", "1000000"}, "-batch"},
		{"bad loadtest report", []string{"loadtest", "-report", "xml"}, "-report"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var output bytes.Buffer
			cmd := exec.Command(bin, tc.args...)
			cmd.Stdout, cmd.Stderr = &output, &output
			err := cmd.Run()
			exitErr, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("expected a usage failure, got %v; output:\n%s", err, output.String())
			}
			if code := exitErr.ExitCode(); code != 2 {
				t.Fatalf("exit code = %d, want 2; output:\n%s", code, output.String())
			}
			if !strings.Contains(output.String(), tc.flag) {
				t.Fatalf("usage error does not name %s:\n%s", tc.flag, output.String())
			}
			// Validation must run before the campaign: a bad flag that
			// still burns simulation time defeats the point.
			if strings.Contains(output.String(), "running with") {
				t.Fatalf("campaign started despite invalid flags:\n%s", output.String())
			}
		})
	}
}

// TestServeRejectsBadPayloadEndToEnd drives one malformed request
// through the real binary: the daemon answers 400 and keeps serving.
func TestServeRejectsBadPayloadEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildBoreas(t)
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatal("no startup line")
	}
	i := strings.Index(sc.Text(), "listening on ")
	if i < 0 {
		t.Fatalf("startup line %q", sc.Text())
	}
	base := "http://" + strings.TrimSpace(sc.Text()[i+len("listening on "):])
	go io.Copy(io.Discard, stdout)

	resp, err := http.Post(base+"/v1/decide", "application/json",
		strings.NewReader(`{"chip":"c0","observation":{"sensor_temp":1e999}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("overflowing payload: status %d, want 400", resp.StatusCode)
	}
	// The daemon is still alive and serving after the bad request.
	resp, err = http.Post(base+"/v1/decide", "application/json",
		strings.NewReader(`{"chip":"c0","observation":{"sensor_temp":55}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon unhealthy after bad request: %d", resp.StatusCode)
	}
	cmd.Process.Signal(syscall.SIGTERM)
	cmd.Wait()
}

// TestDaemonServerBounds pins the connection bounds of the daemon's
// http.Server, and drives the header bound end to end: a client that
// never finishes its request headers is cut off.
func TestDaemonServerBounds(t *testing.T) {
	srv := newDaemonServer(http.NotFoundHandler())
	for _, tc := range []struct {
		name string
		got  time.Duration
	}{
		{"ReadHeaderTimeout", srv.ReadHeaderTimeout},
		{"ReadTimeout", srv.ReadTimeout},
		{"IdleTimeout", srv.IdleTimeout},
	} {
		if tc.got <= 0 {
			t.Errorf("%s = %v, want a positive bound", tc.name, tc.got)
		}
	}
	if testing.Short() {
		t.Skip("waits out the header timeout")
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/decide HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection with unfinished headers was not closed by the server: %v", err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the %v header timeout", waited, readHeaderTimeout)
	}
}
