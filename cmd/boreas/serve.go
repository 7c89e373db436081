package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"github.com/hotgauge/boreas/internal/cliutil"
	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/core"
	"github.com/hotgauge/boreas/internal/ml/gbt"
	"github.com/hotgauge/boreas/internal/platform"
	"github.com/hotgauge/boreas/internal/serve"
)

// shutdownGrace bounds how long an exiting daemon waits for in-flight
// requests to drain before closing their connections.
const shutdownGrace = 10 * time.Second

// Connection bounds of the daemon's HTTP server: a client that trickles
// its headers or body, or parks an idle keep-alive connection, cannot
// hold a connection and its goroutine open indefinitely. readTimeout
// leaves room for a serve.MaxBodyBytes batch on a slow link. There is no
// write timeout, so a 30 s /debug/pprof/profile capture still completes.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
)

// newDaemonServer wraps the decision handler in the daemon's bounded
// http.Server.
func newDaemonServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// runServe is the `boreas serve` subcommand: a long-running HTTP/JSON
// decision daemon over a per-chip session registry.
//
//	boreas serve -addr :8080 -platform skylake-7nm -model boreas.gbt
//	boreas serve -addr 127.0.0.1:0 -guardband 0.05 -idle-ttl 10m
//
// Without -model the daemon serves the platform's fixed maximum
// operating point (useful for wiring and load tests); with -model it
// serves ML-guardband decisions from the trained ensemble, compiled to
// the flat-tree kernel. SIGINT/SIGTERM (or -deadline) drains in-flight
// requests and exits 0 — a stopped daemon is a clean stop, not an
// error.
func runServe(args []string) {
	fs := flag.NewFlagSet("boreas serve", flag.ExitOnError)
	var (
		addr        = fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port and prints it)")
		pfArg       = fs.String("platform", "skylake-7nm", "platform: a registered name or a scenario .json file")
		modelPath   = fs.String("model", "", "trained model file (from trainer -model); empty serves the platform's fixed maximum operating point")
		guardband   = fs.Float64("guardband", 0.05, "ML controller guardband (severity margin), used with -model")
		start       = fs.Float64("start", 0, "initial operating frequency in GHz for new sessions (0 = platform maximum)")
		maxSessions = fs.Int("max-sessions", serve.DefaultMaxSessions, "live per-chip session capacity; at capacity the least-recently-used session is evicted")
		idleTTL     = fs.Duration("idle-ttl", serve.DefaultIdleTTL, "evict sessions idle for this long (-1s disables idle eviction)")
		deadline    = fs.Duration("deadline", 0, "stop the daemon cleanly after this duration (0 = run until signalled)")
	)
	fs.Parse(args)
	if fs.NArg() > 0 {
		cliutil.FatalUsage("boreas serve", fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	if err := cliutil.CheckPositive("max-sessions", *maxSessions); err != nil {
		cliutil.FatalUsage("boreas serve", err)
	}
	if err := cliutil.CheckNonNegative("guardband", *guardband); err != nil {
		cliutil.FatalUsage("boreas serve", err)
	}

	pf, err := platform.Resolve(*pfArg)
	if err != nil {
		fatal(err)
	}
	ctrl, desc, err := serveController(pf, *modelPath, *guardband)
	if err != nil {
		fatal(err)
	}
	reg, err := serve.NewRegistry(serve.RegistryConfig{
		Controller:  ctrl,
		VF:          pf.VF,
		StartFreq:   *start,
		MaxSessions: *maxSessions,
		IdleTTL:     *idleTTL,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// The resolved address line is the machine-readable startup handshake:
	// tests and scripts bind port 0 and parse the port from it.
	fmt.Printf("boreas serve: listening on %s\n", ln.Addr())
	fmt.Printf("boreas serve: platform %s, controller %s (%s)\n", pf.Name, ctrl.Name(), desc)

	ck := &cliutil.Options{Deadline: *deadline}
	ctx, stop := ck.Context()
	defer stop()

	srv := newDaemonServer(serve.NewHandler(reg))
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	// Reclaim idle sessions even when no create traffic runs the
	// capacity sweep.
	sweeper := time.NewTicker(sweepInterval(*idleTTL))
	defer sweeper.Stop()

	for {
		select {
		case <-sweeper.C:
			reg.Sweep()
		case err := <-errc:
			if !errors.Is(err, http.ErrServerClosed) {
				fatal(err)
			}
		case <-ctx.Done():
			fmt.Println("boreas serve: shutting down, draining in-flight requests")
			sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
			err := srv.Shutdown(sctx)
			cancel()
			if err != nil {
				fmt.Fprintf(os.Stderr, "boreas serve: drain incomplete: %v\n", err)
			}
			fmt.Print(reg.Snapshot().Render())
			return
		}
	}
}

// serveController resolves the daemon's template controller: the ML
// guardband controller when a model file is given, otherwise the
// platform's fixed maximum operating point.
func serveController(pf *platform.Platform, modelPath string, guardband float64) (control.Controller, string, error) {
	if modelPath == "" {
		f := pf.VF.MaxGHz()
		return &control.FixedController{ControllerName: "fixed-max", Frequency: f},
			fmt.Sprintf("fixed %.2f GHz; pass -model to serve ML decisions", f), nil
	}
	m, err := gbt.LoadModelFile(modelPath)
	if err != nil {
		return nil, "", err
	}
	pred, err := core.NewPredictor(m)
	if err != nil {
		return nil, "", err
	}
	pred.VF = pf.VF
	ctrl, err := core.NewController(pred, guardband)
	if err != nil {
		return nil, "", err
	}
	ctrl.VF = pf.VF
	return ctrl, fmt.Sprintf("%d trees from %s", len(m.Trees), modelPath), nil
}

// sweepInterval picks the idle-sweep period: a quarter of the TTL,
// clamped to [1s, 1min]. A disabled TTL still ticks (Sweep is then a
// no-op) to keep the daemon loop uniform.
func sweepInterval(ttl time.Duration) time.Duration {
	iv := ttl / 4
	if iv < time.Second {
		iv = time.Second
	}
	if iv > time.Minute {
		iv = time.Minute
	}
	return iv
}
