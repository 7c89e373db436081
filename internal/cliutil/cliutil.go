// Package cliutil holds the crash-safety plumbing shared by the boreas,
// hotgauge and trainer commands: the -checkpoint/-resume/-deadline
// flags, signal-aware run contexts, checkpoint-store opening with the
// corruption-fallback contract, and the exit-code contract.
//
// Exit codes: 0 success, 1 error, 2 flag-usage error (from package
// flag), 3 interrupted by signal or -deadline with progress saved.
package cliutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/hotgauge/boreas/internal/checkpoint"
)

// ExitInterrupted is the exit code for a run stopped by SIGINT/SIGTERM
// or the -deadline. Scripts can distinguish "retry with -resume" (3)
// from a real failure (1).
const ExitInterrupted = 3

// stderr receives the fallback warnings of OpenStore and BindStore.
var stderr io.Writer = os.Stderr

// Options is the parsed checkpoint/cancellation flag set.
type Options struct {
	// Dir is the -checkpoint directory ("" = checkpointing off).
	Dir string
	// Resume asserts an existing checkpoint must be used: corruption and
	// configuration mismatches become fatal instead of falling back to a
	// clean run.
	Resume bool
	// Deadline bounds the wall-clock runtime (0 = none).
	Deadline time.Duration
}

// RegisterFlags registers -checkpoint, -resume and -deadline on the
// default flag set and returns the destination. Call before flag.Parse.
func RegisterFlags() *Options {
	o := &Options{}
	flag.StringVar(&o.Dir, "checkpoint", "", "directory for crash-safe campaign checkpoints; completed work persists there and is replayed on the next run")
	flag.BoolVar(&o.Resume, "resume", false, "require the -checkpoint directory to match this run (corruption or a configuration mismatch becomes an error instead of a clean-run fallback)")
	flag.DurationVar(&o.Deadline, "deadline", 0, "stop cleanly after this duration, e.g. 30m (0 = no deadline); checkpointed progress survives for -resume")
	return o
}

// Context returns a run context that ends on SIGINT, SIGTERM or the
// -deadline, plus its release function. The first signal cancels the
// context for a clean checkpoint-boundary exit; a second signal kills
// the process via Go's default handler (signal.NotifyContext unregisters
// after firing).
func (o *Options) Context() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if o.Deadline > 0 {
		dctx, cancel := context.WithTimeout(ctx, o.Deadline)
		return dctx, func() { cancel(); stop() }
	}
	return ctx, stop
}

// OpenStore opens the checkpoint store per the CLI contract. Without
// -checkpoint it returns (nil, nil) — checkpointing off. A corrupt
// store is fatal under -resume; otherwise it is quarantined (kept on
// disk for inspection) and the run continues against a fresh store, so
// a damaged directory can never block or corrupt a campaign.
func (o *Options) OpenStore(tool string) (*checkpoint.Store, error) {
	if o.Dir == "" {
		if o.Resume {
			return nil, fmt.Errorf("-resume requires -checkpoint")
		}
		return nil, nil
	}
	warn := func(format string, args ...any) {
		fmt.Fprintf(stderr, tool+": "+format+"\n", args...)
	}
	store, err := checkpoint.Open(o.Dir, checkpoint.WithWarnf(warn))
	if err != nil {
		if o.Resume || !errors.Is(err, checkpoint.ErrCorrupt) {
			return nil, err
		}
		warn("checkpoint directory is corrupt: %v", err)
		warn("quarantining it and starting a clean run (use -resume to make this fatal instead)")
		return checkpoint.Recover(o.Dir, checkpoint.WithWarnf(warn))
	}
	if store.Len() > 0 {
		warn("checkpoint %s holds %d completed cells; finished work will be replayed", o.Dir, store.Len())
	}
	return store, nil
}

// BindStore records the run's fingerprint in store (a nil store, i.e.
// checkpointing off, passes through). A scope mismatch means the
// directory holds another run's cells: under -resume that is an error
// wrapping checkpoint.ErrScopeMismatch; otherwise it is a warning and
// the run continues clean with checkpointing off, signalled by a nil
// store and a nil error.
func (o *Options) BindStore(tool string, store *checkpoint.Store, scope checkpoint.Scope, desc string) (*checkpoint.Store, error) {
	if store == nil {
		return nil, nil
	}
	err := store.Bind(scope, desc)
	if err == nil {
		return store, nil
	}
	if o.Resume || !errors.Is(err, checkpoint.ErrScopeMismatch) {
		return nil, err
	}
	fmt.Fprintf(stderr, "%s: %v\n%s: running without checkpointing\n", tool, err, tool)
	return nil, nil
}

// ExitUsage is the exit code for an invalid flag value, matching what
// package flag uses for unparseable flags: misuse is 2, runtime failure
// is 1.
const ExitUsage = 2

// CheckPositive returns a usage error unless v is strictly positive.
// CLIs run it on count-valued flags (-j, -chips, ...) after parsing, so
// "-j 0" fails with a descriptive message instead of surfacing as a
// confusing downstream error or a silently-normalized value.
func CheckPositive(name string, v int) error {
	if v <= 0 {
		return fmt.Errorf("flag -%s must be a positive integer (got %d)", name, v)
	}
	return nil
}

// CheckNonNegative returns a usage error unless v is a finite,
// non-negative number. CLIs run it on magnitude flags (-guardband,
// -qps) after parsing, so "-qps -5" or "-guardband NaN" fails with a
// message naming the flag instead of misconfiguring the run.
func CheckNonNegative(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("flag -%s must be a non-negative finite number (got %v)", name, v)
	}
	return nil
}

// FatalUsage prints err and exits with the flag-usage code (2).
func FatalUsage(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(ExitUsage)
}

// Interrupted reports whether err is a cancellation or deadline error —
// the run was stopped on purpose, not broken.
func Interrupted(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Fatal prints err and exits with the contract code: ExitInterrupted
// for cancellations (with a -resume hint when a checkpoint directory
// holds the progress), 1 for everything else.
func Fatal(tool string, err error, checkpointDir string) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	if Interrupted(err) {
		if checkpointDir != "" {
			fmt.Fprintf(os.Stderr, "%s: progress is saved in %s; re-run the same command with -resume to continue\n", tool, checkpointDir)
		}
		os.Exit(ExitInterrupted)
	}
	os.Exit(1)
}
