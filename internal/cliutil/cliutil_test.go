package cliutil

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hotgauge/boreas/internal/checkpoint"
)

func TestOpenStoreDisabled(t *testing.T) {
	o := &Options{}
	store, err := o.OpenStore("test")
	if store != nil || err != nil {
		t.Fatalf("expected (nil, nil) without -checkpoint, got (%v, %v)", store, err)
	}
	o.Resume = true
	if _, err := o.OpenStore("test"); err == nil {
		t.Fatal("-resume without -checkpoint must be an error")
	}
}

func TestOpenStoreCorruptionFallback(t *testing.T) {
	dir := t.TempDir()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	scope, err := checkpoint.NewScope("cliutil/test")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(scope.Key("cell"), "test", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Without -resume: quarantine and continue with a fresh store.
	o := &Options{Dir: dir}
	recovered, err := o.OpenStore("test")
	if err != nil {
		t.Fatalf("corruption without -resume must fall back, got %v", err)
	}
	if recovered.Len() != 0 {
		t.Fatalf("recovered store should start empty, has %d cells", recovered.Len())
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", "0", "manifest.json")); err != nil {
		t.Fatalf("corrupt manifest not preserved in quarantine: %v", err)
	}

	// With -resume: the same corruption is fatal and descriptive.
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	o.Resume = true
	if _, err := o.OpenStore("test"); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("corruption under -resume must be ErrCorrupt, got %v", err)
	}
}

func TestInterrupted(t *testing.T) {
	if !Interrupted(context.Canceled) || !Interrupted(context.DeadlineExceeded) {
		t.Fatal("plain cancellation errors must count as interrupted")
	}
	if !Interrupted(fmt.Errorf("fig7: %w", context.Canceled)) {
		t.Fatal("wrapped cancellation must count as interrupted")
	}
	if Interrupted(errors.New("disk on fire")) {
		t.Fatal("real errors must not count as interrupted")
	}
}

func TestCheckPositive(t *testing.T) {
	if err := CheckPositive("j", 4); err != nil {
		t.Fatalf("positive value rejected: %v", err)
	}
	for _, v := range []int{0, -1, -100} {
		err := CheckPositive("chips", v)
		if err == nil {
			t.Fatalf("CheckPositive(chips, %d) accepted", v)
		}
		// The message must name the flag and the offending value so the
		// user can fix the invocation without reading source.
		if msg := err.Error(); !strings.Contains(msg, "-chips") || !strings.Contains(msg, fmt.Sprint(v)) {
			t.Fatalf("undescriptive usage error %q", msg)
		}
	}
}

func TestCheckNonNegative(t *testing.T) {
	for _, v := range []float64{0, 0.05, 1e6} {
		if err := CheckNonNegative("guardband", v); err != nil {
			t.Fatalf("CheckNonNegative(guardband, %v) rejected: %v", v, err)
		}
	}
	for _, v := range []float64{-0.01, -5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := CheckNonNegative("qps", v)
		if err == nil {
			t.Fatalf("CheckNonNegative(qps, %v) accepted", v)
		}
		if msg := err.Error(); !strings.Contains(msg, "-qps") {
			t.Fatalf("undescriptive usage error %q", msg)
		}
	}
}

func TestContextDeadline(t *testing.T) {
	o := &Options{Deadline: 1} // one nanosecond: expires immediately
	ctx, stop := o.Context()
	defer stop()
	<-ctx.Done()
	if !Interrupted(ctx.Err()) {
		t.Fatalf("deadline expiry should read as interrupted, got %v", ctx.Err())
	}
}

func TestBindStoreScopeMismatch(t *testing.T) {
	dir := t.TempDir()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := checkpoint.NewScope("cliutil/test", 1)
	if err != nil {
		t.Fatal(err)
	}
	other, err := checkpoint.NewScope("cliutil/test", 2)
	if err != nil {
		t.Fatal(err)
	}
	var warned strings.Builder
	stderr = &warned
	defer func() { stderr = os.Stderr }()

	o := &Options{Dir: dir}
	if got, err := o.BindStore("test", nil, first, "first"); got != nil || err != nil {
		t.Fatalf("nil store (checkpointing off) = (%v, %v), want (nil, nil)", got, err)
	}
	if got, err := o.BindStore("test", store, first, "first"); got != store || err != nil {
		t.Fatalf("first bind = (%v, %v), want the store", got, err)
	}

	// Without -resume: warn and run with checkpointing off.
	got, err := o.BindStore("test", store, other, "other")
	if got != nil || err != nil {
		t.Fatalf("mismatch without -resume = (%v, %v), want (nil, nil)", got, err)
	}
	if msg := warned.String(); !strings.Contains(msg, "running without checkpointing") || !strings.Contains(msg, "test: ") {
		t.Fatalf("mismatch warning %q does not name the tool and the fallback", msg)
	}

	// With -resume: the same mismatch is fatal.
	o.Resume = true
	if _, err := o.BindStore("test", store, other, "other"); !errors.Is(err, checkpoint.ErrScopeMismatch) {
		t.Fatalf("mismatch under -resume = %v, want ErrScopeMismatch", err)
	}
}
