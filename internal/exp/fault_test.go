package exp

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"bbrnash/internal/check"
	"bbrnash/internal/runner"
	"bbrnash/internal/scenario"
)

// TestSweepMixCancelledContext: a sweep under a cancelled context returns
// promptly with context.Canceled instead of simulating anything.
func TestSweepMixCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := testScale()
	s.Pool = runner.NewPool(4)
	s.Ctx = ctx

	start := time.Now()
	_, err := s.Sweep(1, 4, func(int) scenario.Spec { return smokeSpec() })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A single smoke simulation takes seconds; a cancelled sweep must not
	// run even one.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled sweep took %v", elapsed)
	}
}

// TestSweepMixFailureNamesScenario: a failing simulation unit surfaces as
// a *runner.UnitError carrying the scenario's canonical cache key.
func TestSweepMixFailureNamesScenario(t *testing.T) {
	s := testScale()
	s.Pool = runner.NewPool(2)
	_, err := s.Sweep(1, 2, func(i int) scenario.Spec {
		sp := smokeSpec()
		if i == 1 {
			sp.Duration = 0 // specs reject non-positive durations
		}
		return sp
	})
	if err == nil {
		t.Fatal("expected sweep failure")
	}
	var ue *runner.UnitError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want *runner.UnitError", err)
	}
	if !strings.HasPrefix(ue.Key, scenario.KeyPrefix) {
		t.Errorf("UnitError.Key = %q, want canonical scenario key", ue.Key)
	}
	if !strings.Contains(err.Error(), "non-positive duration") {
		t.Errorf("err = %v, want wrapped validation error", err)
	}
}

// TestSweepMixAuditClean: real simulation output passes the strict
// invariant audit — on fresh computes and on cached replays.
func TestSweepMixAuditClean(t *testing.T) {
	s := testScale()
	s.Pool = runner.NewPool(4)
	s.Cache = runner.NewCache()
	s.Audit = check.New()

	sp := smokeSpec()
	sp.Groups[0].Count = 2
	specAt := func(int) scenario.Spec { return sp }
	if _, err := s.Sweep(9, 1, specAt); err != nil {
		t.Fatal(err)
	}
	if s.Audit.Len() != 0 {
		t.Fatalf("fresh run violated invariants: %v", s.Audit.Violations())
	}
	// Replay from the warm cache: the audit re-runs on cached results.
	if _, err := s.Sweep(9, 1, specAt); err != nil {
		t.Fatal(err)
	}
	if s.Audit.Len() != 0 {
		t.Fatalf("cached replay violated invariants: %v", s.Audit.Violations())
	}
	if err := s.Audit.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestFindNECancelledContext: the exhaustive equilibrium search honours
// its config context.
func TestFindNECancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sp := smokeSpec()
	_, err := FindNE(NESearchConfig{
		Capacity: sp.Capacity, Buffer: sp.Buffer, RTT: sp.Groups[0].RTT,
		N: 3, Duration: sp.Duration, Seed: 11,
		Exhaustive: true, Pool: runner.NewPool(4), Ctx: ctx,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
