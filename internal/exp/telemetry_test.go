package exp

import (
	"context"
	"os"
	"testing"
	"time"

	"bbrnash/internal/runner"
	"bbrnash/internal/scenario"
	"bbrnash/internal/telemetry"
	"bbrnash/internal/units"
)

func traceTestSpec() scenario.Spec {
	capacity := 20 * units.Mbps
	rtt := 20 * time.Millisecond
	sp := scenario.Mix("bbr", 1, 1, capacity, units.BufferBytes(capacity, rtt, 2), rtt, 3*time.Second)
	sp.Seed = 11
	return sp
}

// Tracing must not perturb the spec's identity: a traced and an untraced
// run of one spec share a cache entry in both directions, and a hit (the
// result was not re-simulated) skips re-tracing.
func TestTracedAndUntracedRunsShareCacheEntry(t *testing.T) {
	sp := traceTestSpec()
	ctx := context.Background()

	// Untraced first: the traced rerun must hit and write no trace.
	cache := runner.NewCache()
	if _, hit, err := Run(ctx, sp, Env{Cache: cache}); err != nil || hit {
		t.Fatalf("first run: hit=%v err=%v", hit, err)
	}
	rec, err := telemetry.NewRecorder(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, hit, err := Run(ctx, sp, Env{Cache: cache, Trace: rec}); err != nil || !hit {
		t.Fatalf("traced rerun: hit=%v err=%v", hit, err)
	}
	if rec.Traces() != 0 {
		t.Errorf("cache hit wrote %d traces; hits must skip re-tracing", rec.Traces())
	}

	// Traced first: the trace is written and the untraced rerun hits.
	cache = runner.NewCache()
	rec, err = telemetry.NewRecorder(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, hit, err := Run(ctx, sp, Env{Cache: cache, Trace: rec}); err != nil || hit {
		t.Fatalf("traced first run: hit=%v err=%v", hit, err)
	}
	if rec.Traces() != 1 {
		t.Fatalf("traced first run wrote %d traces, want 1", rec.Traces())
	}
	if _, hit, err := Run(ctx, sp, Env{Cache: cache}); err != nil || !hit {
		t.Fatalf("untraced rerun: hit=%v err=%v", hit, err)
	}
}

// A journal hit serves the result without re-simulating, so it must also
// skip tracing — the trace from the original run is already on disk
// (written before the journal record, so no journaled unit lacks one).
func TestJournalHitSkipsRetracing(t *testing.T) {
	sp := traceTestSpec()
	ctx := context.Background()
	dir := t.TempDir()
	jpath := dir + "/journal.jsonl"

	journal, err := runner.OpenJournal(jpath, scenario.KeyVersion)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := telemetry.NewRecorder(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Run(ctx, sp, Env{Cache: runner.NewCache(), Journal: journal, Trace: rec}); err != nil {
		t.Fatal(err)
	}
	journal.Close()
	jp, _ := telemetry.TracePaths(dir, sp.Key())
	if _, err := os.Stat(jp); err != nil {
		t.Fatalf("journaled unit has no trace on disk: %v", err)
	}

	// Resume with the same journal and a fresh recorder: the journal serves
	// the result and nothing is re-traced.
	journal, err = runner.OpenJournal(jpath, scenario.KeyVersion)
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	rec2, err := telemetry.NewRecorder(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, hit, err := Run(ctx, sp, Env{Cache: runner.NewCache(), Journal: journal, Trace: rec2}); err != nil || !hit {
		t.Fatalf("resumed run: hit=%v err=%v", hit, err)
	}
	if rec2.Traces() != 0 {
		t.Errorf("journal hit wrote %d traces; hits must skip re-tracing", rec2.Traces())
	}
}
