package exp

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"bbrnash/internal/check"
	"bbrnash/internal/runner"
	"bbrnash/internal/scenario"
	"bbrnash/internal/units"
)

// faultedSpecAt builds the i-th point of a small faulted sweep: 1% loss and
// a 50%-depth capacity flap, the acceptance scenario of the fault-injection
// layer, with the flow split varying across points.
func faultedSpecAt(i int) scenario.Spec {
	capacity := 20 * units.Mbps
	sp := scenario.Mix("bbr", 1+i, 1, capacity,
		units.BufferBytes(capacity, 40*time.Millisecond, 2),
		40*time.Millisecond, 8*time.Second)
	sp.Faults = scenario.Faults{
		LossRate:   0.01,
		FlapPeriod: 2 * time.Second,
		FlapDepth:  0.5,
	}
	return sp
}

// TestFaultedSweepDeterministicAcrossWorkers: the acceptance criterion of
// the fault-injection layer — a sweep of fault-injected specs (loss >= 1%,
// a capacity flap) is byte-identical at any worker count, with the
// fault-aware invariant audit attached and clean.
func TestFaultedSweepDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) ([]SweepPoint, *check.Auditor) {
		audit := check.New()
		s := Scale{Trials: 2, Pool: runner.NewPool(workers), Cache: runner.NewCache(), Audit: audit}
		pts, err := s.Sweep(5, 3, faultedSpecAt)
		if err != nil {
			t.Fatal(err)
		}
		return pts, audit
	}
	a, auditA := run(1)
	b, auditB := run(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("worker count changed faulted sweep output:\n1: %+v\n8: %+v", a, b)
	}
	for _, audit := range []*check.Auditor{auditA, auditB} {
		if err := audit.Err(); err != nil {
			t.Errorf("fault-aware invariants violated: %v", err)
		}
	}
}

// TestSweepWatchdogCleanRun: with a watchdog armed, the chunked simulation
// loop's Progress heartbeats keep healthy units alive — the window here is
// far shorter than a unit's runtime, so only the heartbeats save them.
func TestSweepWatchdogCleanRun(t *testing.T) {
	base := Scale{Trials: 2, Cache: runner.NewCache()}
	want, err := base.Sweep(5, 2, faultedSpecAt)
	if err != nil {
		t.Fatal(err)
	}
	s := Scale{Trials: 2, Pool: runner.NewPool(2).SetWatchdog(2 * time.Second), Cache: runner.NewCache()}
	got, err := s.Sweep(5, 2, faultedSpecAt)
	if err != nil {
		t.Fatalf("watchdogged sweep failed: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("watchdog changed sweep output")
	}
}

// TestSweepJournalResume: the resumption contract end to end — a sweep
// records every completed unit in the journal; a fresh process (cold
// cache) resuming from that journal reproduces byte-identical output
// without re-simulating, even though the cache file was never saved.
func TestSweepJournalResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j1, err := runner.OpenJournal(path, scenario.KeyVersion)
	if err != nil {
		t.Fatal(err)
	}
	s1 := Scale{Trials: 2, Cache: runner.NewCache(), Journal: j1}
	want, err := s1.Sweep(5, 2, faultedSpecAt)
	if err != nil {
		t.Fatal(err)
	}
	wantUnits := j1.Len()
	if wantUnits == 0 {
		t.Fatal("sweep recorded nothing in the journal")
	}
	j1.Close()

	// "Crash" and resume: new journal handle, cold cache, same sweep.
	j2, err := runner.OpenJournal(path, scenario.KeyVersion)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	pool := runner.NewPool(2)
	s2 := Scale{Trials: 2, Pool: pool, Cache: runner.NewCache(), Journal: j2}
	got, err := s2.Sweep(5, 2, faultedSpecAt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("resumed sweep output differs:\nfirst: %+v\nresumed: %+v", want, got)
	}
	if j2.Hits() == 0 {
		t.Error("resumed sweep never hit the journal")
	}
	if j2.Len() != wantUnits {
		t.Errorf("resume changed journal size: %d -> %d", wantUnits, j2.Len())
	}
}

// TestSweepJournalPartialResume: a journal holding only a prefix of the
// sweep (the crash-mid-sweep shape) serves what it has and the rest is
// simulated fresh; output matches an uninterrupted run.
func TestSweepJournalPartialResume(t *testing.T) {
	clean := Scale{Trials: 2, Cache: runner.NewCache()}
	want, err := clean.Sweep(5, 2, faultedSpecAt)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j1, err := runner.OpenJournal(path, scenario.KeyVersion)
	if err != nil {
		t.Fatal(err)
	}
	// Complete only the first point before the "crash".
	s1 := Scale{Trials: 2, Cache: runner.NewCache(), Journal: j1}
	if _, err := s1.Sweep(5, 1, faultedSpecAt); err != nil {
		t.Fatal(err)
	}
	partial := j1.Len()
	j1.Close()

	j2, err := runner.OpenJournal(path, scenario.KeyVersion)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	s2 := Scale{Trials: 2, Cache: runner.NewCache(), Journal: j2}
	got, err := s2.Sweep(5, 2, faultedSpecAt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("partially resumed sweep differs:\nclean: %+v\nresumed: %+v", want, got)
	}
	if j2.Hits() == 0 {
		t.Error("resume ignored the partial journal")
	}
	if j2.Len() <= partial {
		t.Errorf("resume did not journal the remaining units: %d -> %d", partial, j2.Len())
	}
}

// TestRunSpecCachedResimulatesNullEntry: a cache file holding null under a
// spec's key is no hit. The run simulates the spec and the next Save stores
// the real result in place of the null.
func TestRunSpecCachedResimulatesNullEntry(t *testing.T) {
	sp := scenario.Mix("bbr", 1, 1, 20*units.Mbps, units.BufferBytes(20*units.Mbps, 40*time.Millisecond, 2),
		40*time.Millisecond, 4*time.Second)
	sp.Backend = scenario.BackendFluid
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := os.WriteFile(path, []byte(`{"`+sp.Key()+`": null}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cache, err := runner.OpenCache(path, scenario.KeyVersion)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	res, hit, err := Run(context.Background(), sp, Env{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("a null cache entry was served as a hit")
	}
	want, _, err := Run(context.Background(), sp, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("re-simulated result differs from a fresh run:\n%+v\nvs\n%+v", res, want)
	}
	if err := cache.Save(); err != nil {
		t.Fatal(err)
	}
	var stored SpecResult
	if raw, ok := cache.GetRaw(sp.Key()); !ok || json.Unmarshal(raw, &stored) != nil || !reflect.DeepEqual(stored, want) {
		t.Errorf("the cache does not hold the re-simulated result: %s", raw)
	}
}
