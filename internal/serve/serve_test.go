package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bbrnash/internal/check"
	"bbrnash/internal/exp"
	"bbrnash/internal/netsim"
	"bbrnash/internal/runner"
	"bbrnash/internal/scenario"
	"bbrnash/internal/units"
)

// testSpec builds a cheap valid spec whose key varies with seed.
func testSpec(seed uint64) scenario.Spec {
	capacity := 10 * units.Mbps
	sp := scenario.Mix("bbr", 1, 1, capacity,
		units.BufferBytes(capacity, 20*time.Millisecond, 2),
		20*time.Millisecond, 2*time.Second)
	sp.Seed = seed
	return sp
}

// fakeResult derives a distinguishable result from the spec, so tests can
// tell whose bytes they received.
func fakeResult(sp scenario.Spec) exp.SpecResult {
	return exp.SpecResult{Link: netsim.LinkStats{Name: "fake", Drops: int(sp.Seed)}}
}

// fake adapts a test's run function to Config.Run. Like exp.Run, it
// memoizes a successful result in env.Cache under the spec's key, and only
// a result that passed its audit: one with no violation recorded under the
// key.
func fake(run func(ctx context.Context, sp scenario.Spec) (exp.SpecResult, error)) func(context.Context, scenario.Spec, exp.Env) (exp.SpecResult, bool, error) {
	return func(ctx context.Context, sp scenario.Spec, env exp.Env) (exp.SpecResult, bool, error) {
		res, err := run(ctx, sp)
		if key := sp.Key(); err == nil && len(env.Audit.ViolationsFor(key)) == 0 {
			env.Cache.Put(key, res)
		}
		return res, false, err
	}
}

// newFakeServer builds a server over an in-memory cache with a
// caller-supplied Config.Run, and registers Drain as cleanup.
func newFakeServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Cache == nil {
		cfg.Cache = runner.NewCache()
	}
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s
}

// TestSubmitDedupSingleExecution is the single-writer-per-key acceptance
// test: N concurrent submitters of one identical spec trigger exactly one
// execution, and every caller receives the same bytes. Run under -race.
func TestSubmitDedupSingleExecution(t *testing.T) {
	const submitters = 64
	var runs atomic.Int64
	release := make(chan struct{})
	s := newFakeServer(t, Config{
		Pool: runner.NewPool(4),
		Run: fake(func(_ context.Context, sp scenario.Spec) (exp.SpecResult, error) {
			runs.Add(1)
			<-release // hold the flight open until every submitter has joined
			return fakeResult(sp), nil
		}),
	})
	sp := testSpec(7)

	var joined, finished sync.WaitGroup
	results := make([][]byte, submitters)
	for i := 0; i < submitters; i++ {
		joined.Add(1)
		finished.Add(1)
		go func(i int) {
			defer finished.Done()
			_, raw, fl, err := s.submit(sp)
			joined.Done()
			if err != nil {
				t.Errorf("submitter %d: %v", i, err)
				return
			}
			if raw == nil {
				<-fl.done
				if fl.err != nil {
					t.Errorf("submitter %d: flight failed: %v", i, fl.err)
					return
				}
				raw = fl.result
			}
			results[i] = raw
		}(i)
	}
	joined.Wait()
	close(release)
	finished.Wait()

	if n := runs.Load(); n != 1 {
		t.Fatalf("executions = %d, want exactly 1", n)
	}
	want, _ := json.Marshal(fakeResult(sp))
	for i, got := range results {
		if !bytes.Equal(got, want) {
			t.Fatalf("submitter %d bytes = %s, want %s", i, got, want)
		}
	}
	st := s.Stats()
	if st.Enqueued != 1 {
		t.Errorf("enqueued = %d, want 1", st.Enqueued)
	}
	if st.Deduped != submitters-1 {
		t.Errorf("deduped = %d, want %d", st.Deduped, submitters-1)
	}
}

// TestLoadShedNoLossNoDuplication is the overload acceptance test: well
// over 1000 concurrent submissions against a deliberately small queue.
// Shed submitters retry until admitted; at the end every distinct key ran
// exactly once, every submitter holds the right bytes, nothing was lost,
// and the shedding is visible in Stats.
func TestLoadShedNoLossNoDuplication(t *testing.T) {
	const (
		keys          = 200
		perKey        = 6 // 1200 total submissions
		expectPerSpec = 1
	)
	var execs [keys]atomic.Int64
	s := newFakeServer(t, Config{
		Pool:       runner.NewPool(8),
		QueueDepth: 16, // small on purpose: overload must shed, not queue
		Run: fake(func(_ context.Context, sp scenario.Spec) (exp.SpecResult, error) {
			execs[sp.Seed-1].Add(1)
			time.Sleep(time.Millisecond)
			return fakeResult(sp), nil
		}),
	})

	var wg sync.WaitGroup
	errs := make(chan error, keys*perKey)
	for k := 0; k < keys; k++ {
		for c := 0; c < perKey; c++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				sp := testSpec(uint64(k + 1))
				want, _ := json.Marshal(fakeResult(sp))
				for {
					_, raw, fl, err := s.submit(sp)
					if errors.Is(err, errQueueFull) {
						time.Sleep(500 * time.Microsecond) // Retry-After, in miniature
						continue
					}
					if err != nil {
						errs <- fmt.Errorf("key %d: %v", k, err)
						return
					}
					if raw == nil {
						<-fl.done
						if fl.err != nil {
							errs <- fmt.Errorf("key %d: flight: %v", k, fl.err)
							return
						}
						raw = fl.result
					}
					if !bytes.Equal(raw, want) {
						errs <- fmt.Errorf("key %d: bytes = %s, want %s", k, raw, want)
					}
					return
				}
			}(k)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	for k := 0; k < keys; k++ {
		if n := execs[k].Load(); n != expectPerSpec {
			t.Errorf("key %d executed %d times, want %d", k, n, expectPerSpec)
		}
	}
	st := s.Stats()
	if st.Completed != keys {
		t.Errorf("completed = %d, want %d", st.Completed, keys)
	}
	if st.Failed != 0 {
		t.Errorf("failed = %d, want 0", st.Failed)
	}
	if st.Enqueued != keys {
		t.Errorf("enqueued = %d, want %d (one flight per key, ever)", st.Enqueued, keys)
	}
	if st.Shed == 0 {
		t.Error("shed = 0: a 16-deep queue under 1200 submissions must shed")
	}
	// Every submitter is eventually admitted exactly once (sheds are
	// retried, so they sit on top of the 1200 terminal outcomes).
	if got := st.Instant + st.Deduped + st.Enqueued; got != keys*perKey {
		t.Errorf("terminal admission outcomes sum to %d, want %d", got, keys*perKey)
	}
	if st.LatencyCount != keys || st.LatencyMaxNS <= 0 {
		t.Errorf("latency accounting: count=%d max=%d", st.LatencyCount, st.LatencyMaxNS)
	}
}

// TestWorkerPanicSupervision: a panicking run fails only its own flight —
// a *runner.UnitError that names the flight's key and carries the stack —
// and the worker goes on to the next flight.
func TestWorkerPanicSupervision(t *testing.T) {
	const poisoned = 666
	s := newFakeServer(t, Config{
		Pool: runner.NewPool(1),
		Run: fake(func(_ context.Context, sp scenario.Spec) (exp.SpecResult, error) {
			if sp.Seed == poisoned {
				panic("poisoned scenario")
			}
			return fakeResult(sp), nil
		}),
	})

	bad := testSpec(poisoned)
	_, _, fl, err := s.submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	<-fl.done
	var ue *runner.UnitError
	if !errors.As(fl.err, &ue) || ue.Recovered == nil {
		t.Fatalf("poisoned flight err = %v, want UnitError with recovered panic", fl.err)
	}
	if ue.Key != bad.Key() {
		t.Errorf("poisoned flight names key %q, want %q", ue.Key, bad.Key())
	}
	if len(ue.Stack) == 0 {
		t.Error("panic stack not captured")
	}

	// The service is still alive: a healthy spec completes on the same
	// (only) worker.
	_, raw, fl, err := s.submit(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if raw == nil {
		<-fl.done
		if fl.err != nil {
			t.Fatalf("healthy flight after the panic: %v", fl.err)
		}
	}
	if st := s.Stats(); st.Failed != 1 || st.Completed != 1 {
		t.Errorf("failed/completed = %d/%d, want 1/1", st.Failed, st.Completed)
	}
}

// TestStrictAuditFailsFlight: a run whose result the auditor flagged
// fails its flight with "runner: unit 0 (<key>): serve: strict audit: …",
// the error clients read, and leaves the worker serving.
func TestStrictAuditFailsFlight(t *testing.T) {
	audit := check.New()
	bad := testSpec(13)
	s := newFakeServer(t, Config{
		Pool:  runner.NewPool(1),
		Audit: audit,
		Run: fake(func(_ context.Context, sp scenario.Spec) (exp.SpecResult, error) {
			if sp.Seed == bad.Seed {
				audit.Record(check.Violation{Key: sp.Key(), Invariant: "conservation", Detail: "made up"})
			}
			return fakeResult(sp), nil
		}),
	})
	_, _, fl, err := s.submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	<-fl.done
	want := fmt.Sprintf("runner: unit 0 (%s): serve: strict audit: conservation: made up [%s]", bad.Key(), bad.Key())
	if fl.err == nil || fl.err.Error() != want {
		t.Fatalf("audited flight err = %v, want %s", fl.err, want)
	}
	_, _, fl, err = s.submit(testSpec(14))
	if err != nil {
		t.Fatal(err)
	}
	<-fl.done
	if fl.err != nil {
		t.Errorf("clean flight after an audit failure: %v", fl.err)
	}
}

// TestStrictJournalReplayFailsEverySubmission: on the real exp.Run, a
// journaled result that breaks an invariant fails every strict submission
// of its key. Had the first flight promoted it into the cache, the second
// submission would be answered instantly from Cache.GetRaw, past the
// audit.
func TestStrictJournalReplayFailsEverySubmission(t *testing.T) {
	sp := testSpec(17)
	sp.Backend = scenario.BackendFluid
	bad, _, err := exp.Run(t.Context(), sp, exp.Env{})
	if err != nil {
		t.Fatal(err)
	}
	bad.Link.Utilization = 2
	bad.Links[0].Utilization = 2
	journal, err := runner.OpenJournal(filepath.Join(t.TempDir(), "journal.jsonl"), scenario.KeyVersion)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { journal.Close() })
	if err := journal.Record(sp.Key(), bad); err != nil {
		t.Fatal(err)
	}
	s := newFakeServer(t, Config{Journal: journal, Audit: check.New(), Pool: runner.NewPool(1)})
	for i := 1; i <= 2; i++ {
		_, raw, fl, err := s.submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		if raw != nil {
			t.Fatalf("submission %d was answered from the cache: %s", i, raw)
		}
		<-fl.done
		if fl.err == nil || !strings.Contains(fl.err.Error(), "serve: strict audit: utilization") {
			t.Fatalf("submission %d: err = %v, want a strict audit failure on utilization", i, fl.err)
		}
	}
	if st := s.Stats(); st.Failed != 2 || st.Instant != 0 {
		t.Errorf("failed/instant = %d/%d, want 2/0", st.Failed, st.Instant)
	}
}

// TestPoolWatchdogStallsFlight: the pool passed in Config arms its stall
// watchdog on every flight. A run that makes no progress is cancelled and
// fails its flight with a *runner.StallError inside a *runner.UnitError
// that names the key, and the pool counts the stall.
func TestPoolWatchdogStallsFlight(t *testing.T) {
	pool := runner.NewPool(1).SetWatchdog(50 * time.Millisecond)
	s := newFakeServer(t, Config{
		Pool: pool,
		Run: fake(func(ctx context.Context, _ scenario.Spec) (exp.SpecResult, error) {
			<-ctx.Done()
			return exp.SpecResult{}, ctx.Err()
		}),
	})
	sp := testSpec(1)
	_, _, fl, err := s.submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	<-fl.done
	var ue *runner.UnitError
	var st *runner.StallError
	if !errors.As(fl.err, &ue) || !errors.As(fl.err, &st) {
		t.Fatalf("stalled flight err = %v, want a StallError inside a UnitError", fl.err)
	}
	if ue.Key != sp.Key() {
		t.Errorf("stalled flight names key %q, want %q", ue.Key, sp.Key())
	}
	stats := s.Stats()
	if stats.Stalls != 1 || stats.Failed != 1 {
		t.Errorf("stalls/failed = %d/%d, want 1/1", stats.Stalls, stats.Failed)
	}
	if stats.Workers != pool.Workers() {
		t.Errorf("stats workers = %d, want the pool's %d", stats.Workers, pool.Workers())
	}
}

// TestPoolRetryRecoversStalledFlight: with retries on the passed pool, a
// run that stalls only on its first attempt is retried, and the flight
// answers 200 with the run's bytes.
func TestPoolRetryRecoversStalledFlight(t *testing.T) {
	var attempts atomic.Int64
	s := newFakeServer(t, Config{
		Pool: runner.NewPool(2).SetWatchdog(50*time.Millisecond).SetRetry(1, time.Millisecond),
		Run: fake(func(ctx context.Context, sp scenario.Spec) (exp.SpecResult, error) {
			if attempts.Add(1) == 1 {
				<-ctx.Done()
				return exp.SpecResult{}, ctx.Err()
			}
			return fakeResult(sp), nil
		}),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	sp := testSpec(2)
	resp := postSpec(t, ts, sp, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retried flight status = %d, want 200", resp.StatusCode)
	}
	env := decodeBody[resultEnvelope](t, resp)
	want, _ := json.Marshal(fakeResult(sp))
	if !bytes.Equal(env.Result, want) {
		t.Errorf("retried flight result = %s, want %s", env.Result, want)
	}
	st := s.Stats()
	if st.Retries != 1 || st.Stalls != 1 || st.Workers != 2 {
		t.Errorf("retries/stalls/workers = %d/%d/%d, want 1/1/2", st.Retries, st.Stalls, st.Workers)
	}
}

// TestDrainSemantics: drain stops admission, fails still-queued flights so
// no waiter hangs, and completes (and answers) the flight that was already
// executing.
func TestDrainSemantics(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s := New(Config{
		Cache: runner.NewCache(),
		Pool:  runner.NewPool(1),
		Run: fake(func(_ context.Context, sp scenario.Spec) (exp.SpecResult, error) {
			started <- struct{}{}
			<-release
			return fakeResult(sp), nil
		}),
	})

	_, _, running, err := s.submit(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started // the single worker is now inside flight 1
	_, _, queued, err := s.submit(testSpec(2))
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()

	// The queued flight is failed promptly — its waiter must not hang on a
	// server that will never run it.
	select {
	case <-queued.done:
		if !errors.Is(queued.err, errDraining) {
			t.Errorf("queued flight err = %v, want errDraining", queued.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued flight was not failed during drain")
	}
	if !s.Draining() {
		t.Error("Draining() = false during drain")
	}
	if _, _, _, err := s.submit(testSpec(3)); !errors.Is(err, errDraining) {
		t.Errorf("submit during drain = %v, want errDraining", err)
	}

	close(release) // let the in-flight run finish
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	<-running.done
	if running.err != nil {
		t.Errorf("in-flight run failed during graceful drain: %v", running.err)
	}
	want, _ := json.Marshal(fakeResult(testSpec(1)))
	if !bytes.Equal(running.result, want) {
		t.Errorf("in-flight result = %s, want %s", running.result, want)
	}
}

// TestDrainDeadlineCancelsInFlight: when the drain context expires, the
// base context hard-cancels in-flight executions instead of hanging
// forever; the flight fails and Drain reports the deadline.
func TestDrainDeadlineCancelsInFlight(t *testing.T) {
	started := make(chan struct{}, 1)
	s := New(Config{
		Cache: runner.NewCache(),
		Pool:  runner.NewPool(1),
		Run: fake(func(ctx context.Context, _ scenario.Spec) (exp.SpecResult, error) {
			started <- struct{}{}
			<-ctx.Done() // a run that only a hard cancel can stop
			return exp.SpecResult{}, ctx.Err()
		}),
	})
	_, _, fl, err := s.submit(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain = %v, want DeadlineExceeded", err)
	}
	<-fl.done
	if fl.err == nil {
		t.Error("hard-cancelled flight reported success")
	}
}

// TestJournalReplayByteIdentity is the crash-recovery core in miniature
// (scripts/serve_smoke.sh proves the kill -9 version end to end): a result
// journaled by one server instance is replayed by the next — same bytes,
// no re-simulation — even though the cache was never saved, exactly the
// state a crash leaves behind.
func TestJournalReplayByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	dir := t.TempDir()
	cachePath := filepath.Join(dir, "cache.json")
	journalPath := filepath.Join(dir, "journal.jsonl")
	sp := testSpec(11)

	runOnce := func() []byte {
		cache, err := runner.OpenCache(cachePath, scenario.KeyVersion)
		if err != nil {
			t.Fatal(err)
		}
		defer cache.Close() // deliberately no Save: simulate dying before it
		journal, err := runner.OpenJournal(journalPath, scenario.KeyVersion)
		if err != nil {
			t.Fatal(err)
		}
		defer journal.Close()
		s := New(Config{Cache: cache, Journal: journal, Pool: runner.NewPool(1)})
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			s.Drain(ctx)
		}()
		_, raw, fl, err := s.submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		if raw == nil {
			<-fl.done
			if fl.err != nil {
				t.Fatal(fl.err)
			}
			raw = fl.result
		}
		if journal.Len() == 0 {
			t.Fatal("completed flight not journaled")
		}
		return raw
	}

	first := runOnce()
	second := runOnce() // a fresh instance must replay, not re-simulate

	if !bytes.Equal(first, second) {
		t.Fatalf("replayed bytes differ:\nfirst:  %s\nsecond: %s", first, second)
	}
	// The second instance answered from the journal: its value survived the
	// "crash" because Record fsyncs before the first instance answered.
	cache, err := runner.OpenCache(cachePath, scenario.KeyVersion)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	if cache.Len() != 0 {
		t.Error("cache file was saved; the test meant to simulate a crash before Save")
	}
}

// TestFailedFlightIsRerunnable: a failed key leaves no cache entry and no
// open flight, so a later submission runs it again (and can succeed).
func TestFailedFlightIsRerunnable(t *testing.T) {
	var calls atomic.Int64
	s := newFakeServer(t, Config{
		Pool: runner.NewPool(1),
		Run: fake(func(_ context.Context, sp scenario.Spec) (exp.SpecResult, error) {
			if calls.Add(1) == 1 {
				return exp.SpecResult{}, errors.New("transient outage")
			}
			return fakeResult(sp), nil
		}),
	})
	sp := testSpec(5)
	_, _, fl, err := s.submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	<-fl.done
	if fl.err == nil {
		t.Fatal("first attempt should have failed")
	}
	_, raw, fl, err := s.submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	if raw == nil {
		<-fl.done
		if fl.err != nil {
			t.Fatalf("second attempt: %v", fl.err)
		}
		raw = fl.result
	}
	want, _ := json.Marshal(fakeResult(sp))
	if !bytes.Equal(raw, want) {
		t.Errorf("second attempt bytes = %s, want %s", raw, want)
	}
	if st := s.Stats(); st.Failed != 1 || st.Completed != 1 {
		t.Errorf("failed/completed = %d/%d, want 1/1", st.Failed, st.Completed)
	}
}
