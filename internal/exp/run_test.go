package exp

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"bbrnash/internal/check"
	"bbrnash/internal/runner"
	"bbrnash/internal/scenario"
	"bbrnash/internal/units"
)

// TestRunContract pins what every caller of Run relies on, on both
// backends: a failing spec comes back as a *runner.UnitError naming its key
// and leaves the cache and the journal empty; a fresh run misses and a
// repeat hits with an equal result, once the journal holds the key; and
// the zero Env runs the spec bare to the same result.
func TestRunContract(t *testing.T) {
	capacity, rtt := 20*units.Mbps, 20*time.Millisecond
	for _, backend := range scenario.Backends() {
		t.Run(backend, func(t *testing.T) {
			sp := scenario.Mix("bbr", 1, 1, capacity, units.BufferBytes(capacity, rtt, 2), rtt, 2*time.Second)
			sp.Seed = 5
			sp.Backend = backend
			journal, err := runner.OpenJournal(filepath.Join(t.TempDir(), "journal.jsonl"), scenario.KeyVersion)
			if err != nil {
				t.Fatal(err)
			}
			defer journal.Close()
			env := Env{Cache: runner.NewCache(), Journal: journal}

			bad := sp
			bad.Duration = 0
			_, hit, err := Run(t.Context(), bad, env)
			var ue *runner.UnitError
			if !errors.As(err, &ue) || ue.Key != bad.Key() || hit {
				t.Fatalf("zero-duration run: hit=%v err=%v, want a *runner.UnitError with key %q", hit, err, bad.Key())
			}
			if env.Cache.Len() != 0 || journal.Len() != 0 {
				t.Fatalf("a failed run stored a result: %d cache entries, %d journal records", env.Cache.Len(), journal.Len())
			}

			first, hit, err := Run(t.Context(), sp, env)
			if err != nil || hit {
				t.Fatalf("fresh run: hit=%v err=%v", hit, err)
			}
			again, hit, err := Run(t.Context(), sp, env)
			if err != nil || !hit {
				t.Fatalf("repeat run: hit=%v err=%v", hit, err)
			}
			if !reflect.DeepEqual(again, first) {
				t.Errorf("replayed result differs from the fresh run:\n%+v\nvs\n%+v", again, first)
			}
			if !journal.Has(sp.Key()) {
				t.Error("the journal does not hold the run's key")
			}

			bare, hit, err := Run(t.Context(), sp, Env{})
			if err != nil || hit {
				t.Fatalf("bare run: hit=%v err=%v", hit, err)
			}
			if !reflect.DeepEqual(bare, first) {
				t.Errorf("bare run differs from the stored run:\n%+v\nvs\n%+v", bare, first)
			}
		})
	}
}

// With Env.Audit set, Run stores only a result that passes its audit. A
// bad result replayed from the journal is returned, flagged and not
// promoted into the cache; one replayed from the cache is returned,
// flagged and not copied into the journal. Either would otherwise answer
// every later run of the key without meeting the audit again. Without an
// auditor the journal hit is promoted as before.
func TestRunStoresOnlyAuditedResults(t *testing.T) {
	capacity, rtt := 20*units.Mbps, 20*time.Millisecond
	sp := scenario.Mix("bbr", 1, 1, capacity, units.BufferBytes(capacity, rtt, 2), rtt, 2*time.Second)
	sp.Backend = scenario.BackendFluid
	key := sp.Key()
	bad, _, err := Run(t.Context(), sp, Env{})
	if err != nil {
		t.Fatal(err)
	}
	bad.Link.Utilization = 2
	bad.Links[0].Utilization = 2
	openJournal := func(t *testing.T) *runner.Journal {
		j, err := runner.OpenJournal(filepath.Join(t.TempDir(), "journal.jsonl"), scenario.KeyVersion)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { j.Close() })
		return j
	}
	// replay runs sp twice through env, requiring each run to replay bad
	// and the auditor, if any, to flag it.
	replay := func(t *testing.T, env Env) {
		t.Helper()
		for i := range 2 {
			res, hit, err := Run(t.Context(), sp, env)
			if err != nil || !hit || !reflect.DeepEqual(res, bad) {
				t.Fatalf("run %d: hit=%v err=%v, want the stored result replayed", i+1, hit, err)
			}
		}
		if env.Audit.Enabled() && env.Audit.Len() == 0 {
			t.Fatal("the stored result passed the audit")
		}
	}

	t.Run("journal", func(t *testing.T) {
		journal := openJournal(t)
		if err := journal.Record(key, bad); err != nil {
			t.Fatal(err)
		}
		env := Env{Cache: runner.NewCache(), Journal: journal, Audit: check.New()}
		replay(t, env)
		if env.Cache.Len() != 0 {
			t.Error("a journaled result that failed its audit was promoted into the cache")
		}
		env.Audit = nil
		replay(t, env)
		if env.Cache.Len() != 1 {
			t.Error("an unaudited journal hit was not promoted into the cache")
		}
	})
	t.Run("cache", func(t *testing.T) {
		journal := openJournal(t)
		env := Env{Cache: runner.NewCache(), Journal: journal, Audit: check.New()}
		env.Cache.Put(key, bad)
		replay(t, env)
		if journal.Len() != 0 || journal.Has(key) {
			t.Error("a cached result that failed its audit was copied into the journal")
		}
	})
}
