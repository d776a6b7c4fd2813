package exp

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

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
