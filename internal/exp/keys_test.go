package exp

import (
	"errors"
	"strings"
	"testing"

	"bbrnash/internal/check"
	"bbrnash/internal/netsim"
	"bbrnash/internal/runner"
	"bbrnash/internal/scenario"
)

// TestCanonicalKeyUnifiesCacheAuditAndErrors is the one-identity contract:
// the cache entry, the audit record and the unit-failure report of a run
// all carry the byte-identical canonical key of its scenario.Spec.
func TestCanonicalKeyUnifiesCacheAuditAndErrors(t *testing.T) {
	const seed = 9
	keyFor := func(sp scenario.Spec) string {
		sp.Seed = trialSeeds(seed, 1)[0] // the seed Sweep assigns to trial 0
		return sp.Key()
	}

	sp := smokeSpec()
	key := keyFor(sp)
	if !strings.HasPrefix(key, scenario.KeyPrefix) {
		t.Fatalf("key %q lacks prefix %q", key, scenario.KeyPrefix)
	}

	// Cache and audit: poison the cache under the derived key with a
	// physically impossible result. The sweep must replay it (proving the
	// cache lookup uses this exact key) and the auditor must flag it under
	// the same key (proving the audit does too).
	s := testScale()
	s.Trials = 1
	s.Cache = runner.NewCache()
	s.Audit = check.New()
	s.Cache.Put(key, SpecResult{
		Groups: [][]netsim.FlowStats{{{Name: "g0.bbr0", Throughput: -1}}, {}},
	})
	if _, err := s.Sweep(seed, 1, func(int) scenario.Spec { return sp }); err != nil {
		t.Fatal(err)
	}
	if s.Cache.Hits() == 0 {
		t.Error("poisoned entry not replayed: cache key differs from the spec key")
	}
	vs := s.Audit.Violations()
	if len(vs) == 0 {
		t.Fatal("negative cached throughput not flagged by the audit")
	}
	for _, v := range vs {
		if v.Key != key {
			t.Errorf("audit key %q != cache key %q", v.Key, key)
		}
	}

	// Failure reports: a failing unit's *runner.UnitError names the same
	// canonical key.
	bad := sp
	bad.Duration = 0
	s2 := testScale()
	s2.Trials = 1
	_, err := s2.Sweep(seed, 1, func(int) scenario.Spec { return bad })
	var ue *runner.UnitError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want *runner.UnitError", err)
	}
	if want := keyFor(bad); ue.Key != want {
		t.Errorf("UnitError.Key = %q, want %q", ue.Key, want)
	}
}
