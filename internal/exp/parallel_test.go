package exp

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"bbrnash/internal/runner"
	"bbrnash/internal/scenario"
	"bbrnash/internal/units"
)

// testScale is a cut-down scale for determinism tests: short flows keep
// the cost low, two trials and two sweep points still exercise the
// point×trial fan-out.
func testScale() Scale {
	return Scale{Name: "test", FlowDuration: 8 * time.Second, Trials: 2, SweepPoints: 2}
}

// fig1CSV renders Fig1's charts at the given scale to CSV bytes.
func fig1CSV(t *testing.T, s Scale) []byte {
	t.Helper()
	res, err := Fig1(s)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, c := range res.Charts {
		if err := c.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestFigureDeterministicAcrossWorkers is the parallelism contract: a
// figure generated with 1 worker and with 8 workers has byte-identical
// CSV output (same seeds, same ordering), and replaying from a warm
// cache changes nothing either.
func TestFigureDeterministicAcrossWorkers(t *testing.T) {
	serial := testScale()
	serial.Pool = runner.NewPool(1)
	serial.Cache = runner.NewCache()

	parallel := testScale()
	parallel.Pool = runner.NewPool(8)
	parallel.Cache = runner.NewCache()

	a := fig1CSV(t, serial)
	b := fig1CSV(t, parallel)
	if !bytes.Equal(a, b) {
		t.Fatalf("worker count changed figure output:\n1 worker:\n%s\n8 workers:\n%s", a, b)
	}

	hits0 := parallel.Cache.Hits()
	c := fig1CSV(t, parallel)
	if !bytes.Equal(a, c) {
		t.Fatalf("cache replay changed figure output:\nfresh:\n%s\ncached:\n%s", a, c)
	}
	if parallel.Cache.Hits() == hits0 {
		t.Error("second generation did not hit the warm cache")
	}
}

// TestSweepMixUncachedMatchesCached: the cache is an optimization, never
// an approximation — results with and without it are identical.
func TestSweepMixUncachedMatchesCached(t *testing.T) {
	cached := testScale()
	cached.Pool = runner.NewPool(4)
	cached.Cache = runner.NewCache()
	uncached := testScale()

	sp := smokeSpec()
	sp.Groups[0].Count = 2
	specAt := func(int) scenario.Spec { return sp }
	a, err := cached.Sweep(9, 1, specAt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := uncached.Sweep(9, 1, specAt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("cache/pool changed results: %+v vs %+v", a, b)
	}
}

// TestFindNEExhaustiveCacheHits: an exhaustive NE search revisits the
// same distributions when the game probes payoffs, so its payoff table
// must report nonzero hits, and an identical second search must be served
// entirely from the shared cache.
func TestFindNEExhaustiveCacheHits(t *testing.T) {
	cfg := NESearchConfig{
		Capacity:   50 * units.Mbps,
		Buffer:     units.BufferBytes(50*units.Mbps, 40*time.Millisecond, 3),
		RTT:        40 * time.Millisecond,
		N:          3,
		Duration:   8 * time.Second,
		Seed:       11,
		Exhaustive: true,
		Pool:       runner.NewPool(4),
		Cache:      runner.NewCache(),
	}
	first, err := FindNE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Simulations != cfg.N+1 {
		t.Errorf("exhaustive search ran %d sims, want %d", first.Simulations, cfg.N+1)
	}
	if first.CacheHits == 0 {
		t.Error("exhaustive search reported no cache hits despite repeated distributions")
	}

	second, err := FindNE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.Simulations != 0 {
		t.Errorf("repeat search re-simulated %d scenarios", second.Simulations)
	}
	if len(first.EquilibriaX) != len(second.EquilibriaX) {
		t.Fatalf("cache changed equilibria: %v vs %v", first.EquilibriaX, second.EquilibriaX)
	}
	for i := range first.EquilibriaX {
		if first.EquilibriaX[i] != second.EquilibriaX[i] {
			t.Fatalf("cache changed equilibria: %v vs %v", first.EquilibriaX, second.EquilibriaX)
		}
	}
}
