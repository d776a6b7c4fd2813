package exp

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"bbrnash/internal/game"
	"bbrnash/internal/runner"
	"bbrnash/internal/units"
)

// fluidNE is a cheap NE search config: payoff simulations run on the fluid
// backend (a 2-minute payoff sim costs ~20 ms of wall time there).
func fluidNE(n int, seed uint64) NESearchConfig {
	return NESearchConfig{
		Capacity: 50 * units.Mbps,
		Buffer:   units.BufferBytes(50*units.Mbps, 40*time.Millisecond, 3),
		RTT:      40 * time.Millisecond,
		N:        n,
		Duration: 2 * time.Minute,
		Seed:     seed,
		Backend:  "fluid",
	}
}

// lineNE is the one-class CUBIC-or-X game of n flows whose X and CUBIC
// payoffs with k X flows are x(k) and c(k).
func lineNE(n int, x, c func(k int) float64) *game.Symmetric {
	return &game.Symmetric{
		Sizes:      []int{n},
		Strategies: 2,
		Payoff: func(_, s int, k [][]int) (float64, error) {
			if s == 0 {
				return x(k[0][0]), nil
			}
			return c(k[0][0]), nil
		},
	}
}

// The walk core must surface the walk's non-convergence instead of
// discarding it (the pre-fix code dropped the ok return and reported the
// stopping point's ±2 neighbourhood as the answer). With memoized payoffs
// the binary line-walk cannot genuinely cycle — an up-move from k and a
// down-move to k would need contradictory comparisons — so the reachable
// non-convergence arm is step-budget exhaustion; cycling payoff functions
// themselves are covered by internal/game's walk tests.
func TestWalkNeighborhoodSurfacesNonConvergence(t *testing.T) {
	noBatch := func([]int) error { return nil }
	g := lineNE(50, func(k int) float64 { return 100 }, // always switch to X
		func(k int) float64 { return 0 })
	ks, converged, err := walkNeighborhood(g, 0, 0, 5, noBatch)
	if err != nil {
		t.Fatal(err)
	}
	if converged {
		t.Fatal("a walk cut off after 5 of 50 required steps claimed convergence")
	}
	// The ±2 neighbourhood of the stopping point (k=5) holds no
	// equilibrium: a non-converged walk must not smuggle one in.
	if len(ks) != 0 {
		t.Errorf("non-converged walk reported equilibria %v", ks)
	}

	// A walk that does reach the equilibrium reports convergence.
	g2 := lineNE(10, func(k int) float64 { return 40 / float64(k) },
		func(k int) float64 { return 60 / float64(10-k+1) })
	ks, converged, err = walkNeighborhood(g2, 5, 0, 30, noBatch)
	if err != nil {
		t.Fatal(err)
	}
	if !converged {
		t.Fatal("converging walk reported non-convergence")
	}
	if len(ks) == 0 {
		t.Error("converged walk found no equilibria in its neighbourhood")
	}
}

// Both search modes of a healthy FindNE must report Converged.
func TestFindNEReportsConverged(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, exhaustive := range []bool{false, true} {
		cfg := fluidNE(4, 7)
		cfg.Exhaustive = exhaustive
		res, err := FindNE(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Errorf("exhaustive=%v: search did not report convergence", exhaustive)
		}
		if len(res.EquilibriaX) == 0 {
			t.Errorf("exhaustive=%v: no equilibria found", exhaustive)
		}
	}
}

// CacheHits must be attributed per-search. Pre-fix it was a delta of the
// cache's global hit counter, so concurrent searches sharing one cache
// counted each other's hits. An exhaustive FindNE looks each of the N+1
// distributions up once, building its payoff table in one batch, and the
// equilibrium enumeration then uses 2N table entries (payoffX at 1..N,
// payoffCubic at 0..N−1, one use per fresh game-memo entry), N+1 of them
// first uses. So a cold search counts N+1 simulations and N−1 hits, and a
// search over a fully warmed cache N+1 + N−1 = 2N hits, whatever its
// neighbours do.
func TestFindNECacheHitsPerSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const n = 4
	cache := runner.NewCache()
	cfg := fluidNE(n, 11)
	cfg.Exhaustive = true
	cfg.Cache = cache

	warm, err := FindNE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Simulations != n+1 {
		t.Fatalf("warm-up ran %d simulations, want %d", warm.Simulations, n+1)
	}
	// The warm-up itself re-uses table entries during enumeration.
	if warm.CacheHits != n-1 {
		t.Fatalf("warm-up CacheHits = %d, want %d", warm.CacheHits, n-1)
	}

	const searchers = 4
	var wg sync.WaitGroup
	results := make([]NESearchResult, searchers)
	errs := make([]error, searchers)
	start := make(chan struct{})
	for i := 0; i < searchers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = FindNE(cfg)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < searchers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i].Simulations != 0 {
			t.Errorf("search %d re-simulated %d warmed distributions", i, results[i].Simulations)
		}
		if results[i].CacheHits != 2*n {
			t.Errorf("search %d CacheHits = %d, want %d (cross-search attribution)",
				i, results[i].CacheHits, 2*n)
		}
	}
}

// A malformed NE shape must fail with an error before any payoff lookup,
// in walk and exhaustive mode alike. FindNE with N = -2 used to panic in
// trialSeeds, and its walk took N = -1 or 0 to an empty or one-point
// "equilibrium" with err == nil. FindGroupNE's walk panicked on fewer RTTs
// than sizes or on a negative size, and answered [[]] or [[0]] with
// err == nil for empty or all-zero sizes, where the exhaustive scan
// errored.
func TestNEShapeErrors(t *testing.T) {
	// run calls search, turning a panic into a test failure, and requires
	// an error and no pool job.
	run := func(name string, search func(pool *runner.Pool) (any, error)) {
		t.Helper()
		pool := runner.NewPool(1)
		var res any
		var err error
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", name, r)
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			res, err = search(pool)
		}()
		if err == nil {
			t.Errorf("%s: returned %+v and no error", name, res)
		}
		if jobs := pool.Jobs(); jobs != 0 {
			t.Errorf("%s: ran %d payoff lookups before failing", name, jobs)
		}
	}
	ms := time.Millisecond
	groups := []struct {
		name  string
		sizes []int
		rtts  []time.Duration
	}{
		{"fewer RTTs than sizes", []int{3, 3}, []time.Duration{10 * ms}},
		{"more RTTs than sizes", []int{3}, []time.Duration{10 * ms, 50 * ms}},
		{"negative size", []int{3, -1}, []time.Duration{10 * ms, 50 * ms}},
		{"no groups", nil, nil},
		{"all-zero sizes", []int{0, 0}, []time.Duration{10 * ms, 50 * ms}},
	}
	for _, exhaustive := range []bool{false, true} {
		mode := "walk"
		if exhaustive {
			mode = "exhaustive"
		}
		for _, n := range []int{-2, -1, 0} {
			run(fmt.Sprintf("%s FindNE N=%d", mode, n), func(pool *runner.Pool) (any, error) {
				cfg := fluidNE(n, 1)
				cfg.Exhaustive, cfg.Pool = exhaustive, pool
				return FindNE(cfg)
			})
		}
		for _, g := range groups {
			run(fmt.Sprintf("%s FindGroupNE %s", mode, g.name), func(pool *runner.Pool) (any, error) {
				return FindGroupNE(GroupNEConfig{
					Capacity:   50 * units.Mbps,
					Buffer:     units.BufferBytes(50*units.Mbps, 10*ms, 10),
					RTTs:       g.rtts,
					Sizes:      g.sizes,
					Duration:   2 * time.Minute,
					Seed:       3,
					Backend:    "fluid",
					Exhaustive: exhaustive,
					Pool:       pool,
				})
			})
		}
	}
}

// A failed payoff lookup ends a search with the lookup's error. Every
// lookup of a profile with an X flow fails below, since the fluid backend
// has no model for "nope", and with one worker runner.MapCtx stops a batch
// at its first failure. So a walk's first lookup must be its last, and an
// exhaustive scan's second, after the all-CUBIC profile that heads its
// table: no cache lookup may follow the batch that failed. When a failed
// lookup read as zero payoffs, the walks went on: FindNE's (N = 8) made 9
// cache lookups, FindGroupNE's 8.
func TestFailedPayoffStopsSearch(t *testing.T) {
	for _, exhaustive := range []bool{false, true} {
		for name, search := range map[string]func(*runner.Pool, *runner.Cache) error{
			"FindNE": func(pool *runner.Pool, cache *runner.Cache) error {
				cfg := fluidNE(8, 3)
				cfg.X, cfg.Exhaustive, cfg.Pool, cfg.Cache = "nope", exhaustive, pool, cache
				_, err := FindNE(cfg)
				return err
			},
			"FindGroupNE": func(pool *runner.Pool, cache *runner.Cache) error {
				_, err := FindGroupNE(GroupNEConfig{
					Capacity:   50 * units.Mbps,
					Buffer:     units.BufferBytes(50*units.Mbps, 10*time.Millisecond, 10),
					RTTs:       []time.Duration{10 * time.Millisecond, 50 * time.Millisecond},
					Sizes:      []int{3, 3},
					Duration:   2 * time.Minute,
					Seed:       3,
					X:          "nope",
					Backend:    "fluid",
					Exhaustive: exhaustive,
					Pool:       pool,
					Cache:      cache,
				})
				return err
			},
		} {
			name := fmt.Sprintf("%s exhaustive=%v", name, exhaustive)
			cache := runner.NewCache()
			err := search(runner.NewPool(1), cache)
			var ue *runner.UnitError
			if !errors.As(err, &ue) || !strings.Contains(ue.Key, "|g=nope:") {
				t.Errorf("%s: err = %v, want the *runner.UnitError of a lookup with X nope", name, err)
			}
			want := int64(1)
			if exhaustive {
				want = 2
			}
			if got := cache.Misses(); got != want {
				t.Errorf("%s: %d cache lookups, want %d: lookups followed the failed one", name, got, want)
			}
		}
	}
}
