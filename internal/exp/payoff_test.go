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
	"bbrnash/internal/units"
)

// fluidTable is a small PayoffTable on the fluid backend: one 40 ms class
// choosing between algs (default bbr and cubic) at 50 Mbps with a 3 BDP
// buffer, each profile a two-minute run (milliseconds of wall time).
func fluidTable(env Env, pool *runner.Pool, algs ...string) *PayoffTable {
	if algs == nil {
		algs = []string{"bbr", "cubic"}
	}
	rtt := 40 * time.Millisecond
	return &PayoffTable{
		Base:       PayoffBase(50*units.Mbps, units.BufferBytes(50*units.Mbps, rtt, 3), 0, scenario.BackendFluid),
		RTTs:       []time.Duration{rtt},
		Algorithms: algs,
		Seed:       func(k [][]int) uint64 { return ProfileSeed(1, xFlows(k)) },
		Utility:    ThroughputUtility,
		Env:        env,
		Pool:       pool,
	}
}

// checkCounts fails unless tab has counted sims simulations and hits cache
// hits.
func checkCounts(t *testing.T, where string, tab *PayoffTable, sims, hits int) {
	t.Helper()
	if tab.Simulations() != sims || tab.CacheHits() != hits {
		t.Errorf("%s: %d simulations, %d cache hits; want %d, %d", where, tab.Simulations(), tab.CacheHits(), sims, hits)
	}
}

// A table's specs are the ones the NE searches built before it: a
// one-class table compiles a profile to scenario.Mix's spec, and a
// multi-class one to two spec groups per RTT group, X before CUBIC, empty
// or not. So every canonical key, and with it every cache entry, journal
// record and golden, stays what it was; the literals are the keys the
// mix and group run configs compiled these profiles to.
func TestPayoffTableSpecKeys(t *testing.T) {
	ms := time.Millisecond
	capacity, buffer, dur := 50*units.Mbps, units.BufferBytes(50*units.Mbps, 40*ms, 3), 2*time.Minute
	one := &PayoffTable{
		Base:       PayoffBase(capacity, buffer, dur, scenario.BackendFluid),
		RTTs:       []time.Duration{40 * ms},
		Algorithms: []string{"bbr", "cubic"},
		Seed:       func(k [][]int) uint64 { return uint64(7 + k[0][0]) },
	}
	oneKeys := []string{
		"scenario|v5|bk=fluid|mss=0x1.6dp+10|aj=1000000|sj=10000000|dur=120000000000|seed=7|tp=bottleneck:0x1.7d784p+25:0x1.6e36p+19:0x0p+00:0x0p+00:0:0x0p+00:0:0:0x0p+00:0x0p+00|g=bbr:0:40000000:0:bottleneck,cubic:4:40000000:0:bottleneck",
		"scenario|v5|bk=fluid|mss=0x1.6dp+10|aj=1000000|sj=10000000|dur=120000000000|seed=8|tp=bottleneck:0x1.7d784p+25:0x1.6e36p+19:0x0p+00:0x0p+00:0:0x0p+00:0:0:0x0p+00:0x0p+00|g=bbr:1:40000000:0:bottleneck,cubic:3:40000000:0:bottleneck",
		"scenario|v5|bk=fluid|mss=0x1.6dp+10|aj=1000000|sj=10000000|dur=120000000000|seed=9|tp=bottleneck:0x1.7d784p+25:0x1.6e36p+19:0x0p+00:0x0p+00:0:0x0p+00:0:0:0x0p+00:0x0p+00|g=bbr:2:40000000:0:bottleneck,cubic:2:40000000:0:bottleneck",
		"scenario|v5|bk=fluid|mss=0x1.6dp+10|aj=1000000|sj=10000000|dur=120000000000|seed=10|tp=bottleneck:0x1.7d784p+25:0x1.6e36p+19:0x0p+00:0x0p+00:0:0x0p+00:0:0:0x0p+00:0x0p+00|g=bbr:3:40000000:0:bottleneck,cubic:1:40000000:0:bottleneck",
		"scenario|v5|bk=fluid|mss=0x1.6dp+10|aj=1000000|sj=10000000|dur=120000000000|seed=11|tp=bottleneck:0x1.7d784p+25:0x1.6e36p+19:0x0p+00:0x0p+00:0:0x0p+00:0:0:0x0p+00:0x0p+00|g=bbr:4:40000000:0:bottleneck,cubic:0:40000000:0:bottleneck",
	}
	for x, want := range oneKeys {
		if got := one.Spec([][]int{{x, 4 - x}}).Key(); got != want {
			t.Errorf("x = %d: key %q, want %q", x, got, want)
		}
		mix := scenario.Mix("bbr", x, 4-x, capacity, buffer, 40*ms, dur)
		mix.Seed, mix.Backend = uint64(7+x), scenario.BackendFluid
		if got := mix.Key(); got != want {
			t.Errorf("x = %d: scenario.Mix key %q, want %q", x, got, want)
		}
	}
	rtts, sizes := []time.Duration{10 * ms, 50 * ms}, []int{3, 2}
	multi := &PayoffTable{
		Base:       PayoffBase(capacity, buffer, dur, ""),
		RTTs:       rtts,
		Algorithms: []string{"bbr", "cubic"},
		Seed:       func(k [][]int) uint64 { return ProfileSeed(3, xFlows(k)) },
	}
	multiKeys := map[[2]int]string{
		{0, 0}: "scenario|v5|bk=packet|mss=0x1.6dp+10|aj=1000000|sj=10000000|dur=120000000000|seed=9097939042413224245|tp=bottleneck:0x1.7d784p+25:0x1.6e36p+19:0x0p+00:0x0p+00:0:0x0p+00:0:0:0x0p+00:0x0p+00|g=bbr:0:10000000:0:bottleneck,cubic:3:10000000:0:bottleneck,bbr:0:50000000:0:bottleneck,cubic:2:50000000:0:bottleneck",
		{1, 2}: "scenario|v5|bk=packet|mss=0x1.6dp+10|aj=1000000|sj=10000000|dur=120000000000|seed=6307748549592401151|tp=bottleneck:0x1.7d784p+25:0x1.6e36p+19:0x0p+00:0x0p+00:0:0x0p+00:0:0:0x0p+00:0x0p+00|g=bbr:1:10000000:0:bottleneck,cubic:2:10000000:0:bottleneck,bbr:2:50000000:0:bottleneck,cubic:0:50000000:0:bottleneck",
		{3, 1}: "scenario|v5|bk=packet|mss=0x1.6dp+10|aj=1000000|sj=10000000|dur=120000000000|seed=8102748733016952124|tp=bottleneck:0x1.7d784p+25:0x1.6e36p+19:0x0p+00:0x0p+00:0:0x0p+00:0:0:0x0p+00:0x0p+00|g=bbr:3:10000000:0:bottleneck,cubic:0:10000000:0:bottleneck,bbr:1:50000000:0:bottleneck,cubic:1:50000000:0:bottleneck",
	}
	for x, want := range multiKeys {
		if got := multi.Spec(choiceProfile(sizes, x[:])).Key(); got != want {
			t.Errorf("x = %v: key %q, want %q", x, got, want)
		}
	}
}

// The counting rule, on a cold and then on a warm cache. A lookup counts
// once, as Run reports it; a prefetch uses nothing, so the first use of a
// prefetched profile counts nothing; each later use counts a hit. A
// profile the table lacks is looked up when it is first read. The pool
// runs one unit per lookup, and a payoff is the utility of the group's
// mean per-flow rate (0 for an empty group).
func TestPayoffTableCounts(t *testing.T) {
	ctx := context.Background()
	cache := runner.NewCache()
	a, b, c, empty := [][]int{{1, 3}}, [][]int{{2, 2}}, [][]int{{3, 1}}, [][]int{{0, 4}}
	for _, warm := range []bool{false, true} {
		where := map[bool]string{false: "cold", true: "warm"}[warm]
		// lookups counts n lookups: simulations when cold, hits when warm.
		lookups := func(n int) (sims, hits int) {
			if warm {
				return 0, n
			}
			return n, 0
		}
		pool := runner.NewPool(2)
		tab := fluidTable(Env{Cache: cache}, pool)
		if err := tab.Prefetch(ctx, [][][]int{a, b, a, empty}); err != nil {
			t.Fatal(err)
		}
		sims, hits := lookups(3)
		checkCounts(t, where+" prefetch", tab, sims, hits)
		if err := tab.Prefetch(ctx, [][][]int{a}); err != nil {
			t.Fatal(err)
		}
		checkCounts(t, where+" prefetch of a held profile", tab, sims, hits)

		pays, err := tab.Use(ctx, [][][]int{a, empty})
		if err != nil {
			t.Fatal(err)
		}
		checkCounts(t, where+" first use", tab, sims, hits)
		res, _, err := Run(ctx, tab.Spec(a), Env{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if x, c := meanRate(res, 0), meanRate(res, 1); pays[0][0][0] != float64(x) || pays[0][0][1] != float64(c) {
			t.Errorf("%s: payoffs %v, want the per-flow rates %v and %v", where, pays[0][0], x, c)
		}
		if pays[1][0][0] != 0 {
			t.Errorf("%s: an empty group's payoff is %v, want 0", where, pays[1][0][0])
		}
		if _, err := tab.Use(ctx, [][][]int{a, a}); err != nil {
			t.Fatal(err)
		}
		hits += 2
		checkCounts(t, where+" second and third use", tab, sims, hits)

		g := tab.Game(ctx, []int{4})
		for s := range 2 {
			if _, err := g.Payoff(0, s, b); err != nil {
				t.Fatal(err)
			}
		}
		hits++
		checkCounts(t, where+" game reads of a prefetched profile", tab, sims, hits)
		for s := range 2 {
			if _, err := g.Payoff(0, s, c); err != nil {
				t.Fatal(err)
			}
		}
		ls, lh := lookups(1)
		sims, hits = sims+ls, hits+lh+1
		checkCounts(t, where+" game reads of a new profile", tab, sims, hits)
		if got := pool.Jobs(); got != 4 {
			t.Errorf("%s: the pool ran %d units for 4 lookups", where, got)
		}
	}
}

// A re-read is the table's alone: it moves neither the cache's counters
// nor the pool's job count.
func TestPayoffTableRereadSkipsCacheAndPool(t *testing.T) {
	ctx := context.Background()
	cache, pool := runner.NewCache(), runner.NewPool(2)
	tab := fluidTable(Env{Cache: cache}, pool)
	a := [][]int{{1, 3}}
	if _, err := tab.Use(ctx, [][][]int{a}); err != nil {
		t.Fatal(err)
	}
	hits, misses, jobs := cache.Hits(), cache.Misses(), pool.Jobs()
	if _, err := tab.Use(ctx, [][][]int{a, a}); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Game(ctx, []int{4}).Payoff(0, 1, a); err != nil {
		t.Fatal(err)
	}
	checkCounts(t, "re-reads", tab, 1, 3)
	if cache.Hits() != hits || cache.Misses() != misses || pool.Jobs() != jobs {
		t.Errorf("re-reads moved the cache to %d hits, %d misses and the pool to %d jobs (from %d, %d, %d)",
			cache.Hits(), cache.Misses(), pool.Jobs(), hits, misses, jobs)
	}
}

// A failed lookup returns its *runner.UnitError, counts nothing and stores
// nothing, so the next read of the profile looks it up again: the fluid
// backend has no model for copa.
func TestPayoffTableFailedLookup(t *testing.T) {
	ctx := context.Background()
	cache := runner.NewCache()
	tab := fluidTable(Env{Cache: cache}, runner.NewPool(1), "copa", "cubic")
	k := [][]int{{1, 3}}
	reads := map[string]func() error{
		"Prefetch": func() error { return tab.Prefetch(ctx, [][][]int{k}) },
		"Use":      func() error { _, err := tab.Use(ctx, [][][]int{k}); return err },
		"Game": func() error {
			_, err := tab.Game(ctx, []int{4}).Payoff(0, 0, k)
			return err
		},
	}
	misses := int64(0)
	for _, name := range []string{"Prefetch", "Use", "Game"} {
		err := reads[name]()
		var ue *runner.UnitError
		if !errors.As(err, &ue) || !strings.Contains(ue.Key, "|g=copa:") {
			t.Errorf("%s: err = %v, want the *runner.UnitError of the copa profile", name, err)
		}
		misses++
		if got := cache.Misses(); got != misses {
			t.Errorf("%s: %d cache lookups, want %d: the failed profile was not looked up again", name, got, misses)
		}
		checkCounts(t, name, tab, 0, 0)
	}
}

// With Env.Audit set, a profile whose cached result fails the audit
// records its verdict once per count: at its lookup, a cache hit on the
// bad result, and at every use after the first. The first use and a
// prefetch of the held profile record nothing.
func TestPayoffTableAuditsOncePerCount(t *testing.T) {
	ctx := context.Background()
	k := [][]int{{2, 2}}
	sp := fluidTable(Env{}, nil).Spec(k)
	bad, _, err := Run(ctx, sp, Env{})
	if err != nil {
		t.Fatal(err)
	}
	bad.Link.Utilization = 2
	bad.Links[0].Utilization = 2
	ref, refCache := check.New(), runner.NewCache()
	refCache.Put(sp.Key(), bad)
	if _, _, err := Run(ctx, sp, Env{Cache: refCache, Audit: ref}); err != nil {
		t.Fatal(err)
	}
	verdict := ref.Violations()
	if len(verdict) == 0 {
		t.Fatal("the seeded result passes the audit")
	}

	cache, audit := runner.NewCache(), check.New()
	cache.Put(sp.Key(), bad)
	tab := fluidTable(Env{Cache: cache, Audit: audit}, nil)
	g := tab.Game(ctx, []int{4})
	steps := []struct {
		name   string
		read   func() error
		counts int
	}{
		{"prefetch", func() error { return tab.Prefetch(ctx, [][][]int{k}) }, 1},
		{"prefetch again", func() error { return tab.Prefetch(ctx, [][][]int{k}) }, 1},
		{"first use", func() error { _, err := tab.Use(ctx, [][][]int{k}); return err }, 1},
		{"second use", func() error { _, err := tab.Use(ctx, [][][]int{k}); return err }, 2},
		{"game read", func() error { _, err := g.Payoff(0, 1, k); return err }, 3},
	}
	for _, st := range steps {
		if err := st.read(); err != nil {
			t.Fatal(err)
		}
		checkCounts(t, st.name, tab, 0, st.counts)
		if got := audit.Len(); got != st.counts*len(verdict) {
			t.Errorf("%s: %d violations after %d counts of a %d-violation verdict", st.name, got, st.counts, len(verdict))
		}
	}
	for i, v := range audit.Violations() {
		if want := verdict[i%len(verdict)]; v != want {
			t.Errorf("violation %d = %+v, want %+v", i, v, want)
		}
	}
}
