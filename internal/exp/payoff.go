package exp

import (
	"context"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"bbrnash/internal/check"
	"bbrnash/internal/game"
	"bbrnash/internal/runner"
	"bbrnash/internal/scenario"
	"bbrnash/internal/units"
)

// PayoffTable is the payoff table of a game played on simulations (§4),
// one per NE search or adoption run: the one place that turns a count
// profile k into a spec (see Spec), runs it through Run on Pool and counts
// it. The counts fix the spec, so the table keys a profile by its counts
// (uvarints, class-major), and a re-read never reaches Env's stores or
// the pool. The payoff for (c, s) is Utility of spec group
// c·len(Algorithms)+s's mean per-flow rate and the link's mean queueing
// delay, 0 for an empty group.
//
// A lookup counts once, as Run reports it (a Simulation when the run was
// fresh, a CacheHit when Env's cache or journal served it), and passes its
// audit verdict to Env.Audit. Each use of an entry after its first counts
// one more CacheHit and replays that verdict. So the first use of a
// prefetched profile counts nothing, as if that use had looked it up. A
// failed lookup counts and stores nothing. Prefetch's units run
// concurrently; the methods are called from one goroutine at a time.
type PayoffTable struct {
	Base       scenario.Spec // all but a profile's groups and seed
	RTTs       []time.Duration
	Algorithms []string
	Seed       func(k [][]int) uint64 // a pure function of the counts
	Utility    UtilityFunc
	Env        Env
	Pool       *runner.Pool // nil runs lookups serially

	sims, hits atomic.Int64
	mu         sync.Mutex
	entries    map[string]*payoffEntry
}

// payoffEntry is one profile's payoffs, pay[c][s], the violations its
// lookup's audit recorded, and whether it has been used.
type payoffEntry struct {
	pay     [][]float64
	verdict []check.Violation
	used    bool
}

// tableKey appends profile k's table key to dst: its counts,
// class-major, as uvarints.
func tableKey(dst []byte, k [][]int) []byte {
	for _, row := range k {
		for _, v := range row {
			dst = binary.AppendUvarint(dst, uint64(v))
		}
	}
	return dst
}

// Spec compiles profile k to Base with spec group c·len(Algorithms)+s
// holding k[c][s] flows of Algorithms[s] at RTTs[c], empty or not, and
// Seed(k) as the seed.
func (t *PayoffTable) Spec(k [][]int) scenario.Spec {
	sp := t.Base
	sp.Groups = make([]scenario.Group, 0, len(k)*len(t.Algorithms))
	for c, row := range k {
		for s, n := range row {
			sp.Groups = append(sp.Groups, scenario.Group{Algorithm: t.Algorithms[s], Count: n, RTT: t.RTTs[c]})
		}
	}
	sp.Seed = t.Seed(k)
	return sp
}

// Prefetch looks up the profiles of ks the table lacks as one
// runner.MapCtx batch, and uses nothing. It returns the batch's error.
func (t *PayoffTable) Prefetch(ctx context.Context, ks [][][]int) error {
	var todo [][][]int
	seen := make(map[string]bool, len(ks))
	t.mu.Lock()
	for _, k := range ks {
		key := string(tableKey(nil, k))
		if _, ok := t.entries[key]; !ok && !seen[key] {
			seen[key] = true
			todo = append(todo, k)
		}
	}
	t.mu.Unlock()
	_, err := runner.MapCtx(ctx, t.Pool, len(todo), func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, t.lookup(ctx, todo[i])
	})
	return err
}

// lookup runs profile k through Run and stores its entry, unused. It
// audits into an auditor of its own, so that the entry can keep the
// verdict, and passes the verdict to Env.Audit whatever the outcome.
func (t *PayoffTable) lookup(ctx context.Context, k [][]int) error {
	env := t.Env
	if env.Audit.Enabled() {
		env.Audit = check.New()
	}
	res, hit, err := Run(ctx, t.Spec(k), env)
	verdict := env.Audit.Violations()
	t.Env.Audit.Record(verdict...)
	if err != nil {
		return err
	}
	if hit {
		t.hits.Add(1)
	} else {
		t.sims.Add(1)
	}
	na := len(t.Algorithms)
	pay := make([][]float64, len(k))
	for c, row := range k {
		pay[c] = make([]float64, na)
		for s := range row {
			if g := res.group(c*na + s); len(g) > 0 {
				pay[c][s] = t.Utility(aggRate(g)/units.Rate(len(g)), res.Link.MeanQueueDelay)
			}
		}
	}
	t.mu.Lock()
	if t.entries == nil {
		t.entries = make(map[string]*payoffEntry)
	}
	t.entries[string(tableKey(nil, k))] = &payoffEntry{pay: pay, verdict: verdict}
	t.mu.Unlock()
	return nil
}

// reuse uses k's entry once, reporting false when there is none. It
// allocates nothing.
func (t *PayoffTable) reuse(k [][]int) ([][]float64, bool) {
	var buf [64]byte
	key := tableKey(buf[:0], k)
	t.mu.Lock()
	e, ok := t.entries[string(key)]
	again := ok && e.used
	if ok {
		e.used = true
	}
	t.mu.Unlock()
	if !ok {
		return nil, false
	}
	if again {
		t.Env.Audit.Record(e.verdict...)
		t.hits.Add(1)
	}
	return e.pay, true
}

// Use prefetches ks, then uses each profile once: pays[i][c][s] is ks[i]'s
// payoff for (c, s), in rows the caller must not modify.
func (t *PayoffTable) Use(ctx context.Context, ks [][][]int) ([][][]float64, error) {
	if err := t.Prefetch(ctx, ks); err != nil {
		return nil, err
	}
	pays := make([][][]float64, len(ks))
	for i, k := range ks {
		pays[i], _ = t.reuse(k)
	}
	return pays, nil
}

// Game is the game.Symmetric with class sizes sizes on the table's
// payoffs: each payoff call is one use (the game's memo drops repeated
// reads), and a profile the table lacks is looked up as a one-unit batch.
func (t *PayoffTable) Game(ctx context.Context, sizes []int) *game.Symmetric {
	return &game.Symmetric{
		Sizes:      sizes,
		Strategies: len(t.Algorithms),
		Payoff: func(c, s int, k [][]int) (float64, error) {
			pay, ok := t.reuse(k)
			if !ok {
				if err := t.Prefetch(ctx, [][][]int{k}); err != nil {
					return 0, err
				}
				pay, _ = t.reuse(k)
			}
			return pay[c][s], nil
		},
	}
}

// Simulations counts the table's lookups that ran fresh.
func (t *PayoffTable) Simulations() int { return int(t.sims.Load()) }

// CacheHits counts the table's lookups that Env's cache or journal served,
// and every use of an entry after its first.
func (t *PayoffTable) CacheHits() int { return int(t.hits.Load()) }
