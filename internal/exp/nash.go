package exp

import (
	"context"
	"fmt"
	"log"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bbrnash/internal/check"
	"bbrnash/internal/core"
	"bbrnash/internal/game"
	"bbrnash/internal/runner"
	"bbrnash/internal/telemetry"
	"bbrnash/internal/units"
)

// ctxOr resolves an optional search context, defaulting to Background.
func ctxOr(ctx context.Context) context.Context {
	if ctx != nil {
		return ctx
	}
	return context.Background()
}

// evalFailure records the first payoff-evaluation failure of a search.
// Game callbacks cannot return errors, so without this an erroring or
// panicking payoff simulation would silently score zero and steer the
// equilibrium enumeration to a bogus answer.
type evalFailure struct {
	mu  sync.Mutex
	err error
}

func (f *evalFailure) note(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *evalFailure) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// NESearchConfig describes one empirical Nash-Equilibrium search (§4.4
// methodology): N same-RTT flows each running CUBIC or X, a payoff table
// built from simulations, and equilibrium enumeration over the N+1
// distributions.
type NESearchConfig struct {
	Capacity units.Rate
	Buffer   units.Bytes
	RTT      time.Duration
	N        int
	Duration time.Duration
	Seed     uint64
	// X names the non-CUBIC algorithm in the cc registry ("" means "bbr").
	X string
	// Utility scores each strategy's payoff from its per-flow throughput
	// and the shared queueing delay (the §4.3 extension). Nil is the
	// paper's throughput-only game, whose walk starts from the model's
	// predicted equilibrium. A non-nil utility's walk starts from N/2, since
	// the model predicts throughput equilibria only, and its eps is scaled
	// to the utility of a fair share.
	Utility UtilityFunc
	// EpsFraction widens the equilibrium condition: a switch only counts
	// as an incentive if it gains more than EpsFraction of the fair share
	// (defaults to 5%). The paper observes that near the NE the gains are
	// marginal, which is exactly why multiple NE appear across trials.
	EpsFraction float64
	// Exhaustive scans all N+1 distributions; otherwise the search walks
	// switching incentives from a model-predicted starting distribution
	// and then checks that point's neighbourhood. The walk evaluates far
	// fewer distributions (each evaluation is one simulation).
	Exhaustive bool
	// Pool runs every payoff lookup as a unit, so its watchdog and retries
	// guard each one and Jobs counts them. Exhaustive scans build the whole
	// payoff table in one batch. The walk batches only rows it is certain
	// to read: its start pair, each row it blocks on together with the row
	// past it, and a converged walk's neighbourhood (see walkNeighborhood);
	// it looks up the rest one at a time. Nil means serial. Results,
	// Simulations and CacheHits are identical at any worker count.
	Pool *runner.Pool
	// Cache memoizes payoff simulations by canonical scenario key. When
	// nil, a search-local cache still deduplicates repeated distribution
	// evaluations within this call; a shared cache additionally carries
	// results across trials and figures.
	Cache *runner.Cache
	// Journal write-ahead-logs completed payoff simulations for crash
	// resumption (see Scale.Journal); nil disables journaling.
	Journal *runner.Journal
	// Ctx cancels the search: no further payoff simulations are
	// dispatched once it is done. Nil means context.Background().
	Ctx context.Context
	// Audit, when non-nil, validates every payoff simulation against
	// physical invariants (see internal/check).
	Audit *check.Auditor
	// Trace, when non-nil, records every fresh payoff simulation's run
	// trace under its canonical scenario key (see internal/telemetry).
	Trace *telemetry.Recorder
	// Backend selects the execution engine for every payoff simulation
	// (see scenario.Backends); empty means the packet simulator. The fluid
	// backend makes exhaustive payoff tables cheap, at fluid-model
	// fidelity.
	Backend string
}

// NESearchResult is the outcome of one trial's search.
type NESearchResult struct {
	// EquilibriaX lists equilibrium distributions as numbers of X flows.
	EquilibriaX []int
	// Simulations counts simulator runs spent (memoized lookups excluded).
	Simulations int
	// CacheHits counts this search's payoff lookups served by the
	// memoizing cache (or the resume journal) instead of a fresh
	// simulation. The count is per-search — it was formerly a delta of the
	// cache's global hit counter, so concurrent searches sharing one cache
	// attributed each other's hits to themselves.
	CacheHits int
	// Converged reports whether the search settled: exhaustive scans always
	// converge, and walk mode converges when the incentive walk reached an
	// incentive-free distribution within its step budget. When false, the
	// walk cycled or exhausted its budget, EquilibriaX is only the ±2
	// neighbourhood of wherever it stopped — possibly empty, possibly not
	// the full answer — and the non-convergence has been logged. Formerly
	// this outcome was silently discarded.
	Converged bool
}

// FindNE runs the empirical search for one trial (one jitter seed).
//
// Every distribution's payoff simulation gets a seed pre-derived from
// cfg.Seed (a pure function of the distribution, not of visit order), so
// the payoff table can be built in parallel and re-checks of a
// distribution — the equilibrium test probes each point's neighbours —
// hit the cache instead of re-simulating.
func FindNE(cfg NESearchConfig) (NESearchResult, error) {
	if cfg.N < 1 {
		return NESearchResult{}, fmt.Errorf("exp: NE search needs N >= 1 flows, got %d", cfg.N)
	}
	if cfg.EpsFraction == 0 {
		cfg.EpsFraction = 0.05
	}
	utility := cfg.Utility
	if utility == nil {
		utility = ThroughputUtility
	}
	cache := cfg.Cache
	if cache == nil {
		cache = runner.NewCache()
	}
	var sims, hits atomic.Int64
	dur := PayoffDuration(cfg.Duration)
	seeds := trialSeeds(cfg.Seed, cfg.N+1)
	env := Env{Cache: cache, Journal: cfg.Journal, Audit: cfg.Audit, Trace: cfg.Trace}
	type pair struct{ x, c float64 }
	// evalErr is the fallible payoff evaluation, run and reported under
	// the distribution's canonical scenario key. ctx is the executing pool
	// unit's context, so the watchdog sees its heartbeats. What is memoized
	// is the mix result, shared by every utility; the utility is applied
	// per lookup.
	evalErr := func(ctx context.Context, numX int) (pair, error) {
		mix := MixConfig{
			Capacity: cfg.Capacity,
			Buffer:   cfg.Buffer,
			RTT:      cfg.RTT,
			Duration: dur,
			Seed:     seeds[numX],
			X:        cfg.X,
			NumX:     numX,
			NumCubic: cfg.N - numX,
			Backend:  cfg.Backend,
		}
		spr, hit, err := Run(ctx, mix.spec(), env)
		if err != nil {
			return pair{}, err
		}
		if hit {
			hits.Add(1)
		} else {
			sims.Add(1)
		}
		res := mixView(spr)
		return pair{
			x: utility(res.PerFlowX, res.MeanQueueDelay),
			c: utility(res.PerFlowCubic, res.MeanQueueDelay),
		}, nil
	}
	searchCtx := ctxOr(cfg.Ctx)
	var failed evalFailure
	// held keeps a walk batch's payoff pairs until the walk first reads
	// their row. That read consumes the held pair instead of looking the
	// row up again, so a batched lookup replaces the serial walk's first
	// lookup of the row and Simulations and CacheHits do not move.
	held := make(map[int]pair)
	eval := func(numX int) pair {
		if p, ok := held[numX]; ok {
			delete(held, numX)
			return p
		}
		return lookupBatch(searchCtx, cfg.Pool, &failed, []int{numX}, evalErr)[0]
	}
	g := &game.SymmetricBinary{
		N:           cfg.N,
		PayoffX:     func(k int) float64 { return eval(k).x },
		PayoffCubic: func(k int) float64 { return eval(k).c },
	}
	eps := game.Epsilon(float64(cfg.Capacity), cfg.N, cfg.EpsFraction)
	if cfg.Utility != nil {
		// Scale eps to the utility of a fair share so EpsFraction keeps
		// its "fraction of what is at stake" meaning.
		eps = cfg.EpsFraction * math.Abs(cfg.Utility(cfg.Capacity/units.Rate(cfg.N), 0))
	}

	if cfg.Exhaustive {
		// An exhaustive scan evaluates every distribution anyway, so
		// build the whole payoff table up front in one batch; the
		// enumeration below is then pure cache hits.
		rows := make([]int, cfg.N+1)
		for i := range rows {
			rows[i] = i
		}
		lookupBatch(searchCtx, cfg.Pool, &failed, rows, evalErr)
		if err := failed.get(); err != nil {
			return NESearchResult{}, err
		}
		ks, err := g.Equilibria(eps)
		if err != nil {
			return NESearchResult{}, err
		}
		if err := failed.get(); err != nil {
			return NESearchResult{}, err
		}
		return NESearchResult{
			EquilibriaX: ks,
			Simulations: int(sims.Load()),
			CacheHits:   int(hits.Load()),
			Converged:   true,
		}, nil
	}

	// Walk from the model's predicted equilibrium (the midpoint under a
	// custom utility), then report every equilibrium in the landing zone's
	// neighbourhood.
	start := cfg.N / 2
	if cfg.Utility == nil {
		if pt, err := core.PredictNash(core.NashScenario{
			Capacity: cfg.Capacity, Buffer: cfg.Buffer, RTT: cfg.RTT, N: cfg.N,
		}, core.Synchronized); err == nil {
			start = int(pt.BBRFlows + 0.5)
		}
	}
	ks, converged := walkNeighborhood(g, start, eps, 3*cfg.N, func(rows []int) {
		for i, p := range lookupBatch(searchCtx, cfg.Pool, &failed, rows, evalErr) {
			held[rows[i]] = p
		}
	})
	if err := failed.get(); err != nil {
		return NESearchResult{}, err
	}
	return NESearchResult{
		EquilibriaX: ks,
		Simulations: int(sims.Load()),
		CacheHits:   int(hits.Load()),
		Converged:   converged,
	}, nil
}

// walkNeighborhood is FindNE's walk-mode search core: follow unilateral
// switching incentives from start, then report every equilibrium in the
// landing zone's ±2 neighbourhood.
// converged is FirstEquilibrium's verdict — false when the walk cycled or
// exhausted maxSteps, in which case the neighbourhood is centred on
// wherever the walk stopped rather than on an equilibrium, and the caller
// must surface that instead of passing the neighbourhood off as the answer
// (the pre-fix code discarded it).
//
// batch receives rows (distributions) the walk has not read yet but is
// certain to read, so the caller can look them up together. There are
// three such points. Before the walk, the start pair: FirstEquilibrium's
// first comparison reads rows s and s+1, where s is start clamped to
// [0, N], or N−1 and N when s = N. During the walk, when eps >= 0, a read
// of a row r that is neither read nor batched goes out with the row past
// it: r+1 when r−1 has been read, r−1 when r+1 has. A walk with eps >= 0
// never reverses, so whichever way the comparison reading r falls, the
// row past r is read next: by the next step, by the neighbourhood checks
// of a walk that converges at or next to r, or by those of a walk whose
// budget stops it there. After a converged walk lands at k, rows k−3,
// k−2 and k+2: IsEquilibrium(k−2) evaluates both operands of its first
// comparison and IsEquilibrium(k+2) reads X(k+2). No row is batched twice
// and nothing the walk might not read is batched, so a caller that lets a
// batched lookup stand in for the row's first read makes exactly the
// serial walk's lookups. A walk with eps < 0 can cycle, so it pairs
// nothing.
func walkNeighborhood(g *game.SymmetricBinary, start int, eps float64, maxSteps int, batch func(rows []int)) (ks []int, converged bool) {
	// w is g with its reads recorded, so that no batch repeats a lookup,
	// and, while pairing, with each read of a fresh row paired.
	n := g.N
	read := make([]bool, n+1)
	batched := make([]bool, n+1)
	fresh := func(r int) bool { return r >= 0 && r <= n && !read[r] && !batched[r] }
	prefetch := func(rows ...int) {
		var todo []int
		for _, r := range rows {
			if fresh(r) {
				batched[r] = true
				todo = append(todo, r)
			}
		}
		if len(todo) > 0 {
			batch(todo)
		}
	}
	pairing := false
	look := func(r int) {
		if pairing && fresh(r) {
			switch {
			case r > 0 && read[r-1] && fresh(r+1):
				prefetch(r, r+1)
			case r < n && read[r+1] && fresh(r-1):
				prefetch(r, r-1)
			}
		}
		read[r] = true
	}
	w := &game.SymmetricBinary{
		N:           n,
		PayoffX:     func(k int) float64 { look(k); return g.PayoffX(k) },
		PayoffCubic: func(k int) float64 { look(k); return g.PayoffCubic(k) },
	}
	if s := min(max(start, 0), n); s < n {
		prefetch(s, s+1)
	} else if n >= 1 {
		prefetch(n-1, n)
	}
	pairing = eps >= 0
	k, ok := w.FirstEquilibrium(start, eps, maxSteps)
	pairing = false
	if ok {
		prefetch(k-3, k-2, k+2)
	} else {
		log.Printf("exp: NE walk from %d did not converge within %d steps (stopped at %d); reporting that point's ±2 neighbourhood only", start, maxSteps, k)
	}
	for cand := k - 2; cand <= k+2; cand++ {
		if cand < 0 || cand > n {
			continue
		}
		if w.IsEquilibrium(cand, eps) {
			ks = append(ks, cand)
		}
	}
	return ks, ok
}

// lookupBatch is an NE search's one payoff-lookup path: it evaluates rows
// as one runner.MapCtx batch on pool, so each lookup is a pool unit that
// the pool's watchdog and retries guard and Jobs counts. A nil pool runs
// the batch serially. A failed batch is noted in failed and reads as
// zero payoffs, as a failed lookup always has: game callbacks cannot
// return errors, so the search reports the failure when it ends.
func lookupBatch[R, P any](ctx context.Context, pool *runner.Pool, failed *evalFailure, rows []R, eval func(context.Context, R) (P, error)) []P {
	ps, err := runner.MapCtx(ctx, pool, len(rows), func(uctx context.Context, i int) (P, error) {
		return eval(uctx, rows[i])
	})
	if err != nil {
		failed.note(err)
		return make([]P, len(rows))
	}
	return ps
}

// PayoffDuration enforces the paper's two-minute protocol on equilibrium
// payoff measurements. Equilibrium positions are set by BBR's converged
// share, and BBR's RTT+ mechanism converges over multiples of its ten-second
// ProbeRTT cycle, so shorter runs systematically understate BBR and push the
// observed equilibrium toward CUBIC at every buffer depth. Other
// game-on-simulation layers (internal/adopt) floor their payoffs with it
// too, so adoption-dynamics payoffs and NE-search payoffs obey the same
// measurement protocol and their equilibria are comparable.
func PayoffDuration(base time.Duration) time.Duration {
	if base > 2*time.Minute {
		return base
	}
	return 2 * time.Minute
}

// GroupNEConfig describes the §4.5 multi-RTT equilibrium search.
type GroupNEConfig struct {
	Capacity units.Rate
	Buffer   units.Bytes
	RTTs     []time.Duration
	Sizes    []int
	Duration time.Duration
	Seed     uint64
	// X names the non-CUBIC algorithm in the cc registry ("" means "bbr").
	X string
	// EpsFraction as in NESearchConfig.
	EpsFraction float64
	// Exhaustive enumerates the whole Π(Size+1) profile space; otherwise
	// a greedy incentive walk is used.
	Exhaustive bool
	// Pool, Cache, Journal, Ctx, Audit, Trace and Backend as in
	// NESearchConfig.
	Pool    *runner.Pool
	Cache   *runner.Cache
	Journal *runner.Journal
	Ctx     context.Context
	Audit   *check.Auditor
	Trace   *telemetry.Recorder
	Backend string
}

// GroupNEResult is the outcome of a multi-RTT search.
type GroupNEResult struct {
	// Equilibria are profiles: Equilibria[j][i] X flows in group i.
	Equilibria [][]int
	// Simulations counts simulator runs spent (memoized lookups excluded).
	Simulations int
	// CacheHits counts this search's payoff lookups served by the
	// memoizing cache; per-search, as in NESearchResult.
	CacheHits int
	// Converged reports whether the search settled (always true for
	// exhaustive scans; for the incentive walk, whether it reached a
	// move-free profile within its step budget). As in NESearchResult, a
	// non-converged walk's Equilibria may be empty or incomplete.
	Converged bool
}

// FindGroupNE runs the multi-RTT equilibrium search for one trial. Each
// profile's payoff seed is a pure function of (cfg.Seed, profile), so the
// profile space can be evaluated in parallel and memoized canonically.
func FindGroupNE(cfg GroupNEConfig) (GroupNEResult, error) {
	if err := checkGroupShape(cfg.Sizes, cfg.RTTs); err != nil {
		return GroupNEResult{}, err
	}
	if cfg.EpsFraction == 0 {
		cfg.EpsFraction = 0.05
	}
	cache := cfg.Cache
	if cache == nil {
		cache = runner.NewCache()
	}
	var sims, hits atomic.Int64
	type pair struct {
		x, c []units.Rate
	}
	env := Env{Cache: cache, Journal: cfg.Journal, Audit: cfg.Audit, Trace: cfg.Trace}
	dur := PayoffDuration(cfg.Duration)
	// A failed lookup's pair is never read: lookupBatch drops a failed
	// batch's results, and eval stands zero slices in for them.
	evalErr := func(ctx context.Context, k []int) (pair, error) {
		sp, err := GroupConfig{
			Capacity: cfg.Capacity,
			Buffer:   cfg.Buffer,
			Duration: dur,
			Seed:     ProfileSeed(cfg.Seed, k),
			X:        cfg.X,
			RTTs:     cfg.RTTs,
			Sizes:    cfg.Sizes,
			NumX:     k,
			Backend:  cfg.Backend,
		}.spec()
		if err != nil {
			return pair{}, err
		}
		spr, hit, err := Run(ctx, sp, env)
		if err != nil {
			return pair{}, err
		}
		if hit {
			hits.Add(1)
		} else {
			sims.Add(1)
		}
		res := groupView(len(cfg.RTTs), spr)
		return pair{x: res.PerFlowX, c: res.PerFlowCubic}, nil
	}
	searchCtx := ctxOr(cfg.Ctx)
	var failed evalFailure
	eval := func(k []int) pair {
		p := lookupBatch(searchCtx, cfg.Pool, &failed, [][]int{k}, evalErr)[0]
		if p.x == nil || p.c == nil {
			p = pair{x: make([]units.Rate, len(k)), c: make([]units.Rate, len(k))}
		}
		return p
	}
	groups := make([]game.GroupSpec, len(cfg.Sizes))
	total := 0
	for i, sz := range cfg.Sizes {
		groups[i] = game.GroupSpec{Size: sz}
		total += sz
	}
	g := &game.GroupSymmetric{
		Groups:      groups,
		PayoffX:     func(i int, k []int) float64 { return float64(eval(k).x[i]) },
		PayoffCubic: func(i int, k []int) float64 { return float64(eval(k).c[i]) },
	}
	eps := game.Epsilon(float64(cfg.Capacity), total, cfg.EpsFraction)

	if cfg.Exhaustive {
		// The exhaustive enumeration touches every profile, so build the
		// whole payoff table up front in one batch.
		lookupBatch(searchCtx, cfg.Pool, &failed, enumerateProfiles(cfg.Sizes), evalErr)
		if err := failed.get(); err != nil {
			return GroupNEResult{}, err
		}
		ks, err := g.Equilibria(eps)
		if err != nil {
			return GroupNEResult{}, err
		}
		if err := failed.get(); err != nil {
			return GroupNEResult{}, err
		}
		return GroupNEResult{
			Equilibria:  ks,
			Simulations: int(sims.Load()),
			CacheHits:   int(hits.Load()),
			Converged:   true,
		}, nil
	}

	// Incentive walk with first-improvement moves: start from a
	// model-informed profile, and at each step take the first unilateral
	// switch that gains more than eps. First-improvement costs far fewer
	// payoff evaluations (simulations) than best-improvement, and the
	// landing profile is an equilibrium either way.
	k := groupWalkStart(cfg)
	maxSteps := 3 * total
	settled := false
	for step := 0; step < maxSteps; step++ {
		moved := false
		for i, sz := range cfg.Sizes {
			if k[i] < sz {
				k[i]++
				gain := float64(eval(k).x[i])
				k[i]--
				if gain > float64(eval(k).c[i])+eps {
					k[i]++
					moved = true
					break
				}
			}
			if k[i] > 0 {
				k[i]--
				gain := float64(eval(k).c[i])
				k[i]++
				if gain > float64(eval(k).x[i])+eps {
					k[i]--
					moved = true
					break
				}
			}
		}
		if !moved {
			settled = true
			break
		}
	}
	if !settled {
		// The walk was still moving when the budget ran out: unlike the
		// binary line-walk, first-improvement moves over coupled groups can
		// genuinely cycle, so surface the non-convergence instead of
		// passing the last profile off as the answer.
		log.Printf("exp: group NE walk did not settle within %d steps (stopped at %v)", maxSteps, k)
	}
	var out [][]int
	if g.IsEquilibrium(k, eps) {
		out = append(out, append([]int(nil), k...))
	}
	if err := failed.get(); err != nil {
		return GroupNEResult{}, err
	}
	return GroupNEResult{
		Equilibria:  out,
		Simulations: int(sims.Load()),
		CacheHits:   int(hits.Load()),
		Converged:   settled,
	}, nil
}

// checkGroupShape rejects a group NE shape that no search can run on:
// every group needs an RTT and a non-negative size, and some group a flow.
func checkGroupShape(sizes []int, rtts []time.Duration) error {
	if len(sizes) == 0 || len(sizes) != len(rtts) {
		return fmt.Errorf("exp: group NE search needs one RTT per group and at least one group, got %d sizes and %d RTTs", len(sizes), len(rtts))
	}
	total := 0
	for i, sz := range sizes {
		if sz < 0 {
			return fmt.Errorf("exp: group NE search: group %d has %d flows", i, sz)
		}
		total += sz
	}
	if total < 1 {
		return fmt.Errorf("exp: group NE search needs at least one flow")
	}
	return nil
}

// enumerateProfiles lists every profile of the Π(Size+1) space in the same
// lexicographic order game.GroupSymmetric.Equilibria visits.
func enumerateProfiles(sizes []int) [][]int {
	total := 1
	for _, sz := range sizes {
		total *= sz + 1
	}
	out := make([][]int, 0, total)
	k := make([]int, len(sizes))
	var walk func(i int)
	walk = func(i int) {
		if i == len(sizes) {
			out = append(out, append([]int(nil), k...))
			return
		}
		for v := 0; v <= sizes[i]; v++ {
			k[i] = v
			walk(i + 1)
		}
		k[i] = 0
	}
	walk(0)
	return out
}

// groupWalkStart picks the walk's starting profile: the single-RTT model's
// equilibrium BBR count at the mean RTT, assigned to groups from the
// longest RTT down — the composition the paper observed at multi-RTT
// equilibria (§4.5: long-RTT flows choose BBR, short-RTT flows CUBIC).
func groupWalkStart(cfg GroupNEConfig) []int {
	total := 0
	var meanRTT time.Duration
	for i, sz := range cfg.Sizes {
		total += sz
		meanRTT += cfg.RTTs[i] * time.Duration(sz)
	}
	k := make([]int, len(cfg.Sizes))
	if total == 0 {
		return k
	}
	meanRTT /= time.Duration(total)
	want := total / 2
	if pt, err := core.PredictNash(core.NashScenario{
		Capacity: cfg.Capacity, Buffer: cfg.Buffer, RTT: meanRTT, N: total,
	}, core.Synchronized); err == nil {
		want = int(pt.BBRFlows + 0.5)
	}
	// Order groups by RTT descending and fill X slots from the top.
	order := make([]int, len(cfg.Sizes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return cfg.RTTs[order[a]] > cfg.RTTs[order[b]] })
	for _, i := range order {
		if want <= 0 {
			break
		}
		take := cfg.Sizes[i]
		if take > want {
			take = want
		}
		k[i] = take
		want -= take
	}
	return k
}
