package exp

import (
	"context"
	"fmt"
	"log"
	"math"
	"sort"
	"time"

	"bbrnash/internal/check"
	"bbrnash/internal/core"
	"bbrnash/internal/game"
	"bbrnash/internal/runner"
	"bbrnash/internal/scenario"
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

// choiceProfile is a profile of the game.Symmetric that FindNE and
// FindGroupNE play (one class per RTT group, strategy 0 X and strategy 1
// CUBIC) with x[c] of class c's sizes[c] flows on X.
func choiceProfile(sizes, x []int) [][]int {
	k := make([][]int, len(sizes))
	for c, n := range sizes {
		k[c] = []int{x[c], n - x[c]}
	}
	return k
}

// xFlows is such a profile's X flow count per class.
func xFlows(k [][]int) []int {
	x := make([]int, len(k))
	for c, row := range k {
		x[c] = row[0]
	}
	return x
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
	// guard each one and Jobs counts them; a re-read of a distribution is
	// served by the search's payoff table (see PayoffTable) and takes no
	// unit. Exhaustive scans build the whole payoff table in one batch.
	// The walk batches only rows it is certain to read: its start pair,
	// each row it blocks on together with the row past it, and a converged
	// walk's neighbourhood (see walkNeighborhood); it looks up the rest one
	// at a time. Nil means serial. Results, Simulations and CacheHits are
	// identical at any worker count.
	Pool *runner.Pool
	// Cache memoizes payoff simulations by canonical scenario key across
	// searches, trials and figures; nil means no result cache. Within one
	// search the payoff table deduplicates: each distribution reaches the
	// cache at most once.
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
	// simulation, plus every read of a payoff table entry after its first
	// (see PayoffTable). The count is per-search — it was formerly a delta
	// of the cache's global hit counter, so concurrent searches sharing
	// one cache attributed each other's hits to themselves.
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
// read the table instead of re-simulating.
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
	seeds := trialSeeds(cfg.Seed, cfg.N+1)
	ctx := ctxOr(cfg.Ctx)
	// Row x of the table is the distribution with x X flows: spec group 0
	// is the X class and group 1 the CUBIC class, as scenario.Mix builds
	// them, so NE payoffs and figure sweeps share cache entries.
	t := &PayoffTable{
		Base:       PayoffBase(cfg.Capacity, cfg.Buffer, cfg.Duration, cfg.Backend),
		RTTs:       []time.Duration{cfg.RTT},
		Algorithms: []string{xName(cfg.X), "cubic"},
		Seed:       func(k [][]int) uint64 { return seeds[k[0][0]] },
		Utility:    utility,
		Env:        Env{Cache: cfg.Cache, Journal: cfg.Journal, Audit: cfg.Audit, Trace: cfg.Trace},
		Pool:       cfg.Pool,
	}
	g := t.Game(ctx, []int{cfg.N})
	eps := game.Epsilon(float64(cfg.Capacity), cfg.N, cfg.EpsFraction)
	if cfg.Utility != nil {
		// Scale eps to the utility of a fair share so EpsFraction keeps
		// its "fraction of what is at stake" meaning.
		eps = cfg.EpsFraction * math.Abs(cfg.Utility(cfg.Capacity/units.Rate(cfg.N), 0))
	}

	res := NESearchResult{Converged: true}
	if cfg.Exhaustive {
		ks, err := equilibria(ctx, t, g, eps)
		if err != nil {
			return NESearchResult{}, err
		}
		for _, k := range ks {
			res.EquilibriaX = append(res.EquilibriaX, k[0][0])
		}
	} else {
		// Walk from the model's predicted equilibrium (the midpoint under
		// a custom utility), then report every equilibrium in the landing
		// zone's neighbourhood.
		start := cfg.N / 2
		if cfg.Utility == nil {
			if pt, err := core.PredictNash(core.NashScenario{
				Capacity: cfg.Capacity, Buffer: cfg.Buffer, RTT: cfg.RTT, N: cfg.N,
			}, core.Synchronized); err == nil {
				start = int(pt.BBRFlows + 0.5)
			}
		}
		var err error
		res.EquilibriaX, res.Converged, err = walkNeighborhood(g, start, eps, 3*cfg.N, func(rows []int) error {
			ks := make([][][]int, len(rows))
			for i, r := range rows {
				ks[i] = choiceProfile(g.Sizes, []int{r})
			}
			return t.Prefetch(ctx, ks)
		})
		if err != nil {
			return NESearchResult{}, err
		}
	}
	res.Simulations, res.CacheHits = t.Simulations(), t.CacheHits()
	return res, nil
}

// equilibria lists every equilibrium of g, a game on t's payoffs, in
// Profiles order. The scan reads every profile, so it looks the whole
// profile space up first, as one Prefetch batch.
func equilibria(ctx context.Context, t *PayoffTable, g *game.Symmetric, eps float64) ([][][]int, error) {
	profiles, err := g.Profiles()
	if err != nil {
		return nil, err
	}
	if err := t.Prefetch(ctx, profiles); err != nil {
		return nil, err
	}
	return g.Equilibria(eps)
}

// walkNeighborhood is FindNE's walk-mode search core on g, a one-class
// CUBIC-or-X game: follow unilateral switching incentives from start (g's
// Walk), then report every equilibrium in the landing zone's ±2
// neighbourhood, as numbers of X flows. Rows are distributions, numbered
// by their X flows.
// converged is Walk's verdict — false when the walk cycled or exhausted
// maxSteps, in which case the neighbourhood is centred on wherever the
// walk stopped rather than on an equilibrium, and the caller must surface
// that instead of passing the neighbourhood off as the answer.
//
// batch receives rows the walk has not read yet but is certain to read,
// so the caller can look them up together. There are three such points.
// Before the walk, the start pair: the walk's first comparison reads rows
// s and s+1, where s is start clamped to [0, N], or N−1 and N when s = N.
// During the walk, when eps >= 0, a read of a row r that is neither read
// nor batched goes out with the row past it: r+1 when r−1 has been read,
// r−1 when r+1 has. A walk with eps >= 0 never reverses, so whichever way
// the comparison reading r falls, the row past r is read next: by the
// next step, by the neighbourhood checks of a walk that converges at or
// next to r, or by those of a walk whose budget stops it there. After a
// converged walk lands at k, rows k−3, k−2 and k+2: IsEquilibrium(k−2)
// evaluates both operands of its first comparison and IsEquilibrium(k+2)
// reads X(k+2). No row is batched twice and nothing the walk might not
// read is batched, so a caller that lets a batched lookup stand in for the
// row's first read makes exactly the serial walk's lookups. A walk with
// eps < 0 can cycle, so it pairs nothing.
//
// A failed batch or payoff read ends the search with its error.
func walkNeighborhood(g *game.Symmetric, start int, eps float64, maxSteps int, batch func(rows []int) error) (ks []int, converged bool, err error) {
	// w is g with its reads recorded, so that no batch repeats a lookup,
	// and, while pairing, with each read of a fresh row paired.
	n := g.Sizes[0]
	read := make([]bool, n+1)
	batched := make([]bool, n+1)
	fresh := func(r int) bool { return r >= 0 && r <= n && !read[r] && !batched[r] }
	prefetch := func(rows ...int) error {
		var todo []int
		for _, r := range rows {
			if fresh(r) {
				batched[r] = true
				todo = append(todo, r)
			}
		}
		if len(todo) == 0 {
			return nil
		}
		return batch(todo)
	}
	pairing := false
	w := &game.Symmetric{
		Sizes:      g.Sizes,
		Strategies: 2,
		Payoff: func(c, s int, k [][]int) (float64, error) {
			r := k[0][0]
			if pairing && fresh(r) {
				var err error
				switch {
				case r > 0 && read[r-1] && fresh(r+1):
					err = prefetch(r, r+1)
				case r < n && read[r+1] && fresh(r-1):
					err = prefetch(r, r-1)
				}
				if err != nil {
					return 0, err
				}
			}
			read[r] = true
			return g.Payoff(c, s, k)
		},
	}
	s := min(max(start, 0), n)
	if err := prefetch(min(s, n-1), min(s, n-1)+1); err != nil {
		return nil, false, err
	}
	pairing = eps >= 0
	k, ok, err := w.Walk(choiceProfile(g.Sizes, []int{s}), eps, maxSteps)
	pairing = false
	if err != nil {
		return nil, false, err
	}
	x := k[0][0]
	if ok {
		if err := prefetch(x-3, x-2, x+2); err != nil {
			return nil, false, err
		}
	} else {
		log.Printf("exp: NE walk from %d did not converge within %d steps (stopped at %d); reporting that point's ±2 neighbourhood only", start, maxSteps, x)
	}
	for cand := max(x-2, 0); cand <= min(x+2, n); cand++ {
		eq, err := w.IsEquilibrium(choiceProfile(g.Sizes, []int{cand}), eps)
		if err != nil {
			return nil, false, err
		}
		if eq {
			ks = append(ks, cand)
		}
	}
	return ks, ok, nil
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

// PayoffBase is the PayoffTable.Base of every game on simulations: one
// link with the experiment protocol's jitters, run for PayoffDuration(d).
func PayoffBase(capacity units.Rate, buffer units.Bytes, d time.Duration, backend string) scenario.Spec {
	return scenario.Spec{
		Capacity:    capacity,
		Buffer:      buffer,
		AckJitter:   scenario.DefaultAckJitter,
		StartJitter: scenario.DefaultStartJitter,
		Duration:    PayoffDuration(d),
		Backend:     backend,
	}
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
	// memoizing cache or the journal, plus every re-read of a payoff table
	// entry; per-search, as in NESearchResult.
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
	total, err := checkGroupShape(cfg.Sizes, cfg.RTTs)
	if err != nil {
		return GroupNEResult{}, err
	}
	if cfg.EpsFraction == 0 {
		cfg.EpsFraction = 0.05
	}
	ctx := ctxOr(cfg.Ctx)
	// One class per RTT group: RTT group i becomes spec groups 2i (X) and
	// 2i+1 (CUBIC), both present even when empty, so every profile of one
	// search shares a single key shape.
	t := &PayoffTable{
		Base:       PayoffBase(cfg.Capacity, cfg.Buffer, cfg.Duration, cfg.Backend),
		RTTs:       cfg.RTTs,
		Algorithms: []string{xName(cfg.X), "cubic"},
		Seed:       func(k [][]int) uint64 { return ProfileSeed(cfg.Seed, xFlows(k)) },
		Utility:    ThroughputUtility,
		Env:        Env{Cache: cfg.Cache, Journal: cfg.Journal, Audit: cfg.Audit, Trace: cfg.Trace},
		Pool:       cfg.Pool,
	}
	g := t.Game(ctx, cfg.Sizes)
	eps := game.Epsilon(float64(cfg.Capacity), total, cfg.EpsFraction)

	var ks [][][]int
	converged := true
	if cfg.Exhaustive {
		if ks, err = equilibria(ctx, t, g, eps); err != nil {
			return GroupNEResult{}, err
		}
	} else {
		// Incentive walk with first-improvement moves from a model-informed
		// profile. First-improvement costs far fewer payoff evaluations
		// (simulations) than best-improvement, and the landing profile is
		// an equilibrium either way.
		k, ok, err := g.Walk(choiceProfile(cfg.Sizes, groupWalkStart(cfg)), eps, 3*total)
		if err != nil {
			return GroupNEResult{}, err
		}
		if converged = ok; !ok {
			// Unlike the binary line-walk, first-improvement moves over
			// coupled groups can genuinely cycle, so surface the
			// non-convergence instead of passing the last profile off as
			// the answer.
			log.Printf("exp: group NE walk did not settle within %d steps (stopped at %v)", 3*total, xFlows(k))
		}
		eq, err := g.IsEquilibrium(k, eps)
		if err != nil {
			return GroupNEResult{}, err
		}
		if eq {
			ks = append(ks, k)
		}
	}
	var out [][]int
	for _, k := range ks {
		out = append(out, xFlows(k))
	}
	return GroupNEResult{
		Equilibria:  out,
		Simulations: t.Simulations(),
		CacheHits:   t.CacheHits(),
		Converged:   converged,
	}, nil
}

// checkGroupShape rejects a group NE shape that no search can run on:
// every group needs an RTT and a non-negative size, and some group a flow.
// It returns the flow count.
func checkGroupShape(sizes []int, rtts []time.Duration) (total int, err error) {
	if len(sizes) == 0 || len(sizes) != len(rtts) {
		return 0, fmt.Errorf("exp: group NE search needs one RTT per group and at least one group, got %d sizes and %d RTTs", len(sizes), len(rtts))
	}
	for i, sz := range sizes {
		if sz < 0 {
			return 0, fmt.Errorf("exp: group NE search: group %d has %d flows", i, sz)
		}
		total += sz
	}
	if total < 1 {
		return 0, fmt.Errorf("exp: group NE search needs at least one flow")
	}
	return total, nil
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
	meanRTT /= time.Duration(total) // checkGroupShape: total >= 1
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
