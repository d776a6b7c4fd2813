// Package adopt runs deterministic evolutionary dynamics over congestion
// control algorithm populations: the paper's §5 question — if deployments
// keep switching to whatever performs best, where does the mix of CUBIC,
// Reno and BBR settle? — asked at population scale rather than as a static
// equilibrium enumeration.
//
// A Population holds 10⁴–10⁶ agents partitioned into RTT classes, each
// agent running one algorithm from the internal/cc registry. Per
// generation the population's mixture is scaled down to a simulatable flow
// profile, evaluated through the experiment harness (internal/exp, fluid
// backend by default, memoized by canonical scenario key), and agents
// revise strategy under replicator dynamics or noisy best response.
//
// A generation's profile and all of its one-flow deviations are known
// before any of them runs, so they are evaluated as one batch on the
// worker pool, as are the final fixed-point check's. The profiles of a
// batch are distinct and each payoff is a pure function of its profile,
// so the batch's results do not depend on how its units interleave. A
// profile the run has already evaluated is served from the run's own
// payoff table, an exp.PayoffTable. Best response then revises each class
// on its own seeded stream, the classes concurrently and each writing only
// its own row; replicator dynamics revise serially. Either way a
// trajectory is byte-identical at any worker count.
package adopt

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bbrnash/internal/cc"
	"bbrnash/internal/check"
	"bbrnash/internal/exp"
	"bbrnash/internal/rng"
	"bbrnash/internal/runner"
	"bbrnash/internal/scenario"
	"bbrnash/internal/telemetry"
	"bbrnash/internal/units"
)

// Dynamics names the strategy-revision rules.
const (
	// Replicator grows each algorithm's share in proportion to its payoff
	// relative to the class mean (discrete-time replicator dynamics), with
	// Noise mixing a uniform mutation term in.
	Replicator = "replicator"
	// BestResponse has each agent independently revise with probability
	// ReviseProb per generation: a reviser picks the class's
	// highest-payoff algorithm, or with probability Noise a uniformly
	// random one.
	BestResponse = "bestresponse"
)

// Dynamics lists the valid dynamics names.
func Dynamics() []string { return []string{Replicator, BestResponse} }

// Class is one RTT class of the population: Weight is the class's fraction
// of agents (normalized over classes).
type Class struct {
	RTT    time.Duration
	Weight float64
}

// Config describes one adoption-dynamics run. The zero value is not
// runnable; Run validates and applies the documented defaults.
type Config struct {
	// Capacity and Buffer describe the shared bottleneck every payoff
	// simulation runs through.
	Capacity units.Rate
	Buffer   units.Bytes
	// Classes partitions agents into RTT classes (default: one class at
	// 40ms). An agent never changes class — only its algorithm.
	Classes []Class
	// Algorithms is the strategy set, each a cc registry name (default
	// cubic, reno, bbr — the trio the fluid backend models).
	Algorithms []string
	// Shares seeds every class's initial algorithm mixture (len must
	// match Algorithms; default uniform). Normalized over its sum.
	Shares []float64
	// Agents is the total population size (default 10000).
	Agents int
	// Generations is the number of revision steps; the trajectory has
	// Generations+1 records (states 0..Generations).
	Generations int
	// Dynamics selects the revision rule (default Replicator).
	Dynamics string
	// Noise is the mutation/exploration rate η in [0,1]: replicator mixes
	// η of the uniform distribution into each update; best response makes
	// a reviser pick uniformly at random with probability η. Default 0.
	Noise float64
	// ReviseProb is best response's per-agent revision probability
	// (default 1: every agent revises every generation).
	ReviseProb float64
	// SimFlows is the total flow count the population mixture is scaled
	// down to per payoff simulation (default 20). Must be at least
	// len(Classes)×len(Algorithms): every (class, algorithm) cell keeps
	// one probe flow even when its share rounds to zero, so invasion
	// payoffs stay defined for extinct strategies.
	SimFlows int
	// Duration is each payoff simulation's simulated time; it is floored
	// to the harness's NE payoff duration (see exp.PayoffDuration).
	Duration time.Duration
	// Seed drives everything: per-profile jitter seeds (via
	// exp.ProfileSeed, so revisiting a mixture is a cache hit) and the
	// revision draws of noisy best response.
	Seed uint64
	// Backend selects the payoff engine (default fluid — a 2-minute
	// payoff simulation costs ~7–14 ms there, which is what makes 10⁵
	// agents × 100 generations a seconds-scale run).
	Backend string
	// EpsFraction widens the equilibrium condition exactly as in
	// exp.NESearchConfig: a gain only counts as an incentive if it
	// exceeds EpsFraction of the fair-share rate (default 5%). The same
	// eps drives revision inertia — agents ignore sub-eps payoff gaps, the
	// paper's observation that near-equilibrium switching gains are
	// marginal — which makes eps-equilibria absorbing states of both
	// dynamics instead of centers of discretization limit cycles.
	EpsFraction float64
	// SkipCheck disables the final fixed-point check (and its deviation
	// simulations); Result.FixedPoint is then false and meaningless.
	SkipCheck bool

	// Pool runs each batch of payoff lookups — a generation's profile and
	// its deviations, or the fixed-point check's — and its watchdog and
	// retries guard every lookup; a revisit takes no unit. Nil means
	// serial. Its worker count also bounds how many classes best response
	// revises at once. The trajectory is identical at any worker count.
	Pool *runner.Pool
	// Cache memoizes payoff simulations by canonical scenario key across
	// runs; nil means no result cache. Within one run each distinct
	// profile reaches it at most once: the run's payoff table serves
	// revisits.
	Cache *runner.Cache
	// Journal write-ahead-logs completed payoff simulations for
	// crash-safe resumption; rerunning with the same journal replays the
	// trajectory byte-identically without re-simulating.
	Journal *runner.Journal
	// Ctx cancels the run between payoff simulations.
	Ctx context.Context
	// Audit validates every payoff simulation's physical invariants.
	Audit *check.Auditor
	// Trace records fresh payoff simulations' run traces.
	Trace *telemetry.Recorder
	// OnRecord, when non-nil, observes each trajectory record as it is
	// produced (cmd/adopt streams JSONL through this).
	OnRecord func(Record)
}

// Population is the per-class algorithm census: Counts[c][a] agents of
// class c run algorithm a.
type Population struct {
	Counts [][]int
}

// Result is one completed run.
type Result struct {
	// Trajectory holds Generations+1 records: the evaluated states
	// 0..Generations.
	Trajectory []Record
	// Final is the population after the last revision step.
	Final Population
	// FixedPoint reports whether the final state's scaled flow profile is
	// an (eps-)equilibrium: no single flow in any class gains more than
	// eps by switching algorithm (checked with game.Symmetric, one class
	// per RTT class).
	FixedPoint bool
	// Simulations and CacheHits count this run's payoff lookups that ran
	// fresh versus did not: a hit came from the cache or journal, or is a
	// revisit the run's payoff table served (see exp.PayoffTable; the
	// fixed-point check's prefetch of a held profile is not a revisit).
	Simulations int
	CacheHits   int
}

// withDefaults validates the config and fills defaults.
func (cfg Config) withDefaults() (Config, error) {
	// Every range check is written so that NaN fails it: NaN compares
	// false, so a check of the form x < 0 || x > 1 would let it through.
	if !positive(float64(cfg.Capacity)) {
		return cfg, fmt.Errorf("adopt: capacity %v is not positive and finite", cfg.Capacity)
	}
	if !positive(float64(cfg.Buffer)) {
		return cfg, fmt.Errorf("adopt: buffer %v is not positive and finite", cfg.Buffer)
	}
	if len(cfg.Classes) == 0 {
		cfg.Classes = []Class{{RTT: 40 * time.Millisecond, Weight: 1}}
	}
	for i, cl := range cfg.Classes {
		if cl.RTT <= 0 {
			return cfg, fmt.Errorf("adopt: class %d has non-positive RTT %v", i, cl.RTT)
		}
		if !positive(cl.Weight) {
			return cfg, fmt.Errorf("adopt: class %d weight %v is not positive and finite", i, cl.Weight)
		}
	}
	if len(cfg.Algorithms) == 0 {
		cfg.Algorithms = []string{"cubic", "reno", "bbr"}
	}
	if len(cfg.Algorithms) < 2 {
		return cfg, fmt.Errorf("adopt: need at least 2 algorithms, have %v", cfg.Algorithms)
	}
	for _, name := range cfg.Algorithms {
		if _, err := cc.AlgorithmByName(name); err != nil {
			return cfg, fmt.Errorf("adopt: %w", err)
		}
	}
	if cfg.Shares == nil {
		cfg.Shares = make([]float64, len(cfg.Algorithms))
		for i := range cfg.Shares {
			cfg.Shares[i] = 1
		}
	}
	if len(cfg.Shares) != len(cfg.Algorithms) {
		return cfg, fmt.Errorf("adopt: %d shares for %d algorithms", len(cfg.Shares), len(cfg.Algorithms))
	}
	total := 0.0
	for i, s := range cfg.Shares {
		if !(s >= 0 && s <= math.MaxFloat64) {
			return cfg, fmt.Errorf("adopt: share %v for %s is not non-negative and finite", s, cfg.Algorithms[i])
		}
		total += s
	}
	if !positive(total) {
		return cfg, fmt.Errorf("adopt: shares sum to %v, want a positive finite sum", total)
	}
	if cfg.Agents == 0 {
		cfg.Agents = 10000
	}
	if cfg.Agents < 1 {
		return cfg, fmt.Errorf("adopt: non-positive population %d", cfg.Agents)
	}
	if cfg.Generations < 0 {
		return cfg, fmt.Errorf("adopt: negative generations %d", cfg.Generations)
	}
	if cfg.Dynamics == "" {
		cfg.Dynamics = Replicator
	}
	if cfg.Dynamics != Replicator && cfg.Dynamics != BestResponse {
		return cfg, fmt.Errorf("adopt: unknown dynamics %q (want %q or %q)", cfg.Dynamics, Replicator, BestResponse)
	}
	if !(cfg.Noise >= 0 && cfg.Noise <= 1) {
		return cfg, fmt.Errorf("adopt: noise %v outside [0,1]", cfg.Noise)
	}
	if cfg.ReviseProb == 0 {
		cfg.ReviseProb = 1
	}
	if !(cfg.ReviseProb > 0 && cfg.ReviseProb <= 1) {
		return cfg, fmt.Errorf("adopt: revise probability %v outside (0,1]", cfg.ReviseProb)
	}
	if cfg.SimFlows == 0 {
		cfg.SimFlows = 20
	}
	if cells := len(cfg.Classes) * len(cfg.Algorithms); cfg.SimFlows < cells {
		return cfg, fmt.Errorf("adopt: %d sim flows cannot cover %d (class, algorithm) probe cells", cfg.SimFlows, cells)
	}
	if cfg.Backend == "" {
		cfg.Backend = scenario.BackendFluid
	}
	if cfg.Backend != scenario.BackendPacket && cfg.Backend != scenario.BackendFluid {
		return cfg, fmt.Errorf("adopt: unknown backend %q", cfg.Backend)
	}
	if cfg.EpsFraction == 0 {
		cfg.EpsFraction = 0.05
	}
	if !positive(cfg.EpsFraction) {
		return cfg, fmt.Errorf("adopt: eps fraction %v is not positive and finite", cfg.EpsFraction)
	}
	if cfg.Ctx == nil {
		cfg.Ctx = context.Background()
	}
	return cfg, nil
}

// positive reports whether x is positive and finite; NaN is neither.
func positive(x float64) bool { return x > 0 && x <= math.MaxFloat64 }

// initial seeds the population: agents are apportioned over classes by
// weight, then within each class over algorithms by the seed shares, both
// by largest remainder so the integer census is a pure function of the
// config.
func initial(cfg Config) Population {
	weights := make([]float64, len(cfg.Classes))
	for i, cl := range cfg.Classes {
		weights[i] = cl.Weight
	}
	perClass := apportion(cfg.Agents, weights)
	counts := make([][]int, len(cfg.Classes))
	for c := range counts {
		counts[c] = apportion(perClass[c], cfg.Shares)
	}
	return Population{Counts: counts}
}

// Run executes the adoption dynamics and reports the full trajectory.
func Run(cfg Config) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	tab := cfg.payoffTable()
	pop := initial(cfg)
	// Best-response revision draws: one stream per (generation, class),
	// pre-split in that serial order, so the draw sequence is a pure
	// function of the seed regardless of how payoffs were computed.
	revRoot := rng.New(cfg.Seed ^ 0x9e3779b97f4a7c15)

	res := Result{Trajectory: make([]Record, 0, cfg.Generations+1)}
	for gen := 0; gen <= cfg.Generations; gen++ {
		sim := probedSimCounts(cfg, pop)
		// No revision step follows the final record, so nothing would
		// read its deviation gains.
		pay, gain, err := generation(cfg.Ctx, tab, sim, gen < cfg.Generations)
		if err != nil {
			return Result{}, err
		}
		rec := makeRecord(gen, cfg, pop, sim, pay)
		if gen == cfg.Generations && !cfg.SkipCheck {
			fp, err := fixedPoint(cfg, tab, pop)
			if err != nil {
				return Result{}, err
			}
			res.FixedPoint = fp
			rec.FixedPoint = &fp
		}
		res.Trajectory = append(res.Trajectory, rec)
		if cfg.OnRecord != nil {
			cfg.OnRecord(rec)
		}
		if gen == cfg.Generations {
			break
		}
		switch cfg.Dynamics {
		case Replicator:
			pop = stepReplicator(cfg, pop, pay, gain)
		case BestResponse:
			pop = stepBestResponse(cfg, pop, gain, revRoot)
		}
	}
	res.Final = pop
	res.Simulations, res.CacheHits = tab.Simulations(), tab.CacheHits()
	return res, nil
}

// epsMbps is the indifference band shared by the revision rules and the
// fixed-point check: EpsFraction of the scaled game's fair share.
func (cfg Config) epsMbps() float64 {
	return cfg.EpsFraction * (cfg.Capacity / units.Rate(cfg.SimFlows)).Mbit()
}

// settled reports whether no occupied strategy of class c has a deviation
// gaining more than eps — the same one-flow-switch comparison
// game.Symmetric.IsEquilibrium and exp.FindNE make, which is what
// makes eps-equilibria absorbing: payoff differences *within* a profile
// are not switching incentives (the flow that switches lands in a
// different profile, usually a worse one — the paper's marginal-gains
// observation near the NE).
func settled(counts []int, gain [][]float64, eps float64) bool {
	for a, k := range counts {
		if k == 0 {
			continue
		}
		for _, g := range gain[a] {
			if g > eps {
				return false
			}
		}
	}
	return true
}

// stepReplicator applies discrete-time replicator dynamics per class:
// share′(a) ∝ share(a)·π(a)/π̄, mixed with Noise of the uniform
// distribution, re-apportioned to the class's integer census. A class with
// non-positive mean payoff keeps its census (no growth signal to follow),
// as does a settled one (no occupied strategy has a one-flow deviation
// gaining more than eps — revision inertia).
func stepReplicator(cfg Config, pop Population, pay [][]float64, gain [][][]float64) Population {
	eps := cfg.epsMbps()
	next := make([][]int, len(pop.Counts))
	for c, counts := range pop.Counts {
		n := sum(counts)
		next[c] = append([]int(nil), counts...)
		if n == 0 || settled(counts, gain[c], eps) {
			continue
		}
		mean := 0.0
		for a, k := range counts {
			mean += float64(k) / float64(n) * pay[c][a]
		}
		if mean <= 0 {
			continue
		}
		s := len(cfg.Algorithms)
		w := make([]float64, s)
		for a, k := range counts {
			w[a] = (1-cfg.Noise)*(float64(k)/float64(n))*(pay[c][a]/mean) + cfg.Noise/float64(s)
		}
		next[c] = apportion(n, w)
	}
	return Population{Counts: next}
}

// stepBestResponse has each agent revise independently: with probability
// ReviseProb it switches to its best deviation target — the algorithm
// whose one-flow-switch payoff gain is largest, ties to the lowest index —
// when that gain exceeds eps (revision inertia), except that with
// probability Noise it explores uniformly. The per-class draw streams are
// split first, serially in class order; each class then visits its agents
// in fixed (algorithm, agent) order on its own stream and writes only its
// own row, so the classes revise concurrently, on at most Pool.Workers()
// goroutines, and the step is deterministic in the seed.
func stepBestResponse(cfg Config, pop Population, gain [][][]float64, root *rng.Source) Population {
	s := len(cfg.Algorithms)
	eps, revise, noise := cfg.epsMbps(), cfg.ReviseProb, cfg.Noise
	srcs := make([]*rng.Source, len(pop.Counts))
	for c := range srcs {
		srcs[c] = root.Split()
	}
	next := make([][]int, len(pop.Counts))
	forEach(cfg.Pool.Workers(), len(pop.Counts), func(c int) {
		// Draw from a copy on this goroutine's stack: sibling streams are
		// allocated side by side, and a shared cache line would serialize
		// the classes' draws.
		src, row := *srcs[c], make([]int, s)
		for a, k := range pop.Counts[c] {
			best, bestGain := a, 0.0
			for t := 0; t < s; t++ {
				if t != a && gain[c][a][t] > bestGain {
					best, bestGain = t, gain[c][a][t]
				}
			}
			if bestGain <= eps {
				best = a // sub-eps gain: not worth switching for
			}
			src = reviseAgents(src, row, a, best, k, revise, noise)
		}
		next[c] = row
	})
	return Population{Counts: next}
}

// reviseAgents revises k agents that run algorithm a, in order on src,
// and adds each to its next algorithm's entry of row: an agent keeps a
// with probability 1-revise; a reviser explores, taking a uniformly drawn
// algorithm, with probability noise, and otherwise switches to best. It
// returns src advanced past the draws.
//
// src is advanced by value and its address is never taken, so the four
// state words stay in registers across the loop; only Intn, in the rare
// explore branch, takes the address of a temporary copy. Every agent
// draws its revise value, so the stream is the same at any revise; at 1 no
// value in [0, 1) keeps an agent, so the draw is not converted.
func reviseAgents(src rng.Source, row []int, a, best, k int, revise, noise float64) rng.Source {
	kept, switched := 0, 0
	for i := 0; i < k; i++ {
		var x uint64
		if src, x = src.Next(); revise < 1 && rng.Unit(x) >= revise {
			kept++ // keeps its algorithm this generation
			continue
		}
		if noise > 0 {
			if src, x = src.Next(); rng.Unit(x) < noise {
				tmp := src
				row[tmp.Intn(len(row))]++
				src = tmp
				continue
			}
		}
		switched++
	}
	row[a] += kept
	row[best] += switched
	return src
}

// forEach calls fn(0), …, fn(n-1) on at most workers goroutines and
// returns when every call has.
func forEach(workers, n int, fn func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// scaledCounts scales the population census down to SimFlows flows,
// apportioned over every (class, algorithm) cell by agent count. The rows
// share one array, in class-major order.
func scaledCounts(cfg Config, pop Population) [][]int {
	na := len(cfg.Algorithms)
	weights := make([]float64, len(cfg.Classes)*na)
	for c := range pop.Counts {
		for a, k := range pop.Counts[c] {
			weights[c*na+a] = float64(k)
		}
	}
	flat := apportion(cfg.SimFlows, weights)
	out := make([][]int, len(cfg.Classes))
	for c := range out {
		out[c] = flat[c*na : (c+1)*na]
	}
	return out
}

// probedSimCounts is the simulated flow profile of a census: its scaled
// counts, with each empty cell then topped up, in class-major order, to
// one probe flow taken from the currently largest cell, so extinct and
// rare strategies still earn an invasion payoff. The result is a pure
// function of the census, which is what makes revisited mixtures cache
// hits.
func probedSimCounts(cfg Config, pop Population) [][]int {
	sim := scaledCounts(cfg, pop)
	for _, row := range sim {
		for a := range row {
			if row[a] > 0 {
				continue
			}
			big := &sim[0][0] // the first largest cell in class-major order
			for _, r := range sim {
				for b := range r {
					if r[b] > *big {
						big = &r[b]
					}
				}
			}
			*big--
			row[a]++
		}
	}
	return sim
}

// fixedPoint checks whether the final census, scaled exactly (no probes),
// is an eps-equilibrium of the scaled game: no single flow gains more than
// eps (EpsFraction of the fair share) by switching algorithm. The profile
// and the game's deviations from it are looked up as one pooled batch
// first, so the check then reads the run's payoff table.
func fixedPoint(cfg Config, tab *exp.PayoffTable, pop Population) (bool, error) {
	base := scaledCounts(cfg, pop)
	g := tab.Game(cfg.Ctx, sizes(base))
	devs, err := g.Deviations(base)
	if err != nil {
		return false, err
	}
	if err := tab.Prefetch(cfg.Ctx, append([][][]int{base}, devs...)); err != nil {
		return false, err
	}
	return g.IsEquilibrium(base, cfg.epsMbps())
}

// sizes is the class sizes of profile k.
func sizes(k [][]int) []int {
	out := make([]int, len(k))
	for c, row := range k {
		out[c] = sum(row)
	}
	return out
}

// apportion distributes total into integer parts proportional to weights
// by the largest-remainder method, ties broken by lowest index; an
// all-zero weight vector distributes uniformly. Deterministic, exact sum.
func apportion(total int, weights []float64) []int {
	out := make([]int, len(weights))
	if total <= 0 || len(weights) == 0 {
		return out
	}
	wsum := 0.0
	for _, w := range weights {
		wsum += w
	}
	if wsum <= 0 {
		for i := range weights {
			out[i] = total / len(weights)
		}
		for i := 0; i < total-sum(out); i++ {
			out[i%len(weights)]++
		}
		return out
	}
	type rem struct {
		i    int
		frac float64
	}
	rems := make([]rem, len(weights))
	used := 0
	for i, w := range weights {
		exact := float64(total) * w / wsum
		out[i] = int(exact)
		used += out[i]
		rems[i] = rem{i, exact - float64(out[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for j := 0; j < total-used; j++ {
		out[rems[j%len(rems)].i]++
	}
	return out
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// payoffTable is the run's payoff table: one class per RTT class and one
// strategy per algorithm, spec groups in class-major, algorithm-minor
// order (the order is part of the canonical key, so one run's profiles all
// share a key shape). A profile's jitter seed is exp.ProfileSeed of its
// flattened counts, so any revisit of the same mixture — later
// generation, deviation check, resumed run — has the same key, and its
// payoff is a flow's mean throughput in Mbps.
func (cfg Config) payoffTable() *exp.PayoffTable {
	rtts := make([]time.Duration, len(cfg.Classes))
	for c, cl := range cfg.Classes {
		rtts[c] = cl.RTT
	}
	return &exp.PayoffTable{
		Base:       exp.PayoffBase(cfg.Capacity, cfg.Buffer, cfg.Duration, cfg.Backend),
		RTTs:       rtts,
		Algorithms: cfg.Algorithms,
		Seed:       func(k [][]int) uint64 { return exp.ProfileSeed(cfg.Seed, slices.Concat(k...)) },
		Utility:    func(r units.Rate, _ time.Duration) float64 { return r.Mbit() },
		Env:        exp.Env{Cache: cfg.Cache, Journal: cfg.Journal, Audit: cfg.Audit, Trace: cfg.Trace},
		Pool:       cfg.Pool,
	}
}

// generation evaluates one generation's profile and, when withGains is
// set, its revision signal: gain[c][a][t] is how much one class-c flow of
// algorithm a would gain by switching to t — its payoff in the
// post-switch profile minus its current one, the exact comparison the
// equilibrium checks make. The profile and all of its one-flow deviations
// are known up front, so they are used as one pooled batch. Deviation
// profiles recur along a trajectory and the table serves them, so steady
// states cost no fresh simulations.
func generation(ctx context.Context, tab *exp.PayoffTable, sim [][]int, withGains bool) ([][]float64, [][][]float64, error) {
	profiles := [][][]int{sim}
	if withGains {
		devs, err := tab.Game(ctx, sizes(sim)).Deviations(sim)
		if err != nil {
			return nil, nil, err
		}
		profiles = append(profiles, devs...)
	}
	pays, err := tab.Use(ctx, profiles)
	if err != nil {
		return nil, nil, err
	}
	pay := pays[0]
	if !withGains {
		return pay, nil, nil
	}
	// pays[1:] are the deviations' payoffs, in Deviations' (class, from,
	// to) order; a strategy with no flow has none (probes make this rare).
	gain := make([][][]float64, len(sim))
	i := 1
	for c, row := range sim {
		gain[c] = make([][]float64, len(row))
		for a := range row {
			gain[c][a] = make([]float64, len(row))
			for t := range row {
				if row[a] > 0 && t != a {
					gain[c][a][t] = pays[i][c][t] - pay[c][a]
					i++
				}
			}
		}
	}
	return pay, gain, nil
}
