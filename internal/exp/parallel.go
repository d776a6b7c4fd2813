package exp

import (
	"context"
	"time"

	"bbrnash/internal/rng"
	"bbrnash/internal/runner"
	"bbrnash/internal/scenario"
	"bbrnash/internal/units"
)

// This file is the harness's boundary with internal/runner: seed
// pre-derivation and the parallel sweep fan-out.
//
// Determinism contract: every simulation unit's seed is derived up front
// from the submitting goroutine's rng stream, units never share state, and
// results are collected in submission order — so a sweep produces
// byte-identical output at any worker count, with or without the cache.

// trialSeeds pre-derives n unit seeds from base. Element i is the seed the
// i-th successive rng.Source.Split child would be constructed from, so the
// assignment is fixed before any worker starts.
func trialSeeds(base uint64, n int) []uint64 {
	r := rng.New(base)
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}

// ProfileSeed derives the jitter seed for one group profile as a pure
// function of (base, profile) — FNV-1a over the profile folded into the
// base — so a profile's payoff simulation has one canonical key no matter
// in which order a search visits it. Other layers that evaluate payoffs by
// count profile (internal/adopt) use it too: revisiting a profile — in any
// order, in any generation — re-derives the same seed and therefore the
// same canonical scenario key, which is what makes repeated mixture visits
// cache hits instead of fresh simulations.
func ProfileSeed(base uint64, k []int) uint64 {
	const offset, prime = uint64(0xcbf29ce484222325), uint64(0x100000001b3)
	h := offset
	for _, v := range k {
		h ^= uint64(v) + 1
		h *= prime
	}
	return rng.New(base ^ h).Uint64()
}

// SweepPoint is one averaged point of a scenario sweep: per-group class
// averages and aggregates in spec group order, plus the shared link
// statistics, each averaged over the sweep's trials.
type SweepPoint struct {
	// PerFlow[g] is spec group g's average per-flow throughput (0 if the
	// group is empty); Agg[g] is the group's aggregate.
	PerFlow []units.Rate
	Agg     []units.Rate
	// Utilization is total delivered rate over capacity.
	Utilization float64
	// MeanQueueDelay is the average bottleneck queueing delay.
	MeanQueueDelay time.Duration
}

// Sweep runs the n-point scenario sweep specAt(0) … specAt(n-1), each
// point averaged over the scale's jittered trials (the spec's Seed field is
// overwritten with the trial seed). The flat point×trial job list fans out
// through the scale's Pool, per-simulation results are memoized in the
// scale's Cache under each spec's canonical key, and collection order is
// submission order — output is byte-identical at any worker count.
// Per-trial seeds are pre-derived from seed and shared across points,
// matching the paper's protocol of repeating one jitter schedule over a
// sweep.
//
// Execution is fault-tolerant: cancelling s.Ctx or one unit failing stops
// dispatch at any worker count, in-flight units drain, and the returned
// error is a *runner.UnitError naming the failing scenario's canonical key
// (a panicking simulation is captured the same way).
func (s Scale) Sweep(seed uint64, n int, specAt func(i int) scenario.Spec) ([]SweepPoint, error) {
	trials := s.Trials
	if trials < 1 {
		trials = 1
	}
	seeds := trialSeeds(seed, trials)
	env := Env{Cache: s.Cache, Journal: s.Journal, Audit: s.Audit, Trace: s.Trace}
	flat, err := runner.MapCtx(ctxOr(s.Ctx), s.Pool, n*trials, func(uctx context.Context, j int) (SpecResult, error) {
		sp := specAt(j / trials)
		sp.Seed = seeds[j%trials]
		if s.Backend != "" {
			sp.Backend = s.Backend
		}
		res, _, err := Run(uctx, sp, env)
		return res, err
	})
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, n)
	for i := range out {
		out[i] = averageSpecs(len(specAt(i).Groups), flat[i*trials:(i+1)*trials])
	}
	return out, nil
}

// averageSpecs folds per-trial spec results into one sweep point with ng
// groups (the spec's group count — a cached result with a drifted shape
// degrades to empty classes). Per-flow stats are per-trial artifacts and
// are not aggregated.
func averageSpecs(ng int, rs []SpecResult) SweepPoint {
	pt := SweepPoint{
		PerFlow: make([]units.Rate, ng),
		Agg:     make([]units.Rate, ng),
	}
	for _, r := range rs {
		for g := 0; g < ng; g++ {
			stats := r.group(g)
			agg := aggRate(stats)
			pt.Agg[g] += agg
			if len(stats) > 0 {
				pt.PerFlow[g] += agg / units.Rate(len(stats))
			}
		}
		pt.Utilization += r.Link.Utilization
		pt.MeanQueueDelay += r.Link.MeanQueueDelay
	}
	f := units.Rate(len(rs))
	for g := 0; g < ng; g++ {
		pt.Agg[g] /= f
		pt.PerFlow[g] /= f
	}
	pt.Utilization /= float64(len(rs))
	pt.MeanQueueDelay /= time.Duration(len(rs))
	return pt
}
