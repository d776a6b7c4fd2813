// Command nash predicts and (optionally) empirically verifies the Nash
// Equilibrium distribution of CUBIC and a competing algorithm at one
// bottleneck.
//
// Usage:
//
//	nash -capacity 100 -rtt 40 -buffer 5 -n 20 -alg bbr -verify -scale quick
//	nash -n 30 -verify -workers 8 -cache results.json -strict
//
// With -verify, every payoff simulation runs on the -workers pool and
// memoizes per-scenario results in -cache. The full scale's exhaustive
// scan fans the whole payoff table out; the quick and smoke scales' walk
// runs only rows it is certain to read, mostly two at a time: its start
// pair, each row it waits on together with the row past it, and the
// neighbourhood of the point it settles on. Neither flag affects the
// equilibria found or the simulation and cache-hit counts (see
// DESIGN.md, "Parallel execution & determinism").
// SIGINT/SIGTERM cancel the search gracefully — in-flight simulations
// drain and the cache is saved on every exit path, so an interrupted
// exhaustive scan keeps its warmed payoff table. -strict audits every
// payoff simulation against physical invariants and fails the run on any
// violation.
//
// -resume names a crash-safe journal of completed payoff simulations:
// rerunning the same search with the same journal skips them, even after
// a crash or SIGKILL that lost the in-memory cache. -timeout arms a
// per-simulation stall watchdog and -retries retries stalled or
// transiently failed units; retries re-derive the same seed.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"bbrnash/internal/cc"
	"bbrnash/internal/cli"
	"bbrnash/internal/core"
	"bbrnash/internal/exp"
	"bbrnash/internal/units"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	env := cli.New("nash", cli.Progress|cli.Profile|cli.Strict|cli.Trace|cli.Report|cli.Backend|cli.Algorithms)
	var (
		capMbps = flag.Float64("capacity", 100, "bottleneck capacity in Mbps")
		rttMs   = flag.Float64("rtt", 40, "base RTT in milliseconds")
		bufBDP  = flag.Float64("buffer", 5, "buffer size in BDP multiples")
		n       = flag.Int("n", 20, "total number of flows")
		alg     = flag.String("alg", "bbr", "non-CUBIC algorithm")
		verify  = flag.Bool("verify", false, "also search for the equilibrium empirically (simulations)")
		scaleN  = flag.String("scale", "quick", "verification scale: full, quick or smoke")
	)
	if env.Parse() {
		return 0
	}

	capacity := units.Rate(*capMbps) * units.Mbps
	rtt := time.Duration(*rttMs * float64(time.Millisecond))
	buffer := units.BufferBytes(capacity, rtt, *bufBDP)

	region, err := core.PredictNashRegion(core.NashScenario{
		Capacity: capacity, Buffer: buffer, RTT: rtt, N: *n,
	})
	if err != nil {
		return env.Fail(err)
	}
	fmt.Printf("model (for BBR): equilibrium at %.1f to %.1f CUBIC flows of %d (buffer %.1f BDP)\n",
		region.CubicLow(), region.CubicHigh(), *n, *bufBDP)

	if !*verify {
		return 0
	}
	defer func() { env.Close(code) }()
	if err := env.Open(); err != nil {
		return env.Fail(err)
	}
	scale, err := exp.ScaleByName(*scaleN)
	if err != nil {
		return env.Fail(err)
	}
	if _, err := cc.AlgorithmByName(*alg); err != nil {
		return env.Fail(err)
	}

	fmt.Printf("verifying empirically with %s flows (%s scale, %d trials, %d workers)...\n",
		*alg, scale.Name, scale.Trials, env.Pool.Workers())
	start := time.Now()
	for trial := 0; trial < scale.Trials; trial++ {
		res, err := exp.FindNE(exp.NESearchConfig{
			Capacity: capacity, Buffer: buffer, RTT: rtt, N: *n,
			Duration: scale.FlowDuration, Seed: uint64(trial+1) * 1e6,
			X: *alg, Exhaustive: scale.Exhaustive, Backend: env.Backend,
			Pool: env.Pool, Cache: env.Cache, Journal: env.Journal, Ctx: env.Ctx, Audit: env.Audit, Trace: env.Trace,
		})
		if err != nil {
			return env.Fail(fmt.Errorf("trial %d: %w", trial+1, err))
		}
		fmt.Printf("trial %d: equilibria at", trial+1)
		for _, k := range res.EquilibriaX {
			fmt.Printf(" %d CUBIC/%d %s", *n-k, k, *alg)
		}
		fmt.Printf(" (%d simulations, %d cache hits)\n", res.Simulations, res.CacheHits)
	}
	fmt.Printf("verified in %v\n", time.Since(start).Round(time.Millisecond))
	return env.Verdict()
}
