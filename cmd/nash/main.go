// Command nash predicts and (optionally) empirically verifies the Nash
// Equilibrium distribution of CUBIC and a competing algorithm at one
// bottleneck.
//
// Usage:
//
//	nash -capacity 100 -rtt 40 -buffer 5 -n 20 -alg bbr -verify -scale quick
//	nash -n 30 -verify -workers 8 -cache results.json -strict
//
// With -verify, the payoff-table simulations fan out across -workers
// cores and memoize per-scenario results in -cache; neither affects the
// equilibria found (see DESIGN.md, "Parallel execution & determinism").
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
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bbrnash/internal/cc"
	"bbrnash/internal/check"
	"bbrnash/internal/core"
	"bbrnash/internal/exp"
	"bbrnash/internal/runner"
	"bbrnash/internal/scenario"
	"bbrnash/internal/telemetry"
	"bbrnash/internal/units"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	var (
		capMbps    = flag.Float64("capacity", 100, "bottleneck capacity in Mbps")
		rttMs      = flag.Float64("rtt", 40, "base RTT in milliseconds")
		bufBDP     = flag.Float64("buffer", 5, "buffer size in BDP multiples")
		n          = flag.Int("n", 20, "total number of flows")
		alg        = flag.String("alg", "bbr", "non-CUBIC algorithm")
		verify     = flag.Bool("verify", false, "also search for the equilibrium empirically (simulations)")
		scaleN     = flag.String("scale", "quick", "verification scale: full, quick or smoke")
		backendF   = flag.String("backend", "", "execution engine for payoff simulations: packet or fluid ('' = packet)")
		workers    = flag.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS)")
		cachePath  = flag.String("cache", "", "path to on-disk result cache ('' = in-memory only)")
		resumePath = flag.String("resume", "", "path to crash-safe resume journal; an existing journal's completed payoff simulations are skipped ('' = no journal)")
		timeout    = flag.Duration("timeout", 0, "per-simulation stall watchdog: cancel a payoff unit making no progress for this long (0 = off)")
		retries    = flag.Int("retries", 0, "retry a stalled or transiently failed simulation up to this many times (retries re-derive the same seed)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		strict     = flag.Bool("strict", false, "audit every payoff simulation against physical invariants; violations fail the run")
		traceDir   = flag.String("trace", "", "write per-payoff-simulation run traces (JSONL + CSV time series and events) into this directory ('' = no tracing; needs -verify)")
		traceEvery = flag.Duration("trace-interval", 0, "trace sampling interval (0 = default 100ms)")
		reportPath = flag.String("report", "", "write a machine-readable JSON run report to this file on exit ('' = no report; needs -verify)")
		progress   = flag.Duration("progress", 0, "print a progress line to stderr this often during verification (0 = off)")
		listAlgs   = flag.Bool("list-algorithms", false, "print the algorithm registry and exit")
	)
	flag.Parse()

	if *listAlgs {
		fmt.Println(strings.Join(scenario.Algorithms(), "\n"))
		return 0
	}

	capacity := units.Rate(*capMbps) * units.Mbps
	rtt := time.Duration(*rttMs * float64(time.Millisecond))
	buffer := units.BufferBytes(capacity, rtt, *bufBDP)

	region, err := core.PredictNashRegion(core.NashScenario{
		Capacity: capacity, Buffer: buffer, RTT: rtt, N: *n,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Printf("model (for BBR): equilibrium at %.1f to %.1f CUBIC flows of %d (buffer %.1f BDP)\n",
		region.CubicLow(), region.CubicHigh(), *n, *bufBDP)

	if !*verify {
		return 0
	}
	// The -report defer is registered before any component is built and
	// reads the (nil-safe) components at exit, so interrupted and failed
	// searches still leave a machine-readable record.
	var (
		rec     *telemetry.Recorder
		cache   *runner.Cache
		journal *runner.Journal
		pool    *runner.Pool
	)
	begin := time.Now()
	if *reportPath != "" {
		defer func() {
			if err := telemetry.Collect("nash", outcomeOf(code), time.Since(begin),
				pool, cache, journal, rec).Write(*reportPath); err != nil {
				fmt.Fprintln(os.Stderr, "nash:", err)
			}
		}()
	}
	if *traceDir != "" {
		if rec, err = telemetry.NewRecorder(*traceDir); err != nil {
			return fail(err)
		}
		rec.SetInterval(*traceEvery)
	}
	var prof *runner.CPUProfile
	if *cpuProfile != "" {
		if prof, err = runner.StartCPUProfile(*cpuProfile); err != nil {
			return fail(err)
		}
	}
	// Stop the profile through the same deferred single-exit cleanup that
	// saves the cache: an exit path that skips it (audit failure, interrupt)
	// would leave a truncated profile.
	defer stopProfile(prof)
	scale, err := exp.ScaleByName(*scaleN)
	if err != nil {
		return fail(err)
	}
	if *backendF != "" {
		if err := validBackend(*backendF); err != nil {
			return fail(err)
		}
	}
	if _, err := cc.AlgorithmByName(*alg); err != nil {
		return fail(err)
	}
	pool = runner.NewPool(*workers).SetWatchdog(*timeout).SetRetry(*retries, time.Second)
	if *progress > 0 {
		pool.SetProgress(*progress, func(p runner.ProgressInfo) {
			fmt.Fprintf(os.Stderr, "nash: %d/%d payoff simulations in %v (%d retries, %d stalls)\n",
				p.Done, p.Total, p.Elapsed.Round(time.Second), p.Retries, p.Stalls)
		})
	}
	cache, err = runner.OpenCache(*cachePath, scenario.KeyVersion)
	if err != nil {
		return fail(err)
	}
	defer cache.Close()
	journal, err = runner.OpenJournal(*resumePath, scenario.KeyVersion)
	if err != nil {
		return fail(err)
	}
	defer journal.Close()
	var audit *check.Auditor
	if *strict {
		audit = check.New()
	}

	// SIGINT/SIGTERM cancel the search; the deferred save still persists
	// every payoff simulated so far.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer saveCache(cache, *cachePath)

	fmt.Printf("verifying empirically with %s flows (%s scale, %d trials, %d workers)...\n",
		*alg, scale.Name, scale.Trials, pool.Workers())
	start := time.Now()
	for trial := 0; trial < scale.Trials; trial++ {
		res, err := exp.FindNE(exp.NESearchConfig{
			Capacity: capacity, Buffer: buffer, RTT: rtt, N: *n,
			Duration: scale.FlowDuration, Seed: uint64(trial+1) * 1e6,
			X: *alg, Exhaustive: scale.Exhaustive, Backend: *backendF,
			Pool: pool, Cache: cache, Journal: journal, Ctx: ctx, Audit: audit, Trace: rec,
		})
		if err != nil {
			return report(ctx, fmt.Errorf("trial %d: %w", trial+1, err))
		}
		fmt.Printf("trial %d: equilibria at", trial+1)
		for _, k := range res.EquilibriaX {
			fmt.Printf(" %d CUBIC/%d %s", *n-k, k, *alg)
		}
		fmt.Printf(" (%d simulations, %d cache hits)\n", res.Simulations, res.CacheHits)
	}
	fmt.Printf("verified in %v\n", time.Since(start).Round(time.Millisecond))
	return auditVerdict(audit)
}

// report explains a search failure: an interrupt exits 130, a failing
// payoff simulation is named by canonical scenario key, and a captured
// panic includes its stack.
func report(ctx context.Context, err error) int {
	if ctx.Err() != nil && errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "nash: interrupted; in-flight simulations drained, cache saved (rerun with -resume to skip completed simulations)")
		return 130
	}
	var st *runner.StallError
	if errors.As(err, &st) {
		fmt.Fprintln(os.Stderr, "nash:", err)
		fmt.Fprintln(os.Stderr, "nash: raise -timeout or add -retries if the simulation was merely slow")
		return 1
	}
	var ue *runner.UnitError
	if errors.As(err, &ue) && ue.Recovered != nil {
		fmt.Fprintln(os.Stderr, "nash:", err)
		fmt.Fprintf(os.Stderr, "nash: unit panic stack:\n%s", ue.Stack)
		return 1
	}
	return fail(err)
}

// auditVerdict reports the -strict outcome.
func auditVerdict(audit *check.Auditor) int {
	if audit == nil {
		return 0
	}
	vs := audit.Violations()
	if len(vs) == 0 {
		fmt.Println("strict audit: all invariants held")
		return 0
	}
	for _, v := range vs {
		fmt.Fprintf(os.Stderr, "nash: strict: %s\n", v)
	}
	fmt.Fprintf(os.Stderr, "nash: strict: %d invariant violation(s)\n", len(vs))
	return 1
}

// saveCache persists the memoized payoffs; deferred so it runs on every
// exit path, including errors and interrupts.
func saveCache(cache *runner.Cache, path string) {
	if err := cache.Save(); err != nil {
		fmt.Fprintln(os.Stderr, "nash: saving cache:", err)
		return
	}
	if path != "" && cache.Misses() > 0 {
		fmt.Printf("cache saved to %s (%d entries)\n", path, cache.Len())
	}
}

// stopProfile flushes and closes the -cpuprofile file; deferred alongside
// saveCache so every exit path leaves a readable profile.
func stopProfile(prof *runner.CPUProfile) {
	if err := prof.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "nash:", err)
	}
}

// outcomeOf maps the process exit code to the run report's outcome field.
func outcomeOf(code int) string {
	switch {
	case code == 0:
		return "ok"
	case code == 130:
		return "interrupted"
	default:
		return "failed"
	}
}

// validBackend rejects a -backend value that names no execution engine.
func validBackend(name string) error {
	for _, b := range scenario.Backends() {
		if name == b {
			return nil
		}
	}
	return fmt.Errorf("unknown backend %q (want %s)", name, strings.Join(scenario.Backends(), " or "))
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "nash:", err)
	return 1
}
