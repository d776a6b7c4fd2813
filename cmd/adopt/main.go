// Command adopt runs deterministic evolutionary dynamics over a
// population of congestion-control deployments: does a seeded mix of
// CUBIC, Reno and BBR converge toward BBR dominance, a stable
// coexistence, or something else, at this bottleneck?
//
// Usage:
//
//	adopt -capacity 100 -buffer 5 -agents 100000 -generations 100
//	adopt -algs cubic,bbr -shares 0.9,0.1 -dynamics bestresponse -noise 0.02
//	adopt -rtts 20,80 -class-weights 1,1 -out trajectory.jsonl -workers 8
//
// The trajectory is written as JSONL (one record per generation, see
// internal/adopt.Record) to -out or stdout, streamed as generations
// complete. Payoff simulations run on the fluid backend by default and
// are memoized in -cache / journaled in -resume: rerunning with the same
// journal replays the trajectory byte-identically without re-simulating,
// even after a crash. The trajectory is byte-identical at any -workers
// count. SIGINT/SIGTERM cancel the run gracefully; the cache is saved on
// every exit path.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bbrnash/internal/adopt"
	"bbrnash/internal/check"
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
		capMbps     = flag.Float64("capacity", 100, "bottleneck capacity in Mbps")
		bufBDP      = flag.Float64("buffer", 5, "buffer size in BDP multiples of the largest class RTT")
		rttsF       = flag.String("rtts", "40", "comma-separated RTT class list in milliseconds")
		weightsF    = flag.String("class-weights", "", "comma-separated class population weights ('' = uniform)")
		algsF       = flag.String("algs", "cubic,reno,bbr", "comma-separated strategy set (cc registry names)")
		sharesF     = flag.String("shares", "", "comma-separated initial algorithm shares ('' = uniform)")
		agents      = flag.Int("agents", 10000, "population size")
		generations = flag.Int("generations", 100, "revision generations")
		dynamicsF   = flag.String("dynamics", adopt.Replicator, "revision rule: replicator or bestresponse")
		noise       = flag.Float64("noise", 0, "mutation/exploration rate in [0,1]")
		revise      = flag.Float64("revise", 1, "best response: per-agent revision probability")
		simFlows    = flag.Int("simflows", 20, "flow count the population is scaled to per payoff simulation")
		durF        = flag.Duration("duration", 0, "payoff simulation length (0 = harness default; floored to the NE payoff duration)")
		seed        = flag.Uint64("seed", 1, "master seed: payoff jitter and revision draws")
		backendF    = flag.String("backend", scenario.BackendFluid, "payoff engine: fluid or packet")
		workers     = flag.Int("workers", 0, "parallel workers for the fixed-point check (0 = GOMAXPROCS); never changes the trajectory")
		cachePath   = flag.String("cache", "", "path to on-disk result cache ('' = in-memory only)")
		resumePath  = flag.String("resume", "", "path to crash-safe resume journal: rerunning replays completed payoff simulations byte-identically ('' = no journal)")
		timeout     = flag.Duration("timeout", 0, "per-simulation stall watchdog (0 = off)")
		retries     = flag.Int("retries", 0, "retry a stalled or transiently failed simulation up to this many times")
		strict      = flag.Bool("strict", false, "audit every payoff simulation against physical invariants; violations fail the run")
		traceDir    = flag.String("trace", "", "write per-payoff-simulation run traces into this directory ('' = no tracing)")
		traceEvery  = flag.Duration("trace-interval", 0, "trace sampling interval (0 = default 100ms)")
		reportPath  = flag.String("report", "", "write a machine-readable JSON run report to this file on exit ('' = no report)")
		outPath     = flag.String("out", "", "write the JSONL trajectory to this file ('' = stdout)")
		progress    = flag.Bool("progress", false, "print a per-generation summary line to stderr")
		noCheck     = flag.Bool("no-check", false, "skip the final fixed-point equilibrium check")
		listAlgs    = flag.Bool("list-algorithms", false, "print the algorithm registry and exit")
	)
	flag.Parse()

	if *listAlgs {
		fmt.Println(strings.Join(scenario.Algorithms(), "\n"))
		return 0
	}

	rtts, err := parseFloats(*rttsF)
	if err != nil {
		return fail(fmt.Errorf("-rtts: %w", err))
	}
	weights := make([]float64, len(rtts))
	for i := range weights {
		weights[i] = 1
	}
	if *weightsF != "" {
		if weights, err = parseFloats(*weightsF); err != nil {
			return fail(fmt.Errorf("-class-weights: %w", err))
		}
		if len(weights) != len(rtts) {
			return fail(fmt.Errorf("%d class weights for %d RTT classes", len(weights), len(rtts)))
		}
	}
	classes := make([]adopt.Class, len(rtts))
	maxRTT := time.Duration(0)
	for i, ms := range rtts {
		classes[i] = adopt.Class{RTT: time.Duration(ms * float64(time.Millisecond)), Weight: weights[i]}
		if classes[i].RTT > maxRTT {
			maxRTT = classes[i].RTT
		}
	}
	algs := strings.Split(*algsF, ",")
	var shares []float64
	if *sharesF != "" {
		if shares, err = parseFloats(*sharesF); err != nil {
			return fail(fmt.Errorf("-shares: %w", err))
		}
	}
	capacity := units.Rate(*capMbps) * units.Mbps
	buffer := units.BufferBytes(capacity, maxRTT, *bufBDP)

	// The -report defer is registered before any component is built and
	// reads the (nil-safe) components at exit, so interrupted and failed
	// runs still leave a machine-readable record.
	var (
		rec     *telemetry.Recorder
		cache   *runner.Cache
		journal *runner.Journal
		pool    *runner.Pool
	)
	begin := time.Now()
	if *reportPath != "" {
		defer func() {
			if err := telemetry.Collect("adopt", outcomeOf(code), time.Since(begin),
				pool, cache, journal, rec).Write(*reportPath); err != nil {
				fmt.Fprintln(os.Stderr, "adopt:", err)
			}
		}()
	}
	if *traceDir != "" {
		if rec, err = telemetry.NewRecorder(*traceDir); err != nil {
			return fail(err)
		}
		rec.SetInterval(*traceEvery)
	}
	pool = runner.NewPool(*workers).SetWatchdog(*timeout).SetRetry(*retries, time.Second)
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

	out := io.Writer(os.Stdout)
	var outFile *os.File
	if *outPath != "" {
		if outFile, err = os.Create(*outPath); err != nil {
			return fail(err)
		}
		defer outFile.Close() // early exits; the success path checks Close
		out = outFile
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer saveCache(cache, *cachePath)
	// A failed trajectory write cancels the run: the rest of the
	// trajectory could not be written either.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	var writeErr error

	res, err := adopt.Run(adopt.Config{
		Capacity:    capacity,
		Buffer:      buffer,
		Classes:     classes,
		Algorithms:  algs,
		Shares:      shares,
		Agents:      *agents,
		Generations: *generations,
		Dynamics:    *dynamicsF,
		Noise:       *noise,
		ReviseProb:  *revise,
		SimFlows:    *simFlows,
		Duration:    *durF,
		Seed:        *seed,
		Backend:     *backendF,
		SkipCheck:   *noCheck,
		Pool:        pool,
		Cache:       cache,
		Journal:     journal,
		Ctx:         runCtx,
		Audit:       audit,
		Trace:       rec,
		OnRecord: func(r adopt.Record) {
			if writeErr != nil {
				return
			}
			if writeErr = adopt.WriteJSONL(out, []adopt.Record{r}); writeErr != nil {
				cancelRun()
				return
			}
			if *progress {
				fmt.Fprintf(os.Stderr, "adopt: generation %d/%d mean payoff %.3f Mbps\n",
					r.Generation, *generations, r.MeanPayoffMbps)
			}
		},
	})
	if writeErr != nil {
		return fail(fmt.Errorf("writing trajectory: %w", writeErr))
	}
	if err != nil {
		return report(ctx, err)
	}
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			return fail(fmt.Errorf("writing trajectory: %w", err))
		}
	}

	fmt.Fprintf(os.Stderr, "adopt: %d agents, %d generations in %v (%d simulations, %d cache hits)\n",
		*agents, *generations, time.Since(begin).Round(time.Millisecond), res.Simulations, res.CacheHits)
	final := res.Trajectory[len(res.Trajectory)-1]
	for _, st := range final.Classes {
		parts := make([]string, 0, len(algs))
		for _, a := range algs {
			parts = append(parts, fmt.Sprintf("%s %.1f%%", a, 100*st.Shares[a]))
		}
		fmt.Fprintf(os.Stderr, "adopt: class %gms final shares: %s\n", st.RTTMs, strings.Join(parts, ", "))
	}
	if !*noCheck {
		fmt.Fprintf(os.Stderr, "adopt: fixed point (per-class eps-equilibrium): %v\n", res.FixedPoint)
	}
	return auditVerdict(audit)
}

// report explains a run failure: an interrupt exits 130, a failing payoff
// simulation is named by canonical scenario key, and a captured panic
// includes its stack.
func report(ctx context.Context, err error) int {
	if ctx.Err() != nil && errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "adopt: interrupted; cache saved (rerun with -resume to replay completed simulations)")
		return 130
	}
	var st *runner.StallError
	if errors.As(err, &st) {
		fmt.Fprintln(os.Stderr, "adopt:", err)
		fmt.Fprintln(os.Stderr, "adopt: raise -timeout or add -retries if the simulation was merely slow")
		return 1
	}
	var ue *runner.UnitError
	if errors.As(err, &ue) && ue.Recovered != nil {
		fmt.Fprintln(os.Stderr, "adopt:", err)
		fmt.Fprintf(os.Stderr, "adopt: unit panic stack:\n%s", ue.Stack)
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
		fmt.Fprintln(os.Stderr, "adopt: strict audit: all invariants held")
		return 0
	}
	for _, v := range vs {
		fmt.Fprintf(os.Stderr, "adopt: strict: %s\n", v)
	}
	fmt.Fprintf(os.Stderr, "adopt: strict: %d invariant violation(s)\n", len(vs))
	return 1
}

// saveCache persists the memoized payoffs; deferred so it runs on every
// exit path, including errors and interrupts.
func saveCache(cache *runner.Cache, path string) {
	if err := cache.Save(); err != nil {
		fmt.Fprintln(os.Stderr, "adopt: saving cache:", err)
		return
	}
	if path != "" && cache.Misses() > 0 {
		fmt.Fprintf(os.Stderr, "adopt: cache saved to %s (%d entries)\n", path, cache.Len())
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

// parseFloats parses a comma-separated float list.
func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", p)
		}
		out[i] = v
	}
	return out, nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "adopt:", err)
	return 1
}
