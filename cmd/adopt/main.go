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
// even after a crash. -workers runs each generation's payoffs — the
// profile and its one-flow deviations — in parallel, so it speeds up every
// generation, and -timeout/-retries guard every payoff. It also bounds how
// many RTT classes best response revises at once. The trajectory is
// byte-identical at any -workers count. SIGINT/SIGTERM cancel the run
// gracefully; the cache is saved on every exit path.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"bbrnash/internal/adopt"
	"bbrnash/internal/cli"
	"bbrnash/internal/scenario"
	"bbrnash/internal/units"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	env := cli.New("adopt", cli.Profile|cli.Strict|cli.Trace|cli.Report|cli.Algorithms)
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
		revise      = flag.Float64("revise", 1, "best response: per-agent revision probability in (0,1]")
		simFlows    = flag.Int("simflows", 20, "flow count the population is scaled to per payoff simulation")
		durF        = flag.Duration("duration", 0, "payoff simulation length (0 = harness default; floored to the NE payoff duration)")
		seed        = flag.Uint64("seed", 1, "master seed: payoff jitter and revision draws")
		backendF    = flag.String("backend", scenario.BackendFluid, "payoff engine: fluid or packet")
		outPath     = flag.String("out", "", "write the JSONL trajectory to this file ('' = stdout)")
		progress    = flag.Bool("progress", false, "print a per-generation summary line to stderr")
		noCheck     = flag.Bool("no-check", false, "skip the final fixed-point equilibrium check")
	)
	if env.Parse() {
		return 0
	}
	// adopt.Config reads zero as "use the default", so without these
	// checks -revise 0, -agents 0 and -simflows 0 would run with 1, 10000
	// and 20 instead of failing. adopt.Run rejects a NaN noise too, but
	// without naming the flag. Each check fails NaN, as cli.ParseFloats
	// fails it in the lists.
	switch {
	case !(*revise > 0 && *revise <= 1):
		return env.Fail(fmt.Errorf("-revise %v outside (0, 1]", *revise))
	case !(*noise >= 0 && *noise <= 1):
		return env.Fail(fmt.Errorf("-noise %v outside [0, 1]", *noise))
	case *agents < 1:
		return env.Fail(fmt.Errorf("-agents %d below 1", *agents))
	case *simFlows < 1:
		return env.Fail(fmt.Errorf("-simflows %d below 1", *simFlows))
	}

	rtts, err := cli.ParseFloats(*rttsF)
	if err != nil {
		return env.Fail(fmt.Errorf("-rtts %s: %w", *rttsF, err))
	}
	weights := make([]float64, len(rtts))
	for i := range weights {
		weights[i] = 1
	}
	if *weightsF != "" {
		if weights, err = cli.ParseFloats(*weightsF); err != nil {
			return env.Fail(fmt.Errorf("-class-weights %s: %w", *weightsF, err))
		}
		if len(weights) != len(rtts) {
			return env.Fail(fmt.Errorf("%d class weights for %d RTT classes", len(weights), len(rtts)))
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
	shares, err := cli.ParseFloats(*sharesF)
	if err != nil {
		return env.Fail(fmt.Errorf("-shares %s: %w", *sharesF, err))
	}
	capacity := units.Rate(*capMbps) * units.Mbps
	buffer := units.BufferBytes(capacity, maxRTT, *bufBDP)

	begin := time.Now()
	defer func() { env.Close(code) }()
	if err := env.Open(); err != nil {
		return env.Fail(err)
	}

	// -out is created when the first record arrives, so a config that
	// adopt.Run rejects leaves no empty trajectory file behind.
	out := io.Writer(os.Stdout)
	var outFile *os.File
	defer func() {
		if outFile != nil {
			outFile.Close() // early exits; the success path checks Close
		}
	}()

	// A failed trajectory write cancels the run: the rest of the
	// trajectory could not be written either.
	runCtx, cancelRun := context.WithCancel(env.Ctx)
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
		Pool:        env.Pool,
		Cache:       env.Cache,
		Journal:     env.Journal,
		Ctx:         runCtx,
		Audit:       env.Audit,
		Trace:       env.Trace,
		OnRecord: func(r adopt.Record) {
			if writeErr != nil {
				return
			}
			if *outPath != "" && outFile == nil {
				if outFile, writeErr = os.Create(*outPath); writeErr != nil {
					cancelRun()
					return
				}
				out = outFile
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
		return env.Fail(fmt.Errorf("writing trajectory: %w", writeErr))
	}
	if err != nil {
		return env.Fail(err)
	}
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			return env.Fail(fmt.Errorf("writing trajectory: %w", err))
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
	return env.Verdict()
}
