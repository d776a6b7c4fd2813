// Command bbrsim runs one bottleneck simulation and prints per-flow and
// link statistics.
//
// Usage:
//
//	bbrsim -capacity 100 -rtt 40 -buffer 3 -flows bbr:2,cubic:3 -duration 60s
//	bbrsim -flows bbr:5,cubic:5 -runs 8 -workers 4 -cache results.json -strict
//	bbrsim -scenario examples/mix-3bbr-2cubic.json -runs 4
//
// The -flows specification is a comma-separated list of name:count pairs;
// names come from the algorithm registry (-list-algorithms prints it).
// -buffer is in multiples of the BDP computed from -capacity and -rtt.
// Alternatively -scenario loads a full scenario spec from a JSON file
// (see internal/scenario), which may mix algorithms at heterogeneous RTTs
// and start offsets; the topology flags are then ignored. Either way the
// run is driven by one canonical scenario.Spec — echoed as a "scenario:"
// JSON line, ready to be saved and replayed with -scenario — whose key
// identifies results in the cache and in failure reports.
//
// With -runs > 1, replicates with distinct start-jitter seeds (pre-derived
// from the base seed) fan out across -workers cores and are reported in
// run order; -cache memoizes each replicate's statistics on disk (entries
// from other key-format generations are skipped and pruned).
//
// SIGINT/SIGTERM cancel remaining replicates (in-flight runs drain) and
// the cache is saved on every exit path. -strict audits every replicate's
// statistics against physical invariants and fails the run on violation.
//
// -resume names a crash-safe journal: every completed replicate is
// appended and fsynced as it finishes, and rerunning the same command with
// the same journal skips the completed replicates — output is
// byte-identical to an uninterrupted run because every replicate is a
// deterministic function of its scenario key. -timeout arms a per-run
// stall watchdog (a run making no simulated-time progress for that long is
// cancelled with a stall error) and -retries retries stalled or
// transiently failed runs; a retry re-derives the same seed, so it either
// reproduces the run bit-for-bit or stalls again.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"bbrnash/internal/cli"
	"bbrnash/internal/exp"
	"bbrnash/internal/plot"
	"bbrnash/internal/rng"
	"bbrnash/internal/runner"
	"bbrnash/internal/scenario"
	"bbrnash/internal/units"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	env := cli.New("bbrsim", cli.Progress|cli.Profile|cli.Strict|cli.Trace|cli.Report|cli.Backend|cli.Algorithms)
	var (
		capMbps   = flag.Float64("capacity", 100, "bottleneck capacity in Mbps")
		rttMs     = flag.Float64("rtt", 40, "base RTT in milliseconds")
		bufBDP    = flag.Float64("buffer", 3, "buffer size in BDP multiples")
		flows     = flag.String("flows", "bbr:1,cubic:1", "flow spec: name:count[,name:count...]")
		duration  = flag.Duration("duration", 2*time.Minute, "flow duration")
		seed      = flag.Uint64("seed", 1, "start-jitter seed (base seed with -runs > 1)")
		jitter    = flag.Duration("jitter", 10*time.Millisecond, "max random start offset")
		ackJitter = flag.Duration("ackjitter", 0, "max per-packet ACK path delay variation")
		specPath  = flag.String("scenario", "", "load the full scenario from this JSON file (topology flags ignored)")
		runs      = flag.Int("runs", 1, "number of replicate runs with distinct derived seeds")
	)
	if env.Parse() {
		return 0
	}

	sp, err := buildSpec(*specPath, *capMbps, *rttMs, *bufBDP, *flows, *duration, *jitter, *ackJitter)
	if err != nil {
		return env.Fail(err)
	}
	if env.Backend != "" {
		sp.Backend = env.Backend
		if err := sp.WithDefaults().ValidateTopology(); err != nil {
			return env.Fail(err)
		}
	}
	if sp.Seed == 0 {
		sp.Seed = *seed
	}
	if *runs < 1 {
		*runs = 1
	}

	defer func() { env.Close(code) }()
	if err := env.Open(); err != nil {
		return env.Fail(err)
	}

	// Pre-derive every replicate's seed before any run starts, so the
	// seed→run assignment is independent of worker count. A single run
	// keeps the base seed verbatim for compatibility with older
	// invocations.
	seeds := make([]uint64, *runs)
	seeds[0] = sp.Seed
	r := rng.New(sp.Seed)
	for i := 1; i < *runs; i++ {
		seeds[i] = r.Uint64()
	}

	start := time.Now()
	results, err := runner.MapCtx(env.Ctx, env.Pool, *runs, func(uctx context.Context, i int) (exp.SpecResult, error) {
		run := sp
		run.Seed = seeds[i]
		res, _, err := exp.Run(uctx, run, env.Env)
		return res, err
	})
	if err != nil {
		return env.Fail(err)
	}
	elapsed := time.Since(start)

	resolved := sp.WithDefaults()
	if resolved.MultiLink() {
		fmt.Print("topology:")
		for i, l := range resolved.Topology() {
			if i > 0 {
				fmt.Print(",")
			}
			fmt.Printf(" %s %v/%v", l.Name, l.Capacity, l.Buffer)
			if l.HasReverse() {
				fmt.Printf(" (rev %v/%v)", l.RevCapacity, l.RevBuffer)
			}
		}
		fmt.Printf("; max RTT %v, %d flows, %v simulated",
			resolved.MaxRTT(), sp.TotalFlows(), sp.Duration)
	} else {
		fmt.Printf("bottleneck: %v, buffer %v (%.1f BDP of max RTT), max RTT %v, %d flows, %v simulated",
			resolved.Capacity, resolved.Buffer,
			units.InBDP(resolved.Buffer, resolved.Capacity, resolved.MaxRTT()),
			resolved.MaxRTT(), sp.TotalFlows(), sp.Duration)
	}
	if *runs > 1 {
		fmt.Printf(" x %d runs (%d workers)", *runs, env.Pool.Workers())
	}
	fmt.Println()
	if data, err := json.Marshal(sp); err == nil {
		fmt.Printf("scenario: %s\n", data)
	}

	for i, st := range results {
		if *runs > 1 {
			fmt.Printf("--- run %d (seed %d)\n", i+1, seeds[i])
		}
		tbl := &plot.Table{Header: []string{"flow", "algorithm", "throughput", "lost", "meanRTT", "avgQueue"}}
		for _, g := range st.Groups {
			for _, fs := range g {
				tbl.AddRow(fs.Name, fs.Algorithm,
					fmt.Sprintf("%.2f Mbps", fs.Throughput.Mbit()),
					strconv.Itoa(fs.Lost),
					fs.MeanRTT.Round(100*time.Microsecond).String(),
					fmt.Sprintf("%.0f pkts", fs.MeanQueueOccupancy.Packets()))
			}
		}
		if err := tbl.Render(os.Stdout); err != nil {
			return env.Fail(err)
		}
		if len(st.Links) > 1 {
			for _, ls := range st.Links {
				fmt.Printf("link %s: utilization %.1f%%, mean queue delay %v, drops %d\n",
					ls.Name, 100*ls.Utilization, ls.MeanQueueDelay.Round(100*time.Microsecond), ls.Drops)
			}
		} else {
			fmt.Printf("link: utilization %.1f%%, mean queue delay %v, drops %d\n",
				100*st.Link.Utilization, st.Link.MeanQueueDelay.Round(100*time.Microsecond), st.Link.Drops)
		}
	}
	fmt.Printf("(%d runs in %v wall time, %d cache hits", *runs, elapsed.Round(time.Millisecond), env.Cache.Hits())
	if env.Journal != nil {
		fmt.Printf(", %d journal hits", env.Journal.Hits())
	}
	fmt.Println(")")
	return env.Verdict()
}

// buildSpec assembles the run's scenario: from the -scenario JSON file when
// given (validated on load), otherwise from the topology flags — one flow
// group per -flows entry, all at the base RTT.
func buildSpec(path string, capMbps, rttMs, bufBDP float64, flows string,
	duration, jitter, ackJitter time.Duration) (scenario.Spec, error) {
	if path != "" {
		return scenario.Load(path)
	}
	capacity := units.Rate(capMbps) * units.Mbps
	rtt := time.Duration(rttMs * float64(time.Millisecond))
	groups, err := scenario.ParseGroups(flows, rtt)
	if err != nil {
		return scenario.Spec{}, err
	}
	sp := scenario.Spec{
		Capacity:    capacity,
		Buffer:      units.BufferBytes(capacity, rtt, bufBDP),
		AckJitter:   ackJitter,
		StartJitter: jitter,
		Duration:    duration,
		Groups:      groups,
	}
	if err := sp.Validate(); err != nil {
		return scenario.Spec{}, err
	}
	return sp, nil
}
