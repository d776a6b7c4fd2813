// Command crossval cross-validates the fluid fast path against the
// packet engine over the paper's figure grid and emits a machine-readable
// divergence report.
//
// Usage:
//
//	crossval -out report.json
//	crossval -buffers 1,5,9,13 -mixes 1:1,4:4 -duration 30s -workers 8
//	crossval -cache results.json -threshold 0.2
//
// Every (buffer, mix) grid point runs on both backends; per-point relative
// throughput errors against the packet engine are reported along with a
// grid summary. A point above -threshold is flagged as diverged — a
// finding about where the fluid idealization breaks, never an error: the
// exit code is 0 whenever the sweep completed and its report was written
// out. The report is
// byte-identical at any -workers count, and -cache memoizes per-simulation
// results, so a warmed figure cache satisfies the packet half for free.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"bbrnash/internal/cli"
	"bbrnash/internal/exp"
	"bbrnash/internal/units"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	env := cli.New("crossval", cli.Progress|cli.Profile)
	var (
		capMbps   = flag.Float64("capacity", 40, "bottleneck capacity in Mbps")
		rttMs     = flag.Float64("rtt", 40, "base RTT in milliseconds")
		duration  = flag.Duration("duration", 2*time.Minute, "flow duration per grid point")
		seed      = flag.Uint64("seed", 1, "base trial seed")
		buffers   = flag.String("buffers", "", "comma-separated buffer depths in BDP ('' = the paper's 1–50 grid)")
		mixes     = flag.String("mixes", "", "comma-separated bbr:cubic flow mixes, e.g. 1:1,2:2,4:4 ('' = default)")
		threshold = flag.Float64("threshold", 0, "relative error above which a point is flagged diverged (0 = default 0.25)")
		trials    = flag.Int("trials", 1, "jittered trials averaged per grid point and backend")
		outPath   = flag.String("out", "", "write the JSON report to this file ('' = stdout)")
	)
	env.Parse()

	// A value the spec would reject fails here, naming its flag, rather
	// than as a unit error once the pool has started: a path that is not
	// positive, a depth that is not, or a depth of the grid the sweep runs
	// (the default one included) whose buffer holds less than one segment.
	if !(*capMbps > 0) || math.IsInf(*capMbps, 1) {
		return env.Fail(fmt.Errorf("-capacity: %g Mbps is not a positive rate", *capMbps))
	}
	if !(*rttMs > 0) || math.IsInf(*rttMs, 1) {
		return env.Fail(fmt.Errorf("-rtt: %g ms is not a positive delay", *rttMs))
	}
	capacity := units.Rate(*capMbps) * units.Mbps
	rtt := time.Duration(*rttMs * float64(time.Millisecond))
	bufferBDPs, err := cli.ParseFloats(*buffers)
	if err != nil {
		return env.Fail(fmt.Errorf("-buffers: %w", err))
	}
	grid := "depth"
	if len(bufferBDPs) == 0 {
		bufferBDPs, grid = exp.CrossValBuffers(), "default grid's depth"
	}
	for _, b := range bufferBDPs {
		if b <= 0 {
			return env.Fail(fmt.Errorf("-buffers: depth %g is not positive", b))
		}
		if bytes := units.BufferBytes(capacity, rtt, b); bytes < units.MSS {
			return env.Fail(fmt.Errorf("-buffers: %s %g is %v at %v and %v, below one segment (%v)",
				grid, b, bytes, capacity, rtt, units.MSS))
		}
	}
	mixList, err := parseMixes(*mixes)
	if err != nil {
		return env.Fail(fmt.Errorf("-mixes: %w", err))
	}

	defer func() { env.Close(code) }()
	if err := env.Open(); err != nil {
		return env.Fail(err)
	}

	start := time.Now()
	rep, err := exp.CrossValidate(exp.CrossValConfig{
		Capacity:   capacity,
		RTT:        rtt,
		Seed:       *seed,
		BufferBDPs: bufferBDPs,
		Mixes:      mixList,
		Threshold:  *threshold,
		Scale: exp.Scale{
			Name:         "crossval",
			FlowDuration: *duration,
			Trials:       *trials,
			Pool:         env.Pool,
			Cache:        env.Cache,
			Journal:      env.Journal,
			Ctx:          env.Ctx,
		},
	})
	if err != nil {
		return env.Fail(err)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return env.Fail(err)
	}
	data = append(data, '\n')
	if *outPath != "" {
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			return env.Fail(err)
		}
		fmt.Printf("wrote %s\n", *outPath)
	} else if _, err := os.Stdout.Write(data); err != nil {
		return env.Fail(fmt.Errorf("writing report: %w", err))
	}
	fmt.Fprintf(os.Stderr, "crossval: %d points, %d diverged (threshold %g), max rel err %.3f, mean %.3f, in %v\n",
		rep.Summary.Points, rep.Summary.Diverged, rep.Threshold,
		rep.Summary.MaxRelErr, rep.Summary.MeanRelErr, time.Since(start).Round(time.Millisecond))
	if rep.Summary.WorstPoint != "" {
		fmt.Fprintf(os.Stderr, "crossval: worst point: %s\n", rep.Summary.WorstPoint)
	}
	return 0
}

// parseMixes parses "bbr:cubic" count pairs, each with at least one flow;
// "" is nil (defaults).
func parseMixes(s string) ([][2]int, error) {
	if s == "" {
		return nil, nil
	}
	var out [][2]int
	for _, m := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(m), ":")
		if len(parts) != 2 {
			return nil, fmt.Errorf("mix %q is not bbr:cubic", m)
		}
		nb, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, err
		}
		nc, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, err
		}
		if nb < 0 || nc < 0 {
			return nil, fmt.Errorf("mix %q has a negative count", m)
		}
		if nb+nc == 0 {
			return nil, fmt.Errorf("mix %q has no flows", m)
		}
		out = append(out, [2]int{nb, nc})
	}
	return out, nil
}
