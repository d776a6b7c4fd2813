// Command figures regenerates the paper's evaluation figures.
//
// Each figure is emitted as a CSV file (for external plotting) plus an
// ASCII chart and summary notes on stdout.
//
// Usage:
//
//	figures -fig all -scale quick -out ./figures
//	figures -fig 3a,3b -scale full -workers 8
//	figures -fig 9a -scale full -cache results.json -strict
//	figures -list
//
// Scales: "full" is the paper's protocol (2-minute flows, 10 trials,
// exhaustive NE scans); "quick" keeps every figure's shape at a fraction
// of the cost; "smoke" is a fast sanity pass. Independent simulations fan
// out across -workers cores, and -cache memoizes per-simulation results
// on disk across runs — neither changes any figure's output by a single
// byte (see DESIGN.md, "Parallel execution & determinism").
//
// Execution is fault-tolerant: SIGINT/SIGTERM cancel the run (in-flight
// simulations drain, nothing new is dispatched), a failing or panicking
// simulation is reported with its canonical scenario key, and on every
// exit path — success, error or interrupt — the -cache store is saved, so
// a multi-hour sweep never loses its warmed payoffs. -strict additionally
// audits every simulation result against physical invariants (share sums,
// byte conservation, queue bounds, NaN/Inf) and fails the run if any are
// violated.
//
// -resume names a crash-safe journal: every completed simulation is
// appended and fsynced as it finishes, so a sweep killed mid-flight —
// crash, SIGKILL, power loss — resumes from its completed units when the
// same command is rerun with the same journal, and the resumed output is
// byte-identical to an uninterrupted run. -timeout arms a per-simulation
// stall watchdog and -retries retries stalled or transiently failed units
// with exponential backoff; retries re-derive the same seed, so a retried
// unit either reproduces bit-for-bit or fails again.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bbrnash/internal/cli"
	"bbrnash/internal/exp"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	env := cli.New("figures", cli.Progress|cli.Profile|cli.Strict|cli.Trace|cli.Report|cli.Backend)
	var (
		figFlag   = flag.String("fig", "all", "comma-separated figure IDs (e.g. 1,3a,9f) or 'all'")
		scaleFlag = flag.String("scale", "quick", "experiment scale: full, quick or smoke")
		outFlag   = flag.String("out", "figures", "directory for CSV output ('' to skip CSVs)")
		listFlag  = flag.Bool("list", false, "list available figures and exit")
		width     = flag.Int("width", 72, "ASCII chart width")
		height    = flag.Int("height", 18, "ASCII chart height")
	)
	env.Parse()

	if *listFlag {
		for _, f := range exp.Figures() {
			fmt.Printf("%-4s %s\n", f.ID, f.Title)
		}
		return 0
	}

	scale, err := exp.ScaleByName(*scaleFlag)
	if err != nil {
		return env.Fail(err)
	}
	defer func() { env.Close(code) }()
	if err := env.Open(); err != nil {
		return env.Fail(err)
	}
	scale.Backend = env.Backend
	scale.Pool = env.Pool
	scale.Cache = env.Cache
	scale.Journal = env.Journal
	scale.Trace = env.Trace
	scale.Audit = env.Audit
	scale.Ctx = env.Ctx

	var figs []exp.Figure
	if *figFlag == "all" {
		figs = exp.Figures()
	} else {
		for _, id := range strings.Split(*figFlag, ",") {
			f, err := exp.FigureByID(strings.TrimSpace(id))
			if err != nil {
				return env.Fail(err)
			}
			figs = append(figs, f)
		}
	}

	if *outFlag != "" {
		if err := os.MkdirAll(*outFlag, 0o755); err != nil {
			return env.Fail(err)
		}
	}

	total := time.Now()
	for _, f := range figs {
		fmt.Printf("=== Figure %s: %s (scale %s, %d workers)\n",
			f.ID, f.Title, scale.Name, scale.Pool.Workers())
		start := time.Now()
		jobs0, busy0 := scale.Pool.Jobs(), scale.Pool.Busy()
		hits0, misses0 := env.Cache.Hits(), env.Cache.Misses()
		res, err := f.Generate(scale)
		if err != nil {
			return env.Fail(fmt.Errorf("figure %s: %w", f.ID, err))
		}
		for i, chart := range res.Charts {
			fmt.Println(chart.RenderASCII(*width, *height))
			if *outFlag != "" {
				name := fmt.Sprintf("fig%s.csv", f.ID)
				if len(res.Charts) > 1 {
					name = fmt.Sprintf("fig%s_%d.csv", f.ID, i+1)
				}
				path := filepath.Join(*outFlag, name)
				file, err := os.Create(path)
				if err != nil {
					return env.Fail(err)
				}
				if err := chart.WriteCSV(file); err != nil {
					file.Close()
					return env.Fail(err)
				}
				if err := file.Close(); err != nil {
					return env.Fail(err)
				}
				fmt.Printf("wrote %s\n", path)
			}
		}
		for _, note := range res.Notes {
			fmt.Printf("note: %s\n", note)
		}
		wall := time.Since(start)
		fmt.Printf("figure %s done in %v (%d sims, %d cache hits%s)\n\n",
			f.ID, wall.Round(time.Millisecond),
			env.Cache.Misses()-misses0, env.Cache.Hits()-hits0,
			speedupNote(scale.Pool.Busy()-busy0, wall, scale.Pool.Jobs()-jobs0))
	}
	wall := time.Since(total)
	fmt.Printf("all done in %v: %d jobs, %d unique sims, %d cache hits%s\n",
		wall.Round(time.Millisecond), scale.Pool.Jobs(), env.Cache.Misses(), env.Cache.Hits(),
		speedupNote(scale.Pool.Busy(), wall, scale.Pool.Jobs()))
	return env.Verdict()
}

// speedupNote reports parallel efficiency: cumulative worker-busy time
// over wall-clock is the effective speedup vs running the same jobs
// serially.
func speedupNote(busy, wall time.Duration, jobs int64) string {
	if jobs == 0 || wall <= 0 || busy <= 0 {
		return ""
	}
	return fmt.Sprintf(", %.1fx speedup", float64(busy)/float64(wall))
}
