// Package exp is the experiment harness: it assembles simulator runs into
// the measurements the paper reports, and exposes one generator per figure
// (internal/exp/figures.go) that regenerates the corresponding table or
// chart at a configurable scale.
//
// The paper's protocol is: all flows start (nearly) simultaneously, send
// for two minutes, and the average throughput over the whole run is
// reported. Trials differ through small start-time jitter, which plays the
// role the testbed's kernel/timing noise played.
//
// Every run is expressed as a scenario.Spec and executed by Run (see
// internal/exp/run.go): the spec's canonical key is the single identity
// shared by the result cache, the invariant auditor and failure reports.
package exp

import (
	"context"
	"fmt"
	"time"

	"bbrnash/internal/check"
	"bbrnash/internal/runner"
	"bbrnash/internal/telemetry"
)

// Scale selects experiment fidelity. The paper's protocol is Full; Quick
// trades precision for wall-clock time (used by benchmarks); Smoke is for
// unit tests.
type Scale struct {
	// Name identifies the scale in output.
	Name string
	// FlowDuration is how long flows send (paper: 2 minutes).
	FlowDuration time.Duration
	// Trials is how many jittered repetitions to run where the paper runs
	// ten.
	Trials int
	// SweepPoints bounds the number of x-axis points in parameter sweeps
	// (buffer sizes, flow counts). Zero means the paper's full grid.
	SweepPoints int
	// Exhaustive selects full n+1 distribution scans for empirical NE
	// searches; when false, the incentive-following walk is used.
	Exhaustive bool
	// Pool bounds how many simulations run concurrently; nil means serial.
	// Parallelism never changes results: every unit's seed is derived up
	// front and results are collected in submission order, so any worker
	// count yields byte-identical output (see internal/runner).
	Pool *runner.Pool
	// Cache memoizes simulation results under canonical scenario keys
	// across a run; nil disables memoization.
	Cache *runner.Cache
	// Journal, when non-nil, write-ahead-logs every completed simulation
	// unit (fsynced per record) so a sweep killed mid-flight resumes from
	// its completed units instead of restarting; see runner.Journal. Since
	// every unit is a deterministic function of its key, a resumed sweep's
	// output is byte-identical to an uninterrupted one. Nil disables
	// journaling.
	Journal *runner.Journal
	// Ctx cancels experiment execution: once it is done, no further
	// simulation units are dispatched, in-flight units drain, and sweeps
	// return the context's error (the CLIs wire SIGINT here). Nil means
	// context.Background().
	Ctx context.Context
	// Audit, when non-nil, validates every simulation result against
	// physical invariants (share sums, byte conservation, queue bounds,
	// NaN/Inf) and records violations under the canonical scenario key;
	// see internal/check. Nil disables auditing.
	Audit *check.Auditor
	// Trace, when non-nil, records every fresh simulation's run trace
	// (per-flow and link time series plus discrete events) under its
	// canonical scenario key; see internal/telemetry. Tracing never changes
	// a result or a cache key. Nil disables tracing.
	Trace *telemetry.Recorder
	// Backend overrides the execution engine for every spec the scale
	// runs: scenario.BackendPacket or scenario.BackendFluid. Empty leaves
	// each spec's own backend in force (the packet default). The backend
	// is part of every canonical key, so switching it re-keys — never
	// collides with — existing cached results.
	Backend string
}

// Predefined scales. All three use the paper's two-minute flows: BBR's
// bandwidth share converges over multiples of its ten-second ProbeRTT
// cycle, so shorter flows systematically understate BBR at every buffer
// depth. The scales differ in trial counts, sweep density and NE search
// strategy instead.
var (
	Full  = Scale{Name: "full", FlowDuration: 2 * time.Minute, Trials: 10, Exhaustive: true}
	Quick = Scale{Name: "quick", FlowDuration: 2 * time.Minute, Trials: 2, SweepPoints: 6}
	Smoke = Scale{Name: "smoke", FlowDuration: 2 * time.Minute, Trials: 1, SweepPoints: 3}
)

// ScaleByName resolves a scale name from the command line.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "full":
		return Full, nil
	case "quick":
		return Quick, nil
	case "smoke":
		return Smoke, nil
	default:
		return Scale{}, fmt.Errorf("exp: unknown scale %q (want full, quick or smoke)", name)
	}
}

// thin reduces a sweep grid to at most s.SweepPoints values, always keeping
// the first and last.
func (s Scale) thin(xs []float64) []float64 {
	if s.SweepPoints <= 0 || len(xs) <= s.SweepPoints {
		return xs
	}
	if s.SweepPoints == 1 {
		// A single-point budget keeps the first point; the i*(n-1)/(p-1)
		// spacing below would divide by zero.
		return xs[:1:1]
	}
	out := make([]float64, 0, s.SweepPoints)
	n := len(xs)
	for i := 0; i < s.SweepPoints; i++ {
		idx := i * (n - 1) / (s.SweepPoints - 1)
		out = append(out, xs[idx])
	}
	return out
}
