package exp

import (
	"context"
	"time"

	"bbrnash/internal/check"
	"bbrnash/internal/fluid"
	"bbrnash/internal/netsim"
	"bbrnash/internal/runner"
	"bbrnash/internal/scenario"
	"bbrnash/internal/telemetry"
	"bbrnash/internal/units"
)

// This file is the harness's boundary with internal/scenario: every run —
// sweep point, NE payoff, adoption payoff, bbrsim replicate, bbrserve
// flight — is expressed as a scenario.Spec and executed by Run, and the
// spec's canonical key is the one identity used by the result cache, the
// resumption journal, the invariant auditor, the trace recorder and
// unit-failure reports.

// SpecResult is the raw outcome of one scenario run: per-flow statistics in
// spec group order (group i of the spec is Groups[i], empty groups stay
// empty) plus per-link statistics. It is the one value type stored in the
// result cache, so every caller that runs the same spec shares one entry.
//
// Link is the first configured link — the bottleneck of every legacy
// single-link scenario — kept both as the link view sweeps and payoffs
// read and as the only link record in results cached before topologies
// existed. Links holds every link in netsim.PerLink order
// (forward links in configuration order, then reverse ACK twins); it is
// empty in old cached values, and audits fall back to Link then.
type SpecResult struct {
	Groups [][]netsim.FlowStats
	Link   netsim.LinkStats
	Links  []netsim.LinkStats
}

// group returns group i's stats, tolerating shape drift in cached values
// (an on-disk store written against a different spec must degrade to empty
// classes, not panic).
func (r SpecResult) group(i int) []netsim.FlowStats {
	if i >= 0 && i < len(r.Groups) {
		return r.Groups[i]
	}
	return nil
}

// aggRate sums a class's throughputs in flow order.
func aggRate(stats []netsim.FlowStats) units.Rate {
	var agg units.Rate
	for _, st := range stats {
		agg += st.Throughput
	}
	return agg
}

// progressSlice is how much simulated time one execution chunk covers. The
// event loop's RunFor is exactly resumable, so chunking changes nothing
// about the result; between chunks the run checks for cancellation and
// heartbeats the runner's watchdog with the simulated time reached, which
// is what lets a stalled simulation be distinguished from a slow one.
const progressSlice = time.Second

// runChunked advances a backend through d of simulated time in
// progressSlice chunks under ctx: cancellation is observed at chunk
// boundaries and each boundary reports progress (see runner.Progress).
func runChunked(ctx context.Context, d time.Duration, run func(time.Duration)) error {
	for done := time.Duration(0); done < d; {
		if err := ctx.Err(); err != nil {
			return err
		}
		step := min(progressSlice, d-done)
		run(step)
		done += step
		runner.Progress(ctx, done)
	}
	return nil
}

// runSpec executes a spec on its backend in progressSlice chunks under ctx.
//
// With a recorder, a packet run is instrumented before it starts and its
// trace is written — atomically, under key — before this function returns,
// which is what lets Run order trace files ahead of journal records.
// Observation never mutates simulation state, so a traced run's SpecResult
// is byte-identical to an untraced one.
//
// Fluid runs are never traced: telemetry instruments *netsim.Network event
// flow, which a fixed-step integration does not have. The recorder only
// counts them, so a command can say why its trace directory lacks them.
// Every run lands here through Run, so fluid results are cached, journaled
// and audited exactly like packet results, under keys that differ by the
// spec's bk= field.
func runSpec(ctx context.Context, key string, sp scenario.Spec, rec *telemetry.Recorder) (SpecResult, error) {
	sp = sp.WithDefaults()
	if sp.Backend == scenario.BackendFluid {
		m, err := fluid.New(sp)
		if err != nil {
			return SpecResult{}, err
		}
		rec.Attach(nil, sp)
		if err := runChunked(ctx, sp.Duration, m.Run); err != nil {
			return SpecResult{}, err
		}
		groups, link := m.Stats()
		return SpecResult{Groups: groups, Link: link, Links: []netsim.LinkStats{link}}, nil
	}
	n, flows, err := netsim.Build(sp)
	if err != nil {
		return SpecResult{}, err
	}
	cap := rec.Attach(n, sp)
	if err := runChunked(ctx, sp.Duration, n.Run); err != nil {
		return SpecResult{}, err
	}
	res := SpecResult{Groups: make([][]netsim.FlowStats, len(flows)), Link: n.Link(), Links: n.PerLink()}
	for gi, fs := range flows {
		for _, f := range fs {
			res.Groups[gi] = append(res.Groups[gi], f.Stats())
		}
	}
	if cap != nil {
		if err := cap.Finish(key); err != nil {
			return SpecResult{}, err
		}
	}
	return res, nil
}

// Env is what a run goes through besides its engine: the memoizing result
// cache, the resumption journal, the invariant auditor and the trace
// recorder. Every field is nil-safe, so the zero Env runs a spec bare:
// nothing is looked up, stored, audited or traced.
type Env struct {
	Cache   *runner.Cache
	Journal *runner.Journal
	Audit   *check.Auditor
	Trace   *telemetry.Recorder
}

// Run executes one scenario through env under the spec's canonical key,
// which it derives once. hit reports whether the result came from either
// store; errors are never cached or journaled.
//
// Store discipline: the cache is consulted first, then the journal (a
// journal hit is promoted into the cache); a fresh result lands in both.
// Either store satisfying a lookup also ensures the journal holds the key,
// so a resumed run skips it even when the cache file was lost. Journal
// write failures fail the run — a journal that cannot persist must not let
// the operator believe the sweep is resumable — while cache failures stay
// silent.
//
// A fresh run's trace is written before its journal record, so any
// journaled unit's trace is already on disk when a resumed sweep skips the
// unit. Cache and journal hits skip re-tracing: the files were written by
// whichever run populated the store, and a store warmed before tracing
// existed has no traces for its prior entries.
//
// Every result is audited, fresh or replayed, before it is stored: a store
// written by an older build must not smuggle a bad result past a strict
// run, and a result whose audit records a violation is returned but never
// stored, so it is not promoted from the journal into the cache, copied
// from the cache into the journal, or stored fresh. A later run of the key
// then meets the audit again instead of an instant stored answer.
//
// The run executes under runner.Protect, so a failure or a panic comes
// back as a *runner.UnitError that names the key; inside runner.MapCtx the
// pool stamps the unit's index on it.
func Run(ctx context.Context, sp scenario.Spec, env Env) (res SpecResult, hit bool, err error) {
	key := sp.Key()
	res, err = runner.Protect(key, func() (res SpecResult, err error) {
		if env.Cache.Get(key, &res) {
			hit = true
			if auditSpec(env.Audit, key, sp, res) && !env.Journal.Has(key) {
				err = env.Journal.Record(key, res)
			}
			return res, err
		}
		if env.Journal.Get(key, &res) {
			hit = true
			if auditSpec(env.Audit, key, sp, res) {
				env.Cache.Put(key, res)
			}
			return res, nil
		}
		if res, err = runSpec(ctx, key, sp, env.Trace); err != nil {
			return SpecResult{}, err
		}
		if auditSpec(env.Audit, key, sp, res) {
			env.Cache.Put(key, res)
			if err := env.Journal.Record(key, res); err != nil {
				return SpecResult{}, err
			}
		}
		return res, nil
	})
	if err != nil {
		return SpecResult{}, false, err
	}
	return res, hit, nil
}

// RunSpec is Run with a background context and the zero Env. It is one
// call of Run, kept only for the benchmark module's probe (bench/probe.go);
// everything else calls Run.
func RunSpec(sp scenario.Spec) (SpecResult, error) {
	res, _, err := Run(context.Background(), sp, Env{})
	return res, err
}

// RunSpecCached is Run through a cache, a journal and an auditor without a
// trace recorder. It is one call of Run, kept only for the benchmark
// module's probe (bench/probe.go); everything else calls Run.
func RunSpecCached(ctx context.Context, sp scenario.Spec, cache *runner.Cache, journal *runner.Journal, audit *check.Auditor) (SpecResult, bool, error) {
	return Run(ctx, sp, Env{Cache: cache, Journal: journal, Audit: audit})
}

// xName resolves a config's X field to its registry name: empty means BBR.
func xName(x string) string {
	if x == "" {
		return "bbr"
	}
	return x
}
