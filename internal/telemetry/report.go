package telemetry

import (
	"encoding/json"
	"fmt"
	"time"

	"bbrnash/internal/runner"
)

// ReportVersion is the run-report format generation.
const ReportVersion = 1

// Report is the machine-readable summary of one command's execution:
// worker-pool occupancy, retry and stall counts, cache and journal
// effectiveness, trace output. It complements the trace files — a trace
// explains one simulation's dynamics, a report explains the sweep around
// it — and is written by the CLIs' -report flag on every exit path, so an
// interrupted or failed run still leaves an inspectable record.
type Report struct {
	Version int    `json:"version"`
	Command string `json:"command"`
	// Outcome is "ok", "interrupted" or "failed".
	Outcome string `json:"outcome"`
	Workers int    `json:"workers"`
	// UnitsCompleted counts successfully completed pool units; BusyNS is
	// the wall time spent inside them and MaxUnitNS the longest single
	// unit. Speedup is BusyNS over WallNS — the effective parallelism.
	UnitsCompleted int64   `json:"units_completed"`
	WallNS         int64   `json:"wall_ns"`
	BusyNS         int64   `json:"busy_ns"`
	MaxUnitNS      int64   `json:"max_unit_ns"`
	Speedup        float64 `json:"speedup"`
	// Retries counts re-executed unit attempts; Stalls counts watchdog
	// cancellations.
	Retries int64 `json:"retries"`
	Stalls  int64 `json:"stalls"`
	// Cache and journal effectiveness.
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	JournalHits  int64   `json:"journal_hits"`
	// TraceFiles counts distinct scenario traces written (0 without
	// -trace); TraceDir is where.
	TraceFiles int64  `json:"trace_files"`
	TraceDir   string `json:"trace_dir,omitempty"`
}

// Collect assembles a report from the run's components; any of them may be
// nil (all are nil-safe).
func Collect(command, outcome string, wall time.Duration, pool *runner.Pool, cache *runner.Cache, journal *runner.Journal, rec *Recorder) Report {
	rep := Report{
		Version:        ReportVersion,
		Command:        command,
		Outcome:        outcome,
		Workers:        pool.Workers(),
		UnitsCompleted: pool.Jobs(),
		WallNS:         int64(wall),
		BusyNS:         int64(pool.Busy()),
		MaxUnitNS:      int64(pool.MaxUnitWall()),
		Retries:        pool.Retries(),
		Stalls:         pool.Stalls(),
		CacheHits:      cache.Hits(),
		CacheMisses:    cache.Misses(),
		CacheHitRate:   cache.HitRate(),
		JournalHits:    journal.Hits(),
		TraceFiles:     rec.Traces(),
		TraceDir:       rec.Dir(),
	}
	if wall > 0 && rep.BusyNS > 0 {
		rep.Speedup = float64(rep.BusyNS) / float64(wall)
	}
	return rep
}

// Write persists the report as indented JSON with runner.WriteFileAtomic,
// so a report file is always either the previous run's or this one's —
// never a torn mix.
func (rep Report) Write(path string) error {
	data, err := json.MarshalIndent(rep, "", "\t")
	if err != nil {
		return fmt.Errorf("telemetry: encoding report: %w", err)
	}
	data = append(data, '\n')
	if err := runner.WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("telemetry: writing report: %w", err)
	}
	return nil
}
