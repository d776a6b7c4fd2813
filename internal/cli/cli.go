// Package cli is the plumbing the simulating commands share: the shared
// flags, the components built from them (worker pool, result cache, resume
// journal, trace recorder, invariant auditor, CPU profile), the
// SIGINT/SIGTERM context, the exit-path cleanup and the exit-code policy.
//
// A command registers the flag groups it takes, parses, defers Close with
// its exit code and opens the environment:
//
//	func run() (code int) {
//		env := cli.New("figures", cli.Progress|cli.Profile|cli.Strict|cli.Trace|cli.Report|cli.Backend)
//		env.Parse()
//		defer func() { env.Close(code) }()
//		if err := env.Open(); err != nil {
//			return env.Fail(err)
//		}
//		...
//		return env.Verdict()
//	}
//
// Status lines — interrupts, stalls, panics, locked stores, the saved
// cache, untraced fluid runs and the -strict verdict — go to stderr
// prefixed with the command name, so a command's stdout carries only its
// own output.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bbrnash/internal/check"
	"bbrnash/internal/exp"
	"bbrnash/internal/runner"
	"bbrnash/internal/scenario"
	"bbrnash/internal/telemetry"
)

// Group selects shared flags a command registers on top of the five every
// command takes: -workers, -cache, -resume, -timeout and -retries.
type Group uint

const (
	// Progress registers -progress, a periodic pool progress line.
	Progress Group = 1 << iota
	// Profile registers -cpuprofile.
	Profile
	// Strict registers -strict, the invariant audit Verdict reports.
	Strict
	// Trace registers -trace and -trace-interval.
	Trace
	// Report registers -report, the run report Close writes.
	Report
	// Backend registers -backend, which Open validates.
	Backend
	// Algorithms registers -list-algorithms, which Parse handles.
	Algorithms
)

// Env is one command's shared flags and the components built from them.
// Every component is nil-safe, so Fail and Close work on an Env that Open
// built only partly.
type Env struct {
	// Backend is the -backend value; a command puts it into the specs it
	// runs.
	Backend string

	// Components built by Open. Ctx is cancelled by SIGINT/SIGTERM. The
	// embedded exp.Env holds the cache, the journal, the trace recorder and
	// the auditor (nil unless -strict), so a command runs a spec with
	// exp.Run(ctx, sp, env.Env).
	Ctx  context.Context
	Pool *runner.Pool
	exp.Env

	name       string
	stderr     io.Writer
	workers    int
	timeout    time.Duration
	retries    int
	cachePath  string
	resumePath string
	progress   time.Duration
	cpuProfile string
	strict     bool
	traceDir   string
	traceEvery time.Duration
	reportPath string
	listAlgs   bool

	begin time.Time
	prof  *runner.CPUProfile
	stop  context.CancelFunc
}

// New registers the shared flags of groups on the command line for the
// command called name.
func New(name string, groups Group) *Env {
	e := &Env{name: name, stderr: os.Stderr}
	flag.IntVar(&e.workers, "workers", 0, "parallel simulation workers (0 = GOMAXPROCS)")
	flag.StringVar(&e.cachePath, "cache", "", "path to on-disk result cache ('' = in-memory only)")
	flag.StringVar(&e.resumePath, "resume", "", "path to crash-safe resume journal; an existing journal's completed simulations are skipped ('' = no journal)")
	flag.DurationVar(&e.timeout, "timeout", 0, "per-simulation stall watchdog: cancel a unit making no progress for this long (0 = off)")
	flag.IntVar(&e.retries, "retries", 0, "retry a stalled or transiently failed simulation up to this many times (retries re-derive the same seed)")
	if groups&Progress != 0 {
		flag.DurationVar(&e.progress, "progress", 0, "print a progress line to stderr this often (0 = off)")
	}
	if groups&Profile != 0 {
		flag.StringVar(&e.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	}
	if groups&Strict != 0 {
		flag.BoolVar(&e.strict, "strict", false, "audit every simulation result against physical invariants; violations fail the run")
	}
	if groups&Trace != 0 {
		flag.StringVar(&e.traceDir, "trace", "", "write per-simulation run traces (JSONL + CSV time series and events) into this directory ('' = no tracing)")
		flag.DurationVar(&e.traceEvery, "trace-interval", 0, "trace sampling interval (0 = default 100ms)")
	}
	if groups&Report != 0 {
		flag.StringVar(&e.reportPath, "report", "", "write a machine-readable JSON run report to this file on exit ('' = no report)")
	}
	if groups&Backend != 0 {
		flag.StringVar(&e.Backend, "backend", "", "execution engine: packet or fluid ('' = the scenario's own, default packet)")
	}
	if groups&Algorithms != 0 {
		flag.BoolVar(&e.listAlgs, "list-algorithms", false, "print the algorithm registry and exit")
	}
	return e
}

// Parse parses the command line. Under -list-algorithms it prints the
// algorithm registry and reports true: the command should exit 0.
func (e *Env) Parse() (listed bool) {
	flag.Parse()
	if e.listAlgs {
		fmt.Println(strings.Join(scenario.Algorithms(), "\n"))
	}
	return e.listAlgs
}

// Open builds the components the shared flags ask for: trace recorder,
// worker pool, cache, journal, auditor, signal context and CPU profile, in
// that order. On error it stops, leaving the rest nil for Close.
func (e *Env) Open() (err error) {
	e.begin = time.Now()
	if e.Backend != "" && !slices.Contains(scenario.Backends(), e.Backend) {
		return fmt.Errorf("unknown backend %q (want %s)", e.Backend, strings.Join(scenario.Backends(), " or "))
	}
	if e.traceDir != "" {
		if e.Trace, err = telemetry.NewRecorder(e.traceDir); err != nil {
			return err
		}
		e.Trace.SetInterval(e.traceEvery)
	}
	e.Pool = runner.NewPool(e.workers).SetWatchdog(e.timeout).SetRetry(e.retries, time.Second)
	e.Pool.SetProgress(e.progress, func(p runner.ProgressInfo) {
		e.statusf("%d/%d simulations in %v (%d retries, %d stalls)",
			p.Done, p.Total, p.Elapsed.Round(time.Second), p.Retries, p.Stalls)
	})
	if e.Cache, err = runner.OpenCache(e.cachePath, scenario.KeyVersion); err != nil {
		return err
	}
	if e.Journal, err = runner.OpenJournal(e.resumePath, scenario.KeyVersion); err != nil {
		return err
	}
	if e.strict {
		e.Audit = check.New()
	}
	// SIGINT/SIGTERM cancel Ctx: runs stop dispatching, in-flight units
	// drain, and Close still persists everything that completed.
	e.Ctx, e.stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if e.cpuProfile != "" {
		if e.prof, err = runner.StartCPUProfile(e.cpuProfile); err != nil {
			return err
		}
	}
	return nil
}

// StopSignals restores the default SIGINT/SIGTERM behaviour, so a second
// signal kills the process instead of waiting for the drain the first one
// started.
func (e *Env) StopSignals() {
	if e.stop != nil {
		e.stop()
	}
}

// Close runs the exit path in its one safe order: the CPU profile is
// flushed, the cache is saved while its store lock is still held, the
// fluid runs missing from a -trace directory are counted, the signal
// handler, journal and cache are released, and the -report file is
// written with the outcome of the exit code. A run deferring Close thus
// leaves a readable profile, its warmed cache and a report on every exit
// path — success, failure or interrupt. Close reports its own failures on
// stderr without changing the exit code.
func (e *Env) Close(code int) {
	if err := e.prof.Stop(); err != nil {
		e.statusf("%v", err)
	}
	if err := e.Cache.Save(); err != nil {
		e.statusf("saving cache: %v", err)
	} else if e.cachePath != "" && e.Cache.Misses() > 0 && e.Cache.Len() > 0 {
		e.statusf("cache saved to %s (%d entries)", e.cachePath, e.Cache.Len())
	}
	if n := e.Trace.Untraced(); n > 0 {
		e.statusf("-trace %s: %d fluid-backend runs have no trace", e.Trace.Dir(), n)
	}
	e.StopSignals()
	// Journal records are fsynced as they are made and the cache was just
	// saved, so neither Close can lose data.
	e.Journal.Close()
	e.Cache.Close()
	if e.reportPath == "" {
		return
	}
	rep := telemetry.Collect(e.name, outcome(code), time.Since(e.begin), e.Pool, e.Cache, e.Journal, e.Trace)
	if err := rep.Write(e.reportPath); err != nil {
		e.statusf("%v", err)
	}
}

// Fail explains err on stderr and returns the exit code for it: 130 for an
// interrupt, 1 otherwise — with a hint for a stalled unit and a locked
// store, and the stack of a captured panic.
func (e *Env) Fail(err error) int {
	if e.Ctx != nil && e.Ctx.Err() != nil && errors.Is(err, context.Canceled) {
		e.statusf("interrupted; in-flight simulations drained (rerun with -resume to skip completed simulations)")
		return 130
	}
	e.statusf("%v", err)
	var st *runner.StallError
	var ue *runner.UnitError
	switch {
	case errors.As(err, &st):
		e.statusf("raise -timeout or add -retries if the simulation was merely slow")
	case errors.As(err, &ue) && ue.Recovered != nil:
		e.statusf("unit panic stack:\n%s", ue.Stack)
	case errors.Is(err, runner.ErrStoreLocked):
		e.statusf("another process owns this store; point -cache/-resume elsewhere or stop it")
	}
	return 1
}

// Verdict is the exit code of a run that otherwise succeeded: under
// -strict, every recorded invariant violation is listed under its scenario
// key and fails the run.
func (e *Env) Verdict() int {
	if e.Audit == nil {
		return 0
	}
	vs := e.Audit.Violations()
	if len(vs) == 0 {
		e.statusf("strict audit: all invariants held")
		return 0
	}
	for _, v := range vs {
		e.statusf("strict: %s", v)
	}
	e.statusf("strict: %d invariant violation(s)", len(vs))
	return 1
}

// statusf prints one status line to stderr under the command's name. A
// message that already starts with "<name>: ", as the errors of a package
// named after the command do, keeps its own prefix instead of doubling it.
func (e *Env) statusf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if !strings.HasPrefix(msg, e.name+": ") {
		msg = e.name + ": " + msg
	}
	fmt.Fprintln(e.stderr, msg)
}

// outcome maps an exit code to the run report's outcome field.
func outcome(code int) string {
	switch code {
	case 0:
		return "ok"
	case 130:
		return "interrupted"
	default:
		return "failed"
	}
}

// ParseFloats parses a comma-separated list of finite numbers; "" is nil,
// which leaves the command's default list in place. strconv accepts NaN
// and ±Inf, which no list the commands take (RTTs, weights, shares,
// buffers) can hold.
func ParseFloats(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("bad number %q", p)
		}
		out[i] = v
	}
	return out, nil
}
