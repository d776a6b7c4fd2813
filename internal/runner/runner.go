// Package runner executes independent experiment units concurrently while
// preserving bit-for-bit determinism.
//
// Every simulation in the harness is an independent, deterministic function
// of its configuration and seed, so the only obstacles to parallelism are
// ordering and seed derivation. The package solves both with one rule:
//
//   - Derive every unit's seed up front, on the submitting goroutine, from
//     the parent rng.Source (see rng.Source.Split); then
//   - collect results in submission order, never completion order.
//
// Under that discipline a sweep run with one worker and with sixteen
// produces byte-identical output. A Pool bounds how many units execute at
// once; a Cache memoizes unit results by canonical scenario key so that
// exhaustive Nash-equilibrium scans and overlapping figure grids stop
// re-simulating identical scenarios.
//
// Execution is fault-tolerant: MapCtx stops dispatching new units as soon
// as the context is cancelled or any unit fails (in-flight units drain), a
// panicking unit is captured instead of crashing the process, and every
// failure is reported as a *UnitError naming the unit by submission index
// and — when the caller wraps its unit bodies in Protect — by canonical
// scenario key. Error selection is deterministic: the lowest-index real
// failure wins regardless of scheduling, and cancellations triggered by the
// abort never mask it.
//
// Concurrency rules at the runner boundary: a rng.Source is not safe for
// concurrent use, and neither is a netsim.Network (which owns one). Each
// submitted unit must build its own Network from its pre-derived seed and
// never share it — or the parent Source — with another unit. See the
// package example.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// UnitError reports the failure of one mapped unit: which submission index
// failed, the canonical scenario key when the caller supplied one (see
// Protect), and either the underlying error or the recovered panic value
// with its stack. Map and MapCtx wrap every unit failure this way, so a
// multi-hour sweep that dies on one pathological scenario names the point
// instead of crashing.
type UnitError struct {
	// Index is the unit's submission index within its Map/MapCtx call.
	Index int
	// Key is the unit's canonical scenario key, "" when not supplied.
	Key string
	// Err is the underlying error; nil when the unit panicked.
	Err error
	// Recovered is the recovered panic value; nil for plain errors.
	Recovered any
	// Stack is the panicking goroutine's stack; nil for plain errors.
	Stack []byte
}

func (e *UnitError) Error() string {
	var what string
	switch {
	case e.Recovered != nil:
		what = fmt.Sprintf("panic: %v", e.Recovered)
	case e.Err != nil:
		what = e.Err.Error()
	default:
		what = "failed"
	}
	if e.Key != "" {
		return fmt.Sprintf("runner: unit %d (%s): %s", e.Index, e.Key, what)
	}
	return fmt.Sprintf("runner: unit %d: %s", e.Index, what)
}

// Unwrap exposes the underlying error to errors.Is/errors.As chains (so a
// unit returning ctx.Err() still matches context.Canceled).
func (e *UnitError) Unwrap() error { return e.Err }

// Protect runs work on behalf of a mapped unit, converting a panic into a
// *UnitError carrying key (the unit's canonical scenario key) and wrapping
// a plain error the same way. MapCtx fills in the submission index; unit
// bodies that know their scenario key wrap themselves in Protect so a
// failure deep in a sweep is reported by scenario, not just by position.
func Protect[T any](key string, work func() (T, error)) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &UnitError{Key: key, Recovered: r, Stack: debug.Stack()}
		}
	}()
	out, err = work()
	if err != nil {
		var ue *UnitError
		if !errors.As(err, &ue) {
			err = &UnitError{Key: key, Err: err}
		}
	}
	return out, err
}

// Pool bounds how many units run concurrently and accumulates execution
// statistics for wall-clock/speedup reporting. A nil *Pool is valid and
// means serial execution with no statistics.
//
// A Pool carries no goroutines of its own: each Map call spawns at most
// Workers() goroutines for its duration. The zero worker count is replaced
// by GOMAXPROCS at construction.
type Pool struct {
	workers int

	// Resilience knobs, both off by default; see SetWatchdog and SetRetry.
	watchdogWindow time.Duration
	retries        int
	backoff        time.Duration

	// Progress reporting, off by default; see SetProgress.
	progressEvery time.Duration
	progressFn    func(ProgressInfo)

	jobs    atomic.Int64
	busy    atomic.Int64 // accumulated per-unit execution time, nanoseconds
	maxUnit atomic.Int64 // longest successful unit execution, nanoseconds
	redone  atomic.Int64 // retry attempts actually executed
	stalled atomic.Int64 // watchdog stall cancellations observed
}

// NewPool returns a pool running at most workers units at once; workers <= 0
// selects runtime.GOMAXPROCS(0).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers reports the concurrency bound. A nil pool reports 1.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Jobs reports how many units have completed successfully through this
// pool. Failed and cancelled units are excluded, so after an aborted run
// the count is the same at any worker count.
func (p *Pool) Jobs() int64 {
	if p == nil {
		return 0
	}
	return p.jobs.Load()
}

// Busy reports the total execution time spent inside successfully
// completed units. Dividing Busy by elapsed wall-clock time estimates the
// achieved speedup.
func (p *Pool) Busy() time.Duration {
	if p == nil {
		return 0
	}
	return time.Duration(p.busy.Load())
}

// MaxUnitWall reports the longest wall-clock time any successfully
// completed unit took (including its retries), for telemetry reports.
func (p *Pool) MaxUnitWall() time.Duration {
	if p == nil {
		return 0
	}
	return time.Duration(p.maxUnit.Load())
}

// Retries reports how many retry attempts the pool has executed (an initial
// attempt is not a retry).
func (p *Pool) Retries() int64 {
	if p == nil {
		return 0
	}
	return p.redone.Load()
}

// Stalls reports how many unit attempts were cancelled by the watchdog.
func (p *Pool) Stalls() int64 {
	if p == nil {
		return 0
	}
	return p.stalled.Load()
}

func (p *Pool) account(start time.Time) {
	if p == nil {
		return
	}
	p.jobs.Add(1)
	took := int64(time.Since(start))
	p.busy.Add(took)
	for {
		cur := p.maxUnit.Load()
		if took <= cur || p.maxUnit.CompareAndSwap(cur, took) {
			break
		}
	}
}

// Map runs fn(0) … fn(n-1) through the pool and returns the results indexed
// by submission order. fn must be safe for concurrent invocation across
// distinct indices and must not depend on execution order (derive any
// randomness from pre-split seeds, not from shared state).
//
// Failure semantics are those of MapCtx with a background context: after
// the first failure no further units are dispatched at any worker count,
// started units drain, and the lowest failing index's error is reported as
// a *UnitError.
func Map[T any](p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), p, n, func(_ context.Context, i int) (T, error) {
		return fn(i)
	})
}

// MapCtx is Map with cancellation and panic capture. As soon as ctx is
// cancelled or any unit fails, no further units are dispatched; units
// already started drain (they observe the cancellation through the context
// passed to fn) and MapCtx returns only after all of them have finished, so
// it never leaks a goroutine.
//
// Every unit failure — including a recovered panic — is reported as a
// *UnitError. The reported error is the lowest-submission-index failure
// that is not itself a cancellation, so it does not depend on scheduling;
// when execution was aborted by ctx rather than by a unit, ctx.Err() is
// returned.
func MapCtx[T any](ctx context.Context, p *Pool, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, ctx.Err()
	}
	workers := p.Workers()
	if workers > n {
		workers = n
	}

	// Cancelling unitCtx — on the first unit failure or when the parent
	// context is cancelled — stops dispatch and lets cooperative in-flight
	// units return early.
	unitCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// When the pool has a watchdog window, one monitor goroutine polls the
	// in-flight attempts' heartbeats and cancels any that stall.
	var mon *monitor
	if window := p.watchdogOf(); window > 0 {
		mon = startMonitor(window)
		defer mon.shut()
	}

	// When the pool has a progress reporter, one goroutine snapshots the
	// call's completion state every interval. It observes counters only —
	// never results — so reporting cannot perturb determinism.
	var done atomic.Int64
	if p != nil && p.progressEvery > 0 && p.progressFn != nil {
		begin := time.Now()
		stopProg := make(chan struct{})
		progDone := make(chan struct{})
		go func() {
			defer close(progDone)
			t := time.NewTicker(p.progressEvery)
			defer t.Stop()
			for {
				select {
				case <-stopProg:
					return
				case <-t.C:
					p.progressFn(ProgressInfo{
						Done:    int(done.Load()),
						Total:   n,
						Elapsed: time.Since(begin),
						Jobs:    p.Jobs(),
						Retries: p.Retries(),
						Stalls:  p.Stalls(),
					})
				}
			}
		}()
		defer func() { close(stopProg); <-progDone }()
	}

	// runAttempt executes unit i once. With a watchdog armed, the attempt
	// runs under its own cancellable context carrying a heartbeat cell; a
	// stall cancellation surfaces as a *UnitError wrapping the *StallError
	// cause (copying the scenario key from Protect when the body attached
	// one) rather than as a bare context error.
	runAttempt := func(i int) (T, error) {
		actx := unitCtx
		var disarm func()
		if mon != nil {
			actx, _, disarm = mon.arm(unitCtx, i)
		}
		v, err := protectUnit(actx, i, fn)
		if disarm != nil {
			disarm()
		}
		if err != nil && mon != nil {
			var st *StallError
			if errors.As(context.Cause(actx), &st) {
				if p != nil {
					p.stalled.Add(1)
				}
				st.Index = i
				var ue *UnitError
				if errors.As(err, &ue) && ue.Key != "" {
					st.Key = ue.Key
				}
				err = &UnitError{Index: i, Key: st.Key, Err: st}
			}
		}
		return v, err
	}

	errs := make([]error, n)
	runUnit := func(i int) {
		defer done.Add(1)
		start := time.Now()
		v, err := runAttempt(i)
		// Transient failures — stalls, errors marked with MarkTransient —
		// are retried with exponential backoff. Inputs are pre-derived, so
		// a retried unit recomputes the identical result; a permanent
		// failure, a cancelled run or an exhausted budget breaks out.
		for attempt := 0; err != nil && attempt < p.retriesOf(); attempt++ {
			if unitCtx.Err() != nil || !Transient(err) {
				break
			}
			if !sleepCtx(unitCtx, p.retryDelay(attempt)) {
				break
			}
			p.redone.Add(1)
			v, err = runAttempt(i)
		}
		if err != nil {
			errs[i] = err
			cancel()
			return
		}
		out[i] = v
		p.account(start)
	}

	if workers <= 1 {
		for i := 0; i < n && unitCtx.Err() == nil; i++ {
			runUnit(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for unitCtx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					runUnit(i)
				}
			}()
		}
		wg.Wait()
	}

	for _, err := range errs {
		if err == nil || isCancellation(err) {
			continue
		}
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Only cancellations remain: a unit returned ctx.Err() without the
	// parent context being cancelled. Surface the lowest-index one.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// protectUnit invokes one unit under Protect and stamps the submission
// index on the *UnitError of a failure.
func protectUnit[T any](ctx context.Context, i int, fn func(context.Context, int) (T, error)) (T, error) {
	out, err := Protect("", func() (T, error) { return fn(ctx, i) })
	if err != nil {
		// ue escapes to the heap; declared on the error path only, it
		// costs a successful unit no allocation.
		var ue *UnitError
		if errors.As(err, &ue) {
			ue.Index = i
		}
	}
	return out, err
}

// isCancellation reports whether err is a pure context-cancellation
// failure: a drained unit observing the aborted context must never mask
// the real failure that triggered the abort.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
