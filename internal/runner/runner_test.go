package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewPoolDefaults(t *testing.T) {
	if w := NewPool(0).Workers(); w < 1 {
		t.Errorf("NewPool(0).Workers() = %d, want >= 1", w)
	}
	if w := NewPool(-3).Workers(); w < 1 {
		t.Errorf("NewPool(-3).Workers() = %d, want >= 1", w)
	}
	if w := NewPool(5).Workers(); w != 5 {
		t.Errorf("NewPool(5).Workers() = %d", w)
	}
	var nilPool *Pool
	if w := nilPool.Workers(); w != 1 {
		t.Errorf("nil pool Workers() = %d, want 1", w)
	}
	if nilPool.Jobs() != 0 || nilPool.Busy() != 0 {
		t.Error("nil pool should report zero statistics")
	}
}

func TestMapSubmissionOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		p := NewPool(workers)
		n := 53
		out, err := Map(p, n, func(i int) (int, error) {
			// Finish out of submission order on purpose.
			time.Sleep(time.Duration((n-i)%5) * time.Millisecond)
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
		if got := p.Jobs(); got != int64(n) {
			t.Errorf("workers=%d: Jobs() = %d, want %d", workers, got, n)
		}
		if p.Busy() <= 0 {
			t.Errorf("workers=%d: Busy() not accumulated", workers)
		}
	}
}

func TestMapNilPoolIsSerial(t *testing.T) {
	running := 0
	out, err := Map[int](nil, 10, func(i int) (int, error) {
		running++ // would race if anything ran concurrently
		return i, nil
	})
	if err != nil || len(out) != 10 || running != 10 {
		t.Fatalf("Map(nil) = %v, %v (ran %d)", out, err, running)
	}
}

func TestMapBoundedConcurrency(t *testing.T) {
	const workers = 3
	p := NewPool(workers)
	var cur, peak atomic.Int64
	var mu sync.Mutex
	_, err := Map(p, 40, func(i int) (struct{}, error) {
		c := cur.Add(1)
		mu.Lock()
		if c > peak.Load() {
			peak.Store(c)
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Errorf("observed %d concurrent units, bound is %d", got, workers)
	}
}

func TestMapFirstErrorByIndex(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	for _, workers := range []int{1, 4} {
		_, err := Map(NewPool(workers), 20, func(i int) (int, error) {
			switch i {
			case 17:
				return 0, errHigh
			case 3:
				// Make the higher index likely to fail first in real time.
				time.Sleep(5 * time.Millisecond)
				return 0, errLow
			}
			return i, nil
		})
		if !errors.Is(err, errLow) {
			t.Errorf("workers=%d: got %v, want lowest-index error %v", workers, err, errLow)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(NewPool(4), 0, func(i int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("Map(0 jobs) = %v, %v", out, err)
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []string {
		out, err := Map(NewPool(workers), 25, func(i int) (string, error) {
			return fmt.Sprintf("unit-%02d", i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	for _, workers := range []int{2, 7, 25} {
		got := run(workers)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: out[%d] = %q, want %q", workers, i, got[i], serial[i])
			}
		}
	}
}

// TestMapCtxCancelPromptNoLeak: cancelling the context makes MapCtx
// return promptly — cooperative in-flight units observe it, nothing new
// is dispatched — and no worker goroutine outlives the call.
func TestMapCtxCancelPromptNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	go func() {
		<-started
		cancel()
	}()
	_, err := MapCtx(ctx, NewPool(8), 1000, func(ctx context.Context, i int) (int, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if i > 100 {
			t.Fatalf("goroutines leaked: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMapCtxPreCancelled: a context cancelled before the call dispatches
// nothing at all.
func TestMapCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := MapCtx(ctx, NewPool(4), 50, func(ctx context.Context, i int) (int, error) {
		ran.Add(1)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d units ran under a pre-cancelled context", ran.Load())
	}
}

// TestMapCtxPanicCapture: a panicking unit is captured as a *UnitError
// carrying the index, recovered value and stack — at any worker count —
// instead of crashing the process.
func TestMapCtxPanicCapture(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := MapCtx(context.Background(), NewPool(workers), 10, func(_ context.Context, i int) (int, error) {
			if i == 5 {
				panic("pathological scenario")
			}
			return i, nil
		})
		var ue *UnitError
		if !errors.As(err, &ue) {
			t.Fatalf("workers=%d: err = %v, want *UnitError", workers, err)
		}
		if ue.Index != 5 || ue.Recovered != "pathological scenario" || len(ue.Stack) == 0 {
			t.Errorf("workers=%d: UnitError = index %d, recovered %v, %d stack bytes",
				workers, ue.Index, ue.Recovered, len(ue.Stack))
		}
	}
}

// TestProtectAttachesKey: Protect names the scenario on both error and
// panic paths, and MapCtx adds the submission index.
func TestProtectAttachesKey(t *testing.T) {
	boom := errors.New("boom")
	_, err := MapCtx(context.Background(), NewPool(2), 4, func(_ context.Context, i int) (int, error) {
		return Protect(fmt.Sprintf("scenario-%d", i), func() (int, error) {
			if i == 2 {
				return 0, boom
			}
			return i, nil
		})
	})
	var ue *UnitError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want *UnitError", err)
	}
	if ue.Key != "scenario-2" || ue.Index != 2 || !errors.Is(err, boom) {
		t.Errorf("UnitError = %+v, want key scenario-2, index 2, wrapping boom", ue)
	}

	_, err = Protect("panicky", func() (int, error) { panic(42) })
	if !errors.As(err, &ue) || ue.Key != "panicky" || ue.Recovered != 42 || len(ue.Stack) == 0 {
		t.Errorf("Protect panic = %v", err)
	}
}

// TestProtectUnitSuccessAllocatesNothing: the shield MapCtx puts around
// every unit costs a successful unit no allocation.
func TestProtectUnitSuccessAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	unit := func(context.Context, int) (int, error) { return 1, nil }
	if allocs := testing.AllocsPerRun(100, func() { protectUnit(ctx, 3, unit) }); allocs != 0 {
		t.Errorf("a successful unit's shield allocated %.1f times; want 0", allocs)
	}
}

// TestMapErrorStateDeterministicAcrossWorkers is the error-path
// determinism contract: after an injected unit failure, completed-job
// counts and cache contents are identical at any worker count. Units
// before the failing index succeed immediately; units after it block on
// the context, so they can never complete regardless of scheduling.
func TestMapErrorStateDeterministicAcrossWorkers(t *testing.T) {
	boom := errors.New("boom")
	run := func(workers int) (*Pool, *Cache, error) {
		p := NewPool(workers)
		c := NewCache()
		_, err := MapCtx(context.Background(), p, 16, func(ctx context.Context, i int) (int, error) {
			switch {
			case i < 3:
				c.Put(fmt.Sprintf("unit-%d", i), i)
				return i, nil
			case i == 3:
				return 0, boom
			default:
				<-ctx.Done()
				return 0, ctx.Err()
			}
		})
		return p, c, err
	}
	for _, workers := range []int{1, 8} {
		p, c, err := run(workers)
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if p.Jobs() != 3 {
			t.Errorf("workers=%d: Jobs() = %d, want 3", workers, p.Jobs())
		}
		if c.Len() != 3 {
			t.Errorf("workers=%d: cache Len() = %d, want 3", workers, c.Len())
		}
		for i := 0; i < 3; i++ {
			var v int
			if !c.Get(fmt.Sprintf("unit-%d", i), &v) || v != i {
				t.Errorf("workers=%d: cache missing unit-%d", workers, i)
			}
		}
	}
}

// TestMapStopsDispatchAfterFailure: once a unit has failed, no new
// indices are claimed — a failure near the start of a large run must not
// burn the remaining budget.
func TestMapStopsDispatchAfterFailure(t *testing.T) {
	const n, workers = 1000, 4
	var ran atomic.Int64
	_, err := Map(NewPool(workers), n, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("immediate failure")
		}
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := ran.Load(); got > n/2 {
		t.Errorf("%d of %d units dispatched after an immediate failure", got, n)
	}
}

// TestMapCancellationNeverMasksFailure: units that drain with ctx.Err()
// at a lower index than the real failure must not win error selection.
// Workers equal units so every index is claimed concurrently and the
// lower-index units are guaranteed to be in flight when unit 6 fails.
func TestMapCancellationNeverMasksFailure(t *testing.T) {
	boom := errors.New("boom")
	_, err := MapCtx(context.Background(), NewPool(8), 8, func(ctx context.Context, i int) (int, error) {
		if i == 6 {
			return 0, boom
		}
		<-ctx.Done()
		return 0, ctx.Err()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom (cancelled lower-index units must not mask it)", err)
	}
	var ue *UnitError
	if !errors.As(err, &ue) || ue.Index != 6 {
		t.Errorf("err = %v, want UnitError index 6", err)
	}
}
