package exp

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"bbrnash/internal/game"
	"bbrnash/internal/rng"
	"bbrnash/internal/runner"
	"bbrnash/internal/units"
)

// Walk-mode FindNE runs every payoff lookup as a pool unit, so the pool's
// job count equals the search's lookups, and batching the rows the walk is
// certain to read changes nothing: the result, Simulations and CacheHits
// are the same without a pool and at any worker count.
func TestFindNEWalkUsesPool(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	pools := []*runner.Pool{nil, runner.NewPool(1), runner.NewPool(2), runner.NewPool(runtime.GOMAXPROCS(0))}
	var want NESearchResult
	for i, pool := range pools {
		cfg := fluidNE(8, 3)
		cfg.Pool = pool
		cfg.Cache = runner.NewCache()
		res, err := FindNE(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = res
			if !res.Converged || res.Simulations == 0 || res.CacheHits == 0 {
				t.Fatalf("serial walk %+v: want a converged walk with simulations and cache hits", res)
			}
			continue
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("%d workers: %+v, serial walk gave %+v", pool.Workers(), res, want)
		}
		if got := pool.Jobs(); got != int64(res.Simulations+res.CacheHits) {
			t.Errorf("%d workers: pool ran %d jobs for %d simulations + %d cache hits",
				pool.Workers(), got, res.Simulations, res.CacheHits)
		}
	}
}

// The group walk's payoff lookups are pool units too, one at a time, so
// -timeout and -retries guard them; the result does not depend on the
// worker count.
func TestFindGroupNEWalkUsesPool(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var want GroupNEResult
	for _, workers := range []int{1, 2} {
		pool := runner.NewPool(workers)
		res, err := FindGroupNE(GroupNEConfig{
			Capacity: 50 * units.Mbps,
			Buffer:   units.BufferBytes(50*units.Mbps, 10*time.Millisecond, 10),
			RTTs:     []time.Duration{10 * time.Millisecond, 50 * time.Millisecond},
			Sizes:    []int{3, 3},
			Duration: 2 * time.Minute,
			Seed:     3,
			Backend:  "fluid",
			Pool:     pool,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Simulations == 0 {
			t.Fatal("group walk ran no simulations")
		}
		if got := pool.Jobs(); got != int64(res.Simulations+res.CacheHits) {
			t.Errorf("%d workers: pool ran %d jobs for %d simulations + %d cache hits",
				workers, got, res.Simulations, res.CacheHits)
		}
		if workers == 1 {
			want = res
		} else if !reflect.DeepEqual(res, want) {
			t.Errorf("%d workers: %+v, 1 worker gave %+v", workers, res, want)
		}
	}
}

// walkNeighborhood's batch hook must only ever receive rows the walk reads
// later and has not read yet. That is what lets FindNE run a batched
// lookup in place of the row's first serial lookup without moving
// Simulations or CacheHits. The property is checked on seeded synthetic
// payoff tables, no simulations: smooth crossings with noise (long walks),
// pure noise, eps 0, starts outside [0, N], N = 1, step budgets that run
// out, and negative eps, under which every switch pays and the walk
// cycles until its budget is spent.
func TestWalkNeighborhoodBatchesOnlyCertainReads(t *testing.T) {
	type event struct {
		row   int
		batch bool
	}
	r := rng.New(15)
	var postWalk, budgetOut, cycled int
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(12)
		start := r.Intn(n+7) - 3
		px, pc := make([]float64, n+1), make([]float64, n+1)
		smooth := r.Intn(2) == 0
		cross := r.Range(0, float64(n))
		for k := 0; k <= n; k++ {
			px[k], pc[k] = r.Float64(), r.Float64()
			if smooth {
				px[k] = 2*(cross-float64(k))/float64(n) + 0.1*px[k]
				pc[k] = 0.1 * pc[k]
			}
		}
		eps, maxSteps := 0.0, 3*n
		switch trial % 4 {
		case 1:
			eps = 0.1 * r.Float64()
		case 2:
			eps = -3 - r.Float64()
		case 3:
			maxSteps = r.Intn(n + 1)
		}
		walk := func(record bool) ([]int, bool, []event) {
			var log []event
			g := &game.SymmetricBinary{
				N:           n,
				PayoffX:     func(k int) float64 { log = append(log, event{row: k}); return px[k] },
				PayoffCubic: func(k int) float64 { log = append(log, event{row: k}); return pc[k] },
			}
			batch := func([]int) {}
			if record {
				batch = func(rows []int) {
					for _, row := range rows {
						log = append(log, event{row: row, batch: true})
					}
				}
			}
			ks, converged := walkNeighborhood(g, start, eps, maxSteps, batch)
			return ks, converged, log
		}
		wantKs, wantConverged, plain := walk(false)
		ks, converged, log := walk(true)
		where := fmt.Sprintf("trial %d (n=%d start=%d eps=%.3g steps=%d)", trial, n, start, eps, maxSteps)
		if !reflect.DeepEqual(ks, wantKs) || converged != wantConverged {
			t.Fatalf("%s: batch hook changed the walk: %v/%v, want %v/%v", where, ks, converged, wantKs, wantConverged)
		}
		var reads []event
		for _, e := range log {
			if !e.batch {
				reads = append(reads, e)
			}
		}
		if !reflect.DeepEqual(reads, plain) {
			t.Fatalf("%s: batch hook changed the reads: %v, want %v", where, reads, plain)
		}
		batched := map[int]bool{}
		firstRead := len(log)
		for i, e := range log {
			if !e.batch {
				firstRead = min(firstRead, i)
				continue
			}
			if batched[e.row] {
				t.Fatalf("%s: row %d batched twice: %v", where, e.row, log)
			}
			batched[e.row] = true
			readBefore, readAfter := false, false
			for j, o := range log {
				if !o.batch && o.row == e.row {
					readBefore = readBefore || j < i
					readAfter = readAfter || j > i
				}
			}
			if readBefore || !readAfter {
				t.Fatalf("%s: batched row %d (read before: %v, read after: %v): %v", where, e.row, readBefore, readAfter, log)
			}
			if i > firstRead {
				if !converged {
					t.Fatalf("%s: row %d batched after a walk that did not converge: %v", where, e.row, log)
				}
				postWalk++
			}
		}
		if !converged {
			budgetOut++
			if eps < 0 && maxSteps == 3*n {
				cycled++
			}
		}
	}
	if postWalk == 0 || budgetOut == 0 || cycled == 0 {
		t.Fatalf("tables too tame: %d post-walk batched rows, %d non-converged walks, %d cycling", postWalk, budgetOut, cycled)
	}
}
