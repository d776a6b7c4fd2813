package exp

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"bbrnash/internal/rng"
	"bbrnash/internal/runner"
	"bbrnash/internal/units"
)

// Walk-mode FindNE runs every payoff lookup as a pool unit and serves
// every re-read from its payoff table, so on a cold cache the pool's job
// count equals the search's simulations, and batching the rows the walk is
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
		if got := pool.Jobs(); got != int64(res.Simulations) {
			t.Errorf("%d workers: pool ran %d jobs for %d simulations",
				pool.Workers(), got, res.Simulations)
		}
	}
}

// The group walk's payoff lookups are pool units too, one at a time, so
// -timeout and -retries guard them, and a re-read takes no unit; the
// result does not depend on the worker count.
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
		if got := pool.Jobs(); got != int64(res.Simulations) {
			t.Errorf("%d workers: pool ran %d jobs for %d simulations",
				workers, got, res.Simulations)
		}
		if workers == 1 {
			want = res
		} else if !reflect.DeepEqual(res, want) {
			t.Errorf("%d workers: %+v, 1 worker gave %+v", workers, res, want)
		}
	}
}

// The group search's results and lookup counts on two shapes, in both
// modes, on the fluid backend. The walks start at their equilibria, so
// each reads the landing profile's four or six payoffs once, and the final
// check reads the walk's memo. The exhaustive scans build the whole table
// (16 and 27 profiles), then use it for each payoff the enumeration reads
// (32 and 102 uses, of which 16 and 27 are first uses). A cold cache
// simulates each profile once, and the pool runs only those lookups.
func TestFindGroupNEPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ms := time.Millisecond
	two := GroupNEConfig{
		Capacity: 50 * units.Mbps,
		Buffer:   units.BufferBytes(50*units.Mbps, 10*ms, 10),
		RTTs:     []time.Duration{10 * ms, 50 * ms},
		Sizes:    []int{3, 3},
		Seed:     3,
	}
	three := GroupNEConfig{
		Capacity: 100 * units.Mbps,
		Buffer:   units.BufferBytes(100*units.Mbps, 10*ms, 5),
		RTTs:     []time.Duration{10 * ms, 30 * ms, 50 * ms},
		Sizes:    []int{2, 2, 2},
		Seed:     5,
	}
	for _, c := range []struct {
		name       string
		cfg        GroupNEConfig
		exhaustive bool
		want       GroupNEResult
	}{
		{"3/3 walk", two, false, GroupNEResult{[][]int{{0, 3}}, 3, 1, true}},
		{"3/3 exhaustive", two, true, GroupNEResult{[][]int{{0, 3}}, 16, 16, true}},
		{"2/2/2 walk", three, false, GroupNEResult{[][]int{{0, 2, 2}}, 4, 2, true}},
		{"2/2/2 exhaustive", three, true, GroupNEResult{[][]int{
			{0, 0, 2}, {0, 1, 2}, {0, 2, 2}, {1, 0, 2}, {1, 1, 2}, {1, 2, 2}, {2, 0, 2}, {2, 1, 2}, {2, 2, 2},
		}, 27, 75, true}},
	} {
		cfg := c.cfg
		cfg.Duration, cfg.Backend, cfg.Exhaustive = 2*time.Minute, "fluid", c.exhaustive
		cfg.Pool = runner.NewPool(1)
		res, err := FindGroupNE(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(res, c.want) {
			t.Errorf("%s: %+v, want %+v", c.name, res, c.want)
		}
		if got := cfg.Pool.Jobs(); got != int64(res.Simulations) {
			t.Errorf("%s: pool ran %d jobs for %d simulations", c.name, got, res.Simulations)
		}
	}
}

// walkEvent is one entry of a recorded walk: a payoff read of row, or row
// carried by the batch hook's call number batch (1, 2, …; 0 for a read).
type walkEvent struct {
	row   int
	batch int
}

// recordWalk runs walkNeighborhood over the payoff table (px, pc) and logs
// every underlying payoff read and every batched row in order. With
// record false the batch hook is a no-op, which is the serial walk.
func recordWalk(px, pc []float64, start int, eps float64, maxSteps int, record bool) ([]int, bool, []walkEvent) {
	var log []walkEvent
	g := lineNE(len(px)-1,
		func(k int) float64 { log = append(log, walkEvent{row: k}); return px[k] },
		func(k int) float64 { log = append(log, walkEvent{row: k}); return pc[k] })
	calls := 0
	batch := func([]int) error { return nil }
	if record {
		batch = func(rows []int) error {
			calls++
			for _, row := range rows {
				log = append(log, walkEvent{row: row, batch: calls})
			}
			return nil
		}
	}
	ks, converged, err := walkNeighborhood(g, start, eps, maxSteps, batch)
	if err != nil {
		panic(err) // table payoffs cannot fail
	}
	return ks, converged, log
}

// walkBatches groups a recorded walk's batched rows by hook call. next[i]
// is the index in log of the event right after batch i, len(log) if none.
func walkBatches(log []walkEvent) (batches [][]int, next []int) {
	for i, e := range log {
		if e.batch == 0 {
			continue
		}
		if e.batch > len(batches) {
			batches = append(batches, nil)
			next = append(next, 0)
		}
		batches[e.batch-1] = append(batches[e.batch-1], e.row)
		next[e.batch-1] = i + 1
	}
	return batches, next
}

// checkCertainReads fails unless every batched row is batched once, unread
// before its batch and read after it.
func checkCertainReads(t *testing.T, where string, log []walkEvent) {
	t.Helper()
	batched := map[int]bool{}
	for i, e := range log {
		if e.batch == 0 {
			continue
		}
		if batched[e.row] {
			t.Fatalf("%s: row %d batched twice: %v", where, e.row, log)
		}
		batched[e.row] = true
		readBefore, readAfter := false, false
		for j, o := range log {
			if o.batch == 0 && o.row == e.row {
				readBefore = readBefore || j < i
				readAfter = readAfter || j > i
			}
		}
		if readBefore || !readAfter {
			t.Fatalf("%s: batched row %d (read before: %v, read after: %v): %v", where, e.row, readBefore, readAfter, log)
		}
	}
}

// firstWalkReads counts the payoff reads the walk itself makes on the
// table, before walkNeighborhood's post-walk checks read anything.
func firstWalkReads(px, pc []float64, start int, eps float64, maxSteps int) int {
	reads := 0
	n := len(px) - 1
	g := lineNE(n,
		func(k int) float64 { reads++; return px[k] },
		func(k int) float64 { reads++; return pc[k] })
	s := min(max(start, 0), n)
	g.Walk([][]int{{s, n - s}}, eps, maxSteps)
	return reads
}

// walkNeighborhood's batch hook must only ever receive rows the walk reads
// later and has not read yet. That is what lets FindNE run a batched
// lookup in place of the row's first serial lookup without moving
// Simulations or CacheHits. The property is checked on seeded synthetic
// payoff tables, no simulations: smooth crossings with noise (long walks),
// pure noise, eps 0, starts outside [0, N], N = 1, step budgets that run
// out, and negative eps, under which every switch pays and the walk
// cycles until its budget is spent. Past the walk's first read, a batch
// is either an in-walk pair (two adjacent rows, the first of them the
// walk's very next read, made while the game's Walk runs) or, only after
// a converged walk, the neighbourhood prefetch; a walk with eps < 0 pairs
// nothing.
func TestWalkNeighborhoodBatchesOnlyCertainReads(t *testing.T) {
	r := rng.New(15)
	var paired, postWalk, budgetOut, cycled int
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
		wantKs, wantConverged, plain := recordWalk(px, pc, start, eps, maxSteps, false)
		ks, converged, log := recordWalk(px, pc, start, eps, maxSteps, true)
		where := fmt.Sprintf("trial %d (n=%d start=%d eps=%.3g steps=%d)", trial, n, start, eps, maxSteps)
		if !reflect.DeepEqual(ks, wantKs) || converged != wantConverged {
			t.Fatalf("%s: batch hook changed the walk: %v/%v, want %v/%v", where, ks, converged, wantKs, wantConverged)
		}
		var reads []walkEvent
		for _, e := range log {
			if e.batch == 0 {
				reads = append(reads, e)
			}
		}
		if !reflect.DeepEqual(reads, plain) {
			t.Fatalf("%s: batch hook changed the reads: %v, want %v", where, reads, plain)
		}
		checkCertainReads(t, where, log)

		// readsBefore[i] counts the reads logged before log[i].
		readsBefore := make([]int, len(log)+1)
		for i, e := range log {
			readsBefore[i+1] = readsBefore[i]
			if e.batch == 0 {
				readsBefore[i+1]++
			}
		}
		walkReads := firstWalkReads(px, pc, start, eps, maxSteps)
		batches, next := walkBatches(log)
		for b, rows := range batches {
			after := next[b]
			if readsBefore[after] == 0 {
				continue // before the walk's first read: the start pair
			}
			inWalk := len(rows) == 2 && (rows[1]-rows[0] == 1 || rows[0]-rows[1] == 1) &&
				after < len(log) && log[after] == walkEvent{row: rows[0]} && readsBefore[after] < walkReads
			switch {
			case inWalk && eps < 0:
				t.Fatalf("%s: rows %v paired at eps < 0: %v", where, rows, log)
			case inWalk:
				paired += len(rows)
			case !converged:
				t.Fatalf("%s: rows %v batched after a walk that did not converge, and not as an in-walk pair: %v", where, rows, log)
			default:
				postWalk += len(rows)
			}
		}
		if !converged {
			budgetOut++
			if eps < 0 && maxSteps == 3*n {
				cycled++
			}
		}
	}
	if paired == 0 || postWalk == 0 || budgetOut == 0 || cycled == 0 {
		t.Fatalf("tables too tame: %d paired rows, %d post-walk batched rows, %d non-converged walks, %d cycling",
			paired, postWalk, budgetOut, cycled)
	}
}

// A walk with eps >= 0 never reverses, so each row it blocks on goes out
// with the row past it, which it is certain to read next. The up-walk is
// shaped like the ne_walk_packet benchmark's 2-BDP search: N = 50, from 31
// up to an equilibrium at 34, whose neighbourhood check then reads row 37
// alone. The down-walk pairs toward lower rows, a walk cut off by its step
// budget right after a pair still reads the partner, and eps < 0 pairs
// nothing.
func TestWalkNeighborhoodPairsBlockingReads(t *testing.T) {
	const n = 50
	// X gains on CUBIC by more than eps = 1 until the walk reaches the
	// crossing at cross; past it the gain stays within eps for two rows.
	table := func(cross float64) (px, pc []float64) {
		px, pc = make([]float64, n+1), make([]float64, n+1)
		for k := range px {
			px[k] = cross + 1.5 - float64(k)
		}
		return px, pc
	}
	for _, c := range []struct {
		name       string
		cross      float64
		start      int
		eps        float64
		maxSteps   int
		batches    [][]int
		converged  bool
		unbatched  []int // rows first read without a batch, in order
		equilibria []int
	}{
		{"up from 31 to 34", 34, 31, 1, 3 * n,
			[][]int{{31, 32}, {33, 34}, {35, 36}}, true, []int{37}, []int{34, 35, 36}},
		{"down from 20 to 17", 15, 20, 1, 3 * n,
			[][]int{{20, 21}, {19, 18}, {17, 16}, {14, 15}}, true, nil, []int{15, 16, 17}},
		{"budget ends after a pair", 34, 31, 1, 2,
			[][]int{{31, 32}, {33, 34}}, false, []int{30, 35, 36}, []int{34, 35}},
		{"eps < 0 cycles unpaired", 34, 31, -1, 3 * n,
			[][]int{{31, 32}}, false, []int{33, 34, 35, 36, 37}, nil},
	} {
		px, pc := table(c.cross)
		ks, converged, log := recordWalk(px, pc, c.start, c.eps, c.maxSteps, true)
		checkCertainReads(t, c.name, log)
		batches, _ := walkBatches(log)
		if !reflect.DeepEqual(batches, c.batches) {
			t.Errorf("%s: batches %v, want %v", c.name, batches, c.batches)
		}
		var unbatched []int
		seen := map[int]bool{}
		for _, e := range log {
			if e.batch == 0 && !seen[e.row] {
				unbatched = append(unbatched, e.row)
			}
			seen[e.row] = true
		}
		if !reflect.DeepEqual(unbatched, c.unbatched) {
			t.Errorf("%s: rows read without a batch %v, want %v", c.name, unbatched, c.unbatched)
		}
		if converged != c.converged || !reflect.DeepEqual(ks, c.equilibria) {
			t.Errorf("%s: equilibria %v (converged %v), want %v (%v)", c.name, ks, converged, c.equilibria, c.converged)
		}
	}
}
