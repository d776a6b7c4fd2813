package adopt

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"bbrnash/internal/check"
	"bbrnash/internal/exp"
	"bbrnash/internal/runner"
	"bbrnash/internal/units"
)

func TestApportion(t *testing.T) {
	cases := []struct {
		total   int
		weights []float64
		want    []int
	}{
		{10, []float64{1, 1}, []int{5, 5}},
		{10, []float64{2, 1}, []int{7, 3}},
		{7, []float64{1, 1, 1}, []int{3, 2, 2}}, // remainder ties go to lowest index
		{5, []float64{0, 0, 1}, []int{0, 0, 5}},
		{3, []float64{0, 0}, []int{2, 1}}, // zero weights distribute uniformly
		{0, []float64{1, 2}, []int{0, 0}},
		{1000000, []float64{0.333, 0.333, 0.334}, []int{333000, 333000, 334000}},
	}
	for _, tc := range cases {
		got := apportion(tc.total, tc.weights)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("apportion(%d, %v) = %v, want %v", tc.total, tc.weights, got, tc.want)
		}
		if sum(got) != tc.total {
			t.Errorf("apportion(%d, %v) sums to %d", tc.total, tc.weights, sum(got))
		}
	}
}

func TestProbedSimCountsKeepsProbes(t *testing.T) {
	cfg := Config{
		Classes:    []Class{{RTT: 20 * time.Millisecond, Weight: 1}, {RTT: 80 * time.Millisecond, Weight: 1}},
		Algorithms: []string{"cubic", "reno", "bbr"},
		SimFlows:   12,
	}
	// Class 0 is all-BBR, class 1 all-CUBIC: four cells are extinct but
	// every cell must keep a probe flow.
	pop := Population{Counts: [][]int{{0, 0, 500}, {500, 0, 0}}}
	sim := probedSimCounts(cfg, pop)
	total := 0
	for c := range sim {
		for a, k := range sim[c] {
			if k < 1 {
				t.Errorf("cell (%d,%d) has %d flows, want >= 1 probe", c, a, k)
			}
			total += k
		}
	}
	if total != cfg.SimFlows {
		t.Errorf("sim flows total %d, want %d", total, cfg.SimFlows)
	}
	// The populated cells keep the bulk.
	if sim[0][2] <= sim[0][0] || sim[1][0] <= sim[1][2] {
		t.Errorf("populated cells did not dominate: %v", sim)
	}
}

// testConfig is a fast fluid-backend run: each distinct mixture costs one
// ~7ms two-minute fluid simulation, and each generation's profile and
// deviations run as one batch on cfg.Pool.
func testConfig() Config {
	capacity := 50 * units.Mbps
	rtt := 40 * time.Millisecond
	return Config{
		Capacity:    capacity,
		Buffer:      units.BufferBytes(capacity, rtt, 3),
		Classes:     []Class{{RTT: rtt, Weight: 1}},
		Algorithms:  []string{"cubic", "bbr"},
		Shares:      []float64{0.8, 0.2},
		Agents:      1000,
		Generations: 6,
		Dynamics:    BestResponse,
		Noise:       0.1,
		ReviseProb:  0.5,
		SimFlows:    8,
		Seed:        7,
	}
}

func trajectoryBytes(t *testing.T, res Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, res.Trajectory); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The trajectory must be byte-identical at any worker count: every pooled
// batch (a generation's profile and deviations, the fixed-point check's)
// evaluates distinct keys whose payoffs do not depend on execution order,
// and the revision rules that consume them run serially.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfgA := testConfig()
	cfgA.Pool = runner.NewPool(1)
	resA, err := Run(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	cfgB := testConfig()
	cfgB.Pool = runner.NewPool(runtime.GOMAXPROCS(0))
	resB, err := Run(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	a, b := trajectoryBytes(t, resA), trajectoryBytes(t, resB)
	if !bytes.Equal(a, b) {
		t.Errorf("trajectories differ between 1 worker and %d workers:\n%s\nvs\n%s",
			runtime.GOMAXPROCS(0), a, b)
	}
	if resA.FixedPoint != resB.FixedPoint {
		t.Errorf("fixed-point verdicts differ: %v vs %v", resA.FixedPoint, resB.FixedPoint)
	}
	// Replicator dynamics must be deterministic too (no rng involvement).
	cfgC := testConfig()
	cfgC.Dynamics = Replicator
	cfgC.Noise = 0.02
	resC, err := Run(cfgC)
	if err != nil {
		t.Fatal(err)
	}
	cfgD := cfgC
	cfgD.Cache = nil
	cfgD.Pool = runner.NewPool(runtime.GOMAXPROCS(0))
	resD, err := Run(cfgD)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(trajectoryBytes(t, resC), trajectoryBytes(t, resD)) {
		t.Error("replicator trajectories differ across worker counts")
	}
}

// twoClassConfig is a two-class (20/80 ms), three-algorithm best-response
// run: one revision row per class, which is what the revision step runs
// concurrently.
func twoClassConfig() Config {
	capacity := 50 * units.Mbps
	return Config{
		Capacity:    capacity,
		Buffer:      units.BufferBytes(capacity, 40*time.Millisecond, 3),
		Classes:     []Class{{RTT: 20 * time.Millisecond, Weight: 1}, {RTT: 80 * time.Millisecond, Weight: 1}},
		Algorithms:  []string{"cubic", "reno", "bbr"},
		Agents:      10000,
		Generations: 15,
		Dynamics:    BestResponse,
		Noise:       0.05,
		ReviseProb:  0.7,
		Seed:        11,
	}
}

// The two-class revision step runs its classes concurrently, each on its
// own pre-split stream and writing only its own row. Its trajectory is
// pinned to the one the serial step produced, with a nil pool and at 1, 2
// and GOMAXPROCS workers, and so are the simulated/cached counts. The
// nil-pool run fills the cache and the pooled runs replay it, which keeps
// the test cheap enough for verify.sh to repeat under the race detector.
func TestRunTwoClassRevisionPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const (
		wantSHA  = "b804ada2ce742da58df0398703c9b67cb01383ed5736ec69a09683182cc9c057"
		wantSims = 31
		wantHits = 171
	)
	cache := runner.NewCache()
	for i, workers := range []int{0, 1, 2, runtime.GOMAXPROCS(0)} {
		cfg := twoClassConfig()
		cfg.Cache = cache
		if workers > 0 {
			cfg.Pool = runner.NewPool(workers)
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(trajectoryBytes(t, res))
		if got := hex.EncodeToString(sum[:]); got != wantSHA {
			t.Errorf("%d workers: trajectory SHA-256 %s, want %s", workers, got, wantSHA)
		}
		sims, hits := wantSims, wantHits
		if i > 0 {
			sims, hits = 0, wantSims+wantHits
		}
		if res.Simulations != sims || res.CacheHits != hits {
			t.Errorf("%d workers: %d simulated, %d cached; want %d, %d",
				workers, res.Simulations, res.CacheHits, sims, hits)
		}
	}
}

// A revisit is served by the run's payoff table, so each distinct profile
// reaches the cache once per run. A second run on the warm cache simulates
// nothing, makes the same number of lookups, produces the same bytes, and
// takes exactly one cache hit per profile the first run simulated.
func TestPayoffTableServesRevisits(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cache := runner.NewCache()
	cfg := testConfig()
	cfg.Cache = cache
	res1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res1.CacheHits == 0 {
		t.Fatal("the first run revisited no profile; the test needs revisits")
	}
	if got := cache.Hits(); got != 0 {
		t.Errorf("the first run took %d cache hits; its revisits belong to its table", got)
	}
	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Simulations != 0 {
		t.Errorf("the warm run simulated %d profiles", res2.Simulations)
	}
	if got, want := res2.Simulations+res2.CacheHits, res1.Simulations+res1.CacheHits; got != want {
		t.Errorf("the warm run made %d lookups, the first %d", got, want)
	}
	if !bytes.Equal(trajectoryBytes(t, res1), trajectoryBytes(t, res2)) {
		t.Error("the warm run's trajectory differs")
	}
	if got := cache.Hits(); got != int64(res1.Simulations) {
		t.Errorf("the warm run took %d cache hits, want one per distinct profile (%d)", got, res1.Simulations)
	}
}

// Revisits stay audited. Generation 0's profile is pre-seeded in the cache
// with a result whose link utilization breaks the audit; the payoffs, and
// so the trajectory, are those of the real result. Every count the table
// makes of that profile records one violation: its lookup and each use
// after its first. A prefetch of a profile the table holds counts nothing.
// The lookup records what a cache hit on the seeded result records, and
// every revisit replays it element by element.
func TestPayoffTableRevisitsAudited(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const wantViolations = 3
	cfg := testConfig()
	d, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	sp := d.payoffTable().Spec(probedSimCounts(d, initial(d)))
	bad, _, err := exp.Run(context.Background(), sp, exp.Env{})
	if err != nil {
		t.Fatal(err)
	}
	bad.Link.Utilization = 2
	bad.Links[0].Utilization = 2
	cfg.Cache = runner.NewCache()
	cfg.Cache.Put(sp.Key(), bad)
	cfg.Audit = check.New()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if got := cfg.Audit.Len(); got != wantViolations {
		t.Errorf("%d violations, want %d", got, wantViolations)
	}
	if got := len(cfg.Audit.ViolationsFor(sp.Key())); got != cfg.Audit.Len() {
		t.Errorf("%d of %d violations carry the seeded key", got, cfg.Audit.Len())
	}
	ref, refCache := check.New(), runner.NewCache()
	refCache.Put(sp.Key(), bad)
	if _, hit, err := exp.Run(context.Background(), sp, exp.Env{Cache: refCache, Audit: ref}); err != nil || !hit {
		t.Fatalf("reference lookup: hit %v, err %v", hit, err)
	}
	verdict := ref.Violations()
	if len(verdict) == 0 {
		t.Fatal("the seeded result passes the audit")
	}
	for i, v := range cfg.Audit.Violations() {
		if want := verdict[i%len(verdict)]; v != want {
			t.Errorf("violation %d (lookup %d) = %+v, want %+v", i, i/len(verdict), v, want)
		}
	}
}

// A revisit of a profile the run has already evaluated is one locked map
// lookup, a replay of the stored verdict and a hit: a read through the
// table's game with a clean verdict allocates nothing, audited or not.
func TestRevisitZeroAllocs(t *testing.T) {
	for _, audit := range []*check.Auditor{nil, check.New()} {
		cfg := testConfig()
		cfg.Audit = audit
		d, err := cfg.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		tab := d.payoffTable()
		sim := probedSimCounts(d, initial(d))
		if _, _, err := generation(d.Ctx, tab, sim, true); err != nil {
			t.Fatal(err)
		}
		g := tab.Game(d.Ctx, sizes(sim))
		hits := tab.CacheHits()
		const runs = 100
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := g.Payoff(0, 0, sim); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("audit %v: a revisit allocated %.1f times; want 0", audit.Enabled(), allocs)
		}
		if got := tab.CacheHits() - hits; got != runs+1 {
			t.Errorf("audit %v: %d revisits counted %d hits", audit.Enabled(), runs+1, got)
		}
		if audit.Len() != 0 {
			t.Errorf("the profile's verdict is not clean: %v", audit.Violations())
		}
	}
}

// The final record starts no revision step, so its deviation profiles are
// never evaluated: a zero-generation run without the fixed-point check
// evaluates exactly its one base profile.
func TestFinalGenerationSkipsDeviations(t *testing.T) {
	cfg := testConfig()
	cfg.Generations = 0
	cfg.SkipCheck = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Simulations + res.CacheHits; got != 1 {
		t.Errorf("evaluated %d profiles (%d simulated, %d cached), want 1", got, res.Simulations, res.CacheHits)
	}
}

// Every generation's lookups run through the pool, and a batch never
// simulates one key twice: on a cold cache the pool's job count is the
// run's simulation count, since a revisit is served by the run's table and
// takes no pool unit, and the simulated/cached split is the same at any
// worker count.
func TestGenerationsUsePool(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(workers int) Result {
		t.Helper()
		cfg := testConfig()
		cfg.SkipCheck = true
		cfg.Pool = runner.NewPool(workers)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cfg.Pool.Jobs(), int64(res.Simulations); got != want {
			t.Errorf("%d workers: pool ran %d jobs for %d simulations", workers, got, want)
		}
		return res
	}
	serial := run(1)
	run(2)
	wide := run(runtime.GOMAXPROCS(0))
	if serial.Simulations != wide.Simulations || serial.CacheHits != wide.CacheHits {
		t.Errorf("1 worker: %d simulated, %d cached; %d workers: %d simulated, %d cached",
			serial.Simulations, serial.CacheHits, runtime.GOMAXPROCS(0), wide.Simulations, wide.CacheHits)
	}
}

// A failed payoff lookup ends the run with the lookup's error: the fluid
// backend has no model for copa, every profile keeps a copa probe flow, and
// with one worker the first batch stops at its first failure, so no cache
// lookup follows it.
func TestFailedPayoffStopsRun(t *testing.T) {
	cfg := testConfig()
	cfg.Algorithms = []string{"cubic", "copa"}
	cfg.Pool, cfg.Cache = runner.NewPool(1), runner.NewCache()
	_, err := Run(cfg)
	var ue *runner.UnitError
	if !errors.As(err, &ue) || !strings.Contains(ue.Key, ",copa:") {
		t.Errorf("err = %v, want the *runner.UnitError of a lookup with a copa group", err)
	}
	if got := cfg.Cache.Misses(); got != 1 {
		t.Errorf("%d cache lookups, want 1: lookups followed the failed one", got)
	}
}

// Rerunning against the same journal must replay the trajectory
// byte-identically with zero fresh simulations — the crash/resume story.
func TestRunResumesFromJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	path := filepath.Join(t.TempDir(), "adopt.journal")
	j1, err := runner.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Journal = j1
	res1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Simulations == 0 {
		t.Fatal("first run simulated nothing")
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := runner.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	cfg2 := testConfig()
	cfg2.Journal = j2 // no cache: only the journal carries over
	res2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Simulations != 0 {
		t.Errorf("resumed run re-simulated %d mixtures", res2.Simulations)
	}
	if !bytes.Equal(trajectoryBytes(t, res1), trajectoryBytes(t, res2)) {
		t.Error("resumed trajectory is not byte-identical")
	}
}

// The trajectory schema: Generations+1 records, generations 0..G in
// order, every class carrying every algorithm in every map, final record
// carrying the fixed-point verdict.
func TestTrajectorySchema(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := testConfig()
	cfg.Generations = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) != cfg.Generations+1 {
		t.Fatalf("%d records for %d generations", len(res.Trajectory), cfg.Generations)
	}
	for g, rec := range res.Trajectory {
		if rec.Generation != g {
			t.Errorf("record %d labeled generation %d", g, rec.Generation)
		}
		if len(rec.Classes) != len(cfg.Classes) {
			t.Fatalf("record %d has %d classes", g, len(rec.Classes))
		}
		for c, st := range rec.Classes {
			agents, flows := 0, 0
			for _, name := range cfg.Algorithms {
				for field, m := range map[string]bool{
					"counts":       hasKeyInt(st.Counts, name),
					"sim_counts":   hasKeyInt(st.SimCounts, name),
					"shares":       hasKeyFloat(st.Shares, name),
					"payoffs_mbps": hasKeyFloat(st.PayoffsMbps, name),
				} {
					if !m {
						t.Errorf("record %d class %d: %s missing %q", g, c, field, name)
					}
				}
				agents += st.Counts[name]
				flows += st.SimCounts[name]
			}
			if agents != cfg.Agents {
				t.Errorf("record %d class %d: %d agents, want %d", g, c, agents, cfg.Agents)
			}
			if flows != cfg.SimFlows {
				t.Errorf("record %d class %d: %d sim flows, want %d", g, c, flows, cfg.SimFlows)
			}
		}
		if rec.MeanPayoffMbps <= 0 {
			t.Errorf("record %d: non-positive mean payoff %v", g, rec.MeanPayoffMbps)
		}
		if last := g == len(res.Trajectory)-1; (rec.FixedPoint != nil) != last {
			t.Errorf("record %d: fixed_point present=%v, want on final record only", g, rec.FixedPoint != nil)
		}
	}
}

func hasKeyInt(m map[string]int, k string) bool {
	_, ok := m[k]
	return ok
}

func hasKeyFloat(m map[string]float64, k string) bool {
	_, ok := m[k]
	return ok
}

func TestConfigValidation(t *testing.T) {
	base := testConfig()
	for name, mut := range map[string]func(*Config){
		"no capacity":       func(c *Config) { c.Capacity = 0 },
		"no buffer":         func(c *Config) { c.Buffer = 0 },
		"bad dynamics":      func(c *Config) { c.Dynamics = "imitation" },
		"bad algorithm":     func(c *Config) { c.Algorithms = []string{"cubic", "quic"} },
		"one algorithm":     func(c *Config) { c.Algorithms = []string{"bbr"} },
		"share mismatch":    func(c *Config) { c.Shares = []float64{1} },
		"negative share":    func(c *Config) { c.Shares = []float64{-1, 2} },
		"noise > 1":         func(c *Config) { c.Noise = 1.5 },
		"simflows < cells":  func(c *Config) { c.SimFlows = 1 },
		"bad backend":       func(c *Config) { c.Backend = "quantum" },
		"negative gens":     func(c *Config) { c.Generations = -1 },
		"zero-weight class": func(c *Config) { c.Classes = []Class{{RTT: time.Millisecond, Weight: 0}} },
		// NaN passes a check of the form x < 0 || x > 1, and a NaN or
		// infinite input makes the census garbage (counts of −2⁶³).
		"NaN capacity":      func(c *Config) { c.Capacity = units.Rate(math.NaN()) },
		"infinite capacity": func(c *Config) { c.Capacity = units.Rate(math.Inf(1)) },
		"NaN buffer":        func(c *Config) { c.Buffer = units.Bytes(math.NaN()) },
		"NaN class weight":  func(c *Config) { c.Classes = []Class{{RTT: time.Millisecond, Weight: math.NaN()}} },
		"infinite weight":   func(c *Config) { c.Classes = []Class{{RTT: time.Millisecond, Weight: math.Inf(1)}} },
		"NaN share":         func(c *Config) { c.Shares = []float64{math.NaN(), 1} },
		"infinite share":    func(c *Config) { c.Shares = []float64{math.Inf(1), 1} },
		"shares overflow":   func(c *Config) { c.Shares = []float64{math.MaxFloat64, math.MaxFloat64} },
		"NaN noise":         func(c *Config) { c.Noise = math.NaN() },
		"NaN revise":        func(c *Config) { c.ReviseProb = math.NaN() },
		"revise > 1":        func(c *Config) { c.ReviseProb = 1.5 },
		"NaN eps fraction":  func(c *Config) { c.EpsFraction = math.NaN() },
		"negative eps":      func(c *Config) { c.EpsFraction = -0.05 },
		"infinite eps":      func(c *Config) { c.EpsFraction = math.Inf(1) },
	} {
		cfg := base
		mut(&cfg)
		if _, err := cfg.withDefaults(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := base.withDefaults(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// Replicator dynamics cannot resurrect an extinct strategy without noise:
// a zero share has nothing to replicate.
func TestReplicatorKeepsExtinctExtinct(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := testConfig()
	cfg.Dynamics = Replicator
	cfg.Noise = 0
	cfg.Shares = []float64{1, 0} // no BBR seeded
	cfg.Generations = 3
	cfg.SkipCheck = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Trajectory {
		if got := rec.Classes[0].Counts["bbr"]; got != 0 {
			t.Fatalf("generation %d resurrected %d BBR agents", rec.Generation, got)
		}
	}
}
