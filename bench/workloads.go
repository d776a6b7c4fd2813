package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"bbrnash/internal/adopt"
	"bbrnash/internal/check"
	"bbrnash/internal/exp"
	"bbrnash/internal/runner"
	"bbrnash/internal/scenario"
)

// workers is the pool size everywhere: the reference machine has two cores.
const workers = 2

// A workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// prepare generates the inputs from the seed and returns the pass to
	// time. It is all a set-up probe process does before reporting ready.
	prepare func(o options) (*prepared, error)
}

// prepared is a workload ready to run. Each pass starts from fresh state
// (new pool, cache and auditor, or a new bbrserve), so every pass does the
// same work and must produce the same digest.
type prepared struct {
	pass func(ctx context.Context, tr *Tracer, root int) (passOut, error)
	// specs are the scenarios the layer probe replays.
	specs []scenario.Spec
	// external marks a workload whose work runs in a process each pass
	// starts; that pass reports the process's memory.
	external bool
	// setup times one start of the process doing the work, in seconds;
	// nil means a fresh copy of this program in set-up-only mode.
	setup func(ctx context.Context) (float64, error)
}

// passOut is what one pass measured. Operation failures are reported in
// failed and problems; an error return means the harness itself broke.
type passOut struct {
	digest   string
	ops      []float64 // seconds per operation the benchmark issued and awaited
	failed   int
	problems []string
	counters map[string]float64
	// samples are named latency sets (seconds) pooled across passes and
	// reported as <name>_p50_ms and <name>_p99_ms.
	samples map[string][]float64
	// External workloads only: the timed part of the pass (the requests,
	// not starting and stopping the server).
	wallS float64
	// rssMB is the peak RSS of the process that did the pass's work; the
	// pass sets it for external workloads, the pass loop otherwise.
	rssMB float64
}

func (p *passOut) fail(err error) {
	p.failed++
	p.problems = append(p.problems, err.Error())
}

// workloads are fixed by name; later changes cite them.
var workloads = []workload{
	{"sweep_packet", "Fig 1-8 regeneration: a cold 2-worker Sweep of 43 two-minute packet specs, so the packet engine and pool balance dominate", prepareSweep},
	{"ne_walk_packet", "Fig 9-11 NE search: serial walk-mode FindNE, 50 flows on one clean link, so per-flow engine cost dominates", prepareNE},
	{"adopt_fluid", "cmd/adopt: 1e5 agents x 100 generations on the fluid backend, so fluid steps and cached-payoff decodes dominate", prepareAdopt},
	{"serve_mixed", "bbrserve under 2 closed-loop clients, 60% repeated keys: HTTP, GetRaw hits, journal fsync and fluid misses", prepareServe},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

func validate(specs []scenario.Spec) error {
	for i, sp := range specs {
		if err := sp.Validate(); err != nil {
			return fmt.Errorf("bench: generated spec %d: %w", i, err)
		}
	}
	return nil
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func digestJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return digestOf(b), nil
}

// storeCounters reads the runner layer's public getters after a pass.
func storeCounters(m map[string]float64, pool *runner.Pool, wall float64, hits, misses int64, audit *check.Auditor) {
	m["runner.pool.jobs"] = float64(pool.Jobs())
	m["runner.pool.busy_s"] = pool.Busy().Seconds()
	m["runner.pool.max_unit_s"] = pool.MaxUnitWall().Seconds()
	m["runner.pool.utilization"] = pool.Busy().Seconds() / (float64(pool.Workers()) * wall)
	m["runner.pool.retries"] = float64(pool.Retries())
	m["runner.pool.stalls"] = float64(pool.Stalls())
	m["runner.cache.hits"] = float64(hits)
	m["runner.cache.misses"] = float64(misses)
	if hits+misses > 0 {
		m["runner.cache.hit_rate"] = float64(hits) / float64(hits+misses)
	}
	m["check.violations"] = float64(audit.Len())
}

func prepareSweep(o options) (*prepared, error) {
	in := sweepInputs(o.seed, o.smoke)
	if err := validate(in.Specs); err != nil {
		return nil, err
	}
	pass := func(ctx context.Context, tr *Tracer, root int) (passOut, error) {
		pool, cache, audit := runner.NewPool(workers), runner.NewCache(), check.New()
		scale := exp.Scale{Name: "bench", Trials: 1, Pool: pool, Cache: cache, Audit: audit, Ctx: ctx}
		var pts []exp.SweepPoint
		var err error
		wall := tr.Time(root, "exp.Scale.Sweep", func() {
			pts, err = scale.Sweep(in.Seed, len(in.Specs), func(i int) scenario.Spec { return in.Specs[i] })
		}).Seconds()
		out := passOut{ops: []float64{wall}, counters: map[string]float64{}}
		storeCounters(out.counters, pool, wall, cache.Hits(), cache.Misses(), audit)
		if err != nil {
			out.fail(err)
			return out, nil
		}
		out.digest, err = digestJSON(pts)
		return out, err
	}
	return &prepared{pass: pass, specs: in.Specs}, nil
}

// neRecord is the part of one search's result the golden digest covers.
type neRecord struct {
	BufferBDP   float64 `json:"buffer_bdp"`
	EquilibriaX []int   `json:"equilibria_x"`
	Simulations int     `json:"simulations"`
	CacheHits   int     `json:"cache_hits"`
	Converged   bool    `json:"converged"`
}

func prepareNE(o options) (*prepared, error) {
	in := neInputs(o.seed, o.smoke)
	specs := make([]scenario.Spec, len(in.Buffers))
	for i, k := range in.Buffers {
		specs[i] = scenario.Mix("bbr", in.N/2, in.N-in.N/2, in.Capacity, bdp(in.Capacity, in.RTT, k), in.RTT, exp.PayoffDuration(0))
	}
	if err := validate(specs); err != nil {
		return nil, err
	}
	pass := func(ctx context.Context, tr *Tracer, root int) (passOut, error) {
		// The walk ignores Pool today; it is set so that a parallel walk
		// would show here.
		pool, cache, audit := runner.NewPool(workers), runner.NewCache(), check.New()
		out := passOut{counters: map[string]float64{}}
		var recs []neRecord
		var sims, hits, converged int
		start := time.Now()
		for _, k := range in.Buffers {
			var r exp.NESearchResult
			var err error
			d := tr.Time(root, "exp.FindNE", func() {
				r, err = exp.FindNE(exp.NESearchConfig{
					Capacity: in.Capacity, Buffer: bdp(in.Capacity, in.RTT, k), RTT: in.RTT, N: in.N,
					Seed: in.Seed, Pool: pool, Cache: cache, Audit: audit, Ctx: ctx,
				})
			})
			out.ops = append(out.ops, d.Seconds())
			if err != nil {
				out.fail(err)
				continue
			}
			recs = append(recs, neRecord{k, r.EquilibriaX, r.Simulations, r.CacheHits, r.Converged})
			sims += r.Simulations
			hits += r.CacheHits
			if r.Converged {
				converged++
			}
		}
		storeCounters(out.counters, pool, time.Since(start).Seconds(), cache.Hits(), cache.Misses(), audit)
		out.counters["exp.ne.sims"] = float64(sims)
		out.counters["exp.ne.cache_hits"] = float64(hits)
		out.counters["exp.ne.converged"] = float64(converged)
		var err error
		out.digest, err = digestJSON(recs)
		return out, err
	}
	return &prepared{pass: pass, specs: specs}, nil
}

func prepareAdopt(o options) (*prepared, error) {
	in := adoptInputs(o.seed, o.smoke)
	// The probe replays the scenario shape adopt's payoff evaluator builds:
	// class-major, algorithm-minor groups on the fluid backend.
	var specs []scenario.Spec
	for _, k := range in.Buffers {
		cfg := in.config(k)
		sp := scenario.Spec{
			Capacity: cfg.Capacity, Buffer: cfg.Buffer, Duration: exp.PayoffDuration(0), Seed: in.Seed,
			AckJitter: scenario.DefaultAckJitter, StartJitter: scenario.DefaultStartJitter, Backend: scenario.BackendFluid,
		}
		for _, c := range cfg.Classes {
			for _, a := range cfg.Algorithms {
				sp.Groups = append(sp.Groups, scenario.Group{Algorithm: a, Count: 3, RTT: c.RTT})
			}
		}
		specs = append(specs, sp)
	}
	if err := validate(specs); err != nil {
		return nil, err
	}
	pass := func(ctx context.Context, tr *Tracer, root int) (passOut, error) {
		pool, audit := runner.NewPool(workers), check.New()
		// One operation is one generation: OnRecord to OnRecord.
		out := passOut{counters: map[string]float64{}}
		var traj bytes.Buffer
		var hits, misses int64
		var sims, cacheHits int
		start := time.Now()
		for _, k := range in.Buffers {
			cfg := in.config(k)
			cfg.Pool, cfg.Cache, cfg.Audit, cfg.Ctx = pool, runner.NewCache(), audit, ctx
			runID := tr.Begin(root, "adopt.Run", 0)
			last := time.Now()
			genID := tr.Begin(runID, "adopt.generation", 0)
			var writeErr error
			cfg.OnRecord = func(r adopt.Record) {
				now := time.Now()
				out.ops = append(out.ops, now.Sub(last).Seconds())
				last = now
				tr.End(genID)
				if r.Generation < cfg.Generations {
					genID = tr.Begin(runID, "adopt.generation", 0)
				}
				if err := adopt.WriteJSONL(&traj, []adopt.Record{r}); err != nil && writeErr == nil {
					writeErr = err
				}
			}
			res, err := adopt.Run(cfg)
			tr.End(runID)
			hits += cfg.Cache.Hits()
			misses += cfg.Cache.Misses()
			if err == nil {
				err = writeErr
			}
			if err != nil {
				out.fail(err)
				continue
			}
			sims += res.Simulations
			cacheHits += res.CacheHits
		}
		storeCounters(out.counters, pool, time.Since(start).Seconds(), hits, misses, audit)
		out.counters["adopt.sims"] = float64(sims)
		out.counters["adopt.cache_hits"] = float64(cacheHits)
		out.digest = digestOf(traj.Bytes())
		return out, nil
	}
	return &prepared{pass: pass, specs: specs}, nil
}
