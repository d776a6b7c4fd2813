package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bbrnash/internal/check"
	"bbrnash/internal/exp"
	"bbrnash/internal/fluid"
	"bbrnash/internal/netsim"
	"bbrnash/internal/runner"
	"bbrnash/internal/scenario"
)

// The layer probe replays a workload's own specs through each module's
// public boundary, timing every call from outside. It runs after the timed
// phase of a traced run, so it never perturbs the end-to-end numbers.

const (
	probeSpecs     = 4                // specs taken, evenly spaced, from the workload's list
	probeSimTime   = 5 * time.Second  // simulated time per engine probe
	probeReps      = 50               // repetitions of each microsecond-scale call
	probeResultDur = 10 * time.Second // simulated duration of the runs whose results feed the store probes
)

// probe measures every layer metric the probe owns; spans go under root.
func probe(ctx context.Context, specs []scenario.Spec, workdir string, tr *Tracer, root int) (map[string]float64, error) {
	picked := pick(specs, probeSpecs)
	m := map[string]float64{}

	// Packet engine: Build, then Run for a fixed simulated time. Every spec
	// is forced onto the packet backend, so a fluid workload's inputs
	// measure the engine too.
	var builds []float64
	var runNS, events float64
	for _, sp := range picked {
		sp.Backend = scenario.BackendPacket
		sp.Duration = probeSimTime
		var n *netsim.Network
		var err error
		builds = append(builds, tr.Time(root, "netsim.Build", func() { n, _, err = netsim.Build(sp) }).Seconds())
		if err != nil {
			return nil, fmt.Errorf("probe: netsim.Build: %w", err)
		}
		runNS += float64(tr.Time(root, "netsim.Network.Run", func() { n.Run(probeSimTime) }))
		events += float64(n.Events())
	}
	m["netsim.build_ms"] = Median(builds) * 1e3
	m["netsim.events"] = events
	m["netsim.ns_per_event"] = runNS / events

	// Fluid model: New and Run on the specs it accepts (it has no model for
	// bbrv2, copa or vivace, nor for true multi-bottleneck paths).
	var stepNS, steps float64
	for _, sp := range fluidable(specs, probeSpecs) {
		sp.Backend = scenario.BackendFluid
		var fm *fluid.Model
		var err error
		tr.Time(root, "fluid.New", func() { fm, err = fluid.New(sp) })
		if err != nil {
			return nil, fmt.Errorf("probe: fluid.New: %w", err)
		}
		stepNS += float64(tr.Time(root, "fluid.Model.Run", func() { fm.Run(probeSimTime) }))
		steps += float64(fm.Now() / fm.Step())
	}
	if steps == 0 {
		return nil, fmt.Errorf("probe: no spec the fluid model accepts")
	}
	m["fluid.steps"] = steps
	m["fluid.ns_per_step"] = stepNS / steps

	// Scenario layer: decoding the JSON form and deriving the canonical key.
	bodies := make([][]byte, len(specs))
	for i, sp := range specs {
		b, err := json.Marshal(sp)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	var decodes, keys []float64
	for r := 0; r < probeReps; r++ {
		i := r % len(specs)
		var sp scenario.Spec
		var err error
		decodes = append(decodes, tr.Time(root, "scenario.decode", func() { err = json.Unmarshal(bodies[i], &sp) }).Seconds())
		if err != nil {
			return nil, fmt.Errorf("probe: decoding spec: %w", err)
		}
		keys = append(keys, tr.Time(root, "scenario.Spec.Key", func() { _ = sp.Key() }).Seconds())
	}
	m["scenario.decode_us"] = Median(decodes) * 1e6
	m["scenario.key_us"] = Median(keys) * 1e6

	// Store layer: real results (short fluid runs where possible, so the
	// per-flow shapes match the workload) through Put/Get/GetRaw/Save and a
	// journal's fsynced Record.
	dir, err := os.MkdirTemp(workdir, "probe-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	type keyed struct {
		sp  scenario.Spec
		key string
		res exp.SpecResult
	}
	var results []keyed
	for _, sp := range picked {
		sp.Duration = probeResultDur
		if fluidOK(sp) {
			sp.Backend = scenario.BackendFluid
		} else {
			sp.Backend = scenario.BackendPacket
		}
		res, err := exp.RunSpec(sp)
		if err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		results = append(results, keyed{sp, sp.Key(), res})
	}
	cache, err := runner.OpenCache(filepath.Join(dir, "cache.json"), scenario.KeyVersion)
	if err != nil {
		return nil, err
	}
	defer cache.Close()
	journal, err := runner.OpenJournal(filepath.Join(dir, "journal.jsonl"), scenario.KeyVersion)
	if err != nil {
		return nil, err
	}
	defer journal.Close()
	var puts, gets, raws, records []float64
	for r := 0; r < probeReps; r++ {
		k := results[r%len(results)]
		puts = append(puts, tr.Time(root, "runner.Cache.Put", func() { cache.Put(k.key, k.res) }).Seconds())
		var got exp.SpecResult
		ok := false
		gets = append(gets, tr.Time(root, "runner.Cache.Get", func() { ok = cache.Get(k.key, &got) }).Seconds())
		raws = append(raws, tr.Time(root, "runner.Cache.GetRaw", func() { _, ok = cache.GetRaw(k.key) }).Seconds())
		if !ok {
			return nil, fmt.Errorf("probe: cache lost %s", k.key)
		}
	}
	for r := 0; r < probeReps/5; r++ {
		k := results[r%len(results)]
		var err error
		records = append(records, tr.Time(root, "runner.Journal.Record", func() { err = journal.Record(k.key, k.res) }).Seconds())
		if err != nil {
			return nil, fmt.Errorf("probe: journal: %w", err)
		}
	}
	var saveErr error
	save := tr.Time(root, "runner.Cache.Save", func() { saveErr = cache.Save() })
	if saveErr != nil {
		return nil, fmt.Errorf("probe: cache save: %w", saveErr)
	}
	fi, err := os.Stat(filepath.Join(dir, "cache.json"))
	if err != nil {
		return nil, err
	}
	m["runner.cache.put_us"] = Median(puts) * 1e6
	m["runner.cache.get_us"] = Median(gets) * 1e6
	m["runner.cache.getraw_us"] = Median(raws) * 1e6
	m["runner.journal.record_us"] = Median(records) * 1e6
	m["runner.cache.save_ms"] = save.Seconds() * 1e3
	m["runner.cache.bytes"] = float64(fi.Size())

	// The harness's cached path on a warm cache: decode plus audit.
	audit := check.New()
	var replays []float64
	for r := 0; r < probeReps; r++ {
		k := results[r%len(results)]
		var hit bool
		var err error
		replays = append(replays, tr.Time(root, "exp.RunSpecCached", func() {
			_, hit, err = exp.RunSpecCached(ctx, k.sp, cache, nil, audit)
		}).Seconds())
		if err != nil || !hit {
			return nil, fmt.Errorf("probe: warm replay of %s: hit=%v err=%v", k.key, hit, err)
		}
	}
	m["exp.replay_us"] = Median(replays) * 1e6
	return m, nil
}

// pick returns up to n specs spread evenly over the list.
func pick(specs []scenario.Spec, n int) []scenario.Spec {
	if len(specs) <= n {
		return specs
	}
	out := make([]scenario.Spec, n)
	for i := range out {
		out[i] = specs[i*len(specs)/n]
	}
	return out
}

// fluidable returns up to n specs the fluid model accepts, spread over the list.
func fluidable(specs []scenario.Spec, n int) []scenario.Spec {
	var ok []scenario.Spec
	for _, sp := range specs {
		if fluidOK(sp) {
			ok = append(ok, sp)
		}
	}
	return pick(ok, n)
}

func fluidOK(sp scenario.Spec) bool {
	sp.Backend = scenario.BackendFluid
	_, err := fluid.New(sp)
	return err == nil
}
