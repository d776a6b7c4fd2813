package exp

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"bbrnash/internal/check"
	"bbrnash/internal/runner"
	"bbrnash/internal/scenario"
	"bbrnash/internal/units"
)

func crossValSmokeConfig(pool *runner.Pool, cache *runner.Cache) CrossValConfig {
	return CrossValConfig{
		Capacity:   20 * units.Mbps,
		RTT:        30 * time.Millisecond,
		Seed:       7,
		BufferBDPs: []float64{2, 6},
		Mixes:      [][2]int{{1, 1}},
		Scale: Scale{
			Name:         "crossval-smoke",
			FlowDuration: 3 * time.Second,
			Trials:       1,
			Pool:         pool,
			Cache:        cache,
		},
	}
}

// TestCrossValidateReport: the harness runs both backends over the grid
// and produces a schema-complete, internally consistent report. Divergence
// must be reported, never turned into an error.
func TestCrossValidateReport(t *testing.T) {
	rep, err := CrossValidate(crossValSmokeConfig(nil, runner.NewCache()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != CrossValSchemaVersion {
		t.Errorf("schema version %d, want %d", rep.SchemaVersion, CrossValSchemaVersion)
	}
	if rep.KeyVersion != scenario.KeyVersion {
		t.Errorf("key version %q, want %q", rep.KeyVersion, scenario.KeyVersion)
	}
	if len(rep.Points) != 2 || rep.Summary.Points != 2 {
		t.Fatalf("got %d points (summary %d), want 2", len(rep.Points), rep.Summary.Points)
	}
	for _, p := range rep.Points {
		if p.Regime == "" {
			t.Errorf("point buf=%g has no regime label", p.BufferBDP)
		}
		if p.PacketBBRMbps <= 0 || p.FluidBBRMbps <= 0 {
			t.Errorf("point buf=%g has non-positive BBR rates: packet %g fluid %g",
				p.BufferBDP, p.PacketBBRMbps, p.FluidBBRMbps)
		}
		if p.RelErrBBR < 0 || p.RelErrCubic < 0 {
			t.Errorf("point buf=%g has negative relative error", p.BufferBDP)
		}
	}
	if rep.Summary.MaxRelErr < rep.Summary.MeanRelErr {
		t.Errorf("summary max %g below mean %g", rep.Summary.MaxRelErr, rep.Summary.MeanRelErr)
	}
	// The report must be valid JSON round-trippable by downstream tooling.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back CrossValReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Error("report does not survive a JSON round trip")
	}
}

// TestCrossValidateDeterministicAcrossWorkers: the report — including
// every fluid trajectory in it — is byte-identical at any worker count,
// the same contract figure sweeps keep.
func TestCrossValidateDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) CrossValReport {
		cfg := crossValSmokeConfig(runner.NewPool(workers), runner.NewCache())
		rep, err := CrossValidate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	serial := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("report differs between 1 and 8 workers:\nserial   %+v\nparallel %+v", serial, parallel)
	}
}

// TestCrossValFluidGridAuditClean: every fluid spec of cmd/crossval's
// default grid (40 Mbps, 40 ms, two minutes, buffers of 1–49 BDP times the
// mixes 1:1, 2:2 and 4:4) passes the invariant audit, both as a fresh run
// and as a cache replay.
func TestCrossValFluidGridAuditClean(t *testing.T) {
	cfg := CrossValConfig{Capacity: 40 * units.Mbps, RTT: 40 * time.Millisecond, Seed: 1}.withDefaults()
	var specs []scenario.Spec
	for _, b := range cfg.BufferBDPs {
		for _, mix := range cfg.Mixes {
			specs = append(specs, cfg.spec(b, mix, scenario.BackendFluid))
		}
	}
	if len(specs) != 75 {
		t.Fatalf("default grid has %d fluid specs, want 75", len(specs))
	}
	audit := check.New()
	s := Scale{
		Name:         "crossval-fluid-audit",
		FlowDuration: cfg.Scale.FlowDuration,
		Trials:       1,
		Pool:         runner.NewPool(2),
		Cache:        runner.NewCache(),
		Audit:        audit,
	}
	for pass := range 2 {
		if _, err := s.Sweep(cfg.Seed, len(specs), func(i int) scenario.Spec { return specs[i] }); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
	}
	if hits := s.Cache.Hits(); hits != int64(len(specs)) {
		t.Errorf("replay pass served %d cache hits, want %d", hits, len(specs))
	}
	if n := audit.Len(); n != 0 {
		for _, v := range audit.Violations() {
			t.Errorf("invariant violation: %s", v)
		}
		t.Fatalf("%d invariant violations over the fluid grid", n)
	}
}

// TestFluidBackendCachedDistinct: the same scenario on the two backends
// produces two distinct cache entries (bk= is in the key) and the fluid
// entry replays from cache byte-identically.
func TestFluidBackendCachedDistinct(t *testing.T) {
	sp := scenario.Mix("bbr", 1, 1, 20*units.Mbps,
		units.BufferBytes(20*units.Mbps, 30*time.Millisecond, 4),
		30*time.Millisecond, 2*time.Second)
	sp.Seed = 11
	fl := sp
	fl.Backend = scenario.BackendFluid
	if sp.Key() == fl.Key() {
		t.Fatalf("backends share a cache key: %q", sp.Key())
	}
	cache := runner.NewCache()
	ctx := context.Background()
	pktRes, hit, err := Run(ctx, sp, Env{Cache: cache})
	if err != nil || hit {
		t.Fatalf("packet run: hit=%v err=%v", hit, err)
	}
	flRes, hit, err := Run(ctx, fl, Env{Cache: cache})
	if err != nil || hit {
		t.Fatalf("fluid run: hit=%v err=%v", hit, err)
	}
	if reflect.DeepEqual(pktRes, flRes) {
		t.Error("packet and fluid results are identical — dispatch did not switch engines")
	}
	replay, hit, err := Run(ctx, fl, Env{Cache: cache})
	if err != nil || !hit {
		t.Fatalf("fluid replay: hit=%v err=%v", hit, err)
	}
	if !reflect.DeepEqual(flRes, replay) {
		t.Error("cached fluid result differs from fresh run")
	}
}
