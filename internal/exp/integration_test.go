package exp

import (
	"testing"
	"time"

	"bbrnash/internal/core"
	"bbrnash/internal/numeric"
	"bbrnash/internal/scenario"
	"bbrnash/internal/units"
)

// Integration: the analytical model must track the simulator for the
// paper's central 2-flow setting across buffer depths (the Figure 3 claim,
// with a tolerance suited to single trials).
func TestModelTracksSimulator2Flow(t *testing.T) {
	if testing.Short() {
		t.Skip("2-minute simulations")
	}
	const rtt = 40 * time.Millisecond
	capacity := 50 * units.Mbps
	for _, bdp := range []float64{3, 10, 25} {
		buf := units.BufferBytes(capacity, rtt, bdp)
		pred, err := core.Predict(core.Scenario{
			Capacity: capacity, Buffer: buf, RTT: rtt, NumCubic: 1, NumBBR: 1,
		}, core.Synchronized)
		if err != nil {
			t.Fatal(err)
		}
		sp := scenario.Mix("bbr", 1, 1, capacity, buf, rtt, 2*time.Minute)
		sp.Seed = 9
		res, _, err := Run(t.Context(), sp, Env{})
		if err != nil {
			t.Fatal(err)
		}
		agg := aggRate(res.group(0))
		if e := numeric.RelErr(float64(pred.AggBBR), float64(agg)); e > 0.40 {
			t.Errorf("at %v BDP: model %.1f vs sim %.1f Mbps (relerr %.0f%%)",
				bdp, pred.AggBBR.Mbit(), agg.Mbit(), 100*e)
		}
	}
}

// Integration: diminishing returns (Figure 5) — per-flow BBR throughput
// falls as the BBR proportion grows.
func TestDiminishingReturnsEmpirical(t *testing.T) {
	if testing.Short() {
		t.Skip("2-minute simulations")
	}
	const rtt = 40 * time.Millisecond
	capacity := 100 * units.Mbps
	buf := units.BufferBytes(capacity, rtt, 10)
	per := func(nb int) float64 {
		sp := scenario.Mix("bbr", nb, 10-nb, capacity, buf, rtt, 2*time.Minute)
		sp.Seed = 5
		res, _, err := Run(t.Context(), sp, Env{})
		if err != nil {
			t.Fatal(err)
		}
		return float64(meanRate(res, 0))
	}
	few, many := per(2), per(8)
	if many >= few {
		t.Errorf("per-flow BBR with 8 flows (%.2e) not below with 2 flows (%.2e)", many, few)
	}
}

// Integration: the empirically found equilibrium sits in (or near) the
// model's predicted region (the Figure 9 claim).
func TestEmpiricalNENearModelRegion(t *testing.T) {
	if testing.Short() {
		t.Skip("2-minute simulations")
	}
	const rtt = 40 * time.Millisecond
	capacity := 100 * units.Mbps
	buf := units.BufferBytes(capacity, rtt, 5)
	const n = 20

	region, err := core.PredictNashRegion(core.NashScenario{
		Capacity: capacity, Buffer: buf, RTT: rtt, N: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := FindNE(NESearchConfig{
		Capacity: capacity, Buffer: buf, RTT: rtt, N: n,
		Duration: 2 * time.Minute, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EquilibriaX) == 0 {
		t.Fatal("no equilibrium found")
	}
	for _, k := range res.EquilibriaX {
		if !region.Contains(n-k, 4) {
			t.Errorf("observed NE with %d CUBIC outside region [%.1f, %.1f] ±4",
				n-k, region.CubicLow(), region.CubicHigh())
		}
	}
}

// Integration (§4.3): with a mild delay term in the utility, the
// equilibrium stays near the throughput-only position, because queueing
// delay is shared between the algorithms.
func TestUtilityNEStableUnderMildDelayWeight(t *testing.T) {
	if testing.Short() {
		t.Skip("2-minute simulations")
	}
	const rtt = 40 * time.Millisecond
	capacity := 100 * units.Mbps
	cfg := NESearchConfig{
		Capacity: capacity,
		Buffer:   units.BufferBytes(capacity, rtt, 3),
		RTT:      rtt,
		N:        10,
		Duration: 2 * time.Minute,
		Seed:     23,
	}
	cfg.Utility = ThroughputUtility
	tputOnly, err := FindNE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Utility = LinearUtility(1, 0.01)
	mildDelay, err := FindNE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tputOnly.EquilibriaX) == 0 || len(mildDelay.EquilibriaX) == 0 {
		t.Fatalf("missing equilibria: %v vs %v", tputOnly.EquilibriaX, mildDelay.EquilibriaX)
	}
	d := tputOnly.EquilibriaX[0] - mildDelay.EquilibriaX[0]
	if d < -3 || d > 3 {
		t.Errorf("mild delay weight moved the NE from %v to %v",
			tputOnly.EquilibriaX, mildDelay.EquilibriaX)
	}
}

func TestLinearUtility(t *testing.T) {
	u := LinearUtility(2, 0.5)
	got := u(10*units.Mbps, 20*time.Millisecond)
	want := 2*10.0 - 0.5*20.0
	if got != want {
		t.Errorf("LinearUtility = %v, want %v", got, want)
	}
	if ThroughputUtility(5*units.Mbps, time.Hour) != 5e6 {
		t.Error("ThroughputUtility should ignore delay")
	}
}
