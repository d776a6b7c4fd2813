package exp

import (
	"testing"
	"time"

	"bbrnash/internal/core"
	"bbrnash/internal/scenario"
	"bbrnash/internal/units"
)

// §5 of the paper leaves open how the predictions scale to "hundreds of
// concurrent flows". The packet simulator's cost is set by the link's
// packet rate, not the flow count, so a 200-flow bottleneck is directly
// testable: the diminishing-returns mechanism must survive, with per-flow
// BBR bandwidth above fair share when BBR is rare and at or below it when
// BBR dominates.
func TestLargeNDiminishingReturns(t *testing.T) {
	if testing.Short() {
		t.Skip("large-N 2-minute simulations")
	}
	const n = 200
	const rtt = 40 * time.Millisecond
	capacity := units.Gbps // fair share 5 Mbps/flow; min windows stay feasible
	buf := units.BufferBytes(capacity, rtt, 3)
	fair := float64(capacity) / n

	per := func(nb int) float64 {
		sp := scenario.Mix("bbr", nb, n-nb, capacity, buf, rtt, 2*time.Minute)
		sp.Seed = 77
		res, _, err := Run(t.Context(), sp, Env{})
		if err != nil {
			t.Fatal(err)
		}
		return float64(meanRate(res, 0))
	}

	rare := per(10) // 5% BBR
	if rare <= fair {
		t.Errorf("with 10/200 BBR flows, per-flow BBR %.2e not above fair %.2e", rare, fair)
	}
	common := per(160) // 80% BBR
	if common >= rare {
		t.Errorf("per-flow BBR did not diminish: %.2e at 160 flows vs %.2e at 10", common, rare)
	}
	if common > 1.2*fair {
		t.Errorf("with 160/200 BBR flows, per-flow BBR %.2e still far above fair %.2e", common, fair)
	}

	// The model extends to N=200 without modification.
	region, err := core.PredictNashRegion(core.NashScenario{
		Capacity: capacity, Buffer: buf, RTT: rtt, N: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	if region.CubicLow() <= 0 || region.CubicHigh() >= n {
		t.Errorf("model NE region for N=200 should be mixed, got [%.0f, %.0f]",
			region.CubicLow(), region.CubicHigh())
	}
}
