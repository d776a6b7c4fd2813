package exp

import (
	"testing"
	"time"

	"bbrnash/internal/scenario"
	"bbrnash/internal/units"
)

// BenchmarkBackendScenario runs the same canonical scenarios on each
// execution backend. One op is one complete fresh simulation, so ns/op is
// ns per scenario and the packet/fluid ratio at a given scenario is the
// fluid fast path's per-scenario speedup (scripts/bench.sh -s backends
// turns the pairs into a BENCH_*.json record).
//
// The packet engine's cost scales with the packet arrival rate (capacity ×
// duration), while the fluid model's cost is fixed by step count and group
// count — so the speedup grows with scenario weight: modest at the 40 Mbps
// figure point, two orders of magnitude at the gigabit point.
func BenchmarkBackendScenario(b *testing.B) {
	const rtt = 40 * time.Millisecond
	mix := func(capacity units.Rate, nbbr, nc int) scenario.Spec {
		return scenario.Mix("bbr", nbbr, nc, capacity, units.BufferBytes(capacity, rtt, 6), rtt, 2*time.Minute)
	}
	// adopt is a payoff profile of the kind cmd/adopt evaluates in the
	// adopt_fluid benchmark: 100 Mbps, 5 BDP of the 80 ms class, one group
	// per (class, algorithm) cell, class-major (20 then 80 ms) and
	// algorithm-minor (cubic, reno, bbr), empty cells included.
	adopt := func(counts [2][3]int) scenario.Spec {
		capacity := 100 * units.Mbps
		sp := scenario.Spec{
			Capacity:    capacity,
			Buffer:      units.BufferBytes(capacity, 80*time.Millisecond, 5),
			AckJitter:   scenario.DefaultAckJitter,
			StartJitter: scenario.DefaultStartJitter,
			Duration:    PayoffDuration(0),
		}
		for c, crtt := range []time.Duration{20 * time.Millisecond, 80 * time.Millisecond} {
			for a, alg := range []string{"cubic", "reno", "bbr"} {
				sp.Groups = append(sp.Groups, scenario.Group{Algorithm: alg, Count: counts[c][a], RTT: crtt})
			}
		}
		return sp
	}
	scenarios := []struct {
		name string
		sp   scenario.Spec
	}{
		// The paper's common figure operating point.
		{"mix40M_2v2", mix(40*units.Mbps, 2, 2)},
		// A gigabit bottleneck at the same 6 BDP depth: ~10M packets of
		// work for the packet engine, the same 120k steps for the fluid
		// model.
		{"mix1G_10v10", mix(units.Gbps, 10, 10)},
		// Six non-empty groups, and the same shape with two empty cells,
		// as a deviation or fixed-point profile has; the fluid model
		// integrates only the four groups that carry flows.
		{"adopt_4.4.3_3.3.3", adopt([2][3]int{{4, 4, 3}, {3, 3, 3}})},
		{"adopt_10.0.0_4.0.6", adopt([2][3]int{{10, 0, 0}, {4, 0, 6}})},
	}
	for _, sc := range scenarios {
		for _, backend := range scenario.Backends() {
			b.Run(sc.name+"/"+backend, func(b *testing.B) {
				sp := sc.sp
				sp.Seed = 1
				sp.Backend = backend
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := Run(b.Context(), sp, Env{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
