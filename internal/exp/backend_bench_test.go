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
	scenarios := []struct {
		name     string
		capacity units.Rate
		nbbr, nc int
	}{
		// The paper's common figure operating point.
		{"mix40M_2v2", 40 * units.Mbps, 2, 2},
		// A gigabit bottleneck at the same 6 BDP depth: ~10M packets of
		// work for the packet engine, the same 120k steps for the fluid
		// model.
		{"mix1G_10v10", units.Gbps, 10, 10},
	}
	const rtt = 40 * time.Millisecond
	for _, sc := range scenarios {
		for _, backend := range scenario.Backends() {
			b.Run(sc.name+"/"+backend, func(b *testing.B) {
				sp := scenario.Mix("bbr", sc.nbbr, sc.nc, sc.capacity,
					units.BufferBytes(sc.capacity, rtt, 6), rtt, 2*time.Minute)
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
