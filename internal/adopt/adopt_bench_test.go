package adopt

import (
	"testing"
	"time"

	"bbrnash/internal/rng"
	"bbrnash/internal/units"
)

var benchPop Population

// BenchmarkStepBestResponse times one best-response revision of the
// adopt_fluid benchmark's population: 10⁵ agents in two RTT classes over
// cubic, reno and bbr, noise 0.02. Every agent revises, so each takes two
// draws and about one in fifty a third. The pool is nil, so the classes
// revise one after the other and an op is the whole step on one goroutine.
func BenchmarkStepBestResponse(b *testing.B) {
	capacity := 100 * units.Mbps
	cfg, err := Config{
		Capacity: capacity,
		Buffer:   units.BufferBytes(capacity, 80*time.Millisecond, 5),
		Classes:  []Class{{RTT: 20 * time.Millisecond, Weight: 1}, {RTT: 80 * time.Millisecond, Weight: 1}},
		Agents:   100000,
		Dynamics: BestResponse,
		Noise:    0.02,
		Seed:     1,
	}.withDefaults()
	if err != nil {
		b.Fatal(err)
	}
	pop := initial(cfg)
	gain := make([][][]float64, len(pop.Counts))
	for c := range gain {
		gain[c] = make([][]float64, len(cfg.Algorithms))
		for a := range gain[c] {
			gain[c][a] = make([]float64, len(cfg.Algorithms))
		}
	}
	root := rng.New(cfg.Seed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPop = stepBestResponse(cfg, pop, gain, root)
	}
}
