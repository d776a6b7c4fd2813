package adopt

import (
	"fmt"
	"reflect"
	"testing"

	"bbrnash/internal/rng"
	"bbrnash/internal/runner"
	"bbrnash/internal/units"
)

// refStepBestResponse is best-response revision in its plain form: every
// draw is a pointer-receiver Float64 or Intn on the class's stream, every
// revise value is compared, and the classes revise one after another.
// stepBestResponse advances a register-held copy of each stream by value
// instead and must give the same rows.
func refStepBestResponse(cfg Config, pop Population, gain [][][]float64, root *rng.Source) Population {
	s := len(cfg.Algorithms)
	eps, revise, noise := cfg.epsMbps(), cfg.ReviseProb, cfg.Noise
	srcs := make([]*rng.Source, len(pop.Counts))
	for c := range srcs {
		srcs[c] = root.Split()
	}
	next := make([][]int, len(pop.Counts))
	for c := range pop.Counts {
		src, row := *srcs[c], make([]int, s)
		for a, k := range pop.Counts[c] {
			best, bestGain := a, 0.0
			for t := 0; t < s; t++ {
				if t != a && gain[c][a][t] > bestGain {
					best, bestGain = t, gain[c][a][t]
				}
			}
			if bestGain <= eps {
				best = a
			}
			kept, switched := 0, 0
			for i := 0; i < k; i++ {
				if src.Float64() >= revise {
					kept++
					continue
				}
				if noise > 0 && src.Float64() < noise {
					row[src.Intn(s)]++
					continue
				}
				switched++
			}
			row[a] += kept
			row[best] += switched
		}
		next[c] = row
	}
	return Population{Counts: next}
}

// TestStepBestResponseMatchesReference runs stepBestResponse and the plain
// loop on seeded random censuses (1–3 classes, 2–5 algorithms, up to 10⁴
// agents per class) and gain tables, at every pairing of ReviseProb 0.25,
// 0.7 and 1 with Noise 0, 0.02 and 1, serially and on two workers. Noise 0
// takes no second draw and noise 1 an Intn for every reviser, which the
// pinned trajectories never reach. Rows and the root stream's state after
// the splits must match exactly.
func TestStepBestResponseMatchesReference(t *testing.T) {
	gen := rng.New(25)
	for _, revise := range []float64{0.25, 0.7, 1} {
		for _, noise := range []float64{0, 0.02, 1} {
			for trial := 0; trial < 8; trial++ {
				cfg, pop, gain := randomRevision(gen)
				cfg.ReviseProb, cfg.Noise = revise, noise
				seed := gen.Uint64()
				refRoot := rng.New(seed)
				want := refStepBestResponse(cfg, pop, gain, refRoot)
				for _, pool := range []*runner.Pool{nil, runner.NewPool(2)} {
					cfg.Pool = pool
					name := fmt.Sprintf("revise %v noise %v trial %d workers %d", revise, noise, trial, pool.Workers())
					root := rng.New(seed)
					got := stepBestResponse(cfg, pop, gain, root)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: census %v: rows %v, want %v", name, pop.Counts, got.Counts, want.Counts)
					}
					if *root != *refRoot {
						t.Fatalf("%s: root stream state differs after the splits", name)
					}
				}
			}
		}
	}
}

// randomRevision draws a revision input: 1–3 classes over 2–5 algorithms,
// each class at most 10⁴ agents with about a quarter of its cells empty,
// and a gain table whose entries are half continuous in [-1, 1] Mbps and
// half from a set holding exact ties, zero and the eps boundary.
func randomRevision(gen *rng.Source) (Config, Population, [][][]float64) {
	nc, na := 1+gen.Intn(3), 2+gen.Intn(4)
	cfg := Config{
		Capacity:    100 * units.Mbps,
		Algorithms:  make([]string, na),
		SimFlows:    20,
		EpsFraction: 0.05,
	}
	eps := cfg.epsMbps()
	ties := []float64{-0.5, 0, eps, eps, 0.3, 0.3, 1}
	counts := make([][]int, nc)
	gain := make([][][]float64, nc)
	for c := range counts {
		counts[c] = make([]int, na)
		for a := range counts[c] {
			if gen.Intn(4) > 0 {
				counts[c][a] = gen.Intn(10000/na + 1)
			}
		}
		gain[c] = make([][]float64, na)
		for a := range gain[c] {
			gain[c][a] = make([]float64, na)
			for t := range gain[c][a] {
				if gen.Intn(2) == 0 {
					gain[c][a][t] = 2*gen.Float64() - 1
				} else {
					gain[c][a][t] = ties[gen.Intn(len(ties))]
				}
			}
		}
	}
	return cfg, Population{Counts: counts}, gain
}
