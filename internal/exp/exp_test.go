package exp

import (
	"math"
	"reflect"
	"testing"
	"time"

	"bbrnash/internal/scenario"
	"bbrnash/internal/units"
)

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"full", "quick", "smoke"} {
		s, err := ScaleByName(name)
		if err != nil || s.Name != name {
			t.Errorf("ScaleByName(%q) = %v, %v", name, s.Name, err)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Error("bogus scale accepted")
	}
}

func TestThin(t *testing.T) {
	s := Scale{SweepPoints: 3}
	xs := []float64{1, 2, 3, 4, 5, 6, 7}
	got := s.thin(xs)
	if len(got) != 3 || got[0] != 1 || got[2] != 7 {
		t.Errorf("thin = %v", got)
	}
	if got := (Scale{}).thin(xs); len(got) != len(xs) {
		t.Errorf("unbounded thin changed length: %v", got)
	}
	if got := (Scale{SweepPoints: 10}).thin(xs); len(got) != len(xs) {
		t.Errorf("oversized thin changed length: %v", got)
	}
	// Regression: SweepPoints == 1 used to divide by zero in the spacing
	// formula; it must keep exactly the first point.
	if got := (Scale{SweepPoints: 1}).thin(xs); len(got) != 1 || got[0] != 1 {
		t.Errorf("single-point thin = %v", got)
	}
	if got := (Scale{SweepPoints: 2}).thin(xs); len(got) != 2 || got[0] != 1 || got[1] != 7 {
		t.Errorf("two-point thin = %v", got)
	}
}

// smokeSpec is a cheap two-class mix: one BBR flow against one CUBIC flow
// for eight seconds at 50 Mbps, 40 ms and a 3 BDP buffer.
func smokeSpec() scenario.Spec {
	rtt := 40 * time.Millisecond
	return scenario.Mix("bbr", 1, 1, 50*units.Mbps, units.BufferBytes(50*units.Mbps, rtt, 3), rtt, 8*time.Second)
}

// A mix spec run through Run fills the link and gives both classes, one
// flow each, a positive rate.
func TestRunMix(t *testing.T) {
	res, _, err := Run(t.Context(), smokeSpec(), Env{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Link.Utilization < 0.8 {
		t.Errorf("utilization = %v", res.Link.Utilization)
	}
	if len(res.Groups) != 2 || len(res.Groups[0]) != 1 || len(res.Groups[1]) != 1 {
		t.Fatalf("per-flow stats %v, want one flow in each of two groups", res.Groups)
	}
	if x, c := res.Groups[0][0].Throughput, res.Groups[1][0].Throughput; x <= 0 || c <= 0 {
		t.Errorf("throughputs = %v / %v", x, c)
	}
}

// The same seed reproduces a mix spec's result exactly.
func TestRunMixDeterministic(t *testing.T) {
	sp := smokeSpec()
	sp.Seed = 42
	a, _, err := Run(t.Context(), sp, Env{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Run(t.Context(), sp, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed gave different results:\n%+v\nvs\n%+v", a, b)
	}
}

// A sweep point averages its trials per spec group: a one-flow group's
// per-flow rate is its aggregate, and a trial count below one runs one
// trial.
func TestSweepAveragesTrials(t *testing.T) {
	pts, err := Scale{Trials: 2}.Sweep(7, 1, func(int) scenario.Spec { return smokeSpec() })
	if err != nil {
		t.Fatal(err)
	}
	pt := pts[0]
	if len(pt.Agg) != 2 || pt.Agg[0] <= 0 || pt.Agg[1] <= 0 {
		t.Fatalf("trial average %+v has an empty class", pt)
	}
	if pt.PerFlow[0] != pt.Agg[0] || pt.PerFlow[1] != pt.Agg[1] {
		t.Errorf("one-flow classes: per-flow %v != aggregate %v", pt.PerFlow, pt.Agg)
	}
	if _, err := (Scale{}).Sweep(7, 1, func(int) scenario.Spec { return smokeSpec() }); err != nil {
		t.Error(err)
	}
}

// rttGroupsSpec is two RTT groups of two flows, at 10 and 50 ms, sharing
// 50 Mbps and a buffer of bufBDP 10 ms BDPs for d. Spec groups 2g and
// 2g+1 hold RTT group g's x BBR and 2−x CUBIC flows, present even when
// empty, as the group searches build them.
func rttGroupsSpec(bufBDP float64, x int, d time.Duration) scenario.Spec {
	ms := time.Millisecond
	sp := scenario.Spec{
		Capacity:    50 * units.Mbps,
		Buffer:      units.BufferBytes(50*units.Mbps, 10*ms, bufBDP),
		AckJitter:   scenario.DefaultAckJitter,
		StartJitter: scenario.DefaultStartJitter,
		Duration:    d,
	}
	for _, rtt := range []time.Duration{10 * ms, 50 * ms} {
		sp.Groups = append(sp.Groups,
			scenario.Group{Algorithm: "bbr", Count: x, RTT: rtt},
			scenario.Group{Algorithm: "cubic", Count: 2 - x, RTT: rtt})
	}
	return sp
}

// meanRate is spec group g's mean per-flow throughput in res, 0 when the
// group is empty.
func meanRate(res SpecResult, g int) units.Rate {
	stats := res.group(g)
	if len(stats) == 0 {
		return 0
	}
	return aggRate(stats) / units.Rate(len(stats))
}

// A spec with one BBR and one CUBIC flow in each of two RTT groups gives
// every group a positive rate.
func TestRunPerRTTGroups(t *testing.T) {
	res, _, err := Run(t.Context(), rttGroupsSpec(10, 1, 8*time.Second), Env{})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 4; g++ {
		if len(res.group(g)) != 1 || meanRate(res, g) <= 0 {
			t.Errorf("group %d has an empty payoff: %+v", g, res.group(g))
		}
	}
}

func TestFindNESmoke(t *testing.T) {
	cfg := NESearchConfig{
		Capacity: 50 * units.Mbps,
		Buffer:   units.BufferBytes(50*units.Mbps, 40*time.Millisecond, 3),
		RTT:      40 * time.Millisecond,
		N:        6,
		Duration: 8 * time.Second,
		Seed:     1,
	}
	res, err := FindNE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EquilibriaX) == 0 {
		t.Error("walk search found no equilibrium")
	}
	if res.Simulations == 0 {
		t.Error("no simulations recorded")
	}
	for _, k := range res.EquilibriaX {
		if k < 0 || k > cfg.N {
			t.Errorf("equilibrium out of range: %d", k)
		}
	}
}

func TestFindNEExhaustiveCoversWalk(t *testing.T) {
	cfg := NESearchConfig{
		Capacity: 50 * units.Mbps,
		Buffer:   units.BufferBytes(50*units.Mbps, 40*time.Millisecond, 3),
		RTT:      40 * time.Millisecond,
		N:        5,
		Duration: 8 * time.Second,
		Seed:     2,
	}
	walk, err := FindNE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Exhaustive = true
	full, err := FindNE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.EquilibriaX) == 0 {
		t.Fatal("exhaustive search found no equilibrium")
	}
	// Every walk-found equilibrium must also be in the exhaustive set
	// (identical seeds make payoffs identical).
	inFull := map[int]bool{}
	for _, k := range full.EquilibriaX {
		inFull[k] = true
	}
	for _, k := range walk.EquilibriaX {
		if !inFull[k] {
			t.Errorf("walk NE %d missing from exhaustive set %v", k, full.EquilibriaX)
		}
	}
	if full.Simulations != cfg.N+1 {
		t.Errorf("exhaustive used %d sims, want %d", full.Simulations, cfg.N+1)
	}
}

func TestFindGroupNESmoke(t *testing.T) {
	res, err := FindGroupNE(GroupNEConfig{
		Capacity: 50 * units.Mbps,
		Buffer:   units.BufferBytes(50*units.Mbps, 10*time.Millisecond, 10),
		RTTs:     []time.Duration{10 * time.Millisecond, 50 * time.Millisecond},
		Sizes:    []int{3, 3},
		Duration: 8 * time.Second,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Simulations == 0 {
		t.Error("no simulations recorded")
	}
	for _, k := range res.Equilibria {
		if len(k) != 2 {
			t.Errorf("bad profile %v", k)
		}
	}
}

func TestFiguresRegistry(t *testing.T) {
	figs := Figures()
	want := []string{"1", "3a", "3b", "3c", "3d", "4a", "4b", "5a", "5b", "5c", "5d",
		"6", "7", "8", "9a", "9b", "9c", "9d", "9e", "9f", "10", "11a", "11b", "12"}
	if len(figs) != len(want) {
		t.Fatalf("registry has %d figures, want %d", len(figs), len(want))
	}
	for i, id := range want {
		if figs[i].ID != id {
			t.Errorf("figure %d = %q, want %q", i, figs[i].ID, id)
		}
		if figs[i].Generate == nil || figs[i].Title == "" {
			t.Errorf("figure %q incomplete", id)
		}
	}
	if _, err := FigureByID("3c"); err != nil {
		t.Error(err)
	}
	if _, err := FigureByID("99"); err == nil {
		t.Error("unknown figure accepted")
	}
}

// Fig6 is model-only and must run instantly at any scale.
func TestFig6(t *testing.T) {
	res, err := Fig6(Smoke)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Charts) != 1 || len(res.Charts[0].Series) != 2 {
		t.Fatalf("unexpected chart shape")
	}
	if len(res.Notes) == 0 {
		t.Error("missing notes")
	}
}

// One simulation-backed figure end-to-end at smoke scale.
func TestFig1Smoke(t *testing.T) {
	res, err := Fig1(Smoke)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Charts) != 1 {
		t.Fatal("missing chart")
	}
	series := res.Charts[0].Series
	if len(series) != 2 {
		t.Fatalf("want ware+actual series, got %d", len(series))
	}
	for _, s := range series {
		if len(s.X) != Smoke.SweepPoints {
			t.Errorf("series %q has %d points, want %d", s.Name, len(s.X), Smoke.SweepPoints)
		}
		for _, y := range s.Y {
			if y < 0 || y > 55 {
				t.Errorf("series %q value %v outside [0, 55] Mbps", s.Name, y)
			}
		}
	}
}

func TestRegionAt(t *testing.T) {
	xs := []float64{0, 10}
	ys := []float64{0, 100}
	tests := []struct{ x, want float64 }{{-5, 0}, {0, 0}, {5, 50}, {10, 100}, {15, 100}}
	for _, tt := range tests {
		if got := regionAt(xs, ys, tt.x); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("regionAt(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if regionAt(nil, nil, 1) != 0 {
		t.Error("empty regionAt should be 0")
	}
}
