package fluid

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"bbrnash/internal/check"
	"bbrnash/internal/core"
	"bbrnash/internal/netsim"
	"bbrnash/internal/rng"
	"bbrnash/internal/scenario"
	"bbrnash/internal/units"
)

func mixSpec(numBBR, numCubic int, bufBDP float64) scenario.Spec {
	capacity := 40 * units.Mbps
	rtt := 40 * time.Millisecond
	sp := scenario.Mix("bbr", numBBR, numCubic, capacity,
		units.BufferBytes(capacity, rtt, bufBDP), rtt, 2*time.Minute)
	sp.Backend = scenario.BackendFluid
	return sp
}

func runStats(t *testing.T, sp scenario.Spec, chunk time.Duration) ([][]netsim.FlowStats, netsim.LinkStats) {
	t.Helper()
	m, err := New(sp)
	if err != nil {
		t.Fatal(err)
	}
	if chunk <= 0 {
		chunk = sp.Duration
	}
	for done := time.Duration(0); done < sp.Duration; done += chunk {
		step := chunk
		if rem := sp.Duration - done; rem < step {
			step = rem
		}
		m.Run(step)
	}
	gs, link := m.Stats()
	return gs, link
}

// TestTrajectoryDeterministic: the integration is a pure recurrence — two
// fresh models of the same spec report bit-identical statistics, and
// chunked execution (the harness's progress heartbeat mode) changes
// nothing. This is the fluid backend's analogue of netsim's trace goldens:
// any drift here would silently split cache entries.
func TestTrajectoryDeterministic(t *testing.T) {
	sp := mixSpec(2, 3, 6)
	sp.Faults = scenario.Faults{LossRate: 0.0005, FlapPeriod: 5 * time.Second, FlapDepth: 0.3}
	aG, aL := runStats(t, sp, 0)
	bG, bL := runStats(t, sp, 0)
	cG, cL := runStats(t, sp, time.Second)
	dG, dL := runStats(t, sp, 7*time.Millisecond) // deliberately step-misaligned
	for name, got := range map[string][][]netsim.FlowStats{"rebuild": bG, "chunk1s": cG, "chunk7ms": dG} {
		if !reflect.DeepEqual(aG, got) {
			t.Errorf("%s: flow stats differ from reference run", name)
		}
	}
	for name, got := range map[string]netsim.LinkStats{"rebuild": bL, "chunk1s": cL, "chunk7ms": dL} {
		if aL != got {
			t.Errorf("%s: link stats differ: %+v vs %+v", name, got, aL)
		}
	}
}

// TestGoldenSteadyState pins a representative trajectory's outcome to
// exact values. The float64 recurrence has no legitimate reason to drift:
// if this fails, the integration changed and every fluid cache entry is
// stale — bump scenario.KeyVersion and regenerate.
func TestGoldenSteadyState(t *testing.T) {
	gs, link := runStats(t, mixSpec(2, 2, 6), 0)
	var agg units.Rate
	for _, g := range gs {
		for _, f := range g {
			agg += f.Throughput
		}
	}
	// Pin to full float64 text precision.
	got := fmt.Sprintf("agg=%x util=%x drops=%d", float64(agg), link.Utilization, link.Drops)
	const want = "agg=0x1.30ef26e90032ap+25 util=0x1.ff983c7bb1ab4p-01 drops=34302"
	if got != want {
		t.Errorf("golden steady state drifted:\ngot  %s\nwant %s", got, want)
	}
}

// goldenGrid is the spec grid TestGoldenGrid pins. Where
// TestGoldenSteadyState follows one clean single-RTT BBR/CUBIC trajectory,
// the grid drives every branch the step takes: each algorithm alone and
// mixed, every fault kind, late starts, a 0.5 ms step (10 ms class) next
// to an 80 ms class, buffers from 1 to 20 BDP, and an empty group.
func goldenGrid() []scenario.Spec {
	const rtt = 40 * time.Millisecond
	g := func(alg string, n int) scenario.Group {
		return scenario.Group{Algorithm: alg, Count: n, RTT: rtt}
	}
	at := func(gr scenario.Group, rtt, start time.Duration) scenario.Group {
		gr.RTT, gr.Start = rtt, start
		return gr
	}
	spec := func(bufBDP float64, f scenario.Faults, groups ...scenario.Group) scenario.Spec {
		capacity := 40 * units.Mbps
		maxRTT := time.Duration(0)
		for _, gr := range groups {
			maxRTT = max(maxRTT, gr.RTT)
		}
		return scenario.Spec{
			Capacity: capacity,
			Buffer:   units.BufferBytes(capacity, maxRTT, bufBDP),
			Duration: 30 * time.Second,
			Backend:  scenario.BackendFluid,
			Faults:   f,
			Groups:   groups,
		}
	}
	clean := scenario.Faults{}
	loss := scenario.Faults{LossRate: 0.001}
	flap := scenario.Faults{FlapPeriod: 4 * time.Second, FlapDepth: 0.4}
	burst := scenario.Faults{BurstEvery: 5 * time.Second, BurstLen: 10}
	all := scenario.Faults{LossRate: 0.0005, FlapPeriod: 6 * time.Second, FlapDepth: 0.3,
		BurstEvery: 7 * time.Second, BurstLen: 6}
	return []scenario.Spec{
		spec(2, clean, g("cubic", 3)),
		spec(2, clean, g("reno", 3)),
		spec(2, clean, g("bbr", 3)),
		spec(1, clean, g("cubic", 1)),
		spec(1, clean, g("bbr", 2), g("cubic", 2)),
		spec(20, clean, g("bbr", 2), g("cubic", 2)),
		spec(4, clean, g("bbr", 2), g("reno", 2)),
		spec(4, clean, g("cubic", 2), g("reno", 2)),
		spec(1, clean, g("cubic", 2), g("reno", 2), g("bbr", 2)),
		spec(20, clean, g("cubic", 2), g("reno", 2), g("bbr", 2)),
		spec(4, loss, g("bbr", 2), g("cubic", 2)),
		spec(4, loss, g("cubic", 2), g("reno", 2)),
		spec(4, flap, g("bbr", 2), g("cubic", 2)),
		spec(20, flap, g("reno", 2), g("bbr", 2)),
		spec(4, burst, g("cubic", 2), g("bbr", 2)),
		spec(2, burst, g("reno", 3)),
		spec(6, all, g("cubic", 2), g("reno", 2), g("bbr", 2)),
		spec(4, clean, g("bbr", 2), at(g("cubic", 2), rtt, 8*time.Second)),
		spec(4, clean, g("cubic", 2), at(g("bbr", 2), rtt, 12*time.Second)),
		spec(1, clean, at(g("cubic", 2), 10*time.Millisecond, 0), at(g("bbr", 2), 80*time.Millisecond, 0)),
		spec(20, clean, at(g("bbr", 2), 10*time.Millisecond, 0), at(g("cubic", 2), 80*time.Millisecond, 0),
			at(g("reno", 1), 80*time.Millisecond, 0)),
		spec(3, loss, at(g("reno", 2), 10*time.Millisecond, 0), at(g("cubic", 2), 80*time.Millisecond, 5*time.Second)),
		spec(4, clean, g("cubic", 0), g("bbr", 2), g("reno", 0), g("cubic", 2)),
		sixGroupSpec(),
	}
}

// sixGroupSpec is a faulted two-RTT-class spec with every algorithm in each
// class: the widest per-step workload, shared by the grid golden and the
// allocation guard.
func sixGroupSpec() scenario.Spec {
	capacity := 100 * units.Mbps
	var groups []scenario.Group
	for _, rtt := range []time.Duration{20 * time.Millisecond, 80 * time.Millisecond} {
		for _, alg := range []string{"cubic", "reno", "bbr"} {
			groups = append(groups, scenario.Group{Algorithm: alg, Count: 2, RTT: rtt})
		}
	}
	return scenario.Spec{
		Capacity: capacity,
		Buffer:   units.BufferBytes(capacity, 80*time.Millisecond, 5),
		Duration: 30 * time.Second,
		Backend:  scenario.BackendFluid,
		Faults: scenario.Faults{LossRate: 0.0005, FlapPeriod: 5 * time.Second, FlapDepth: 0.3,
			BurstEvery: 9 * time.Second, BurstLen: 8},
		Groups: groups,
	}
}

// TestGoldenGrid pins the whole grid to one SHA-256 over the JSON-encoded
// Stats of every spec. JSON carries each float64 in its shortest
// round-trip form, so a single flipped bit in any reported value changes
// the digest. Like TestGoldenSteadyState, a failure means
// the integration changed and every fluid cache entry is stale.
func TestGoldenGrid(t *testing.T) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i, sp := range goldenGrid() {
		gs, link := runStats(t, sp, 0)
		if err := enc.Encode(struct {
			Groups [][]netsim.FlowStats
			Link   netsim.LinkStats
		}{gs, link}); err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
	}
	const want = "43cdf9860e282ce8474982f9733d8a36237d7f2c61740c90e7de39b8cdda1983"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("golden grid drifted:\ngot  %s\nwant %s", got, want)
	}
}

// randomSpecs draws n short fluid specs from a fixed seed, aimed at what
// New settles once per run and the step then trusts: 1–6 groups of bbr,
// cubic and reno, some empty; starts at zero or staggered over 3 s; RTTs
// from 0.2 to 150 ms, so steps from 10 µs to 1 ms; flap periods off the
// step grid; and loss, bursts, flaps, all three or no faults. Two specs in
// three keep every RTT at 20 ms or more, a 1 ms step, and run past the
// second ProbeRTT boundary; the rest draw their RTTs from the whole range
// and run at most maxSteps steps.
func randomSpecs(n int) []scenario.Spec {
	const maxSteps = 24_000
	r := rng.New(21)
	ns := func(lo, hi time.Duration) time.Duration {
		return lo + time.Duration(r.Uint64()%uint64(hi-lo))
	}
	algs := []string{"bbr", "cubic", "reno"}
	specs := make([]scenario.Spec, n)
	for i := range specs {
		fine := r.Intn(3) == 0
		groups := make([]scenario.Group, 1+r.Intn(6))
		staggered := r.Intn(2) == 0
		flows := 0
		for gi := range groups {
			g := &groups[gi]
			g.Algorithm = algs[r.Intn(len(algs))]
			g.Count = r.Intn(4)
			flows += g.Count
			if fine {
				g.RTT = time.Duration(math.Exp(r.Range(math.Log(2e5), math.Log(150e6))))
			} else {
				g.RTT = ns(20*time.Millisecond, 150*time.Millisecond)
			}
			if staggered && r.Intn(3) > 0 {
				g.Start = ns(0, 3*time.Second)
			}
		}
		if flows == 0 {
			groups[r.Intn(len(groups))].Count = 1
		}
		var f scenario.Faults
		flap := scenario.Faults{FlapPeriod: ns(50*time.Millisecond, 6*time.Second), FlapDepth: r.Range(0.05, 0.6)}
		switch r.Intn(5) {
		case 1:
			f.LossRate = r.Range(1e-4, 5e-3)
		case 2:
			f.BurstEvery, f.BurstLen = ns(500*time.Millisecond, 6*time.Second), 1+r.Intn(10)
		case 3:
			f = flap
		case 4:
			f = flap
			f.LossRate = r.Range(1e-4, 5e-3)
			f.BurstEvery, f.BurstLen = ns(500*time.Millisecond, 6*time.Second), 1+r.Intn(10)
		}
		capacity := units.Rate(r.Range(5, 100)) * units.Mbps
		sp := scenario.Spec{
			Capacity: capacity,
			Backend:  scenario.BackendFluid,
			Faults:   f,
			Groups:   groups,
		}
		sp.Buffer = max(units.BufferBytes(capacity, sp.MaxRTT(), r.Range(0.5, 10)), 2*units.MSS)
		stp := time.Duration(stepFor(sp) * float64(time.Second))
		sp.Duration = min(ns(20200*time.Millisecond, 23*time.Second), maxSteps*stp)
		specs[i] = sp
	}
	return specs
}

// TestRandomSpecDigest pins 200 seeded random specs (see randomSpecs), each
// run whole and in 7 ms chunks, to one SHA-256 over their JSON-encoded
// Stats. TestGoldenGrid's specs are chosen by hand; these reach the
// corners a hand-picked grid misses: an empty group beside late starters,
// a flap half-period that splits a step, a sub-step remainder at the end.
// Like TestGoldenGrid, a failure means the integration changed and every
// fluid cache entry is stale.
func TestRandomSpecDigest(t *testing.T) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i, sp := range randomSpecs(200) {
		wholeG, wholeL := runStats(t, sp, 0)
		chunkG, chunkL := runStats(t, sp, 7*time.Millisecond)
		if !reflect.DeepEqual(wholeG, chunkG) || wholeL != chunkL {
			t.Fatalf("spec %d: chunked run differs from whole run", i)
		}
		if err := enc.Encode(struct {
			Groups [][]netsim.FlowStats
			Link   netsim.LinkStats
		}{wholeG, wholeL}); err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
	}
	const want = "3850eaf18d76bb1f8f05649b3bb2d4a4685d02aa9e828f3f1930f23cf24594e2"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("random-spec digest drifted:\ngot  %s\nwant %s", got, want)
	}
}

// TestRandomSpecsCover keeps randomSpecs honest: the draw reaches every
// corner TestRandomSpecDigest exists for, so a change to the generator
// cannot quietly drop one.
func TestRandomSpecsCover(t *testing.T) {
	seen := map[string]int{}
	for _, sp := range randomSpecs(200) {
		empty, late := false, false
		for _, g := range sp.Groups {
			empty = empty || g.Count == 0
			late = late || g.Start > 0
		}
		f := sp.Faults
		for name, ok := range map[string]bool{
			"empty group":            empty,
			"late start":             late,
			"late start, no empty":   late && !empty,
			"6 groups":               len(sp.Groups) == 6,
			"step <= 20µs":           stepFor(sp) <= 2e-5,
			"step 1ms":               stepFor(sp) == maxStep,
			"two ProbeRTT crossings": sp.Duration > 2*probeInterval*time.Second,
			"flap":                   f.FlapDepth > 0,
			"loss":                   f.LossRate > 0,
			"burst":                  f.BurstLen > 0,
			"no faults":              f == scenario.Faults{},
		} {
			if ok {
				seen[name]++
			}
		}
	}
	for _, name := range []string{"empty group", "late start", "late start, no empty", "6 groups",
		"step <= 20µs", "step 1ms", "two ProbeRTT crossings", "flap", "loss", "burst", "no faults"} {
		if seen[name] < 3 {
			t.Errorf("only %d random specs have %s", seen[name], name)
		}
	}
	t.Logf("%v", seen)
}

// TestRunZeroAllocs guards the step's allocation-free contract (see
// Model): once built, advancing the widest spec — six groups, two RTT
// classes, every fault kind — allocates nothing.
func TestRunZeroAllocs(t *testing.T) {
	m, err := New(sixGroupSpec())
	if err != nil {
		t.Fatal(err)
	}
	m.Run(time.Second)
	if allocs := testing.AllocsPerRun(5, func() { m.Run(time.Second) }); allocs != 0 {
		t.Fatalf("Run allocated %.1f times per simulated second; want 0", allocs)
	}
}

// TestCompareFormsMatchBuiltins pins the step's compare forms to the
// builtin min/max they replace, bit for bit with NaN matching NaN, the way
// cubic's TestCubeByMultiplicationExact pins its cube to math.Pow: over
// every pair of ±0, ±5e-324, ±0.5, ±1, ±MaxFloat64, ±Inf and NaN, and over
// a million seeded random pairs. A result may differ only in a case the
// form lists — a NaN bound, or zeros of opposite sign, which no valid spec
// reaches — and every listed case does differ, so the list is exact.
func TestCompareFormsMatchBuiltins(t *testing.T) {
	negZero := func(x float64) bool { return x == 0 && math.Signbit(x) }
	posZero := func(x float64) bool { return x == 0 && !math.Signbit(x) }
	nanBound := func(x, bound float64) bool { return math.IsNaN(bound) && !math.IsNaN(x) }
	forms := []struct {
		name      string
		got, want func(a, b float64) float64
		differs   func(a, b float64) bool
	}{
		{"nonNeg",
			func(x, _ float64) float64 { return nonNeg(x) },
			func(x, _ float64) float64 { return max(x, 0) },
			func(_, _ float64) bool { return false }},
		{"below",
			below,
			func(x, c float64) float64 { return min(x, c) },
			func(x, c float64) bool { return nanBound(x, c) || negZero(x) && posZero(c) }},
		{"above",
			above,
			func(w, floor float64) float64 { return max(w, floor) },
			func(w, floor float64) bool { return nanBound(w, floor) || negZero(w) && posZero(floor) }},
		{"raise",
			func(acc, x float64) float64 { raise(&acc, x); return acc },
			func(acc, x float64) float64 { return max(acc, x) },
			func(acc, x float64) bool { return negZero(acc) && posZero(x) }},
		{"lower",
			func(acc, x float64) float64 { lower(&acc, x); return acc },
			func(acc, x float64) float64 { return min(acc, x) },
			func(acc, x float64) bool { return posZero(acc) && negZero(x) }},
	}
	check := func(a, b float64) {
		for _, f := range forms {
			got, want := f.got(a, b), f.want(a, b)
			same := math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
			if differs := f.differs(a, b); same == differs {
				t.Fatalf("%s(%v, %v) = %v (%#x), builtin %v (%#x); listed as differing: %v",
					f.name, a, b, got, math.Float64bits(got), want, math.Float64bits(want), differs)
			}
		}
	}
	special := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 0.5, -0.5, 1, -1,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, a := range special {
		for _, b := range special {
			check(a, b)
		}
	}
	r := rng.New(1)
	for i := 0; i < 1_000_000; i++ {
		check(math.Float64frombits(r.Uint64()), math.Float64frombits(r.Uint64()))
	}
}

// TestSteadyStateMatchesModel: the property the backend exists for — on
// the paper's valid regime, the fluid fixed point lands inside the
// closed-form sync/desync prediction interval (with slack: the fluid
// dynamics resolve transients the algebra idealizes away).
func TestSteadyStateMatchesModel(t *testing.T) {
	cases := []struct {
		numBBR, numCubic int
		bufBDP           float64
	}{
		{1, 1, 4}, {1, 1, 8}, {2, 2, 4}, {2, 2, 8}, {1, 3, 6}, {3, 1, 6},
	}
	for _, tc := range cases {
		tc := tc
		name := fmt.Sprintf("b%d_c%d_buf%g", tc.numBBR, tc.numCubic, tc.bufBDP)
		t.Run(name, func(t *testing.T) {
			sp := mixSpec(tc.numBBR, tc.numCubic, tc.bufBDP)
			gs, _ := runStats(t, sp, 0)
			perBBR := gs[0][0].Throughput
			iv, err := core.PredictInterval(core.Scenario{
				Capacity: sp.Capacity,
				Buffer:   sp.Buffer,
				RTT:      40 * time.Millisecond,
				NumBBR:   tc.numBBR,
				NumCubic: tc.numCubic,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("fluid per-BBR %.2f Mbps, model sync %.2f / desync %.2f Mbps",
				float64(perBBR)/1e6, float64(iv.Sync.PerBBR)/1e6, float64(iv.Desync.PerBBR)/1e6)
			if !iv.ContainsBBRPerFlow(perBBR, 0.30) {
				t.Errorf("fluid per-BBR share %.2f Mbps outside model interval [%.2f, %.2f] ±30%%",
					float64(perBBR)/1e6, float64(iv.Sync.PerBBR)/1e6, float64(iv.Desync.PerBBR)/1e6)
			}
		})
	}
}

// TestAuditClean: fluid statistics satisfy the same physical invariants the
// packet engine's do — the harness audits cached and fresh fluid results
// with check.Flows, so a violation here would poison strict runs.
func TestAuditClean(t *testing.T) {
	specs := map[string]scenario.Spec{
		"mix":     mixSpec(2, 2, 6),
		"shallow": mixSpec(2, 2, 0.5),
		"bbronly": mixSpec(3, 0, 4),
		"cubonly": mixSpec(0, 3, 4),
		"faulted": func() scenario.Spec {
			sp := mixSpec(2, 2, 4)
			sp.Faults = scenario.Faults{LossRate: 0.001, FlapPeriod: 4 * time.Second, FlapDepth: 0.4,
				BurstEvery: 10 * time.Second, BurstLen: 8}
			return sp
		}(),
	}
	for name, sp := range specs {
		sp := sp
		t.Run(name, func(t *testing.T) {
			gs, link := runStats(t, sp, 0)
			lim := check.Limits{
				Capacity:     sp.Capacity,
				Buffer:       sp.Buffer,
				Pipe:         sp.Buffer + units.BDP(sp.Capacity, sp.MaxRTT()),
				MinCapacity:  sp.Faults.MinCapacity(sp.Capacity),
				MeanCapacity: sp.Faults.MeanCapacityOver(sp.Capacity, sp.Duration),
			}
			var flows []netsim.FlowStats
			for _, g := range gs {
				flows = append(flows, g...)
			}
			for _, v := range check.Flows(sp.Key(), lim, flows, &link) {
				t.Errorf("invariant violation: %s", v)
			}
		})
	}
}

// TestUnsupportedAlgorithm: algorithms without a fluid form are a loud
// error, not a silent misrun — unless the group is empty, which sweeps
// legitimately produce.
func TestUnsupportedAlgorithm(t *testing.T) {
	for _, alg := range []string{"bbrv2", "copa", "vivace"} {
		sp := mixSpec(1, 1, 4)
		sp.Groups[0].Algorithm = alg
		if _, err := New(sp); err == nil {
			t.Errorf("New accepted unsupported algorithm %q", alg)
		}
		sp.Groups[0].Count = 0
		if _, err := New(sp); err != nil {
			t.Errorf("New rejected empty group of %q: %v", alg, err)
		}
	}
}

// TestEmptyGroupShape: empty groups keep their slot (group indices are
// part of the result contract) and flows are named exactly as netsim names
// them.
func TestEmptyGroupShape(t *testing.T) {
	gs, _ := runStats(t, mixSpec(0, 2, 4), 0)
	if len(gs) != 2 {
		t.Fatalf("got %d groups, want 2", len(gs))
	}
	if len(gs[0]) != 0 {
		t.Errorf("empty BBR group reported %d flows", len(gs[0]))
	}
	if len(gs[1]) != 2 {
		t.Fatalf("CUBIC group reported %d flows, want 2", len(gs[1]))
	}
	if gs[1][0].Name != "g1.cubic0" || gs[1][1].Name != "g1.cubic1" {
		t.Errorf("flow names %q, %q; want netsim naming g1.cubic0/g1.cubic1", gs[1][0].Name, gs[1][1].Name)
	}
}

// TestEmptyGroupsChangeNothing: the model keeps only a spec's non-empty
// groups. Padding a spec with empty groups before, between and after its
// real ones leaves every real group's flow statistics and the link's
// statistics bit for bit as they were, run whole and in 7 ms chunks; only
// the flow names move with the spec index. Three padding groups would
// change the run if the model counted them: a bbrv2 group has no fluid
// form, a 500 ms bbr group would lengthen every ProbeRTT and a 1 ms cubic
// group would refine the step. A reno group starting after the run would
// keep the step off its settled path.
func TestEmptyGroupsChangeNothing(t *testing.T) {
	padding := []scenario.Group{
		{Algorithm: "bbrv2", RTT: 40 * time.Millisecond},
		{Algorithm: "bbr", RTT: 500 * time.Millisecond},
		{Algorithm: "cubic", RTT: time.Millisecond},
		{Algorithm: "reno", RTT: 40 * time.Millisecond, Start: time.Hour},
	}
	two := mixSpec(2, 3, 6)
	two.Duration = 30 * time.Second
	two.Groups[1].Start = 5 * time.Second
	two.Faults = scenario.Faults{LossRate: 0.0005, FlapPeriod: 5 * time.Second, FlapDepth: 0.3,
		BurstEvery: 7 * time.Second, BurstLen: 6}
	for name, sp := range map[string]scenario.Spec{"2 groups": two, "6 groups": sixGroupSpec()} {
		// at[i] is real group i's index in the padded spec.
		padded, at := sp, make([]int, len(sp.Groups))
		padded.Groups = nil
		for i, g := range sp.Groups {
			padded.Groups = append(padded.Groups, padding[i%len(padding)])
			at[i] = len(padded.Groups)
			padded.Groups = append(padded.Groups, g)
		}
		padded.Groups = append(padded.Groups, padding[len(sp.Groups)%len(padding)])
		for _, chunk := range []time.Duration{0, 7 * time.Millisecond} {
			wantG, wantL := runStats(t, sp, chunk)
			gotG, gotL := runStats(t, padded, chunk)
			if len(gotG) != len(padded.Groups) {
				t.Fatalf("%s, chunk %v: %d group slots, want %d", name, chunk, len(gotG), len(padded.Groups))
			}
			for pi, flows := range gotG {
				if pi%2 == 0 && len(flows) != 0 {
					t.Errorf("%s, chunk %v: empty group %d reported %d flows", name, chunk, pi, len(flows))
				}
			}
			for i, want := range wantG {
				got := gotG[at[i]]
				if len(got) != len(want) {
					t.Fatalf("%s, chunk %v: group %d has %d flows padded, %d unpadded", name, chunk, i, len(got), len(want))
				}
				for fi := range want {
					if wantName := fmt.Sprintf("g%d.%s%d", at[i], want[fi].Algorithm, fi); got[fi].Name != wantName {
						t.Errorf("%s: flow named %q, want %q", name, got[fi].Name, wantName)
					}
					w, g := want[fi], got[fi]
					w.Name, g.Name = "", ""
					if wj, gj := mustJSON(t, w), mustJSON(t, g); wj != gj {
						t.Errorf("%s, chunk %v: group %d flow %d moved when padded:\n got %s\nwant %s", name, chunk, i, fi, gj, wj)
					}
				}
			}
			if wj, gj := mustJSON(t, wantL), mustJSON(t, gotL); wj != gj {
				t.Errorf("%s, chunk %v: link stats moved when padded:\n got %s\nwant %s", name, chunk, gj, wj)
			}
		}
	}
}

// mustJSON encodes v as JSON, which carries each float64 in its shortest
// round-trip form, so equal encodings mean equal bits.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestBBRAloneStandingQueue: a lone BBR class settles at the paper's
// 2·BDP inflight — a standing queue of about one BDP — and full link
// utilization, the baseline behaviour Eq 9 reduces to without competitors.
func TestBBRAloneStandingQueue(t *testing.T) {
	sp := mixSpec(2, 0, 8)
	gs, link := runStats(t, sp, 0)
	if link.Utilization < 0.9 {
		t.Errorf("BBR-only utilization %.3f, want near 1", link.Utilization)
	}
	bdp := float64(units.BDP(sp.Capacity, 40*time.Millisecond))
	q := float64(link.MeanQueueOccupancy)
	if q < 0.5*bdp || q > 1.6*bdp {
		t.Errorf("BBR-only standing queue %.0fB, want ≈1 BDP (%.0fB)", q, bdp)
	}
	_ = gs
	if math.IsNaN(link.Utilization) {
		t.Error("NaN utilization")
	}
}

// TestTopologyReduction: a chain whose narrowest link is shared by every
// group, with fault-free wider links around it, reduces to exactly the
// single-queue model of that link — bit-identical statistics to the
// equivalent legacy spec, since the integration is a pure function of the
// reduced (capacity, buffer, faults) and the groups.
func TestTopologyReduction(t *testing.T) {
	legacy := mixSpec(2, 2, 4)
	chain := legacy
	chain.Groups = append([]scenario.Group(nil), legacy.Groups...)
	chain.Capacity, chain.Buffer = 0, 0
	chain.Links = []scenario.Link{
		{Name: "access", Capacity: 100 * units.Mbps, Buffer: 1 << 20},
		{Name: "core", Capacity: legacy.Capacity, Buffer: legacy.Buffer},
	}
	for gi := range chain.Groups {
		chain.Groups[gi].Path = []string{"access", "core"}
	}
	lG, lL := runStats(t, legacy, 0)
	cG, cL := runStats(t, chain, 0)
	if !reflect.DeepEqual(lG, cG) {
		t.Error("chain flow stats differ from the equivalent single-link spec")
	}
	lL.Name, cL.Name = "", "" // the reduced link legitimately keeps its own name
	if !reflect.DeepEqual(lL, cL) {
		t.Errorf("chain link stats differ from the equivalent single-link spec:\n got %+v\nwant %+v", cL, lL)
	}
	m, err := New(chain)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(time.Second)
	if _, link := m.Stats(); link.Name != "core" {
		t.Errorf("reduced link name = %q, want the bottleneck %q", link.Name, "core")
	}
}

// TestTopologyRejection: anything without a single-queue reduction —
// reverse ACK twins, disjoint bottlenecks, off-bottleneck faults,
// comparably tight links — errors loudly instead of silently
// approximating.
func TestTopologyRejection(t *testing.T) {
	base := func() scenario.Spec {
		sp := mixSpec(1, 1, 4)
		sp.Capacity, sp.Buffer, sp.Faults = 0, 0, scenario.Faults{}
		sp.Links = []scenario.Link{
			{Name: "a", Capacity: 100 * units.Mbps, Buffer: 1 << 20},
			{Name: "b", Capacity: 40 * units.Mbps, Buffer: 1 << 19},
		}
		for gi := range sp.Groups {
			sp.Groups[gi].Path = []string{"a", "b"}
		}
		return sp
	}
	cases := map[string]func(sp *scenario.Spec){
		"reverse-twin": func(sp *scenario.Spec) {
			sp.Links[0].RevCapacity = 10 * units.Mbps
			sp.Links[0].RevBuffer = 1 << 16
		},
		"disjoint-paths": func(sp *scenario.Spec) {
			sp.Groups[0].Path = []string{"a"}
		},
		"off-bottleneck-fault": func(sp *scenario.Spec) {
			sp.Links[0].Faults = scenario.Faults{LossRate: 0.01}
		},
		"equal-capacity": func(sp *scenario.Spec) {
			sp.Links[0].Capacity = sp.Links[1].Capacity
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			sp := base()
			mutate(&sp)
			if err := sp.ValidateTopology(); err != nil {
				t.Fatalf("spec unexpectedly invalid: %v", err)
			}
			if _, err := New(sp); err == nil {
				t.Error("New accepted a spec with no single-queue reduction")
			}
		})
	}
}
