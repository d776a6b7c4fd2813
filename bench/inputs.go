package bench

import (
	"encoding/json"
	"time"

	"bbrnash/internal/adopt"
	"bbrnash/internal/rng"
	"bbrnash/internal/scenario"
	"bbrnash/internal/units"
)

// The generators below turn a seed into a workload's inputs. The shapes —
// flow counts, capacities, buffers, topologies — are fixed, so every seed
// costs about the same amount of work; the seed moves the jitter and fault
// draws, the walk's payoff seeds, the revision draws and the request
// order. Equal seeds give byte-identical inputs (TestGeneratorsDeterministic).

const paperDuration = 2 * time.Minute

const rtt40 = 40 * time.Millisecond

func mbps(m float64) units.Rate { return units.Rate(m) * units.Mbps }

// bdp is a buffer of k bandwidth-delay products.
func bdp(c units.Rate, rtt time.Duration, k float64) units.Bytes { return units.BufferBytes(c, rtt, k) }

// deriveSeed gives each workload its own stream from the benchmark seed.
func deriveSeed(seed uint64, salt uint64) uint64 {
	return rng.New(seed ^ salt*0x9e3779b97f4a7c15).Uint64()
}

// sweepInput is sweep_packet's input: one exp.Scale.Sweep over Specs, whose
// Seed fields the sweep overwrites with its trial seed derived from Seed.
type sweepInput struct {
	Seed  uint64
	Specs []scenario.Spec
}

func sweepInputs(seed uint64, smoke bool) sweepInput {
	in := sweepInput{Seed: deriveSeed(seed, 1)}
	add := func(sp scenario.Spec) { in.Specs = append(in.Specs, sp) }
	c50, c100 := mbps(50), mbps(100)
	if smoke {
		const d = 10 * time.Second
		add(scenario.Mix("bbr", 1, 1, c50, bdp(c50, rtt40, 5), rtt40, d))
		add(scenario.Mix("bbr", 5, 5, c100, bdp(c100, rtt40, 2), rtt40, d))
		add(scenario.Mix("bbrv2", 5, 5, c100, bdp(c100, rtt40, 2), rtt40, d))
		add(scenario.Mix("copa", 5, 5, c100, bdp(c100, rtt40, 2), rtt40, d))
		for _, sp := range exampleShapes(d) {
			add(sp)
		}
		return in
	}
	// Fig 1/3: one BBR vs one CUBIC flow over the 1–50 BDP buffer sweep.
	for _, k := range []float64{1, 2, 3, 5, 8, 12, 16, 22, 30, 40, 50} {
		add(scenario.Mix("bbr", 1, 1, c50, bdp(c50, rtt40, k), rtt40, paperDuration))
	}
	// Fig 4/5: 5v5 and 10v10 at 100 Mbps.
	for _, n := range []int{5, 10} {
		for _, k := range []float64{1, 2, 5, 10, 20} {
			add(scenario.Mix("bbr", n, n, c100, bdp(c100, rtt40, k), rtt40, paperDuration))
		}
	}
	// Fig 7: ten flows at 2 BDP, X of them running each non-CUBIC algorithm.
	for _, x := range []string{"bbrv2", "copa", "vivace", "reno"} {
		for _, k := range []int{1, 5, 9} {
			add(scenario.Mix(x, k, 10-k, c100, bdp(c100, rtt40, 2), rtt40, paperDuration))
		}
	}
	// A quarter of the units: the shipped example shapes (faults, the
	// parking lot, the reverse-ACK access link) at two minutes, and
	// variants of all but the parking lot with other buffers.
	ex := exampleShapes(paperDuration)
	for _, sp := range ex {
		add(sp)
	}
	for _, v := range []struct {
		shape int
		k     float64
	}{{0, 1}, {0, 4}, {1, 1}, {1, 8}, {3, 8}, {3, 0.5}} {
		sp := ex[v.shape]
		if sp.Links == nil {
			sp.Buffer = bdp(sp.Capacity, rtt40, v.k)
		} else {
			// The access/core path: vary the core link's buffer.
			sp.Links = append([]scenario.Link(nil), sp.Links...)
			sp.Links[1].Buffer = bdp(sp.Links[1].Capacity, rtt40, v.k)
		}
		add(sp)
	}
	return in
}

// exampleShapes mirrors the scenarios shipped under examples/ — a lossy
// flapping link, a two-RTT mix, the 3-link parking lot and the access/core
// path with a reverse ACK link — at duration d. They are spelled out here
// rather than read from disk so that editing an example cannot silently
// change the benchmark.
func exampleShapes(d time.Duration) []scenario.Spec {
	base := func() scenario.Spec {
		return scenario.Spec{
			AckJitter:   scenario.DefaultAckJitter,
			StartJitter: scenario.DefaultStartJitter,
			Duration:    d,
		}
	}
	lossy := base()
	lossy.Capacity, lossy.Buffer = mbps(50), bdp(mbps(50), rtt40, 2)
	lossy.Faults = scenario.Faults{LossRate: 0.01, AckLossRate: 0.002, FlapPeriod: 4 * time.Second, FlapDepth: 0.5, BurstEvery: 10 * time.Second, BurstLen: 8}
	lossy.Groups = []scenario.Group{{Algorithm: "bbr", Count: 2, RTT: rtt40}, {Algorithm: "cubic", Count: 2, RTT: rtt40}}

	mix := base()
	mix.Capacity, mix.Buffer = mbps(100), bdp(mbps(100), rtt40, 2)
	mix.Groups = []scenario.Group{{Algorithm: "bbr", Count: 3, RTT: rtt40}, {Algorithm: "cubic", Count: 2, RTT: 2 * rtt40}}

	park := base()
	park.Links = []scenario.Link{
		{Name: "l0", Capacity: mbps(100), Buffer: bdp(mbps(100), rtt40, 2)},
		{Name: "l1", Capacity: mbps(80), Buffer: bdp(mbps(80), rtt40, 2)},
		{Name: "l2", Capacity: mbps(100), Buffer: bdp(mbps(100), rtt40, 2)},
	}
	park.Groups = []scenario.Group{
		{Algorithm: "bbr", Count: 2, RTT: rtt40, Path: []string{"l0", "l1", "l2"}},
		{Algorithm: "cubic", Count: 1, RTT: rtt40, Path: []string{"l0"}},
		{Algorithm: "cubic", Count: 1, RTT: rtt40, Path: []string{"l1"}},
		{Algorithm: "cubic", Count: 1, RTT: rtt40, Path: []string{"l2"}},
	}

	access := base()
	access.Links = []scenario.Link{
		{Name: "access", Capacity: mbps(20), Buffer: bdp(mbps(20), rtt40, 1), RevCapacity: mbps(2), RevBuffer: 6400},
		{Name: "core", Capacity: mbps(100), Buffer: bdp(mbps(100), rtt40, 4)},
	}
	access.Groups = []scenario.Group{
		{Algorithm: "bbr", Count: 2, RTT: rtt40, Path: []string{"access", "core"}},
		{Algorithm: "cubic", Count: 2, RTT: rtt40, Path: []string{"core"}},
	}
	return []scenario.Spec{lossy, mix, park, access}
}

// neInput is ne_walk_packet's input: one walk-mode exp.FindNE per buffer of
// Fig 9's grid as the quick scale thins it (exp.Quick, six points), all
// sharing one trial seed as Fig 9 does.
type neInput struct {
	Seed     uint64
	N        int
	Capacity units.Rate
	RTT      time.Duration
	Buffers  []float64 // BDP multiples
}

func neInputs(seed uint64, smoke bool) neInput {
	in := neInput{Seed: deriveSeed(seed, 2), N: 50, Capacity: mbps(50), RTT: rtt40,
		Buffers: []float64{0.5, 2, 5, 12, 22, 50}}
	if smoke {
		in.N, in.Buffers = 4, []float64{2, 10}
	}
	return in
}

// adoptInput is adopt_fluid's input: one adopt.Run per buffer depth.
type adoptInput struct {
	Seed        uint64
	Agents      int
	Generations int
	Capacity    units.Rate
	Buffers     []float64 // BDP multiples of the longest class RTT
	Classes     []adopt.Class
}

func adoptInputs(seed uint64, smoke bool) adoptInput {
	in := adoptInput{
		Seed: deriveSeed(seed, 3), Agents: 100000, Generations: 100, Capacity: mbps(100),
		Buffers: []float64{1, 5, 20},
		Classes: []adopt.Class{{RTT: 20 * time.Millisecond, Weight: 1}, {RTT: 80 * time.Millisecond, Weight: 1}},
	}
	if smoke {
		in.Agents, in.Generations, in.Buffers = 1000, 5, []float64{5}
	}
	return in
}

// config builds the adopt.Config for one buffer depth.
func (in adoptInput) config(k float64) adopt.Config {
	maxRTT := time.Duration(0)
	for _, c := range in.Classes {
		if c.RTT > maxRTT {
			maxRTT = c.RTT
		}
	}
	return adopt.Config{
		Capacity:    in.Capacity,
		Buffer:      bdp(in.Capacity, maxRTT, k),
		Classes:     in.Classes,
		Algorithms:  []string{"cubic", "reno", "bbr"},
		Agents:      in.Agents,
		Generations: in.Generations,
		Dynamics:    adopt.BestResponse,
		Noise:       0.02,
		Seed:        in.Seed,
	}
}

// serveInput is serve_mixed's request stream: Order[i] indexes Specs, and
// about 60% of positions repeat a spec an earlier position introduced.
// Bodies and Keys are the specs' JSON and canonical keys, computed once.
type serveInput struct {
	Specs  []scenario.Spec
	Order  []int
	Bodies [][]byte
	Keys   []string
}

func serveInputs(seed uint64, smoke bool) (serveInput, error) {
	requests, distinct, dur := 500, 200, paperDuration
	if smoke {
		requests, distinct, dur = 60, 24, 30*time.Second
	}
	r := rng.New(deriveSeed(seed, 4))
	var in serveInput
	for i := 0; i < distinct; i++ {
		n := 2 + r.Intn(19)
		x := []string{"bbr", "reno"}[r.Intn(2)]
		c := mbps(float64(10 + 10*r.Intn(10)))
		sp := scenario.Mix(x, n/2, n-n/2, c, bdp(c, rtt40, 1+float64(r.Intn(20))), rtt40, dur)
		sp.Backend = scenario.BackendFluid
		sp.Seed = r.Uint64()
		body, err := json.Marshal(sp)
		if err != nil {
			return serveInput{}, err
		}
		in.Specs = append(in.Specs, sp)
		in.Bodies = append(in.Bodies, body)
		in.Keys = append(in.Keys, sp.Key())
	}
	// Exactly `distinct` positions introduce a new spec, the first of them
	// at position 0; the rest repeat a uniformly chosen earlier one.
	fresh := make([]bool, requests)
	fresh[0] = true
	for _, p := range r.Perm(requests - 1)[:distinct-1] {
		fresh[p+1] = true
	}
	next := 0
	for _, f := range fresh {
		if f {
			in.Order = append(in.Order, next)
			next++
		} else {
			in.Order = append(in.Order, r.Intn(next))
		}
	}
	return in, nil
}
