package netsim_test

// BenchmarkEngine is the canonical packet-engine benchmark: a fixed,
// versioned scenario set measured in simulated packet-events per second.
// scripts/bench.sh runs it and appends the parsed results (events/sec,
// ns/event, allocs/event, git SHA) to the checked-in BENCH_*.json
// trajectory files, so the perf curve of the engine survives re-anchors.
//
// The set deliberately spans the engine's regimes: a clean ack-clocked
// mix, a fault-heavy jittered link (drop/loss-detection path, RNG draws,
// flap and burst event chains), a many-flow bottleneck (queue depth,
// pacer-timer churn), and the NE search's 50-flow payoff shape at 50 and
// 2 BDP, the shape ne_walk_packet spends its time in. Scenario parameters
// are frozen — changing them breaks comparability of the BENCH_*.json
// series; add a new scenario instead.
//
// Each op advances an already-warmed simulation by one simulated second,
// so the numbers reflect steady state, not construction or slow-start.

import (
	"testing"
	"time"

	"bbrnash/internal/netsim"
	"bbrnash/internal/scenario"
	"bbrnash/internal/units"

	_ "bbrnash/internal/cc/bbr"
	_ "bbrnash/internal/cc/cubic"
	_ "bbrnash/internal/cc/reno"
)

// engineScenarios is the frozen benchmark scenario set.
func engineScenarios() map[string]scenario.Spec {
	return map[string]scenario.Spec{
		// mix10: the paper's bread-and-butter shape — 5 BBR vs 5 CUBIC on a
		// moderately buffered link, with the protocol's default jitters.
		"mix10": {
			Capacity:    80 * units.Mbps,
			Buffer:      units.BufferBytes(80*units.Mbps, 40*time.Millisecond, 2),
			AckJitter:   scenario.DefaultAckJitter,
			StartJitter: scenario.DefaultStartJitter,
			Duration:    time.Hour, // never reached; ops advance 1s at a time
			Seed:        1,
			Groups: []scenario.Group{
				{Algorithm: "bbr", Count: 5, RTT: 40 * time.Millisecond},
				{Algorithm: "cubic", Count: 5, RTT: 40 * time.Millisecond},
			},
		},
		// faulted: every fault mechanism at once — stochastic loss, ACK
		// loss, capacity flaps, burst episodes — exercising the drop and
		// loss-detection event paths and the seeded RNG stream.
		"faulted": {
			Capacity:    60 * units.Mbps,
			Buffer:      units.BufferBytes(60*units.Mbps, 30*time.Millisecond, 1),
			AckJitter:   scenario.DefaultAckJitter,
			StartJitter: scenario.DefaultStartJitter,
			Duration:    time.Hour,
			Seed:        7,
			Faults: scenario.Faults{
				LossRate:    0.005,
				AckLossRate: 0.01,
				FlapPeriod:  2 * time.Second,
				FlapDepth:   0.3,
				BurstEvery:  3 * time.Second,
				BurstLen:    16,
			},
			Groups: []scenario.Group{
				{Algorithm: "bbr", Count: 3, RTT: 30 * time.Millisecond},
				{Algorithm: "cubic", Count: 3, RTT: 30 * time.Millisecond},
				{Algorithm: "reno", Count: 2, RTT: 60 * time.Millisecond},
			},
		},
		// flows40: a deeper bottleneck with heterogeneous RTT groups; queue
		// pressure and pacer-timer churn dominate.
		"flows40": {
			Capacity:    300 * units.Mbps,
			Buffer:      units.BufferBytes(300*units.Mbps, 40*time.Millisecond, 3),
			AckJitter:   scenario.DefaultAckJitter,
			StartJitter: scenario.DefaultStartJitter,
			Duration:    time.Hour,
			Seed:        3,
			Groups: []scenario.Group{
				{Algorithm: "bbr", Count: 10, RTT: 20 * time.Millisecond},
				{Algorithm: "cubic", Count: 10, RTT: 20 * time.Millisecond},
				{Algorithm: "bbr", Count: 10, RTT: 80 * time.Millisecond},
				{Algorithm: "cubic", Count: 10, RTT: 80 * time.Millisecond},
			},
		},
		// deep50: the NE search's deepest buffer (Fig 9's 50 BDP) at its
		// flow count. The queue takes seconds to drain, so dropped packets
		// wait that long for loss detection: the drop-train regime, where
		// live packets outgrow Presize's arena.
		"deep50": payoffShape(50, 5),
		// ne2bdp: deep50's twin at 2 BDP, where the NE walk's equilibria
		// lie: a sub-second queue, frequent drops and BBR's gain cycling
		// against a standing CUBIC queue.
		"ne2bdp": payoffShape(2, 5),
	}
}

// payoffShape is the NE search's payoff simulation: 25 BBR and 25 CUBIC
// flows on a 50 Mbps, 40 ms link buffered to bdp bandwidth-delay products.
func payoffShape(bdp float64, seed uint64) scenario.Spec {
	return scenario.Spec{
		Capacity:    50 * units.Mbps,
		Buffer:      units.BufferBytes(50*units.Mbps, 40*time.Millisecond, bdp),
		AckJitter:   scenario.DefaultAckJitter,
		StartJitter: scenario.DefaultStartJitter,
		Duration:    time.Hour,
		Seed:        seed,
		Groups: []scenario.Group{
			{Algorithm: "bbr", Count: 25, RTT: 40 * time.Millisecond},
			{Algorithm: "cubic", Count: 25, RTT: 40 * time.Millisecond},
		},
	}
}

// engineBenchScenarios is BenchmarkEngine's list, in record order.
var engineBenchScenarios = []string{"mix10", "faulted", "flows40", "deep50", "ne2bdp"}

// BenchmarkEngine advances each warmed scenario one simulated second per op
// and reports events/op alongside the standard ns/op and allocs/op, from
// which scripts/bench.sh derives events/sec, ns/event and allocs/event.
func BenchmarkEngine(b *testing.B) {
	for _, name := range engineBenchScenarios {
		sp := engineScenarios()[name]
		b.Run(name, func(b *testing.B) {
			n, _, err := netsim.Build(sp)
			if err != nil {
				b.Fatal(err)
			}
			n.Run(5 * time.Second) // warm up past slow start
			start := n.Events()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Run(time.Second)
			}
			b.StopTimer()
			events := n.Events() - start
			if events == 0 {
				b.Fatal("no events processed")
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
		})
	}
}

// TestEngineScenariosValid pins the benchmark scenario set: every spec must
// validate and build, so a refactor cannot silently invalidate the BENCH
// trajectory's workload.
func TestEngineScenariosValid(t *testing.T) {
	for name, sp := range engineScenarios() {
		if _, _, err := netsim.Build(sp); err != nil {
			t.Errorf("benchmark scenario %s no longer builds: %v", name, err)
		}
	}
	for _, name := range engineBenchScenarios {
		if _, ok := engineScenarios()[name]; !ok {
			t.Errorf("benchmark scenario %s missing from set", name)
		}
	}
}
