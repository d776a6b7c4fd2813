package netsim

import (
	"testing"
	"time"

	"bbrnash/internal/scenario"
	"bbrnash/internal/units"
)

// faultedSpec is the shared base for fault tests: two BBR flows on a
// 20 Mbps link, enough traffic that every fault mechanism gets exercised.
func faultedSpec(f scenario.Faults) scenario.Spec {
	sp := scenario.Mix("bbr", 2, 0, 20*units.Mbps,
		units.BufferBytes(20*units.Mbps, 40*time.Millisecond, 2),
		40*time.Millisecond, 10*time.Second)
	sp.Seed = 11
	sp.Faults = f
	return sp
}

func runFaulted(t *testing.T, sp scenario.Spec, chunk time.Duration) ([]FlowStats, LinkStats, []DropEvent) {
	t.Helper()
	n, flows, err := Build(sp)
	if err != nil {
		t.Fatal(err)
	}
	var trace []DropEvent
	n.OnDrop(func(e DropEvent) { trace = append(trace, e) })
	if chunk <= 0 {
		n.Run(sp.Duration)
	} else {
		for done := time.Duration(0); done < sp.Duration; done += chunk {
			step := chunk
			if rem := sp.Duration - done; rem < step {
				step = rem
			}
			n.Run(step)
		}
	}
	var out []FlowStats
	for _, g := range flows {
		for _, f := range g {
			out = append(out, f.Stats())
		}
	}
	return out, n.Link(), trace
}

// TestFaultDropTraceDeterministic: a faulted spec is exactly as reproducible
// as a clean one — two builds give byte-identical drop traces and flow
// stats, and running in chunks (the harness's heartbeat mode) changes
// nothing.
func TestFaultDropTraceDeterministic(t *testing.T) {
	sp := faultedSpec(scenario.Faults{
		LossRate:    0.01,
		AckLossRate: 0.005,
		FlapPeriod:  2 * time.Second,
		FlapDepth:   0.5,
		BurstEvery:  3 * time.Second,
		BurstLen:    4,
	})
	aStats, aLink, aTrace := runFaulted(t, sp, 0)
	bStats, bLink, bTrace := runFaulted(t, sp, 0)
	cStats, cLink, cTrace := runFaulted(t, sp, time.Second)
	if len(aTrace) == 0 {
		t.Fatal("no drops observed in a faulted run")
	}
	for name, got := range map[string][]DropEvent{"rebuild": bTrace, "chunked": cTrace} {
		if len(got) != len(aTrace) {
			t.Fatalf("%s: trace length %d != %d", name, len(got), len(aTrace))
		}
		for i := range got {
			if got[i] != aTrace[i] {
				t.Fatalf("%s: drop %d differs: %+v vs %+v", name, i, got[i], aTrace[i])
			}
		}
	}
	if aLink != bLink || aLink != cLink {
		t.Fatalf("link stats differ:\n%+v\n%+v\n%+v", aLink, bLink, cLink)
	}
	for i := range aStats {
		if aStats[i] != bStats[i] || aStats[i] != cStats[i] {
			t.Fatalf("flow %d stats differ:\n%+v\n%+v\n%+v", i, aStats[i], bStats[i], cStats[i])
		}
	}
}

// TestStochasticLossObserved: a 2% loss rate produces injected drops in
// rough proportion to arrivals, flagged as injected in the trace, and the
// flows keep delivering.
func TestStochasticLossObserved(t *testing.T) {
	sp := faultedSpec(scenario.Faults{LossRate: 0.02})
	stats, link, trace := runFaulted(t, sp, 0)
	if link.InjectedDrops == 0 {
		t.Fatal("no injected drops at 2% loss")
	}
	injected := 0
	for _, e := range trace {
		if e.Injected {
			injected++
		}
	}
	if injected != link.InjectedDrops {
		t.Errorf("trace injected %d != link counter %d", injected, link.InjectedDrops)
	}
	for _, st := range stats {
		if st.Delivered == 0 {
			t.Errorf("flow %s delivered nothing", st.Name)
		}
		if st.Lost == 0 {
			t.Errorf("flow %s saw no losses", st.Name)
		}
	}
}

// TestAckLossCounted: ACK-path loss is counted and delays, but does not
// stall, delivery.
func TestAckLossCounted(t *testing.T) {
	sp := faultedSpec(scenario.Faults{AckLossRate: 0.05})
	stats, link, trace := runFaulted(t, sp, 0)
	if link.AckLosses == 0 {
		t.Fatal("no ACK losses at 5% ack-loss rate")
	}
	for _, e := range trace {
		if e.Injected {
			t.Fatalf("ACK loss must not inject data drops, got %+v", e)
		}
	}
	for _, st := range stats {
		if st.Delivered == 0 {
			t.Errorf("flow %s delivered nothing", st.Name)
		}
	}
}

// TestFlapBoundsThroughput: with a 50%-depth square-wave flap the link
// spends half its time at half rate, so aggregate goodput is bounded by the
// 75% mean capacity (plus a little tolerance for the packet in service at
// each toggle) and still clearly above the low rate.
func TestFlapBoundsThroughput(t *testing.T) {
	f := scenario.Faults{FlapPeriod: 2 * time.Second, FlapDepth: 0.5}
	sp := faultedSpec(f)
	stats, _, _ := runFaulted(t, sp, 0)
	var agg units.Rate
	for _, st := range stats {
		agg += st.Throughput
	}
	mean := f.MeanCapacityOver(sp.Capacity, sp.Duration)
	if agg > units.Rate(float64(mean)*1.01) {
		t.Errorf("aggregate %v exceeds flapped mean capacity %v", agg, mean)
	}
	if low := f.MinCapacity(sp.Capacity); agg < low/2 {
		t.Errorf("aggregate %v implausibly low vs floor %v", agg, low)
	}
}

// TestFlapPeriodUnder2nsRejected: a 1ns flap period has a zero half period,
// so its rate change would reschedule itself at the same instant and the
// run would never finish. Build must refuse the spec instead.
func TestFlapPeriodUnder2nsRejected(t *testing.T) {
	sp := faultedSpec(scenario.Faults{FlapPeriod: time.Nanosecond, FlapDepth: 0.5})
	if _, _, err := Build(sp); err == nil {
		t.Fatal("Build accepted a 1ns flap period")
	}
}

// TestBurstEpisodes: every burst episode claims exactly BurstLen arrivals,
// so with backlogged flows the injected-drop count is episodes x length.
func TestBurstEpisodes(t *testing.T) {
	f := scenario.Faults{BurstEvery: 2 * time.Second, BurstLen: 5}
	sp := faultedSpec(f)
	sp.Duration = 7 * time.Second // episodes at 2s, 4s, 6s
	_, link, trace := runFaulted(t, sp, 0)
	want := 3 * f.BurstLen
	if link.InjectedDrops != want {
		t.Errorf("injected drops = %d, want %d", link.InjectedDrops, want)
	}
	for _, e := range trace {
		if e.Injected && e.Time.Duration() < 2*time.Second {
			t.Errorf("injected drop before first episode at %v", e.Time)
		}
	}
}

// TestCleanLinkDrawsNothing: the zero Faults value leaves the simulation
// untouched — no injected drops, no ACK losses, and stats identical to a
// spec that never mentioned faults.
func TestCleanLinkDrawsNothing(t *testing.T) {
	sp := faultedSpec(scenario.Faults{})
	stats, link, _ := runFaulted(t, sp, 0)
	if link.InjectedDrops != 0 || link.AckLosses != 0 {
		t.Fatalf("clean link counted faults: %+v", link)
	}
	plain := sp
	plain.Faults = scenario.Faults{}
	pStats, _, _ := runFaulted(t, plain, 0)
	for i := range stats {
		if stats[i] != pStats[i] {
			t.Fatalf("flow %d differs from clean spec:\n%+v\n%+v", i, stats[i], pStats[i])
		}
	}
}
