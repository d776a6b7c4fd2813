package cubic

import (
	"math"
	"testing"
	"time"

	"bbrnash/internal/cc"
	"bbrnash/internal/cc/cctest"
	"bbrnash/internal/cc/reno"
	"bbrnash/internal/eventsim"
	"bbrnash/internal/rng"
	"bbrnash/internal/units"
)

func newCubic() *Cubic { return New(cc.Params{}).(*Cubic) }

func ackAt(seq uint64, at time.Duration, rtt time.Duration) cc.AckEvent {
	return cc.AckEvent{Now: eventsim.At(at), Seq: seq, Bytes: units.MSS, RTT: rtt}
}

func TestBackoffFactorIs0_7(t *testing.T) {
	c := newCubic()
	c.cwnd = 100 * units.MSS
	c.ssthresh = 10 * units.MSS
	c.OnSent(cc.SendEvent{Seq: 50})
	c.OnLoss(cc.LossEvent{Seq: 1, Now: eventsim.At(time.Second)})
	want := units.Bytes(float64(100*units.MSS) * Beta)
	if got := c.CongestionWindow(); math.Abs(float64(got-want)) > 1 {
		t.Errorf("cwnd after loss = %v, want %v", got, want)
	}
}

// TestCubeByMultiplicationExact pins congestionAvoidance's cube to the
// standard library's Pow bit for bit on CUBIC's own domain: d = t − K with
// t an epoch age on the nanosecond grid in [0, 600 s) and K in [0, 100 s),
// plus both zeros. The domain never yields a subnormal cube, where the two
// could round differently.
func TestCubeByMultiplicationExact(t *testing.T) {
	check := func(d float64) {
		if got, want := float64(d*d*d), math.Pow(d, 3); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("d = %v: d*d*d = %v (%#x), Pow(d, 3) = %v (%#x)",
				d, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	check(0)
	check(math.Copysign(0, -1))
	r := rng.New(1)
	for i := 0; i < 1_000_000; i++ {
		age := r.Duration(600 * time.Second).Seconds()
		check(age - r.Range(0, 100))
	}
}

func TestSameEpisodeLossIgnored(t *testing.T) {
	c := newCubic()
	c.cwnd = 100 * units.MSS
	c.OnSent(cc.SendEvent{Seq: 99})
	c.OnLoss(cc.LossEvent{Seq: 1, Now: eventsim.At(time.Second)})
	after := c.CongestionWindow()
	c.OnLoss(cc.LossEvent{Seq: 50, Now: eventsim.At(time.Second)})
	if got := c.CongestionWindow(); got != after {
		t.Errorf("same-episode loss changed cwnd %v -> %v", after, got)
	}
}

func TestSlowStartGrowth(t *testing.T) {
	c := newCubic()
	start := c.CongestionWindow()
	n := start.WholePackets()
	for i := 0; i < n; i++ {
		c.OnAck(ackAt(uint64(i), time.Millisecond, 10*time.Millisecond))
	}
	if got := c.CongestionWindow(); got != 2*start {
		t.Errorf("slow start after one window: %v, want %v", got, 2*start)
	}
}

// After a backoff, the window must recover to Wmax at t = K following the
// cubic curve W(t) = C(t-K)^3 + Wmax.
func TestCubicRecoveryShape(t *testing.T) {
	// Disable the TCP-friendly region: with Wmax=100 segments and a 40 ms
	// RTT, Reno-emulation growth legitimately outpaces the cubic curve and
	// would mask the shape under test.
	c := NewWithOptions(cc.Params{}, WithoutTCPFriendliness())
	c.cwnd = 100 * units.MSS
	c.ssthresh = 10 * units.MSS
	c.srtt = 40 * time.Millisecond
	c.OnSent(cc.SendEvent{Seq: 0})
	c.OnLoss(cc.LossEvent{Seq: 0, Now: eventsim.At(0)})

	wMax := c.WMax() // 100 segments (no fast convergence on first loss)
	if math.Abs(wMax-100) > 1e-9 {
		t.Fatalf("WMax = %v, want 100", wMax)
	}
	// K = cbrt(Wmax(1-beta)/C) = cbrt(100*0.3/0.4) = cbrt(75) ≈ 4.217 s.
	wantK := math.Cbrt(100 * (1 - Beta) / ScalingC)
	if math.Abs(c.k-wantK) > 1e-9 {
		t.Fatalf("K = %v, want %v", c.k, wantK)
	}

	// Feed ACKs densely; the window must track the cubic target closely.
	seq := uint64(1)
	dt := 5 * time.Millisecond
	for at := dt; at <= time.Duration(wantK*float64(time.Second)); at += dt {
		// cwnd worth of ACKs per RTT is what a real flow gets; sending a
		// fixed 8 ACKs per 5ms is dense enough for convergence checking.
		for i := 0; i < 8; i++ {
			c.OnAck(ackAt(seq, at, 40*time.Millisecond))
			seq++
		}
	}
	// At t = K the cubic target equals Wmax; allow the 1.5x-per-RTT clamp
	// and discreteness to leave it slightly below.
	segs := float64(c.CongestionWindow() / units.MSS)
	if segs < 0.9*wMax || segs > 1.15*wMax {
		t.Errorf("cwnd at t=K is %v segments, want about %v", segs, wMax)
	}
}

func TestFastConvergenceShrinksWmax(t *testing.T) {
	c := newCubic()
	c.ssthresh = 1 * units.MSS
	c.srtt = 40 * time.Millisecond
	// First loss at 100 segments.
	c.cwnd = 100 * units.MSS
	c.OnSent(cc.SendEvent{Seq: 10})
	c.OnLoss(cc.LossEvent{Seq: 1, Now: eventsim.At(0)})
	// Second loss below the previous plateau (e.g. at 80 segments).
	c.cwnd = 80 * units.MSS
	c.OnSent(cc.SendEvent{Seq: 20})
	c.OnLoss(cc.LossEvent{Seq: 12, Now: eventsim.At(time.Second)})
	want := 80 * fastConvergenceFactor
	if math.Abs(c.WMax()-want) > 1e-9 {
		t.Errorf("WMax after fast convergence = %v, want %v", c.WMax(), want)
	}
}

func TestWithoutFastConvergence(t *testing.T) {
	c := NewWithOptions(cc.Params{}, WithoutFastConvergence())
	c.ssthresh = 1 * units.MSS
	c.cwnd = 100 * units.MSS
	c.OnSent(cc.SendEvent{Seq: 10})
	c.OnLoss(cc.LossEvent{Seq: 1, Now: eventsim.At(0)})
	c.cwnd = 80 * units.MSS
	c.OnSent(cc.SendEvent{Seq: 20})
	c.OnLoss(cc.LossEvent{Seq: 12, Now: eventsim.At(time.Second)})
	if math.Abs(c.WMax()-80) > 1e-9 {
		t.Errorf("WMax = %v, want 80 (fast convergence disabled)", c.WMax())
	}
}

func TestMinimumWindow(t *testing.T) {
	c := newCubic()
	c.cwnd = 2 * units.MSS
	c.OnSent(cc.SendEvent{Seq: 1})
	c.OnLoss(cc.LossEvent{Seq: 0, Now: eventsim.At(0)})
	if c.CongestionWindow() < 2*units.MSS {
		t.Errorf("cwnd fell below 2 MSS: %v", c.CongestionWindow())
	}
}

func TestUnpacedAndName(t *testing.T) {
	c := newCubic()
	if c.PacingRate() != 0 {
		t.Error("CUBIC must not pace")
	}
	if c.Name() != "cubic" {
		t.Error("wrong name")
	}
}

func TestSingleFlowUtilizesLink(t *testing.T) {
	res := cctest.Run(t, cctest.Scenario{
		Capacity:  50 * units.Mbps,
		BufferBDP: 1,
		Flows:     []cctest.FlowSpec{{RTT: 40 * time.Millisecond, Alg: New}},
		Warmup:    5 * time.Second,
		Duration:  30 * time.Second,
	})
	if res.Link.Utilization < 0.85 {
		t.Errorf("utilization = %v, want >= 0.85", res.Link.Utilization)
	}
}

func TestSawtoothTouchesBufferLimit(t *testing.T) {
	// A lone CUBIC flow should periodically fill the buffer (loss) and its
	// occupancy should dip after backoff.
	res := cctest.Run(t, cctest.Scenario{
		Capacity:  20 * units.Mbps,
		BufferBDP: 2,
		Flows:     []cctest.FlowSpec{{RTT: 40 * time.Millisecond, Alg: New}},
		Warmup:    10 * time.Second,
		Duration:  60 * time.Second,
	})
	st := res.Stats[0]
	if st.Lost == 0 {
		t.Error("CUBIC never filled the buffer")
	}
	buf := float64(res.Net.Buffer())
	if float64(st.MaxQueueOccupancy) < 0.9*buf {
		t.Errorf("max occupancy %v never approached buffer %v", st.MaxQueueOccupancy, res.Net.Buffer())
	}
	if float64(st.MinQueueOccupancy) > 0.8*buf {
		t.Errorf("min occupancy %v shows no sawtooth", st.MinQueueOccupancy)
	}
}

func TestTwoCubicFlowsFair(t *testing.T) {
	res := cctest.Run(t, cctest.Scenario{
		Capacity:  50 * units.Mbps,
		BufferBDP: 2,
		Flows: []cctest.FlowSpec{
			{RTT: 40 * time.Millisecond, Alg: New},
			{RTT: 40 * time.Millisecond, Alg: New},
		},
		Warmup:   15 * time.Second,
		Duration: 90 * time.Second,
	})
	if idx := res.JainIndex(); idx < 0.85 {
		t.Errorf("Jain index = %v, want >= 0.85", idx)
	}
}

// CUBIC outgrows Reno on a high-BDP path — the reason it displaced Reno
// (paper §5 "Incentives to switch").
func TestCubicBeatsRenoAtHighBDP(t *testing.T) {
	res := cctest.Run(t, cctest.Scenario{
		Capacity:  100 * units.Mbps,
		BufferBDP: 1,
		Flows: []cctest.FlowSpec{
			{Name: "cubic", RTT: 80 * time.Millisecond, Alg: New},
			{Name: "reno", RTT: 80 * time.Millisecond, Start: 50 * time.Millisecond, Alg: reno.New},
		},
		Warmup:   20 * time.Second,
		Duration: 100 * time.Second,
	})
	cubicTput := float64(res.Stats[0].Throughput)
	renoTput := float64(res.Stats[1].Throughput)
	if cubicTput <= renoTput {
		t.Errorf("CUBIC (%v) did not beat Reno (%v) at high BDP", cubicTput, renoTput)
	}
}
