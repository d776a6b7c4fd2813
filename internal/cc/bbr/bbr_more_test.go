package bbr

import (
	"testing"
	"time"

	"bbrnash/internal/cc"
	"bbrnash/internal/eventsim"
	"bbrnash/internal/netsim"
	"bbrnash/internal/units"
)

// Drive a BBR instance directly with synthetic ACKs to exercise estimator
// plumbing without a simulator.
func syntheticAck(seq uint64, at time.Duration, rtt time.Duration, rate units.Rate, delivered units.Bytes, inflight units.Bytes) cc.AckEvent {
	return cc.AckEvent{
		Now: eventsim.At(at), Seq: seq, Bytes: units.MSS, RTT: rtt,
		Rate: rate, Delivered: delivered, Inflight: inflight,
	}
}

func TestBtlBwTracksMaxSample(t *testing.T) {
	b := NewWithOptions(cc.Params{})
	delivered := units.Bytes(0)
	for i := 0; i < 50; i++ {
		delivered += units.MSS
		rate := 10 * units.Mbps
		if i == 25 {
			rate = 30 * units.Mbps
		}
		b.OnAck(syntheticAck(uint64(i), time.Duration(i)*10*time.Millisecond, 40*time.Millisecond, rate, delivered, 10*units.MSS))
	}
	if got := b.BtlBw(); got != 30*units.Mbps {
		t.Errorf("BtlBw = %v, want the max sample 30Mbps", got)
	}
}

func TestRTpropTracksMinSample(t *testing.T) {
	b := NewWithOptions(cc.Params{})
	delivered := units.Bytes(0)
	rtts := []time.Duration{50, 45, 60, 42, 70}
	for i, ms := range rtts {
		delivered += units.MSS
		b.OnAck(syntheticAck(uint64(i), time.Duration(i)*10*time.Millisecond, ms*time.Millisecond, 10*units.Mbps, delivered, 10*units.MSS))
	}
	if got := b.RTprop(); got != 42*time.Millisecond {
		t.Errorf("RTprop = %v, want 42ms", got)
	}
}

func TestCwndNeverBelowMinPipe(t *testing.T) {
	b := NewWithOptions(cc.Params{})
	delivered := units.Bytes(0)
	// Tiny delivery rates would give a sub-4-packet BDP.
	for i := 0; i < 200; i++ {
		delivered += units.MSS
		b.OnAck(syntheticAck(uint64(i), time.Duration(i)*50*time.Millisecond, 10*time.Millisecond, 100*units.Kbps, delivered, 2*units.MSS))
	}
	if got := b.CongestionWindow(); got < MinPipeCwnd*units.MSS {
		t.Errorf("cwnd = %v below the 4-segment floor", got)
	}
}

// The ProbeBW gain cycle must visit the probe (1.25) and drain (0.75)
// phases: observable as pacing-rate excursions around BtlBw.
func TestGainCyclingVisible(t *testing.T) {
	capacity := 50 * units.Mbps
	var inst *BBR
	ctor := func(p cc.Params) cc.Algorithm {
		inst = NewWithOptions(p, WithCycleOffset(0))
		return inst
	}
	n, err := netsim.New(netsim.Config{Capacity: capacity, Buffer: units.BufferBytes(capacity, 40*time.Millisecond, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddFlow(netsim.FlowConfig{RTT: 40 * time.Millisecond, Algorithm: ctor}); err != nil {
		t.Fatal(err)
	}
	n.Run(3 * time.Second) // settle into ProbeBW
	if inst.State() != ProbeBW {
		t.Skipf("not in ProbeBW after 3s: %v", inst.State())
	}
	sawHigh, sawLow := false, false
	for i := 0; i < 400; i++ { // one RTT is 40ms; cover many cycle phases
		n.Run(10 * time.Millisecond)
		bw := float64(inst.BtlBw())
		if bw == 0 {
			continue
		}
		ratio := float64(inst.PacingRate()) / bw
		if ratio > 1.2 {
			sawHigh = true
		}
		if ratio < 0.8 {
			sawLow = true
		}
	}
	if !sawHigh || !sawLow {
		t.Errorf("gain cycling not observed: high=%v low=%v", sawHigh, sawLow)
	}
}

// Startup must finish within a few dozen round trips even on a fast link.
func TestStartupExitIsFast(t *testing.T) {
	capacity := 1 * units.Gbps
	const rtt = 20 * time.Millisecond
	var inst *BBR
	ctor := func(p cc.Params) cc.Algorithm {
		inst = NewWithOptions(p)
		return inst
	}
	n, err := netsim.New(netsim.Config{Capacity: capacity, Buffer: units.BufferBytes(capacity, rtt, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddFlow(netsim.FlowConfig{RTT: rtt, Algorithm: ctor}); err != nil {
		t.Fatal(err)
	}
	// BDP is ~1712 packets; from 10 packets doubling per round needs ~8
	// rounds, plus 3 plateau rounds: give it 30 rounds.
	n.Run(30 * rtt)
	if inst.State() == Startup {
		t.Errorf("still in Startup after 30 RTTs on a 1 Gbps path")
	}
	if relErr(float64(inst.BtlBw()), float64(capacity)) > 0.25 {
		t.Errorf("BtlBw = %v after startup, want near %v", inst.BtlBw(), capacity)
	}
}

// WithCwndGain must change the in-flight cap proportionally.
func TestWithCwndGainScalesCap(t *testing.T) {
	cap2 := steadyCwnd(t, 2.0)
	cap1 := steadyCwnd(t, 1.0)
	ratio := float64(cap2) / float64(cap1)
	if ratio < 1.6 || ratio > 2.6 {
		t.Errorf("cwnd gain 2 vs 1 ratio = %.2f, want about 2", ratio)
	}
}

func steadyCwnd(t *testing.T, gain float64) units.Bytes {
	t.Helper()
	capacity := 50 * units.Mbps
	var inst *BBR
	ctor := func(p cc.Params) cc.Algorithm {
		inst = NewWithOptions(p, WithCwndGain(gain), WithCycleOffset(0))
		return inst
	}
	n, err := netsim.New(netsim.Config{Capacity: capacity, Buffer: units.BufferBytes(capacity, 40*time.Millisecond, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddFlow(netsim.FlowConfig{RTT: 40 * time.Millisecond, Algorithm: ctor}); err != nil {
		t.Fatal(err)
	}
	n.Run(8 * time.Second)
	if inst.State() != ProbeBW {
		t.Skipf("not in ProbeBW: %v", inst.State())
	}
	return inst.CongestionWindow()
}

// sinkBBR keeps the instances TestBtlBwFilterNeverGrows builds on the
// heap, so that a bare construction allocates exactly what a driven one
// does before its first ACK.
var sinkBBR *BBR

// TestBtlBwFilterNeverGrows pins that the bandwidth filter is sized for
// its whole window at construction: 200 rounds of ACKs allocate nothing
// beyond what New does. It is the filter's worst case: no sample
// dominates an earlier one. Each round carries 30 rate samples falling
// from its first, and each round's first sample is below the one before,
// over runs of 20 rounds, so every round keeps an entry for the whole
// window.
func TestBtlBwFilterNeverGrows(t *testing.T) {
	const perRound = 30
	newBBR := func() { sinkBBR = NewWithOptions(cc.Params{}, WithCycleOffset(0)) }
	drive := func() {
		newBBR()
		delivered := units.Bytes(0)
		for i := 0; i < 200*perRound; i++ {
			delivered += units.MSS
			round, k := i/perRound, i%perRound
			rate := units.Rate(200-5*(round%20)-k/10) * units.Mbps / 10
			at := time.Duration(i) * time.Millisecond
			sinkBBR.OnAck(syntheticAck(uint64(i), at, 40*time.Millisecond, rate, delivered, perRound*units.MSS))
		}
	}
	built := testing.AllocsPerRun(20, newBBR)
	driven := testing.AllocsPerRun(20, drive)
	if driven != built {
		t.Fatalf("200 rounds of ACKs allocate %v times, construction alone %v: the bandwidth filter grew", driven, built)
	}
	// The window holds rounds 189–199 (counted from 0), and the highest
	// first sample among them is round 189's: 200 − 5·9 tenths of a Mbps.
	if got, want := sinkBBR.BtlBw(), 155*units.Mbps/10; got != want {
		t.Errorf("BtlBw = %v, want %v", got, want)
	}
}
