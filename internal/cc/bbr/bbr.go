// Package bbr implements BBR version 1 congestion control following the
// published algorithm (Cardwell et al., "BBR: Congestion-Based Congestion
// Control", CACM 2017, and draft-cardwell-iccrg-bbr-congestion-control-00).
//
// The implementation is the full state machine:
//
//   - Startup: exponential search with pacing gain 2/ln2 until the
//     bottleneck bandwidth estimate plateaus for three rounds.
//   - Drain: inverse gain until the in-flight data drops to one estimated
//     BDP.
//   - ProbeBW: eight-phase gain cycling (1.25, 0.75, then six unity
//     phases), each lasting about one RTprop.
//   - ProbeRTT: every 10 s, the window collapses to four segments for at
//     least 200 ms so the queue drains and RTprop can be re-measured.
//
// The bandwidth estimate is a windowed maximum of delivery-rate samples over
// ten round trips; RTprop is a windowed minimum of RTT samples over ten
// seconds. The congestion window is capped at cwnd_gain (2.0 in ProbeBW)
// times the estimated BDP — the in-flight cap at the center of the paper's
// model. Like the paper assumes (assumption 4), this BBRv1 is loss-agnostic:
// packet loss only influences it through its effect on delivery-rate
// samples.
package bbr

import (
	"time"

	"bbrnash/internal/cc"
	"bbrnash/internal/eventsim"
	"bbrnash/internal/units"
)

// State is a BBR state-machine state.
type State int

// BBR states.
const (
	Startup State = iota
	Drain
	ProbeBW
	ProbeRTT
)

func (s State) String() string {
	switch s {
	case Startup:
		return "Startup"
	case Drain:
		return "Drain"
	case ProbeBW:
		return "ProbeBW"
	case ProbeRTT:
		return "ProbeRTT"
	default:
		return "Unknown"
	}
}

// Tunable constants from the BBR draft.
const (
	// HighGain is the Startup pacing/cwnd gain: 2/ln(2) ≈ 2.885, the
	// smallest gain that doubles the delivery rate each round.
	HighGain = 2.0 / 0.693147180559945
	// CwndGain is the ProbeBW congestion-window gain: the 2×BDP in-flight
	// cap the paper's model builds on.
	CwndGain = 2.0
	// BtlBwFilterLen is the bandwidth max-filter window in round trips.
	BtlBwFilterLen = 10
	// RTpropFilterLen is the RTprop min-filter window.
	RTpropFilterLen = 10 * time.Second
	// ProbeRTTInterval is how often BBR insists on re-probing RTprop.
	ProbeRTTInterval = 10 * time.Second
	// ProbeRTTDuration is the minimum time spent at minimal cwnd.
	ProbeRTTDuration = 200 * time.Millisecond
	// MinPipeCwnd is the minimal congestion window: four segments.
	MinPipeCwnd = 4
	// startupGrowthTarget: the pipe is declared full when the bandwidth
	// estimate grows by less than 25% over three consecutive rounds.
	startupGrowthTarget = 1.25
	fullBwCountTarget   = 3
)

// pacingGainCycle is the ProbeBW gain cycle.
var pacingGainCycle = [8]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// Option customizes a BBR instance.
type Option func(*BBR)

// WithCwndGain overrides the ProbeBW congestion-window gain. The ablation
// benchmarks use it to show the role of the 2×BDP in-flight cap in the
// paper's model.
func WithCwndGain(g float64) Option {
	return func(b *BBR) { b.cwndGainProbe = g }
}

// WithCycleOffset fixes the initial ProbeBW phase (0..7, phase 1 — the 0.75
// drain phase — excluded per the draft). By default instances derive a
// phase from their pointer identity; experiments that want determinism
// across runs set it explicitly.
func WithCycleOffset(i int) Option {
	return func(b *BBR) { b.initialCycle = i % len(pacingGainCycle) }
}

// BBR is a BBRv1 congestion-control instance.
type BBR struct {
	mss units.Bytes

	state State

	// Estimators. btlBw is held by value and sized for its whole window
	// (see cc.MakeMaxFilter), so no ACK grows it.
	btlBw   cc.MaxFilter // bits/sec, windowed by round count
	rtProp  time.Duration
	rtStamp eventsim.Time // when rtProp was last refreshed
	hasRT   bool
	// rtExpired is latched by updateRTprop when the filter window lapses
	// without a new minimum; checkProbeRTT consumes it in the same ACK.
	rtExpired bool
	initCwnd  units.Bytes
	// bw and bdpBase are the bandwidth estimate and one estimated BDP
	// (bw over rtProp; 0 until both estimates exist), taken once per ACK
	// after the estimators update. Nothing later in the ACK moves either
	// estimator, so every state check and both dials read these.
	bw      units.Rate
	bdpBase units.Bytes

	// Round counting.
	nextRoundDelivered units.Bytes
	roundCount         int64
	roundStart         bool

	// Startup full-pipe detection.
	fullBw      units.Rate
	fullBwCount int
	filledPipe  bool

	// ProbeBW gain cycling.
	cycleIndex   int
	cycleStamp   eventsim.Time
	initialCycle int
	lossInRound  bool

	// ProbeRTT.
	probeRTTDoneStamp eventsim.Time
	probeRTTRoundDone bool
	probeRTTValid     bool

	// Dials.
	pacingGain    float64
	cwndGainNow   float64
	cwndGainProbe float64
	pacingRate    units.Rate
	cwnd          units.Bytes

	// Diagnostics.
	stateChanges int
}

// New constructs a BBR instance with draft defaults. It satisfies
// cc.Constructor.
func New(p cc.Params) cc.Algorithm { return NewWithOptions(p) }

func init() { cc.Register("bbr", New) }

// NewWithOptions constructs a BBR instance with options applied.
func NewWithOptions(p cc.Params, opts ...Option) *BBR {
	p = p.WithDefaults()
	b := &BBR{
		mss:           p.MSS,
		state:         Startup,
		btlBw:         cc.MakeMaxFilter(BtlBwFilterLen),
		pacingGain:    HighGain,
		cwndGainNow:   HighGain,
		cwndGainProbe: CwndGain,
		cwnd:          p.InitialCwnd,
		initCwnd:      p.InitialCwnd,
		initialCycle:  -1,
	}
	for _, o := range opts {
		o(b)
	}
	return b
}

// Name implements cc.Algorithm.
func (b *BBR) Name() string { return "bbr" }

// State returns the current state-machine state (for tests and tracing).
func (b *BBR) State() State { return b.state }

// StateName implements cc.StateReporter.
func (b *BBR) StateName() string { return b.state.String() }

// BtlBw returns the current bottleneck-bandwidth estimate.
func (b *BBR) BtlBw() units.Rate {
	v, ok := b.btlBw.Get(eventsim.Time(b.roundCount))
	if !ok {
		return 0
	}
	return units.Rate(v)
}

// RTprop returns the current min-RTT estimate (the paper's RTT⁺ when the
// queue never fully drains).
func (b *BBR) RTprop() time.Duration { return b.rtProp }

// StateChanges counts state transitions (for tests).
func (b *BBR) StateChanges() int { return b.stateChanges }

// bdp is gain times the estimated BDP, 0 until both estimates exist.
func (b *BBR) bdp(gain float64) units.Bytes {
	return units.Bytes(gain * float64(b.bdpBase))
}

// OnSent implements cc.Algorithm.
func (b *BBR) OnSent(e cc.SendEvent) {}

// OnLoss implements cc.Algorithm. BBRv1 is loss-agnostic; losses only feed
// the ProbeBW phase-advance condition.
func (b *BBR) OnLoss(e cc.LossEvent) { b.lossInRound = true }

// OnAck implements cc.Algorithm.
func (b *BBR) OnAck(e cc.AckEvent) {
	b.updateRound(e)
	b.updateBtlBw(e)
	b.updateRTprop(e)
	b.bw = b.BtlBw()
	b.bdpBase = 0
	if b.bw != 0 && b.hasRT {
		b.bdpBase = b.bw.BytesIn(b.rtProp)
	}
	b.checkFullPipe()
	b.checkDrain(e)
	b.updateCycle(e)
	b.checkProbeRTT(e)
	b.setPacingRate()
	b.setCwnd(e)
}

func (b *BBR) updateRound(e cc.AckEvent) {
	if e.Delivered >= b.nextRoundDelivered {
		// One round trip has elapsed: everything in flight at the last
		// round mark has now been delivered.
		b.nextRoundDelivered = e.Delivered + e.Inflight
		b.roundCount++
		b.roundStart = true
		b.lossInRound = false
	} else {
		b.roundStart = false
	}
}

func (b *BBR) updateBtlBw(e cc.AckEvent) {
	if e.Rate <= 0 {
		return
	}
	if !e.RateAppLimited || float64(e.Rate) > b.btlBwValue() {
		b.btlBw.Update(eventsim.Time(b.roundCount), float64(e.Rate))
	}
}

func (b *BBR) btlBwValue() float64 {
	v, _ := b.btlBw.Get(eventsim.Time(b.roundCount))
	return v
}

func (b *BBR) updateRTprop(e cc.AckEvent) {
	b.rtExpired = b.hasRT && e.Now.Sub(b.rtStamp) > RTpropFilterLen
	if e.RTT > 0 && (!b.hasRT || e.RTT <= b.rtProp || b.rtExpired) {
		b.rtProp = e.RTT
		b.rtStamp = e.Now
		b.hasRT = true
	}
}

func (b *BBR) checkFullPipe() {
	if b.filledPipe || !b.roundStart {
		return
	}
	bw := b.bw
	if float64(bw) >= float64(b.fullBw)*startupGrowthTarget {
		b.fullBw = bw
		b.fullBwCount = 0
		return
	}
	b.fullBwCount++
	if b.fullBwCount >= fullBwCountTarget {
		b.filledPipe = true
		if b.state == Startup {
			b.enterDrain()
		}
	}
}

func (b *BBR) enterDrain() {
	b.setState(Drain)
	b.pacingGain = 1 / HighGain
	b.cwndGainNow = HighGain
}

func (b *BBR) checkDrain(e cc.AckEvent) {
	if b.state == Drain && e.Inflight <= b.bdp(1.0) {
		b.enterProbeBW(e.Now)
	}
}

func (b *BBR) enterProbeBW(now eventsim.Time) {
	b.setState(ProbeBW)
	b.cwndGainNow = b.cwndGainProbe
	// Start anywhere in the cycle except the 0.75 drain phase (index 1).
	idx := b.initialCycle
	if idx < 0 {
		idx = int(b.roundCount) % (len(pacingGainCycle) - 1)
		if idx >= 1 {
			idx++
		}
	}
	b.cycleIndex = idx
	b.pacingGain = pacingGainCycle[b.cycleIndex]
	b.cycleStamp = now
}

func (b *BBR) updateCycle(e cc.AckEvent) {
	if b.state != ProbeBW {
		return
	}
	if b.isNextCyclePhase(e) {
		b.cycleIndex = (b.cycleIndex + 1) % len(pacingGainCycle)
		b.pacingGain = pacingGainCycle[b.cycleIndex]
		b.cycleStamp = e.Now
	}
}

func (b *BBR) isNextCyclePhase(e cc.AckEvent) bool {
	elapsed := e.Now.Sub(b.cycleStamp) > b.rtProp
	gain := b.pacingGain
	if gain == 1 {
		return elapsed
	}
	if gain > 1 {
		// Probe until the gain is reflected in flight or losses appear.
		return elapsed && (b.lossInRound || e.Inflight >= b.bdp(gain))
	}
	// gain < 1: drain until the extra queue is gone, or a round passes.
	return elapsed || e.Inflight <= b.bdp(1.0)
}

func (b *BBR) checkProbeRTT(e cc.AckEvent) {
	if b.state != ProbeRTT && b.rtExpired {
		b.enterProbeRTT()
	}
	if b.state == ProbeRTT {
		b.handleProbeRTT(e)
	}
}

func (b *BBR) enterProbeRTT() {
	b.setState(ProbeRTT)
	b.pacingGain = 1
	b.cwndGainNow = 1
	b.probeRTTValid = false
	b.probeRTTDoneStamp = 0
}

func (b *BBR) handleProbeRTT(e cc.AckEvent) {
	if b.probeRTTDoneStamp == 0 && e.Inflight <= b.minCwnd() {
		// The pipe has drained to the ProbeRTT floor; hold for the dwell
		// time plus at least one round.
		b.probeRTTDoneStamp = e.Now.Add(ProbeRTTDuration)
		b.probeRTTRoundDone = false
		b.nextRoundDelivered = e.Delivered + e.Inflight
	}
	if b.probeRTTDoneStamp != 0 {
		if b.roundStart {
			b.probeRTTRoundDone = true
		}
		if b.probeRTTRoundDone && e.Now >= b.probeRTTDoneStamp {
			b.rtStamp = e.Now
			b.exitProbeRTT(e.Now)
		}
	}
}

func (b *BBR) exitProbeRTT(now eventsim.Time) {
	if b.filledPipe {
		b.enterProbeBW(now)
	} else {
		b.setState(Startup)
		b.pacingGain = HighGain
		b.cwndGainNow = HighGain
	}
}

func (b *BBR) setState(s State) {
	if b.state != s {
		b.state = s
		b.stateChanges++
	}
}

func (b *BBR) minCwnd() units.Bytes { return MinPipeCwnd * b.mss }

func (b *BBR) setPacingRate() {
	bw := b.bw
	if bw == 0 {
		// No estimate yet: pace the initial window over the RTT if known,
		// otherwise leave pacing unset (window-limited slow start).
		if b.hasRT && b.rtProp > 0 {
			b.pacingRate = units.Rate(b.pacingGain * 8 * float64(b.initCwnd) / b.rtProp.Seconds())
		}
		return
	}
	rate := units.Rate(b.pacingGain * float64(bw))
	// The draft only lets Startup lower the pacing rate once the estimate
	// is reliable; this simplification applies the gain directly, which
	// matches steady-state behaviour.
	b.pacingRate = rate
}

func (b *BBR) setCwnd(e cc.AckEvent) {
	if b.state == ProbeRTT {
		b.cwnd = b.minCwnd()
		return
	}
	target := b.bdp(b.cwndGainNow)
	if target == 0 {
		return // keep the initial window until estimates exist
	}
	if target < b.minCwnd() {
		target = b.minCwnd()
	}
	b.cwnd = target
}

// CongestionWindow implements cc.Algorithm.
func (b *BBR) CongestionWindow() units.Bytes { return b.cwnd }

// PacingRate implements cc.Algorithm.
func (b *BBR) PacingRate() units.Rate { return b.pacingRate }
