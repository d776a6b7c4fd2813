// Package fluid is the deterministic fixed-step fluid-model execution
// backend: the second engine behind scenario.Spec, trading the packet
// simulator's per-packet fidelity for a per-scenario cost that is orders of
// magnitude lower. Where internal/netsim schedules every segment and ACK,
// this package integrates aggregate per-group ODEs — window growth, a
// shared FIFO fluid queue, drop-tail overflow — at a fixed step, and
// reports the same netsim.FlowStats / netsim.LinkStats shapes, so the
// experiment harness can swap engines without changing a single figure
// path.
//
// The model is the paper's steady-state story made dynamic:
//
//   - BBR keeps inflight pinned to its cwnd bound 2·btlbw·rttEst (Eq 9's
//     cap), pushing bytes at cwnd/RTT(t) where RTT(t) = τ + q(t)/C. Its
//     bandwidth estimate btlbw tracks its delivered share through a
//     max-then-decay filter, and rttEst is a windowed minimum refreshed by
//     a synchronized ProbeRTT every 10 s: while probing, the group's
//     inflight collapses to 4·MSS, its queue share drains, and the minimum
//     RTT observed is τ plus the *competitors'* residual queue over C —
//     exactly the RTT⁺ = τ + b_cmin/C sampling of Eq 9. The fixed point of
//     these dynamics is Eq 10: q = C·τ + 2·q_min.
//   - CUBIC and Reno are window-limited: arrival rate w/RTT(t) per flow,
//     multiplicative backoff on buffer overflow (at most once per RTT,
//     synchronized across loss-based groups — the paper's Sync regime),
//     then concave-convex cube-root growth (CUBIC, β = 0.7) or one
//     segment per RTT (Reno, β = 0.5).
//   - The bottleneck is a single fluid FIFO: arrivals a_i(t) split the
//     service rate in proportion to bytes present, the queue integrates
//     Σa_i − C and clamps to [0, B], and the clamp's excess is drop-tail
//     loss attributed to groups by arrival share.
//
// Determinism is structural rather than seeded: the integration is a pure
// float64 recurrence over a fixed group order with no RNG, no maps and no
// wall clock, so a spec's trajectory is byte-identical across reruns,
// worker counts and Run() chunkings (time advances only in whole steps at
// absolute indices; see Run). Spec fields the packet engine randomizes —
// Seed, AckJitter, StartJitter — are ignored here, and of the fault
// fields, capacity flaps follow netsim's square wave exactly, stochastic
// loss becomes an expected-loss accumulator that triggers backoffs, burst
// episodes become synchronized backoff events, and ACK loss is a no-op.
// Those approximations are the point: the fluid backend answers "where is
// the steady state" cheaply, and internal/exp's cross-validation harness
// quantifies where the two engines diverge.
package fluid

import (
	"fmt"
	"math"
	"time"

	"bbrnash/internal/netsim"
	"bbrnash/internal/scenario"
	"bbrnash/internal/units"
)

// Model constants. The BBR numbers mirror the v1 state machine the paper
// models: a 2× cwnd gain over the estimated BDP, a 10 s min-RTT window
// ending in a 200 ms ProbeRTT drain, and a bandwidth filter that forgets a
// stale maximum over ~10 RTTs. The CUBIC/Reno constants are the standard
// ones (RFC 8312 / RFC 5681).
const (
	cwndGain      = 2.0  // BBR inflight cap as a multiple of btlbw·rttEst (Eq 9)
	probeInterval = 10.0 // seconds between synchronized ProbeRTT episodes
	probeDuration = 0.2  // minimum seconds spent draining in ProbeRTT
	probeRTTCwnd  = 4.0  // MSS held in flight while probing
	btlbwHorizon  = 10.0 // RTTs over which a stale bandwidth maximum decays
	cubicC        = 0.4  // CUBIC's C, in segments/s³
	cubicBeta     = 0.7  // CUBIC multiplicative-decrease factor
	renoBeta      = 0.5  // Reno multiplicative-decrease factor
)

// maxStep is the integration ceiling; steep RTTs refine it (see stepFor).
const maxStep = 1e-3 // seconds

// stepFor picks the fixed integration step for a spec: 1 ms, refined to
// RTT/20 when the fastest group's control loop is quicker than 20 ms, with
// a 10 µs floor. The step is a pure function of the spec, so it is part of
// the scenario's deterministic identity just like the group order.
func stepFor(sp scenario.Spec) float64 {
	stp := maxStep
	for _, g := range sp.Groups {
		if g.Count == 0 {
			continue
		}
		if s := g.RTT.Seconds() / 20; s < stp {
			stp = s
		}
	}
	return max(stp, 1e-5)
}

// kind is a group's congestion-control model, fixed in New so the step
// dispatches on an integer rather than comparing algorithm names.
type kind uint8

const (
	kindBBR   kind = iota // rate-based: inflight pinned to 2·btlbw·rttEst
	kindCubic             // loss-based, cube-root growth
	kindReno              // loss-based, one segment per RTT
)

// group is the aggregate state of one non-empty spec group: Count
// identical flows integrated as one fluid class.
type group struct {
	alg   string
	kind  kind
	idx   int32 // the group's spec index; an int32 fits kind's padding, so a group does not grow
	count float64
	rtt   float64 // base RTT τ, seconds
	start float64 // activation time, seconds

	// Per-group step constants: products New forms once, in the order the
	// step would form them left to right, so no rounding changes.
	countGain  float64 // count·cwndGain
	probeBytes float64 // count·probeRTTCwnd·mss
	countDt    float64 // count·dt
	horizon    float64 // btlbwHorizon·rtt

	// Loss-based window state (cubic, reno). w is the per-flow window in
	// bytes; wmax the pre-backoff plateau CUBIC curves toward; k CUBIC's
	// time from epoch to that plateau; epoch the time of the last backoff
	// (the CUBIC time origin); lastBackoff gates the one-backoff-per-RTT
	// rule.
	w           float64
	wmax        float64
	k           float64
	epoch       float64
	lastBackoff float64

	// BBR state: per-flow delivered-rate estimate (bytes/s), the min-RTT
	// estimate the cwnd bound uses, and the running window minimum that
	// replaces it when the current ProbeRTT cycle closes.
	btlbw  float64
	rttEst float64
	winMin float64

	// q is the group's bytes currently waiting in the bottleneck buffer;
	// in and served are this step's arrivals (after fault thinning) and
	// service, bytes.
	q, in, served float64

	// lossAcc accumulates expected fault-injected loss per flow (bytes);
	// each MSS of it triggers one backoff, the fluid analogue of a
	// stochastic drop.
	lossAcc float64

	// Aggregate accumulators over the whole run (group totals, bytes or
	// byte-seconds; divided per flow in Stats).
	sent, delivered, dropped   float64
	rttAcc, activeTime, rttMin float64
	qAcc, qMin, qMax           float64
}

func (g *group) beta() float64 {
	if g.kind == kindReno {
		return renoBeta
	}
	return cubicBeta
}

// setPlateau sets wmax and, for CUBIC, the curve's K = ∛(wmax·(1−β)/(C·MSS)):
// K changes only with wmax, so grow never takes a cube root.
func (g *group) setPlateau(wmax, mss float64) {
	g.wmax = wmax
	if g.kind == kindCubic {
		g.k = math.Cbrt(wmax * (1 - cubicBeta) / (cubicC * mss))
	}
}

// backoff applies one multiplicative decrease at time t.
func (g *group) backoff(t float64, mss float64) {
	g.setPlateau(g.w, mss)
	g.w = max(g.w*g.beta(), mss)
	g.epoch = t
	g.lastBackoff = t
}

// grow advances the post-backoff window to time t: CUBIC's closed-form
// cube-root curve through (epoch, β·wmax) with plateau wmax, or Reno's one
// segment per RTT. cmss is cubicC·mss and mssDt is mss·dt.
func (g *group) grow(t, rttNow, mss, cmss, mssDt float64) {
	switch g.kind {
	case kindCubic:
		te := t - g.epoch
		g.w = above(cmss*(te-g.k)*(te-g.k)*(te-g.k)+g.wmax, mss)
	case kindReno:
		g.w += mssDt / rttNow
	}
}

// The step's clamps and running extrema are a compare and a branch, not
// the builtin float min/max. The builtins give NaN and ±0 the spec's
// answers, which costs each call two MINSDs and a POR (a max adds two sign
// flips), and three of them sit on the step's serial chain: queue total →
// delay → arrival rates → FIFO service → queue total. The forms below
// differ from the builtins only for a NaN bound or a pair of zeros of
// opposite sign (TestCompareFormsMatchBuiltins lists each case), and no
// valid spec reaches either: cEff·dt and mss are positive, every
// accumulator starts at +0, +Inf or a positive RTT, and every clamped
// queue is +0, never −0. So every trajectory keeps every bit.

// nonNeg is max(x, 0), bit for bit on every float64.
func nonNeg(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return x
}

// below is min(x, c) unless c is NaN or (x, c) is (−0, +0).
func below(x, c float64) float64 {
	if !(x >= c) {
		return x
	}
	return c
}

// above is max(w, floor) unless floor is NaN or (w, floor) is (−0, +0).
func above(w, floor float64) float64 {
	if w < floor {
		return floor
	}
	return w
}

// raise sets *acc to max(*acc, x) unless (*acc, x) is (−0, +0); a NaN
// sample sticks, as it does there.
func raise(acc *float64, x float64) {
	if x > *acc || math.IsNaN(x) {
		*acc = x
	}
}

// lower sets *acc to min(*acc, x) unless (*acc, x) is (+0, −0); a NaN
// sample sticks, as it does there.
func lower(acc *float64, x float64) {
	if x < *acc || math.IsNaN(x) {
		*acc = x
	}
}

// Model integrates one scenario. Create with New, advance with Run, read
// with Stats; a Model is single-goroutine like netsim.Network.
type Model struct {
	sp     scenario.Spec
	groups []group // the spec's non-empty groups, in spec order

	stp      float64 // integration step, seconds
	step     int64   // whole steps completed; model time is step·stp
	grantedN int64   // total nanoseconds granted via Run

	capBytes float64         // bottleneck capacity, bytes/s
	buffer   float64         // bytes
	mss      float64         // bytes
	cmss     float64         // cubicC·mss, bytes/s³
	mssDt    float64         // mss·stp
	linkName string          // the modeled bottleneck link
	faults   scenario.Faults // the bottleneck link's faults

	// What New settles for the whole run, so the step need not re-test it:
	// whether the bottleneck's capacity flaps (see cEffAt), and activeFrom,
	// the latest group start. From activeFrom on, every group has started
	// and the step's group loops skip their start tests.
	flaps      bool
	activeFrom float64

	// Link accumulators.
	qIntAcc, qMaxSeen   float64 // ∫q dt, max q
	delayAcc, delayMax  float64 // ∫(q/cEff) dt, max q/cEff
	deliveredTotal      float64 // bytes through the bottleneck
	overflowPkts        float64 // drop-tail loss, packets (fractional)
	injectedBytes       float64 // stochastic fault loss, bytes
	burstPkts           int     // burst-episode loss, packets
	burstsDone          int64   // episodes already applied
	probeStarts         int64   // ProbeRTT episodes already entered
	probeUntil          float64 // current episode's end time, seconds
	probing, wasProbing bool    // shared ProbeRTT phase, for edge detection

	// qTotal is the queue total at the end of the last step, which is the
	// next step's start total.
	qTotal float64
}

// reduceTopology maps a spec's topology onto the model's single FIFO
// queue. A one-link topology without a reverse twin is the link itself —
// every legacy spec lands here. A chain reduces only when one link is the
// unambiguous shared bottleneck: it lies on every active group's path, it
// has the strictly smallest capacity, and every other link is fault-free
// with at least its capacity (so at fluid granularity the others are
// transparent pipes). Everything else — reverse ACK twins, faults off the
// bottleneck, disjoint or comparably-tight links — is genuinely
// multi-bottleneck and errors loudly: the packet backend is the tool for
// those, and a silent approximation here would poison cross-validation.
func reduceTopology(sp scenario.Spec) (scenario.Link, error) {
	links := sp.Topology()
	for _, l := range links {
		if l.HasReverse() {
			return scenario.Link{}, fmt.Errorf(
				"fluid: link %q carries a reverse ACK path; the fluid equations have no return-path queue — use the packet backend", l.Name)
		}
	}
	if len(links) == 1 {
		return links[0], nil
	}
	bl := links[0]
	for _, l := range links[1:] {
		if l.Capacity < bl.Capacity {
			bl = l
		}
	}
	for gi := range sp.Groups {
		if sp.Groups[gi].Count == 0 {
			continue
		}
		if !pathContains(sp.PathOf(gi), bl.Name) {
			return scenario.Link{}, fmt.Errorf(
				"fluid: group %d's path misses the narrowest link %q; disjoint bottlenecks have no single-queue reduction — use the packet backend", gi, bl.Name)
		}
	}
	for _, l := range links {
		if l.Name == bl.Name {
			continue
		}
		if l.Faults != (scenario.Faults{}) {
			return scenario.Link{}, fmt.Errorf(
				"fluid: link %q carries faults but is not the bottleneck %q; off-bottleneck faults have no single-queue reduction — use the packet backend", l.Name, bl.Name)
		}
		if l.Capacity <= bl.Capacity {
			return scenario.Link{}, fmt.Errorf(
				"fluid: links %q and %q are comparably tight (%v vs %v); a multi-bottleneck chain has no single-queue reduction — use the packet backend",
				l.Name, bl.Name, l.Capacity, bl.Capacity)
		}
	}
	return bl, nil
}

// pathContains reports whether a path traverses the named link.
func pathContains(path []string, name string) bool {
	for _, p := range path {
		if p == name {
			return true
		}
	}
	return false
}

// New builds the fluid model for a spec. The spec's topology must be valid
// and every non-empty group's algorithm must be one the fluid equations
// cover: bbr, cubic or reno (the model-driven algorithms — bbrv2, copa,
// vivace — have no fluid form here and error out rather than silently
// running as something else). A multi-link topology must reduce to one
// shared bottleneck (see reduceTopology); anything genuinely
// multi-bottleneck is rejected loudly in favor of the packet backend.
//
// The model keeps only the non-empty groups. An empty group would add +0
// to the step's sums, which start at +0 and never go negative, so leaving
// it out changes no bit; its own accumulators would never be reported.
func New(sp scenario.Spec) (*Model, error) {
	sp = sp.WithDefaults()
	if err := sp.ValidateTopology(); err != nil {
		return nil, err
	}
	bl, err := reduceTopology(sp)
	if err != nil {
		return nil, err
	}
	m := &Model{
		sp:       sp,
		stp:      stepFor(sp),
		capBytes: bl.Capacity.BytesPerSecond(),
		buffer:   float64(bl.Buffer),
		mss:      float64(sp.MSS),
		linkName: bl.Name,
		faults:   bl.Faults,
	}
	m.cmss = cubicC * m.mss
	m.mssDt = m.mss * m.stp
	m.flaps = bl.Faults.FlapDepth > 0 && bl.Faults.FlapPeriod > 0
	total := float64(sp.TotalFlows())
	share := m.capBytes / total // fair-share bytes/s per flow
	m.groups = make([]group, 0, len(sp.Groups))
	for i, sg := range sp.Groups {
		if sg.Count == 0 {
			continue
		}
		g := group{
			idx:    int32(i),
			alg:    sg.Algorithm,
			count:  float64(sg.Count),
			rtt:    sg.RTT.Seconds(),
			start:  sg.Start.Seconds(),
			rttMin: math.Inf(1),
			qMin:   math.Inf(1),
			winMin: math.Inf(1),
		}
		m.activeFrom = max(m.activeFrom, g.start)
		g.countGain = g.count * cwndGain
		g.probeBytes = g.count * probeRTTCwnd * m.mss
		g.countDt = g.count * m.stp
		g.horizon = btlbwHorizon * g.rtt
		switch sg.Algorithm {
		case "bbr":
			g.kind = kindBBR
			g.btlbw = share
			g.rttEst = g.rtt
		case "cubic", "reno":
			g.kind = kindCubic
			if sg.Algorithm == "reno" {
				g.kind = kindReno
			}
			// Fair-share initial conditions: the window that carries the
			// share at base RTT, entering mid-epoch so growth resumes from
			// it (wmax = w/β puts the plateau just above).
			g.w = max(share*g.rtt, m.mss)
			g.setPlateau(g.w/g.beta(), m.mss)
			g.epoch = g.start
			g.lastBackoff = g.start
		default:
			return nil, fmt.Errorf("fluid: group %d: no fluid model for algorithm %q (want bbr, cubic or reno)", i, sg.Algorithm)
		}
		m.groups = append(m.groups, g)
	}
	return m, nil
}

// Step returns the model's fixed integration step.
func (m *Model) Step() time.Duration { return time.Duration(m.stp * float64(time.Second)) }

// Now returns the simulated time reached.
func (m *Model) Now() time.Duration {
	return time.Duration(float64(m.step) * m.stp * float64(time.Second))
}

// Run advances the integration by d. Time only ever advances in whole
// steps at absolute indices — Run(2s) and Run(1s);Run(1s) execute the
// identical step sequence — so the harness's progress-chunked execution is
// exactly resumable, the same contract netsim.Network.Run keeps. A
// sub-step remainder is carried, not integrated.
func (m *Model) Run(d time.Duration) {
	if d <= 0 {
		return
	}
	m.grantedN += d.Nanoseconds()
	granted := float64(m.grantedN) / float64(time.Second)
	for float64(m.step+1)*m.stp <= granted {
		m.advance()
		m.step++
	}
}

// cEffAt is a flapping bottleneck's instantaneous service rate in
// bytes/s: nominal capacity, reduced by the flap square wave's second
// half-period (the exact waveform netsim schedules and
// scenario.Faults.MeanCapacityOver integrates). The step calls it only
// when m.flaps is set.
func (m *Model) cEffAt(t float64) float64 {
	f := m.faults
	period := f.FlapPeriod.Seconds()
	if math.Mod(t, period) >= period/2 {
		return m.capBytes * (1 - f.FlapDepth)
	}
	return m.capBytes
}

// advance integrates one step [t, t+dt) in three passes over the groups:
// arrivals, the FIFO queue, and the responses to it. Every quotient the
// groups share — the queueing delay at the step's start and at its end —
// is formed once. The passes range over a local copy of m.groups, which
// lets the compiler drop their bounds checks.
func (m *Model) advance() {
	t := float64(m.step) * m.stp
	dt := m.stp
	cEff := m.capBytes
	if m.flaps {
		cEff = m.cEffAt(t)
	}
	groups := m.groups
	// Every group has started: t ≥ activeFrom, the latest start, implies
	// t ≥ each group's start.
	all := t >= m.activeFrom

	// The queue at the step's start is the last step's end total, summed
	// in the same group order from the same values.
	qTotal := m.qTotal
	qDelay := qTotal / cEff // RTT(t) = τ + q/cEff: the whole queue delays everyone

	// Shared ProbeRTT phase: after the first 10 s, every BBR group drains
	// simultaneously at each 10 s boundary (real BBR flows sharing a
	// bottleneck synchronize their ProbeRTT; the paper's Eq 9 sampling
	// assumes exactly this). An episode lasts max(200 ms, one RTT as
	// currently observed) — the spec's floor — which is what lets the
	// probe drain even a deep buffer's standing queue far enough to sample
	// the competitors' minimum occupancy.
	m.wasProbing = m.probing
	if due := int64(t / probeInterval); due > m.probeStarts && t >= probeInterval {
		m.probeStarts = due
		rttMax := 0.0
		for i := range groups {
			g := &groups[i]
			if g.kind == kindBBR && (all || t >= g.start) {
				rttMax = max(rttMax, g.rtt+qDelay)
			}
		}
		if rttMax > 0 {
			m.probeUntil = t + max(probeDuration, rttMax)
		}
	}
	m.probing = t < m.probeUntil

	// Arrival rates.
	inflowTotal := 0.0
	for i := range groups {
		g := &groups[i]
		a := 0.0
		if all || t >= g.start {
			rttNow := g.rtt + qDelay
			switch {
			case g.kind == kindBBR && m.probing:
				a = g.probeBytes / rttNow
			case g.kind == kindBBR:
				a = g.countGain * g.btlbw * g.rttEst / rttNow
			default:
				g.grow(t, rttNow, m.mss, m.cmss, m.mssDt)
				a = g.count * g.w / rttNow
			}
			// Stats: time-weighted RTT while active.
			g.rttAcc += rttNow * dt
			g.activeTime += dt
			lower(&g.rttMin, rttNow)
			// BBR's min-RTT window watches continuously; its estimate
			// absorbs new lows immediately and rises only when a cycle
			// closes (below).
			if g.kind == kindBBR {
				lower(&g.winMin, rttNow)
				lower(&g.rttEst, rttNow)
			}
		}
		g.in = a * dt
		inflowTotal += g.in
		g.sent += g.in
	}

	// Fault injection ahead of the queue: stochastic loss thins arrivals
	// and accumulates expected per-flow drops; a crossed burst boundary
	// claims BurstLen packets and acts as one synchronized loss event.
	f := &m.faults
	burst := false
	if f.BurstLen > 0 && f.BurstEvery > 0 {
		if due := int64((t + dt) / f.BurstEvery.Seconds()); due > m.burstsDone {
			m.burstPkts += int(due-m.burstsDone) * f.BurstLen
			m.burstsDone = due
			burst = true
		}
	}
	if f.LossRate > 0 && inflowTotal > 0 {
		for i := range groups {
			g := &groups[i]
			lost := g.in * f.LossRate
			g.in -= lost
			m.injectedBytes += lost
			g.dropped += lost
			g.lossAcc += lost / g.count
		}
		inflowTotal *= 1 - f.LossRate
	}

	// FIFO fluid queue: serve up to cEff·dt from the bytes present, split
	// service by presence share, clamp to the buffer, and attribute the
	// clamp's excess (drop-tail loss) by arrival share.
	avail := qTotal + inflowTotal
	served := below(avail, cEff*dt)
	left := avail - served
	overflow := nonNeg(left - m.buffer)
	qAfter := 0.0
	for i := range groups {
		g := &groups[i]
		present := g.q + g.in
		var servedI, overflowI float64
		if avail > 0 {
			servedI = served * present / avail
		}
		if overflow > 0 && inflowTotal > 0 {
			overflowI = overflow * g.in / inflowTotal
		}
		g.served = servedI
		g.delivered += servedI
		g.dropped += overflowI
		g.q = nonNeg(present - servedI - overflowI)
		qAfter += g.q
	}
	m.qTotal = qAfter
	m.deliveredTotal += served
	if overflow > 0 { // adding +0 to the non-negative sum would change nothing
		m.overflowPkts += overflow / m.mss
	}

	// Link statistics for the step.
	delay := qAfter / cEff
	m.qIntAcc += qAfter * dt
	raise(&m.qMaxSeen, qAfter)
	m.delayAcc += delay * dt
	raise(&m.delayMax, delay)

	// Responses to the step, one pass: each touches only its own group.
	//
	// Loss response: overflow or a burst episode backs off every
	// loss-based group that is sending and out of its post-backoff RTT —
	// synchronized decrease, the paper's Sync regime. Accumulated
	// stochastic loss triggers per-group backoffs the same way. BBR v1 is
	// loss-blind and ignores all of it.
	//
	// BBR filters: the delivered-rate sample feeds a max filter that
	// forgets over btlbwHorizon RTTs; a closing min-RTT cycle commits the
	// window minimum. Estimates freeze during ProbeRTT — the drain is
	// self-inflicted, not evidence about the path.
	tEnd := t + dt
	lossEvent := overflow > 0 || burst
	probeEnded := m.wasProbing && !m.probing
	for i := range groups {
		g := &groups[i]
		if !all && t < g.start {
			continue
		}
		if g.kind == kindBBR {
			if !m.probing && avail > 0 {
				// Per-flow delivered rate this step.
				rate := g.served / g.countDt
				if rate > g.btlbw {
					g.btlbw = rate
				} else {
					g.btlbw += (rate - g.btlbw) * dt / g.horizon
				}
			}
			if probeEnded && !math.IsInf(g.winMin, 1) {
				g.rttEst = above(g.winMin, g.rtt)
				g.winMin = math.Inf(1)
			}
		} else {
			rttNow := g.rtt + delay
			canBack := tEnd-g.lastBackoff >= rttNow
			if lossEvent && g.in > 0 && canBack {
				g.backoff(tEnd, m.mss)
			} else if g.lossAcc >= m.mss && canBack {
				g.lossAcc -= m.mss
				g.backoff(tEnd, m.mss)
			}
		}
		// Per-group queue statistics.
		g.qAcc += g.q * dt
		lower(&g.qMin, g.q)
		raise(&g.qMax, g.q)
	}
}

// Stats reports per-flow statistics in spec group order plus the link's,
// in exactly netsim's shapes and naming (flow i of group gi is
// "g<gi>.<alg><i>", and an empty group's slot is empty), so
// exp.SpecResult is backend-agnostic. Flows within a group are identical
// by construction — the fluid class integrates them as one — so each
// reports the group aggregate divided by count.
func (m *Model) Stats() ([][]netsim.FlowStats, netsim.LinkStats) {
	dur := float64(m.step) * m.stp
	groups := make([][]netsim.FlowStats, len(m.sp.Groups))
	for gi := range m.groups {
		g := &m.groups[gi]
		n := g.count
		st := netsim.FlowStats{
			Algorithm:          g.alg,
			Delivered:          units.Bytes(g.delivered / n),
			SentBytes:          units.Bytes(g.sent / n),
			Lost:               int(g.dropped / (n * m.mss)),
			MinRTT:             finiteDuration(g.rttMin),
			MeanQueueOccupancy: units.Bytes(0),
		}
		if dur > 0 {
			st.Throughput = units.Rate(g.delivered / n * 8 / dur)
			st.MeanQueueOccupancy = units.Bytes(g.qAcc / (n * dur))
		}
		if g.activeTime > 0 {
			st.MeanRTT = time.Duration(g.rttAcc / g.activeTime * float64(time.Second))
		}
		if !math.IsInf(g.qMin, 1) {
			st.MinQueueOccupancy = units.Bytes(g.qMin / n)
		}
		st.MaxQueueOccupancy = units.Bytes(g.qMax / n)
		for i := 0; i < int(g.count); i++ {
			fi := st
			fi.Name = fmt.Sprintf("g%d.%s%d", g.idx, g.alg, i)
			groups[g.idx] = append(groups[g.idx], fi)
		}
	}
	link := netsim.LinkStats{
		Name:              m.linkName,
		MaxQueueOccupancy: units.Bytes(m.qMaxSeen),
		MaxQueueDelay:     time.Duration(m.delayMax * float64(time.Second)),
		Drops:             int(m.overflowPkts),
		InjectedDrops:     int(m.injectedBytes/m.mss) + m.burstPkts,
	}
	if dur > 0 {
		link.Utilization = m.deliveredTotal / dur / m.capBytes
		link.MeanQueueOccupancy = units.Bytes(m.qIntAcc / dur)
		link.MeanQueueDelay = time.Duration(m.delayAcc / dur * float64(time.Second))
	}
	return groups, link
}

// finiteDuration converts a possibly-unset (+Inf) seconds minimum.
func finiteDuration(s float64) time.Duration {
	if math.IsInf(s, 1) {
		return 0
	}
	return time.Duration(s * float64(time.Second))
}
