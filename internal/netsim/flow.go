package netsim

import (
	"time"

	"bbrnash/internal/cc"
	"bbrnash/internal/eventsim"
	"bbrnash/internal/metrics"
	"bbrnash/internal/units"
)

// Flow is one bulk sender/receiver pair. The sender has infinite backlog and
// transmits whenever its congestion window (and pacing rate, if any) allows.
//
// Field order is deliberate: the state every ACK touches sits first, packed
// into the leading cache lines, while configuration and measurement state
// the hot path never reads (names, transfer settings, counters snapshotted
// by Stats) trails behind.
type Flow struct {
	// Hot: read and written on every ACK, loss and send.
	net      *Network
	alg      cc.Algorithm
	inflight units.Bytes
	started  bool
	nextSeq  uint64

	// path is the ordered forward links the flow's data traverses; ackPath
	// the reverse twins its ACKs cross on the way back (reverse path
	// order), empty when no traversed link has a twin.
	path    []*link
	ackPath []*link

	// Pacing state. paceRate/paceStep cache the serialization-interval
	// division (see link.step): recomputed only when the algorithm's pacing
	// rate actually changes, which is far rarer than a send.
	pacer    eventsim.Timer
	nextSend eventsim.Time
	paceRate units.Rate
	paceStep time.Duration

	// Delivery-rate estimator connection state (see the BBR delivery-rate
	// estimation draft): total delivered bytes and the timestamps needed to
	// form per-ACK rate samples.
	delivered     units.Bytes
	deliveredTime eventsim.Time
	firstSent     eventsim.Time

	rtt    time.Duration
	minRTT time.Duration

	// Warm: per-ACK statistics kept by value (alloc-free Observe/Add).
	rttStats metrics.Summary
	arrived  metrics.Counter // bytes that crossed the bottleneck
	sent     metrics.Counter
	lost     metrics.Counter
	queued   metrics.TimeWeighted // this flow's waiting bytes at the bottleneck

	// Cold: configuration, identity and observation state.
	id   int
	name string

	// State-transition observation (see Network.OnStateChange): reporter is
	// alg's cc.StateReporter side, asserted once at construction, or nil.
	reporter  cc.StateReporter
	lastState string

	// Finite-transfer state (zero transferSize means infinite backlog).
	transferSize units.Bytes
	restartAfter time.Duration
	sentInXfer   units.Bytes
	transfers    int
}

func (f *Flow) start() {
	f.started = true
	now := f.net.loop.Now()
	f.nextSend = now
	f.deliveredTime = now
	f.firstSent = now
	f.queued.Set(now, 0)
	// Begin the measurement windows at the flow's own start instant. With
	// jittered starts a flow may come to life well after t=0; leaving the
	// counter windows at their implicit zero start would divide the flow's
	// bytes over dead time it never sent in and understate its rate whenever
	// StartMeasurement is never called (measurement from t=0).
	f.arrived.Reset(now)
	f.sent.Reset(now)
	f.lost.Reset(now)
	f.trySend()
}

// trySend transmits as many packets as the window and pacing allow, arming
// the pacing timer when rate-limited.
func (f *Flow) trySend() {
	if !f.started {
		return
	}
	mss := f.net.cfg.MSS
	for f.inflight+mss <= f.alg.CongestionWindow() {
		if f.transferSize > 0 && f.sentInXfer >= f.transferSize {
			f.finishTransfer()
			return
		}
		now := f.net.loop.Now()
		if rate := f.alg.PacingRate(); rate > 0 {
			if f.nextSend > now {
				f.pacer.Arm(f.nextSend)
				return
			}
			if f.nextSend < now {
				// Idle or newly paced: restart the pacing clock.
				f.nextSend = now
			}
			if rate != f.paceRate {
				f.paceRate = rate
				f.paceStep = rate.TimeToSend(mss)
			}
			f.nextSend = f.nextSend.Add(f.paceStep)
		}
		f.sendPacket(now)
	}
}

// sendPacket transmits one MSS-sized segment.
func (f *Flow) sendPacket(now eventsim.Time) {
	size := f.net.cfg.MSS
	if f.inflight == 0 {
		// Restarting from idle: reset the rate-estimator epoch.
		f.firstSent = now
		f.deliveredTime = now
	}
	p := f.net.newPacket()
	p.flow = f
	p.seq = f.nextSeq
	p.sentAt = now
	p.delivered = f.delivered
	p.deliveredTime = f.deliveredTime
	p.firstSent = f.firstSent
	f.nextSeq++
	f.firstSent = now
	f.inflight += size
	f.sentInXfer += size
	f.sent.Add(float64(size))
	f.alg.OnSent(cc.SendEvent{Now: now, Seq: p.seq, Bytes: size, Inflight: f.inflight})
	f.path[0].enqueue(p)
}

// packetDeparted is called when the packet crosses the last link of its
// path; the receiver will see it one forward propagation later. Throughput
// is counted here.
func (f *Flow) packetDeparted() {
	f.arrived.Add(float64(f.net.cfg.MSS))
}

// ackAdvance moves the packet's acknowledgment to the next reverse link on
// its way back to the sender, delivering it once the reverse path is
// exhausted.
func (f *Flow) ackAdvance(p *packet) {
	p.ackHop++
	if int(p.ackHop) < len(f.ackPath) {
		f.ackPath[p.ackHop].enqueueAck(p)
		return
	}
	f.ackArrived(p)
}

// ackArrived processes the acknowledgement for p at the sender.
func (f *Flow) ackArrived(p *packet) {
	now := f.net.loop.Now()
	mss := f.net.cfg.MSS
	f.inflight -= mss
	f.delivered += mss
	f.deliveredTime = now

	rtt := now.Sub(p.sentAt)
	f.rttStats.Observe(float64(rtt))
	if f.minRTT == 0 || rtt < f.minRTT {
		f.minRTT = rtt
	}

	// Delivery-rate sample: bytes delivered between this packet's send and
	// its ACK, over the longer of the ACK interval and the send interval
	// (the max suppresses aliasing from ACK compression).
	ackElapsed := now.Sub(p.deliveredTime)
	sendElapsed := p.sentAt.Sub(p.firstSent)
	interval := ackElapsed
	if sendElapsed > interval {
		interval = sendElapsed
	}
	var rate units.Rate
	if interval > 0 {
		rate = units.RateOver(f.delivered-p.delivered, interval)
	}

	f.alg.OnAck(cc.AckEvent{
		Now:       now,
		Seq:       p.seq,
		Bytes:     mss,
		SentAt:    p.sentAt,
		RTT:       rtt,
		Inflight:  f.inflight,
		Delivered: f.delivered,
		Rate:      rate,
	})
	f.noteState(now)
	f.net.freePacket(p)
	f.maybeSend()
}

// packetDropped is called (at drop time) when the bottleneck discards p.
// The sender detects the loss roughly when duplicate ACKs triggered by
// later packets would arrive: one queue drain plus one base RTT later.
func (f *Flow) packetDropped(p *packet, queueDelay time.Duration) {
	f.net.loop.AfterEvent(queueDelay+f.rtt, evLoss, p)
}

func (f *Flow) lossDetected(p *packet) {
	now := f.net.loop.Now()
	mss := f.net.cfg.MSS
	f.inflight -= mss
	f.lost.Add(1)
	f.alg.OnLoss(cc.LossEvent{
		Now:      now,
		Seq:      p.seq,
		Bytes:    mss,
		SentAt:   p.sentAt,
		Inflight: f.inflight,
	})
	f.noteState(now)
	f.net.freePacket(p)
	f.maybeSend()
}

// maybeSend runs trySend at the end of an ACK or loss event, batching
// consecutive same-flow feedback: when the next event in the queue is
// another ACK or loss for this same flow at this same instant and trySend
// is provably a no-op right now (not started, or window still full — the
// only two early returns with no side effect), the call is skipped and the
// batch's final event issues it once. The deferred call sees exactly the
// state the skipped calls would have seen had they run (no-ops by
// definition), so event order and RNG/sequence draws are identical to the
// unbatched engine.
func (f *Flow) maybeSend() {
	if !f.started || f.inflight+f.net.cfg.MSS > f.alg.CongestionWindow() {
		if kind, target, ok := f.net.loop.PeekSameInstant(); ok &&
			(kind == evAck || kind == evLoss) {
			if p, ok := target.(*packet); ok && p.flow == f {
				return
			}
		}
	}
	f.trySend()
}

// noteState emits a StateEvent when the flow's congestion-control state
// changed across the last OnAck/OnLoss. With no hook registered (or no
// StateReporter) this is a pointer compare and costs nothing on the hot
// path.
func (f *Flow) noteState(now eventsim.Time) {
	if f.net.stateHook == nil || f.reporter == nil {
		return
	}
	if s := f.reporter.StateName(); s != f.lastState {
		f.lastState = s
		f.net.stateHook(StateEvent{Time: now, Flow: f.name, State: s})
	}
}

// finishTransfer pauses a finite flow at the end of its transfer and, if
// configured, schedules the next one. The congestion-control instance keeps
// its state across restarts, like a persistent connection reused for
// successive objects.
func (f *Flow) finishTransfer() {
	f.started = false
	f.transfers++
	if f.restartAfter <= 0 {
		return
	}
	f.net.loop.AfterEvent(f.restartAfter, evFlowRestart, f)
}

// restart begins the next transfer of an on/off flow (see finishTransfer).
func (f *Flow) restart() {
	f.sentInXfer = 0
	f.started = true
	now := f.net.loop.Now()
	if f.nextSend < now {
		f.nextSend = now
	}
	f.trySend()
}

func (f *Flow) resetMeasurement(now eventsim.Time) {
	f.arrived.Reset(now)
	f.sent.Reset(now)
	f.lost.Reset(now)
	f.rttStats.Reset()
	f.queued.Reset(now)
}

// Name returns the flow's label.
func (f *Flow) Name() string { return f.name }

// AlgorithmName returns the congestion-control algorithm's name.
func (f *Flow) AlgorithmName() string { return f.alg.Name() }

// Algorithm exposes the underlying congestion-control instance (useful for
// white-box tests).
func (f *Flow) Algorithm() cc.Algorithm { return f.alg }

// BaseRTT returns the flow's configured round-trip propagation delay.
func (f *Flow) BaseRTT() time.Duration { return f.rtt }

// Inflight returns the bytes currently outstanding.
func (f *Flow) Inflight() units.Bytes { return f.inflight }

// Transfers reports how many finite transfers the flow has completed (0
// for infinite bulk flows).
func (f *Flow) Transfers() int { return f.transfers }

// Finished reports whether the flow has completed its final transfer and
// will never send again: a finite flow with no restart configured whose
// transfer is done. Infinite bulk flows and flows with a restart interval
// never finish.
func (f *Flow) Finished() bool {
	return !f.started && f.transferSize > 0 && f.restartAfter <= 0 && f.transfers > 0
}

// Stats snapshots the flow's statistics over the current measurement window.
func (f *Flow) Stats() FlowStats {
	now := f.net.loop.Now()
	return FlowStats{
		Name:               f.name,
		Algorithm:          f.alg.Name(),
		Throughput:         f.arrived.RateSince(now),
		Delivered:          units.Bytes(f.arrived.Windowed()),
		SentBytes:          units.Bytes(f.sent.Windowed()),
		Lost:               int(f.lost.Windowed()),
		MeanRTT:            f.rttStats.MeanDuration(),
		MinRTT:             f.minRTT,
		MeanQueueOccupancy: units.Bytes(f.queued.Average(now)),
		MinQueueOccupancy:  units.Bytes(f.queued.Min()),
		MaxQueueOccupancy:  units.Bytes(f.queued.Max()),
	}
}

// FlowStats is a snapshot of per-flow statistics over the current
// measurement window.
type FlowStats struct {
	Name      string
	Algorithm string
	// Throughput is the rate at which this flow's bytes crossed the
	// bottleneck during the measurement window.
	Throughput units.Rate
	// Delivered is the byte count behind Throughput.
	Delivered units.Bytes
	// SentBytes counts transmissions (including bytes later lost).
	SentBytes units.Bytes
	// Lost counts packets dropped at the bottleneck.
	Lost int
	// MeanRTT is the mean round-trip sample.
	MeanRTT time.Duration
	// MinRTT is the smallest round-trip sample ever observed.
	MinRTT time.Duration
	// MeanQueueOccupancy is the time-weighted average of this flow's bytes
	// waiting in the bottleneck buffer.
	MeanQueueOccupancy units.Bytes
	// MinQueueOccupancy and MaxQueueOccupancy bound the flow's waiting
	// bytes over the window.
	MinQueueOccupancy units.Bytes
	MaxQueueOccupancy units.Bytes
}
