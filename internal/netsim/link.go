package netsim

import (
	"time"

	"bbrnash/internal/eventsim"
	"bbrnash/internal/metrics"
	"bbrnash/internal/scenario"
	"bbrnash/internal/units"
)

// link is one directed bottleneck: a drop-tail FIFO of waiting packets plus
// a single transmitter serving them at the link rate. The buffer capacity
// bounds waiting bytes only; the packet being transmitted has left the
// queue, which mirrors how a router's output queue feeds its transmitter.
//
// A link is either a forward (data) link on some flows' paths or the
// reverse-direction twin of a forward link, carrying the ACK stream at
// units.AckBytes per acknowledgment. Both share the service machinery; the
// rev flag selects the serialization size, completion event kind and
// per-flow accounting differences.
type link struct {
	net      *Network
	capacity units.Rate // nominal rate
	rate     units.Rate // effective service rate (capacity, or reduced during a flap's low phase)
	buffer   units.Bytes

	waiting      []*packet // FIFO; head at index `head`
	head         int
	waitingBytes units.Bytes
	busy         bool

	// Service-time cache: TimeToSend costs a float division, and in steady
	// state every packet is MSS-sized at an unchanged rate, so the quotient
	// is recomputed only when size or rate differ from the last service.
	// Same inputs give the identical Duration, so caching cannot perturb
	// event times.
	stepSize units.Bytes
	stepRate units.Rate
	step     time.Duration

	// Topology identity and per-link fault state.
	name    string
	rev     bool  // reverse-direction ACK link
	twin    *link // forward link's reverse twin (nil without one)
	fast    bool  // eligible for the loop's single-slot ScheduleNext lane
	flapLow bool  // in a capacity flap's reduced-rate half period
	faults  scenario.Faults

	burstRemaining int

	occupancy metrics.TimeWeighted
	delay     metrics.Summary
	drops     metrics.Counter
	injected  metrics.Counter
	ackLost   metrics.Counter
	departed  metrics.Counter
}

func newLink(n *Network, name string, capacity units.Rate, buffer units.Bytes, faults scenario.Faults) *link {
	return &link{net: n, name: name, capacity: capacity, rate: capacity, buffer: buffer, faults: faults}
}

// queueDelay is the time a packet arriving now would wait before its own
// transmission begins, at the current effective rate.
func (l *link) queueDelay() time.Duration {
	return l.rate.TimeToSend(l.waitingBytes)
}

// injectDrop decides whether an arriving data packet is claimed by fault
// injection on this link: an open burst episode consumes it unconditionally
// (no RNG draw); otherwise the stochastic loss rate draws once. Called only
// from the single-threaded event loop, in arrival order, and all links
// share the network's one seeded RNG, so the draw sequence — and therefore
// the drop trace — is a pure function of spec and seed.
func (l *link) injectDrop() bool {
	if l.burstRemaining > 0 {
		l.burstRemaining--
		return true
	}
	r := l.faults.LossRate
	return r > 0 && l.net.rng.Float64() < r
}

// flap is one edge of the capacity flap's square wave: it toggles the
// effective rate between capacity and the flap's low rate and schedules the
// next edge half a period later.
func (l *link) flap() {
	l.flapLow = !l.flapLow
	if l.flapLow {
		l.rate = l.faults.MinCapacity(l.capacity)
	} else {
		l.rate = l.capacity
	}
	if h := l.net.rateHook; h != nil {
		h(RateEvent{Time: l.net.loop.Now(), Link: l.name, Rate: l.rate})
	}
	l.net.loop.AfterEvent(l.faults.FlapPeriod/2, evFlap, l)
}

// burst opens a burst-loss episode — the next BurstLen arrivals are
// dropped — and schedules the next one.
func (l *link) burst() {
	l.burstRemaining = l.faults.BurstLen
	l.net.loop.AfterEvent(l.faults.BurstEvery, evBurst, l)
}

// enqueue accepts or drops an arriving data packet.
func (l *link) enqueue(p *packet) {
	now := l.net.loop.Now()
	if l.injectDrop() {
		// Fault injection claims the packet before it reaches the queue;
		// the sender detects the loss through the same duplicate-ACK path
		// as an overflow drop.
		l.injected.Add(1)
		l.observeDrop(now, p, true)
		p.flow.packetDropped(p, l.queueDelay())
		return
	}
	mss := l.net.cfg.MSS
	if l.waitingBytes+mss > l.buffer {
		// Drop-tail.
		l.drops.Add(1)
		l.observeDrop(now, p, false)
		p.flow.packetDropped(p, l.queueDelay())
		return
	}
	p.enqueuedAt = now
	l.waiting = append(l.waiting, p)
	l.waitingBytes += mss
	l.occupancy.Set(now, float64(l.waitingBytes))
	p.flow.queued.Add(now, float64(mss))
	if !l.busy {
		l.startService()
	}
}

// enqueueAck accepts, delays or drops an acknowledgment arriving at a
// reverse link. ACKs are cumulative, so a lost ACK is not re-detected like
// a data loss: its information is recovered by the next acknowledgment one
// ACK serialization later (fault loss redraws, compounding like the legacy
// modeled return path) or, on overflow, after the queue it failed to enter
// has drained.
func (l *link) enqueueAck(p *packet) {
	now := l.net.loop.Now()
	if alr := l.faults.AckLossRate; alr > 0 && l.net.rng.Float64() < alr {
		l.ackLost.Add(1)
		l.net.loop.AfterEvent(l.rate.TimeToSend(units.AckBytes), evAckEnqueue, p)
		return
	}
	if l.waitingBytes+units.AckBytes > l.buffer {
		l.ackLost.Add(1)
		l.net.loop.AfterEvent(l.queueDelay()+l.rate.TimeToSend(units.AckBytes), evAckAdvance, p)
		return
	}
	p.enqueuedAt = now
	l.waiting = append(l.waiting, p)
	l.waitingBytes += units.AckBytes
	l.occupancy.Set(now, float64(l.waitingBytes))
	if !l.busy {
		l.startService()
	}
}

// startService begins transmitting the head-of-line packet.
func (l *link) startService() {
	now := l.net.loop.Now()
	p := l.waiting[l.head]
	l.waiting[l.head] = nil
	l.head++
	if l.head > 64 && l.head*2 >= len(l.waiting) {
		l.waiting = append(l.waiting[:0], l.waiting[l.head:]...)
		l.head = 0
	}
	size := l.net.cfg.MSS
	doneKind := evServiceDone
	if l.rev {
		size = units.AckBytes
		doneKind = evAckServiceDone
	}
	l.waitingBytes -= size
	l.occupancy.Set(now, float64(l.waitingBytes))
	if !l.rev {
		p.flow.queued.Add(now, -float64(size))
	}
	l.busy = true
	// The effective rate is sampled at service start: a packet in flight
	// when a flap toggles completes at the rate it started with, like a
	// transmission already on the wire.
	if size != l.stepSize || l.rate != l.stepRate {
		l.stepSize, l.stepRate = size, l.rate
		l.step = l.rate.TimeToSend(size)
	}
	if l.fast {
		// The primary link has exactly one service in flight, making its
		// completion the one event class eligible for the loop's
		// single-slot fast lane.
		l.net.loop.ScheduleNext(now.Add(l.step), doneKind, p)
	} else {
		l.net.loop.ScheduleEvent(now.Add(l.step), doneKind, p)
	}
}

// serviceDone fires when a data packet finishes transmission at this link.
// Mid-path it hops to the next link's queue; at the last hop it departs,
// crosses the remaining propagation path, and its ACK returns to the
// sender — across the reverse twins of the path's links when any exist,
// after one base RTT (plus jitter and modeled ACK-loss delays) otherwise.
func (l *link) serviceDone(p *packet) {
	now := l.net.loop.Now()
	mss := l.net.cfg.MSS
	l.busy = false
	l.departed.Add(float64(mss))
	l.delay.Observe(float64(now.Sub(p.enqueuedAt)))
	f := p.flow
	if int(p.hop)+1 < len(f.path) {
		p.hop++
		f.path[p.hop].enqueue(p)
	} else {
		f.packetDeparted()
		ackDelay := f.rtt
		if j := l.net.cfg.AckJitter; j > 0 {
			ackDelay += l.net.rng.Duration(j)
		}
		// Links without a reverse twin model their ACK loss on the ideal
		// return path: a lost ACK's cumulative information is recovered by
		// the next ACK one segment's serialization later; consecutive
		// losses compound. Draws happen here, in departure order, keeping
		// the RNG stream deterministic. Links with a twin apply their ACK
		// loss where it belongs — on the real reverse queue (enqueueAck).
		for _, pl := range f.path {
			if pl.twin != nil {
				continue
			}
			if alr := pl.faults.AckLossRate; alr > 0 {
				for l.net.rng.Float64() < alr {
					pl.ackLost.Add(1)
					ackDelay += pl.rate.TimeToSend(mss)
				}
			}
		}
		if len(f.ackPath) == 0 {
			l.net.loop.AfterEvent(ackDelay, evAck, p)
		} else {
			p.ackHop = 0
			l.net.loop.AfterEvent(ackDelay, evAckEnqueue, p)
		}
	}
	if l.head < len(l.waiting) {
		l.startService()
	} else if l.head > 0 {
		l.waiting = l.waiting[:0]
		l.head = 0
	}
}

// ackServiceDone fires when an acknowledgment finishes transmission at a
// reverse link: it advances to the next reverse hop, or reaches the sender.
func (l *link) ackServiceDone(p *packet) {
	now := l.net.loop.Now()
	l.busy = false
	l.departed.Add(float64(units.AckBytes))
	l.delay.Observe(float64(now.Sub(p.enqueuedAt)))
	p.flow.ackAdvance(p)
	if l.head < len(l.waiting) {
		l.startService()
	} else if l.head > 0 {
		l.waiting = l.waiting[:0]
		l.head = 0
	}
}

// observeDrop feeds the network's drop hook, when one is registered.
func (l *link) observeDrop(now eventsim.Time, p *packet, injected bool) {
	if h := l.net.dropHook; h != nil {
		h(DropEvent{Time: now, Link: l.name, Flow: p.flow.name, Seq: p.seq, Injected: injected})
	}
}

func (l *link) resetMeasurement(now eventsim.Time) {
	l.occupancy.Reset(now)
	l.delay.Reset()
	l.drops.Reset(now)
	l.injected.Reset(now)
	l.ackLost.Reset(now)
	l.departed.Reset(now)
}
