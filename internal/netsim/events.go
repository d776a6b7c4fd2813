package netsim

import "bbrnash/internal/eventsim"

// Event kinds. Every event the network schedules is a typed (kind, target)
// record, so scheduling writes a flat record into the loop's arena and
// allocates nothing. A simulated packet's lifecycle — service completion
// at each link, ACK return, loss detection — targets the packet itself;
// flow edges (start, transfer restart, pacer fire) target the Flow; fault
// edges target the link; sampler ticks target their sampler. Dispatch is
// the switches below and the samplers' tick handlers.
const (
	// evServiceDone fires when the packet finishes transmission at a
	// forward link (p.hop indexes the flow's path).
	evServiceDone eventsim.Kind = iota
	// evAck fires when the packet's acknowledgement reaches the sender.
	evAck
	// evLoss fires when the sender's loss detection notices the packet's
	// drop (one queue drain plus one base RTT after the drop).
	evLoss
	// evFlowStart fires at the flow's configured start instant.
	evFlowStart
	// evFlowRestart fires when a finite flow's restart interval elapses.
	evFlowRestart
	// evPacerFire fires when the flow's pacing timer elapses (see
	// Flow.pacer, armed from trySend when rate-limited).
	evPacerFire
	// evAckEnqueue fires when the packet's acknowledgment arrives at the
	// reverse link indexed by p.ackHop (after propagation, or after a
	// fault-loss recovery delay).
	evAckEnqueue
	// evAckServiceDone fires when the acknowledgment finishes transmission
	// at the reverse link indexed by p.ackHop.
	evAckServiceDone
	// evAckAdvance fires when an acknowledgment dropped at a full reverse
	// queue has its information recovered (the queue has drained) and
	// moves on to the next reverse hop.
	evAckAdvance
	// evSample fires a flow or link sampler's periodic tick.
	evSample
	// evFlap fires at each edge of a link's capacity flap, every half
	// period.
	evFlap
	// evBurst fires when a link's next burst-loss episode begins.
	evBurst
)

// OnEvent dispatches the packet-targeted event kinds. packet implements
// eventsim.Handler; storing the *packet in the event record's interface is
// a pointer store, not a heap allocation.
func (p *packet) OnEvent(k eventsim.Kind) {
	switch k {
	case evServiceDone:
		p.flow.path[p.hop].serviceDone(p)
	case evAck:
		p.flow.ackArrived(p)
	case evLoss:
		p.flow.lossDetected(p)
	case evAckEnqueue:
		p.flow.ackPath[p.ackHop].enqueueAck(p)
	case evAckServiceDone:
		p.flow.ackPath[p.ackHop].ackServiceDone(p)
	case evAckAdvance:
		p.flow.ackAdvance(p)
	}
}

// OnEvent dispatches the flow-targeted event kinds.
func (f *Flow) OnEvent(k eventsim.Kind) {
	switch k {
	case evFlowStart:
		f.start()
	case evFlowRestart:
		f.restart()
	case evPacerFire:
		f.trySend()
	}
}

// OnEvent dispatches the link-targeted fault edges.
func (l *link) OnEvent(k eventsim.Kind) {
	switch k {
	case evFlap:
		l.flap()
	case evBurst:
		l.burst()
	}
}
