// Package netsim is a deterministic, packet-level, discrete-event simulator
// of the paper's experimental topology and its multi-bottleneck
// generalizations: bulk TCP senders crossing one or more drop-tail FIFO
// links, with per-flow round-trip propagation delays.
//
// It substitutes for the paper's Linux testbed. The abstractions match what
// the paper's model depends on:
//
//   - drop-tail queues of configurable byte capacity, each served at its
//     link rate (the paper's single shared bottleneck is the one-link
//     special case),
//   - per-packet ACK clocking with one-RTT feedback delay; when a link has
//     a reverse-direction twin the ACK stream crosses a real return queue,
//   - loss only by queue overflow, detected by the sender about one RTT
//     after the drop (as duplicate ACKs would reveal it),
//   - per-packet delivery-rate samples computed with the estimator BBR
//     specifies, so rate-based algorithms behave faithfully.
//
// Senders have infinite backlog: a "retransmission" is indistinguishable
// from new data, so goodput equals delivered bytes. Simulations are
// single-threaded and fully deterministic given the configuration and seed.
package netsim

import (
	"errors"
	"fmt"
	"time"

	"bbrnash/internal/cc"
	"bbrnash/internal/eventsim"
	"bbrnash/internal/rng"
	"bbrnash/internal/scenario"
	"bbrnash/internal/units"
)

// LinkConfig describes one named directed link of a multi-link topology
// (see scenario.Link for the spec-level form and field semantics).
type LinkConfig struct {
	// Name identifies the link in flow paths, statistics and traces.
	Name string
	// Capacity is the link rate; Buffer the drop-tail queue capacity.
	Capacity units.Rate
	Buffer   units.Bytes
	// Faults injects deterministic adverse conditions on this link.
	Faults scenario.Faults
	// RevCapacity/RevBuffer, when set, give the link a reverse-direction
	// twin that the ACK stream traverses at units.AckBytes per ACK.
	RevCapacity units.Rate
	RevBuffer   units.Bytes
}

// Config describes the network: either the legacy single shared bottleneck
// (Capacity/Buffer/Faults) or an explicit multi-link topology (Links). The
// two forms are mutually exclusive; the scalar form is exactly a one-link
// topology named scenario.DefaultLinkName.
type Config struct {
	// Capacity is the bottleneck link rate (legacy single-link form).
	Capacity units.Rate
	// Buffer is the drop-tail queue capacity in bytes (waiting room).
	Buffer units.Bytes
	// MSS is the segment size used by all flows; defaults to units.MSS.
	MSS units.Bytes
	// AckJitter adds a uniform random delay in [0, AckJitter) to every
	// ACK's return path. Deterministic drop-tail simulations exhibit
	// phase effects (Floyd & Jacobson's "traffic phase effects"): one
	// flow's ack-clocked arrivals can lock onto the queue's free slots
	// and systematically win or lose at overflow instants. A jitter of a
	// fraction of the RTT models real paths' delay variation and breaks
	// the lockout. Zero (the default) keeps the simulator fully
	// deterministic given flow start times.
	AckJitter time.Duration
	// Seed drives AckJitter randomness; runs are reproducible for a
	// given seed.
	Seed uint64
	// Faults injects deterministic adverse-link conditions — stochastic
	// data-packet loss, ACK-path loss, capacity flaps, burst-loss
	// episodes — driven off the same seeded RNG stream as AckJitter, so a
	// faulted run is exactly as reproducible as a clean one. The zero
	// value is a clean link and draws nothing from the RNG. With Links
	// set, faults are per-link instead.
	Faults scenario.Faults
	// Links, when set, replaces the scalar bottleneck with an explicit
	// topology. Flow paths (FlowConfig.Path) then name these links.
	Links []LinkConfig
}

func (c Config) withDefaults() Config {
	if c.MSS <= 0 {
		c.MSS = units.MSS
	}
	return c
}

// linkConfigs returns the canonical link list: Links when set, otherwise
// the scalar bottleneck as a one-link topology.
func (c Config) linkConfigs() []LinkConfig {
	if len(c.Links) > 0 {
		return c.Links
	}
	return []LinkConfig{{Name: scenario.DefaultLinkName, Capacity: c.Capacity, Buffer: c.Buffer, Faults: c.Faults}}
}

func (c Config) validate() error {
	c = c.withDefaults()
	if len(c.Links) > 0 && (c.Capacity != 0 || c.Buffer != 0 || c.Faults != (scenario.Faults{})) {
		return errors.New("netsim: Links and scalar Capacity/Buffer/Faults are mutually exclusive")
	}
	seen := make(map[string]bool, len(c.linkConfigs()))
	for _, lc := range c.linkConfigs() {
		if lc.Name == "" {
			return errors.New("netsim: link needs a Name")
		}
		if seen[lc.Name] {
			return fmt.Errorf("netsim: duplicate link name %q", lc.Name)
		}
		seen[lc.Name] = true
		if lc.Capacity <= 0 {
			return fmt.Errorf("netsim: link %q: Capacity must be positive", lc.Name)
		}
		if lc.Buffer < c.MSS {
			return fmt.Errorf("netsim: link %q: Buffer (%v) must hold at least one segment (%v)", lc.Name, lc.Buffer, c.MSS)
		}
		if err := lc.Faults.Validate(); err != nil {
			return fmt.Errorf("netsim: link %q: %w", lc.Name, err)
		}
		if lc.RevCapacity < 0 {
			return fmt.Errorf("netsim: link %q: RevCapacity must be non-negative", lc.Name)
		}
		if lc.RevCapacity > 0 && lc.RevBuffer < units.AckBytes {
			return fmt.Errorf("netsim: link %q: RevBuffer (%v) must hold at least one ACK (%v)", lc.Name, lc.RevBuffer, units.AckBytes)
		}
	}
	return nil
}

// FlowConfig describes one sender.
type FlowConfig struct {
	// Name labels the flow in statistics.
	Name string
	// RTT is the flow's base round-trip propagation delay (no queueing).
	RTT time.Duration
	// Start is when the flow begins sending.
	Start time.Duration
	// Algorithm constructs the congestion-control instance for this flow.
	Algorithm cc.Constructor
	// Path is the ordered list of link names the flow's data traverses.
	// Empty means the first configured link — the legacy single-bottleneck
	// path. ACKs return across the reverse twins of the path's links (in
	// reverse order) when any are configured.
	Path []string
	// TransferBytes, when positive, makes the flow finite: it stops after
	// sending this much data. The default (zero) is an infinite bulk flow,
	// the paper's workload.
	TransferBytes units.Bytes
	// RestartAfter, with TransferBytes set, restarts the transfer this
	// long after it completes — an on/off source modeling the chunky
	// short-flow traffic the paper's §5 discussion raises. Zero means the
	// flow stays stopped after one transfer.
	RestartAfter time.Duration
}

// Network is one simulation instance. Create with New, add flows, then Run.
// A Network is not safe for concurrent use; run independent simulations in
// separate Networks.
type Network struct {
	cfg    Config
	loop   eventsim.Loop
	links  []*link // forward links, in configuration order
	revs   []*link // reverse twins, in forward-link order
	byName map[string]*link
	flows  []*Flow
	free   []*packet
	rng    *rng.Source

	// Observation hooks (see OnDrop, OnStateChange, OnRateChange). All are
	// nil by default; a nil hook costs one pointer compare on its path.
	dropHook  func(DropEvent)
	stateHook func(StateEvent)
	rateHook  func(RateEvent)
}

// New creates a network with the given configuration.
func New(cfg Config) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	n := &Network{cfg: cfg, rng: rng.New(cfg.Seed)}
	lcs := cfg.linkConfigs()
	n.byName = make(map[string]*link, len(lcs))
	for i, lc := range lcs {
		l := newLink(n, lc.Name, lc.Capacity, lc.Buffer, lc.Faults)
		// The first link's service completions ride the loop's single-slot
		// fast lane (it is the only link of every legacy scenario); the
		// rest use the regular queue.
		l.fast = i == 0
		n.links = append(n.links, l)
		n.byName[lc.Name] = l
		if lc.RevCapacity > 0 {
			r := newLink(n, lc.Name+"~rev", lc.RevCapacity, lc.RevBuffer,
				scenario.Faults{AckLossRate: lc.Faults.AckLossRate})
			r.rev = true
			l.twin = r
			n.revs = append(n.revs, r)
		}
	}
	n.scheduleFaults()
	return n, nil
}

// scheduleFaults arms the time-driven fault machinery per forward link: the
// capacity flap's square wave and the burst-loss episode clock. Both are
// self-rescheduling event chains driven purely by simulated time, so they
// consume no RNG draws and a fault-free configuration changes nothing at
// all.
func (n *Network) scheduleFaults() {
	for _, l := range n.links {
		f := l.faults
		if f.FlapDepth > 0 && f.FlapPeriod > 0 {
			n.loop.AfterEvent(f.FlapPeriod/2, evFlap, l)
		}
		if f.BurstLen > 0 && f.BurstEvery > 0 {
			n.loop.AfterEvent(f.BurstEvery, evBurst, l)
		}
	}
}

// DropEvent describes one packet dropped at a link, for drop-trace
// observation in tests and tools.
type DropEvent struct {
	// Time is the simulated drop instant.
	Time eventsim.Time
	// Link names the link that dropped the packet.
	Link string
	// Flow is the owning flow's name; Seq its sequence number.
	Flow string
	Seq  uint64
	// Injected distinguishes fault-injected drops (stochastic or burst)
	// from drop-tail buffer overflow.
	Injected bool
}

// OnDrop registers fn to observe every drop, in drop order. Set it before
// Run; a nil fn disables observation.
func (n *Network) OnDrop(fn func(DropEvent)) { n.dropHook = fn }

// StateEvent describes one congestion-control state transition of a flow
// whose algorithm implements cc.StateReporter (e.g. BBR entering ProbeRTT).
type StateEvent struct {
	// Time is the simulated instant the transition was observed — the ACK
	// or loss event that caused it.
	Time eventsim.Time
	// Flow is the owning flow's name.
	Flow string
	// State is the name of the state entered.
	State string
}

// OnStateChange registers fn to observe congestion-control state
// transitions, in event order. Only flows whose algorithm implements
// cc.StateReporter produce events; the first event for a flow reports the
// state observed at its first ACK or loss. Set it before Run; a nil fn
// disables observation at zero cost on the ACK path.
func (n *Network) OnStateChange(fn func(StateEvent)) { n.stateHook = fn }

// RateEvent describes one change of a link's effective service rate (a
// capacity flap edge).
type RateEvent struct {
	// Time is the simulated instant of the rate change.
	Time eventsim.Time
	// Link names the flapping link.
	Link string
	// Rate is the new effective service rate.
	Rate units.Rate
}

// OnRateChange registers fn to observe effective-rate changes, in event
// order. Set it before Run; a nil fn disables observation.
func (n *Network) OnRateChange(fn func(RateEvent)) { n.rateHook = fn }

// AddFlow attaches a sender. All flows must be added before Run is first
// called.
func (n *Network) AddFlow(fc FlowConfig) (*Flow, error) {
	if fc.RTT <= 0 {
		return nil, errors.New("netsim: flow RTT must be positive")
	}
	if fc.Algorithm == nil {
		return nil, errors.New("netsim: flow needs an Algorithm constructor")
	}
	if fc.Start < 0 {
		return nil, errors.New("netsim: flow Start must be non-negative")
	}
	if fc.Name == "" {
		fc.Name = fmt.Sprintf("flow%d", len(n.flows))
	}
	path := n.links[:1]
	if len(fc.Path) > 0 {
		path = make([]*link, len(fc.Path))
		seen := make(map[*link]bool, len(fc.Path))
		for i, name := range fc.Path {
			l, ok := n.byName[name]
			if !ok {
				return nil, fmt.Errorf("netsim: flow path names unknown link %q", name)
			}
			if seen[l] {
				return nil, fmt.Errorf("netsim: flow path repeats link %q", name)
			}
			seen[l] = true
			path[i] = l
		}
	}
	alg := fc.Algorithm(cc.Params{MSS: n.cfg.MSS}.WithDefaults())
	f := &Flow{
		net:          n,
		id:           len(n.flows),
		name:         fc.Name,
		rtt:          fc.RTT,
		alg:          alg,
		path:         path,
		transferSize: fc.TransferBytes,
		restartAfter: fc.RestartAfter,
	}
	// ACKs cross the reverse twins of the path's links in reverse order;
	// links without a twin contribute only the propagation delay already
	// inside rtt.
	for i := len(path) - 1; i >= 0; i-- {
		if t := path[i].twin; t != nil {
			f.ackPath = append(f.ackPath, t)
		}
	}
	// The type assertion happens once here, not per event. The pacer is a
	// timer embedded in the flow that fires evPacerFire on it, so arming
	// it never allocates.
	f.reporter, _ = alg.(cc.StateReporter)
	f.pacer.Init(&n.loop, evPacerFire, f)
	n.flows = append(n.flows, f)
	n.loop.ScheduleEvent(eventsim.At(fc.Start), evFlowStart, f)
	return f, nil
}

// Presize reserves event-queue and packet-pool capacity for the attached
// flows so steady state is reached without growth reallocations: one
// potential in-flight packet per BDP-plus-buffer segment of every forward
// link (each holding at most one pending event), one slot per ACK a
// reverse twin can hold, plus per-flow timers and fault chains. Called by
// Build once the flow set is known; harmless to skip or call again — it
// only ever grows capacity and never changes behavior.
func (n *Network) Presize() {
	maxRTT := time.Duration(0)
	for _, f := range n.flows {
		if f.rtt > maxRTT {
			maxRTT = f.rtt
		}
	}
	total := 0
	for _, l := range n.links {
		inflight := int((units.BDP(l.capacity, maxRTT)+l.buffer)/n.cfg.MSS) + 1
		total += inflight
		if cap(l.waiting) < inflight {
			waiting := make([]*packet, len(l.waiting), 2*inflight)
			copy(waiting, l.waiting)
			l.waiting = waiting
		}
	}
	for _, r := range n.revs {
		acks := int(r.buffer/units.AckBytes) + 1
		total += acks
		if cap(r.waiting) < acks {
			waiting := make([]*packet, len(r.waiting), 2*acks)
			copy(waiting, r.waiting)
			r.waiting = waiting
		}
	}
	// One pending event per potential in-flight segment, plus per-flow
	// slack for pacer, start and restart events. On the deep-buffer NE
	// shape (50 flows, 5 to 45 of them BBR, 50 Mbps, 40 ms, 50 BDP, two
	// minutes, two seeds) at most 7,731 to 8,775 records are ever live of
	// the 8,949 this reserves, and the far heap peaks at 8,601 entries.
	// Shallow buffers' start-up drop trains can outgrow the bound; the
	// arena then grows by append.
	events := total + 4*len(n.flows) + 16
	n.loop.Reserve(events)
	if cap(n.free) < total {
		free := make([]*packet, len(n.free), 2*total)
		copy(free, n.free)
		n.free = free
		arena := make([]packet, total)
		for i := range arena {
			n.freePacket(&arena[i])
		}
	}
}

// Run advances the simulation by d of simulated time.
func (n *Network) Run(d time.Duration) { n.loop.RunFor(d) }

// Now returns the current simulation time.
func (n *Network) Now() eventsim.Time { return n.loop.Now() }

// Events reports how many events have been processed (for benchmarks).
func (n *Network) Events() uint64 { return n.loop.Processed() }

// StartMeasurement resets all measurement windows (flow throughput, queue
// statistics) at the current instant. Call it after a warm-up period; the
// paper's experiments measure from flow start, which corresponds to calling
// it at time zero (or never).
func (n *Network) StartMeasurement() {
	now := n.loop.Now()
	for _, f := range n.flows {
		f.resetMeasurement(now)
	}
	for _, l := range n.links {
		l.resetMeasurement(now)
	}
	for _, r := range n.revs {
		r.resetMeasurement(now)
	}
}

// Flows returns the attached flows in creation order.
func (n *Network) Flows() []*Flow { return n.flows }

// Capacity returns the first (for legacy configurations, the only) link's
// nominal rate.
func (n *Network) Capacity() units.Rate { return n.links[0].capacity }

// Buffer returns the first link's queue capacity in bytes.
func (n *Network) Buffer() units.Bytes { return n.links[0].buffer }

// MSS returns the segment size in use.
func (n *Network) MSS() units.Bytes { return n.cfg.MSS }

// QueueBytes returns the bytes currently waiting in the first link's
// buffer (the bottleneck of every legacy configuration).
func (n *Network) QueueBytes() units.Bytes { return n.links[0].waitingBytes }

// EffectiveRate returns the first link's current service rate: its
// capacity, or less during a capacity flap's low phase.
func (n *Network) EffectiveRate() units.Rate { return n.links[0].rate }

// linkStats snapshots one link's statistics over the current measurement
// window.
func (n *Network) linkStats(l *link) LinkStats {
	now := n.loop.Now()
	util := 0.0
	if r := l.departed.RateSince(now); l.capacity > 0 {
		util = float64(r / l.capacity)
	}
	return LinkStats{
		Name:               l.name,
		Utilization:        util,
		MeanQueueOccupancy: units.Bytes(l.occupancy.Average(now)),
		MaxQueueOccupancy:  units.Bytes(l.occupancy.Max()),
		MeanQueueDelay:     l.delay.MeanDuration(),
		MaxQueueDelay:      time.Duration(l.delay.Max()),
		Drops:              int(l.drops.Windowed()),
		InjectedDrops:      int(l.injected.Windowed()),
		AckLosses:          int(l.ackLost.Windowed()),
	}
}

// Link returns statistics for the first link (the bottleneck of every
// legacy configuration). Multi-link topologies use PerLink.
func (n *Network) Link() LinkStats { return n.linkStats(n.links[0]) }

// PerLink returns statistics for every link: the forward links in
// configuration order, then the reverse twins in the same order.
func (n *Network) PerLink() []LinkStats {
	out := make([]LinkStats, 0, len(n.links)+len(n.revs))
	for _, l := range n.links {
		out = append(out, n.linkStats(l))
	}
	for _, r := range n.revs {
		out = append(out, n.linkStats(r))
	}
	return out
}

// LinkStats is a snapshot of link-level statistics over the current
// measurement window.
type LinkStats struct {
	// Name identifies the link; reverse twins carry the forward link's
	// name with a "~rev" suffix.
	Name string
	// Utilization is delivered rate divided by capacity (0..1).
	Utilization float64
	// MeanQueueOccupancy is the time-weighted average of waiting bytes.
	MeanQueueOccupancy units.Bytes
	// MaxQueueOccupancy is the peak of waiting bytes.
	MaxQueueOccupancy units.Bytes
	// MeanQueueDelay is the mean per-packet queueing delay (wait plus
	// transmission time).
	MeanQueueDelay time.Duration
	// MaxQueueDelay is the largest per-packet queueing delay.
	MaxQueueDelay time.Duration
	// Drops counts packets lost to buffer overflow.
	Drops int
	// InjectedDrops counts packets dropped by fault injection (stochastic
	// loss and burst episodes), disjoint from Drops.
	InjectedDrops int
	// AckLosses counts ACKs lost on the return path by fault injection —
	// or, on a reverse twin, lost to its queue as well.
	AckLosses int
}

// packet is an in-flight segment. Packets are pooled per network. Every
// data packet is the network's MSS (Flow.sendPacket is the only sender)
// and ACK serialization is units.AckBytes, so a packet carries no size and
// fits in 64 bytes.
type packet struct {
	flow *Flow
	seq  uint64

	// hop indexes the flow's forward path while the packet is in transit;
	// ackHop indexes the flow's reverse (ACK) path afterwards.
	hop    int32
	ackHop int32

	sentAt     eventsim.Time
	enqueuedAt eventsim.Time

	// Delivery-rate estimator state captured at send time (per the BBR
	// delivery-rate-estimation algorithm).
	delivered     units.Bytes
	deliveredTime eventsim.Time
	firstSent     eventsim.Time
}

// packetSlab is how many packets newPacket allocates at once when the free
// list runs dry. A deep buffer's drop train keeps thousands of packets
// beyond Presize's arena alive (dropped packets wait one queue drain plus
// an RTT for loss detection); slabs make them a few dozen allocations
// instead of one each.
const packetSlab = 256

func (n *Network) newPacket() *packet {
	if len(n.free) == 0 {
		slab := make([]packet, packetSlab)
		for i := 1; i < len(slab); i++ {
			n.free = append(n.free, &slab[i])
		}
		return &slab[0]
	}
	p := n.free[len(n.free)-1]
	n.free = n.free[:len(n.free)-1]
	*p = packet{}
	return p
}

func (n *Network) freePacket(p *packet) {
	p.flow = nil
	n.free = append(n.free, p)
}
