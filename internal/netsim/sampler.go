package netsim

import (
	"time"

	"bbrnash/internal/eventsim"
	"bbrnash/internal/units"
)

// Sample is one periodic observation of a flow.
type Sample struct {
	// At is the simulation time of the observation.
	At eventsim.Time
	// Throughput is the delivery rate over the sampling interval.
	Throughput units.Rate
	// Inflight is the flow's outstanding bytes at sampling time.
	Inflight units.Bytes
	// QueueBytes is the flow's share of the bottleneck buffer.
	QueueBytes units.Bytes
}

// Sampler records a periodic time series for one flow: interval throughput,
// in-flight data and buffer share. Attach with NewSampler before running
// the simulation; the series is available from Samples afterwards.
//
// The experiment harness reports run-wide averages; samplers exist for
// inspecting dynamics (e.g. BBR's ProbeRTT dips or CUBIC's sawtooth) in
// traces, tests, examples and debugging sessions.
type Sampler struct {
	flow     *Flow
	interval time.Duration
	lastSeen float64
	detached bool
	samples  []Sample
}

// NewSampler attaches a sampler to f with the given interval. The first
// sample is taken one interval after the current simulation time. The tick
// stops once the flow has finished its final transfer (after one closing
// sample of the drained state) or after Detach, so a sampler cannot grow
// without bound past its flow's lifetime.
func NewSampler(f *Flow, interval time.Duration) *Sampler {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	s := &Sampler{flow: f, interval: interval, lastSeen: f.arrived.Total()}
	f.net.loop.AfterEvent(interval, evSample, (*flowTick)(s))
	return s
}

// flowTick is a Sampler as its tick's event target. A distinct type keeps
// the OnEvent method off Sampler's exported method set.
type flowTick Sampler

func (t *flowTick) OnEvent(eventsim.Kind) {
	s := (*Sampler)(t)
	if s.detached {
		return
	}
	s.take()
	if s.flow.Finished() {
		return
	}
	s.flow.net.loop.AfterEvent(s.interval, evSample, t)
}

// Detach stops the sampler: the next pending tick becomes a no-op and
// nothing further is recorded. The collected series stays available.
func (s *Sampler) Detach() { s.detached = true }

func (s *Sampler) take() {
	now := s.flow.net.loop.Now()
	total := s.flow.arrived.Total()
	delta := units.Bytes(total - s.lastSeen)
	s.lastSeen = total
	s.samples = append(s.samples, Sample{
		At:         now,
		Throughput: units.RateOver(delta, s.interval),
		Inflight:   s.flow.inflight,
		QueueBytes: units.Bytes(s.flow.queued.Value()),
	})
}

// Samples returns the recorded series.
func (s *Sampler) Samples() []Sample { return s.samples }

// MinThroughput returns the smallest interval throughput recorded after
// skipping the first skip samples (useful for ignoring slow start).
// Trailing zero-throughput samples are excluded: they record a flow that
// has stopped sending (finished, or idle between transfers at the end of
// the run), not a congestion-control dip, and counting them would make any
// finished flow appear to hit zero like a bogus ProbeRTT.
func (s *Sampler) MinThroughput(skip int) units.Rate {
	samples := s.samples
	for len(samples) > 0 && samples[len(samples)-1].Throughput == 0 {
		samples = samples[:len(samples)-1]
	}
	min := units.Rate(-1)
	for i, smp := range samples {
		if i < skip {
			continue
		}
		if min < 0 || smp.Throughput < min {
			min = smp.Throughput
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// MaxInflight returns the largest in-flight observation.
func (s *Sampler) MaxInflight() units.Bytes {
	var max units.Bytes
	for _, smp := range s.samples {
		if smp.Inflight > max {
			max = smp.Inflight
		}
	}
	return max
}

// LinkSample is one periodic observation of the bottleneck.
type LinkSample struct {
	// At is the simulation time of the observation.
	At eventsim.Time
	// QueueBytes is the occupancy of the drop-tail buffer.
	QueueBytes units.Bytes
	// Throughput is the aggregate departure rate over the sampling
	// interval.
	Throughput units.Rate
	// Rate is the effective service rate at sampling time (capacity, or
	// reduced during a flap's low phase).
	Rate units.Rate
}

// LinkSampler records a periodic time series for one link: buffer
// occupancy, aggregate departure throughput and the effective service rate.
// Attach with NewLinkSampler (the first link) or Network.LinkSamplers
// (every link) before running the simulation.
type LinkSampler struct {
	net      *Network
	link     *link
	interval time.Duration
	lastSeen float64
	detached bool
	samples  []LinkSample
}

// NewLinkSampler attaches a link sampler for the first configured link (the
// bottleneck of every legacy configuration) with the given interval. The
// first sample is taken one interval after the current simulation time; the
// tick runs until Detach.
func NewLinkSampler(n *Network, interval time.Duration) *LinkSampler {
	return newLinkSampler(n, n.links[0], interval)
}

// LinkSamplers attaches one sampler per link — the forward links in
// configuration order, then the reverse twins in the same order — matching
// the ordering of PerLink.
func (n *Network) LinkSamplers(interval time.Duration) []*LinkSampler {
	out := make([]*LinkSampler, 0, len(n.links)+len(n.revs))
	for _, l := range n.links {
		out = append(out, newLinkSampler(n, l, interval))
	}
	for _, r := range n.revs {
		out = append(out, newLinkSampler(n, r, interval))
	}
	return out
}

func newLinkSampler(n *Network, l *link, interval time.Duration) *LinkSampler {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	s := &LinkSampler{net: n, link: l, interval: interval, lastSeen: l.departed.Total()}
	n.loop.AfterEvent(interval, evSample, (*linkTick)(s))
	return s
}

// linkTick is a LinkSampler as its tick's event target, keeping OnEvent
// off LinkSampler's exported method set.
type linkTick LinkSampler

func (t *linkTick) OnEvent(eventsim.Kind) {
	s := (*LinkSampler)(t)
	if s.detached {
		return
	}
	s.take()
	s.net.loop.AfterEvent(s.interval, evSample, t)
}

// LinkName names the sampled link.
func (s *LinkSampler) LinkName() string { return s.link.name }

// Detach stops the link sampler; the collected series stays available.
func (s *LinkSampler) Detach() { s.detached = true }

func (s *LinkSampler) take() {
	l := s.link
	total := l.departed.Total()
	delta := units.Bytes(total - s.lastSeen)
	s.lastSeen = total
	s.samples = append(s.samples, LinkSample{
		At:         s.net.loop.Now(),
		QueueBytes: l.waitingBytes,
		Throughput: units.RateOver(delta, s.interval),
		Rate:       l.rate,
	})
}

// Samples returns the recorded series.
func (s *LinkSampler) Samples() []LinkSample { return s.samples }
