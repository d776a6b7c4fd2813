package exp

import (
	"strings"

	"bbrnash/internal/check"
	"bbrnash/internal/scenario"
	"bbrnash/internal/units"
)

// This file is the harness's boundary with internal/check: it derives each
// scenario's physical bounds from its spec and audits every SpecResult as
// it is produced (fresh or replayed from the cache — a store written by an
// older, buggier build should not escape the audit). Violations are
// recorded under the spec's canonical key, never fatal: a strict run
// completes its sweep and reports all of them at once.
//
// Topology-aware scenarios are audited per layer: each group's flows
// against its own path's bounds (queue occupancy against the sum of the
// path's buffers, mean RTT against the sum of per-link drain delays), each
// link's share sum against the flows that traverse it, and each link's own
// statistics — reverse ACK twins included — against its capacity and
// buffer. A legacy single-bottleneck spec reduces exactly to the old
// single-link bounds.

// linkLimits derives the audit bounds of one link.
//
// Fault injection reshapes the bounds. A capacity flap lowers the drain
// floor to Capacity*(1-depth) — the delay bound must use it — and caps what
// the link can deliver at its time-averaged rate; that mean gets one
// segment of slack per flap phase boundary, because a packet in service
// when the link flaps down completes at the rate it started with.
func linkLimits(sp scenario.Spec, l scenario.Link) check.Limits {
	lim := check.Limits{
		Capacity: l.Capacity,
		Buffer:   l.Buffer,
	}
	f := l.Faults
	if f.FlapDepth > 0 && f.FlapPeriod > 0 && sp.Duration > 0 {
		lim.MinCapacity = f.MinCapacity(l.Capacity)
		mean := f.MeanCapacityOver(l.Capacity, sp.Duration)
		boundaries := units.Bytes(sp.Duration/(f.FlapPeriod/2)) + 1
		mean += units.RateOver(boundaries*sp.MSS, sp.Duration)
		if mean > l.Capacity {
			mean = l.Capacity
		}
		lim.MeanCapacity = mean
	}
	return lim
}

// groupLimits derives the audit bounds of one group's flows from the links
// its path traverses. The conservation slack is one pipe-full: the path's
// buffers plus the bandwidth-delay product of its narrowest link at the
// longest RTT (jitter included), the most a flow can have in flight when a
// measurement window opens; burst episodes on any path link widen it by
// one burst's worth of segments. The RTT bound sums the drain delay of
// every queue on the path — forward links at their slowest flapped rate,
// reverse ACK queues at theirs — and is disabled under ACK-loss faults,
// whose modeled retransmission delays compound without bound.
func groupLimits(sp scenario.Spec, gi int) check.Limits {
	lim := check.Limits{
		Buffer: sp.PathBufferSum(gi),
	}
	lim.Pipe = lim.Buffer + units.BDP(sp.PathMinCapacity(gi), sp.MaxRTT()+sp.StartJitter+sp.AckJitter)
	rttBound := sp.Groups[gi].RTT + sp.AckJitter + sp.PathQueueDelayBound(gi)
	for _, l := range sp.PathLinks(gi) {
		if l.Faults.BurstLen > 0 {
			lim.Pipe += units.Bytes(l.Faults.BurstLen) * sp.MSS
		}
		if l.Faults.AckLossRate > 0 {
			rttBound = 0
		}
	}
	if rttBound > 0 {
		lim.RTTBound = rttBound
	}
	return lim
}

// revLimits derives the audit bounds of a reverse ACK twin: its own
// capacity and buffer, no faults (an ACK-loss fault drops before the
// queue, and reverse links do not flap). The drain-delay bound inside
// check is stated in MSS terms and so is merely generous for a queue
// serving AckBytes-sized packets.
func revLimits(l scenario.Link) check.Limits {
	return check.Limits{Capacity: l.RevCapacity, Buffer: l.RevBuffer}
}

// limitsForLink resolves audit bounds for a named per-link statistics
// entry, handling the "~rev" suffix reverse twins carry. Unknown names
// (a cached result whose spec has since drifted) are skipped rather than
// mis-audited.
func limitsForLink(sp scenario.Spec, name string) (check.Limits, bool) {
	if base, isRev := strings.CutSuffix(name, "~rev"); isRev {
		l, ok := sp.LinkByName(base)
		if !ok || !l.HasReverse() {
			return check.Limits{}, false
		}
		return revLimits(l), true
	}
	l, ok := sp.LinkByName(name)
	if !ok {
		return check.Limits{}, false
	}
	return linkLimits(sp, l), true
}

// auditSpec validates one SpecResult against its scenario's invariants:
// per-flow non-negativity, byte conservation and the path delay bound;
// per-link share sums over the flows that traverse each link; and every
// link's own statistics. Run calls it on every result it returns, fresh or
// replayed, and stores the result only when it reports clean: no
// violation recorded, as always with a nil auditor.
func auditSpec(a *check.Auditor, key string, sp scenario.Spec, res SpecResult) (clean bool) {
	if !a.Enabled() {
		return true
	}
	sp = sp.WithDefaults()
	var vs []check.Violation
	for gi := range sp.Groups {
		vs = append(vs, check.Flows(key, groupLimits(sp, gi), res.group(gi), nil)...)
	}
	for _, l := range sp.Topology() {
		vs = append(vs, check.ShareSum(key, shareLimits(sp, l), linkAggregate(sp, l.Name, res))...)
	}
	if len(res.Links) == 0 {
		// Older cached results carry only the first link's statistics.
		link := res.Link
		vs = append(vs, check.Link(key, linkLimits(sp, sp.Topology()[0]), &link)...)
	}
	for i := range res.Links {
		link := res.Links[i]
		if lim, ok := limitsForLink(sp, link.Name); ok {
			vs = append(vs, check.Link(key, lim, &link)...)
		}
	}
	a.Record(vs...)
	return len(vs) == 0
}

// linkAggregate sums the measured throughput of every flow whose path
// traverses the named link.
func linkAggregate(sp scenario.Spec, name string, res SpecResult) units.Rate {
	var agg units.Rate
	for gi := range sp.Groups {
		if pathContains(sp.PathOf(gi), name) {
			agg += aggRate(res.group(gi))
		}
	}
	return agg
}

// shareLimits derives the share-sum bound for one link. Flow throughput is
// measured where a flow's bytes leave its *last* link, so against an
// upstream link the sum carries a transient: bytes already sitting in
// downstream queues when a flow's measurement window opens cross the final
// link during the window without crossing this one. The mean is widened by
// the largest such backlog spread over the shortest window of any counted
// flow; on a legacy single-bottleneck spec the slack is exactly zero and
// the bound reduces to the old capacity check.
func shareLimits(sp scenario.Spec, l scenario.Link) check.Limits {
	lim := linkLimits(sp, l)
	var down units.Bytes
	window := sp.Duration
	for gi, g := range sp.Groups {
		path := sp.PathOf(gi)
		idx := -1
		for i, name := range path {
			if name == l.Name {
				idx = i
			}
		}
		if idx < 0 {
			continue
		}
		var d units.Bytes
		for _, dn := range path[idx+1:] {
			if dl, ok := sp.LinkByName(dn); ok {
				d += dl.Buffer
			}
		}
		if d > down {
			down = d
		}
		if w := sp.Duration - g.Start - sp.StartJitter; w < window {
			window = w
		}
	}
	if down > 0 {
		if window <= 0 {
			// A flow may spend its whole life draining a prior backlog;
			// nothing meaningful to bound.
			lim.Capacity = 0
			return lim
		}
		mean := lim.MeanCapacity
		if mean == 0 {
			mean = lim.Capacity
		}
		lim.MeanCapacity = mean + units.RateOver(down, window)
	}
	return lim
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
