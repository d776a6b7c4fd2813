package scenario

import (
	"fmt"
	"math"
	"time"

	"bbrnash/internal/units"
)

// DefaultLinkName names the implicit bottleneck of a legacy single-link
// spec. A spec written with the scalar Capacity/Buffer/Faults fields and a
// spec written with one explicit link of this name and the same parameters
// are the same scenario: Topology and PathOf canonicalize both to the same
// form, so they share one canonical key and one cache entry.
const DefaultLinkName = "bottleneck"

// Link is one named directed bottleneck in a topology: a FIFO drop-tail
// queue of Buffer bytes drained at Capacity, with optional per-link faults
// and an optional reverse-direction twin that carries the ACK stream of
// every path traversing this link.
type Link struct {
	// Name identifies the link in group paths, fault targets, audit
	// violations and trace records. Names are restricted to letters,
	// digits, '.', '_' and '-' so they embed safely in canonical keys.
	Name     string
	Capacity units.Rate
	Buffer   units.Bytes
	// Faults injects deterministic adverse conditions on this link (loss,
	// capacity flaps, bursts). AckLossRate applies to the ACK stream
	// returning across this link — on the reverse twin when one is
	// configured, on the modeled zero-delay return path otherwise.
	Faults Faults
	// RevCapacity, when positive, gives the link a reverse-direction twin:
	// a real queue of RevBuffer bytes drained at RevCapacity that ACKs
	// traverse (at units.AckBytes each) on their way back, so reverse-path
	// congestion delays and drops acknowledgments. Zero means the reverse
	// direction is ideal (ACKs return after the path's propagation delay).
	RevCapacity units.Rate
	// RevBuffer is the reverse twin's queue size; it must hold at least
	// one ACK (units.AckBytes) when RevCapacity is set.
	RevBuffer units.Bytes
}

// HasReverse reports whether the link has a reverse-direction twin.
func (l Link) HasReverse() bool { return l.RevCapacity > 0 }

// checkFinite rejects a NaN or infinite capacity or buffer in either
// direction. The range checks alone let both through (NaN fails every
// comparison and +Inf passes every lower bound), and neither has a JSON
// form, so a spec holding one could not be written out and read back.
func (l Link) checkFinite() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"capacity", float64(l.Capacity)},
		{"buffer", float64(l.Buffer)},
		{"reverse capacity", float64(l.RevCapacity)},
		{"reverse buffer", float64(l.RevBuffer)},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("non-finite %s %v", f.name, f.v)
		}
	}
	return nil
}

// validLinkName reports whether a link name uses only the characters safe
// for canonical keys and trace records.
func validLinkName(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

var defaultPath = []string{DefaultLinkName}

// Topology returns the spec's canonical link list: Links when set,
// otherwise one synthesized DefaultLinkName link carrying the legacy
// scalar Capacity/Buffer/Faults fields. Every layer that needs the
// topology (key, builder, audit, fluid reduction) goes through this, so
// the legacy form is exactly a one-link special case.
func (s Spec) Topology() []Link {
	if len(s.Links) > 0 {
		return s.Links
	}
	return []Link{{Name: DefaultLinkName, Capacity: s.Capacity, Buffer: s.Buffer, Faults: s.Faults}}
}

// MultiLink reports whether the spec needs the multi-link machinery:
// more than one link, or any reverse-direction twin.
func (s Spec) MultiLink() bool {
	if len(s.Links) == 0 {
		return false
	}
	if len(s.Links) > 1 {
		return true
	}
	return s.Links[0].HasReverse()
}

// PathOf returns group gi's resolved path as ordered link names: the
// group's explicit Path when set, the implicit single-bottleneck path
// otherwise. The returned slice must not be mutated.
func (s Spec) PathOf(gi int) []string {
	if gi >= 0 && gi < len(s.Groups) && len(s.Groups[gi].Path) > 0 {
		return s.Groups[gi].Path
	}
	return defaultPath
}

// LinkByName looks a link up in the canonical topology.
func (s Spec) LinkByName(name string) (Link, bool) {
	for _, l := range s.Topology() {
		if l.Name == name {
			return l, true
		}
	}
	return Link{}, false
}

// PathLinks resolves group gi's path to Link values, in path order. It
// panics on an unvalidated spec whose path names an unknown link.
func (s Spec) PathLinks(gi int) []Link {
	names := s.PathOf(gi)
	links := make([]Link, len(names))
	for i, name := range names {
		l, ok := s.LinkByName(name)
		if !ok {
			panic(fmt.Sprintf("scenario: group %d path names unknown link %q", gi, name))
		}
		links[i] = l
	}
	return links
}

// validateLinks checks the explicit topology: link names, per-link
// parameters and reverse twins. The caller has already applied defaults.
func (s Spec) validateLinks() error {
	if s.Capacity != 0 || s.Buffer != 0 {
		return fmt.Errorf("scenario: links and top-level capacity/buffer are mutually exclusive")
	}
	if s.Faults != (Faults{}) {
		return fmt.Errorf("scenario: links and top-level faults are mutually exclusive (faults are per-link)")
	}
	seen := make(map[string]bool, len(s.Links))
	for i, l := range s.Links {
		if !validLinkName(l.Name) {
			return fmt.Errorf("scenario: link %d has invalid name %q (want letters, digits, '.', '_', '-')", i, l.Name)
		}
		if seen[l.Name] {
			return fmt.Errorf("scenario: duplicate link name %q", l.Name)
		}
		seen[l.Name] = true
		if err := l.checkFinite(); err != nil {
			return fmt.Errorf("scenario: link %q: %w", l.Name, err)
		}
		if l.Capacity <= 0 {
			return fmt.Errorf("scenario: link %q: non-positive capacity %v", l.Name, l.Capacity)
		}
		if l.Buffer < s.MSS {
			return fmt.Errorf("scenario: link %q: buffer %v below one segment (%v)", l.Name, l.Buffer, s.MSS)
		}
		if err := l.Faults.Validate(); err != nil {
			return fmt.Errorf("scenario: link %q: %w", l.Name, err)
		}
		if l.RevCapacity < 0 {
			return fmt.Errorf("scenario: link %q: negative reverse capacity %v", l.Name, l.RevCapacity)
		}
		if l.RevCapacity > 0 && l.RevBuffer < units.AckBytes {
			return fmt.Errorf("scenario: link %q: reverse buffer %v below one ACK (%v)", l.Name, l.RevBuffer, units.AckBytes)
		}
		if l.RevCapacity == 0 && l.RevBuffer != 0 {
			return fmt.Errorf("scenario: link %q: reverse buffer without reverse capacity", l.Name)
		}
	}
	return nil
}

// validatePath checks one group's path against the topology.
func (s Spec) validatePath(gi int, path []string) error {
	if len(s.Links) == 0 {
		if len(path) > 0 {
			return fmt.Errorf("scenario: group %d names a path but the spec defines no links", gi)
		}
		return nil
	}
	if len(path) == 0 {
		return fmt.Errorf("scenario: group %d: empty path (specs with links need an explicit path per group)", gi)
	}
	seen := make(map[string]bool, len(path))
	for _, name := range path {
		if _, ok := s.LinkByName(name); !ok {
			return fmt.Errorf("scenario: group %d path names unknown link %q", gi, name)
		}
		if seen[name] {
			return fmt.Errorf("scenario: group %d path repeats link %q", gi, name)
		}
		seen[name] = true
	}
	return nil
}

// Path-aggregate bounds used by the invariant audit and the CLIs: a
// multi-hop path queues at every link it crosses, so delay and pipe bounds
// sum over the path rather than reading one bottleneck.

// PathBufferSum is the total forward buffering along group gi's path.
func (s Spec) PathBufferSum(gi int) units.Bytes {
	var sum units.Bytes
	for _, l := range s.PathLinks(gi) {
		sum += l.Buffer
	}
	return sum
}

// PathMinCapacity is the tightest nominal capacity along group gi's path —
// the rate that bounds the group's long-run throughput.
func (s Spec) PathMinCapacity(gi int) units.Rate {
	var m units.Rate
	for _, l := range s.PathLinks(gi) {
		if m == 0 || l.Capacity < m {
			m = l.Capacity
		}
	}
	return m
}

// PathQueueDelayBound is the worst-case total queuing delay along group
// gi's path: each forward link can hold Buffer+MSS bytes draining at its
// flap-reduced minimum rate, and each reverse twin RevBuffer+AckBytes at
// its own rate. Adding the group's base RTT gives the audit's per-flow
// mean-RTT bound.
func (s Spec) PathQueueDelayBound(gi int) time.Duration {
	mss := s.MSS
	if mss <= 0 {
		mss = units.MSS
	}
	var d time.Duration
	for _, l := range s.PathLinks(gi) {
		d += l.Faults.MinCapacity(l.Capacity).TimeToSend(l.Buffer + mss)
		if l.HasReverse() {
			d += l.RevCapacity.TimeToSend(l.RevBuffer + units.AckBytes)
		}
	}
	return d
}
