// Package scenario defines the canonical, declarative description of one
// bottleneck experiment: "N flows of these algorithms, at these RTTs,
// through this link". The paper's figures, the Nash-equilibrium searches
// and the CLIs are all instances of this one object, and every layer
// agrees on it — the CLIs parse into it (flags or JSON files), netsim
// builds networks from it, runner.Cache and check.Auditor key results by
// its canonical encoding (Key), and a failing sweep unit names it in
// runner.UnitError. A new scenario shape is a data change, not a code
// change.
package scenario

import (
	"fmt"
	"time"

	"bbrnash/internal/cc"
	"bbrnash/internal/units"
)

// The experiment protocol's jitter defaults (DESIGN.md): flow starts are
// staggered uniformly within DefaultStartJitter and ACK paths carry up to
// DefaultAckJitter of per-packet noise, breaking the phase effects a
// perfectly symmetric deterministic simulation would otherwise lock into.
const (
	DefaultStartJitter = 10 * time.Millisecond
	DefaultAckJitter   = time.Millisecond
)

// Algorithms lists the registered algorithm names in sorted order. The
// listing covers whatever algorithm packages the program links; the
// experiment harness (internal/exp) links the full built-in set, so any
// program that can run a scenario sees every algorithm a scenario may
// name. (The underscore imports live in exp, not here, because the
// algorithms' own tests import netsim, which imports this package.)
func Algorithms() []string { return cc.Algorithms() }

// Group is an ordered set of identical flows: Count senders running
// Algorithm over a path with base RTT, starting at offset Start (plus the
// spec's per-flow start jitter). Group order is part of the scenario's
// identity — it fixes flow construction order and therefore the
// deterministic jitter draws.
type Group struct {
	Algorithm string
	Count     int
	RTT       time.Duration
	Start     time.Duration
	// Path is the ordered list of link names the group's flows traverse,
	// for specs that define an explicit Links topology. Legacy
	// single-bottleneck specs leave it empty and implicitly traverse the
	// one DefaultLinkName link; specs with Links must set it on every
	// group. Path order is part of the scenario's identity.
	Path []string
}

// Execution backends. A spec names which engine evaluates it: the
// packet-level event simulator (internal/netsim) or the deterministic
// fixed-step fluid model (internal/fluid). The backend is part of the
// scenario's identity — the two engines approximate the same physics at
// very different fidelity and cost, so their results must never share a
// cache entry (the canonical key carries the backend since generation v4).
const (
	// BackendPacket is the packet-level event simulator, the default.
	BackendPacket = "packet"
	// BackendFluid is the fixed-step fluid-model integrator.
	BackendFluid = "fluid"
)

// Backends lists the valid backend names.
func Backends() []string { return []string{BackendPacket, BackendFluid} }

// Spec is one complete scenario: the bottleneck, the simulated duration,
// the deterministic seed, and the ordered flow groups sharing the link.
// Groups with Count 0 are legal and meaningful — a sweep over "k BBR vs
// n−k CUBIC" keeps both groups at every point so group indices (and the
// canonical key shape) stay stable across the sweep.
type Spec struct {
	// Capacity and Buffer describe the legacy single-bottleneck form.
	// They are mutually exclusive with Links: a spec either sets these
	// scalars (one implicit DefaultLinkName link) or an explicit topology.
	Capacity    units.Rate
	Buffer      units.Bytes
	MSS         units.Bytes // 0 means units.MSS
	AckJitter   time.Duration
	StartJitter time.Duration
	Duration    time.Duration
	Seed        uint64
	// Backend selects the execution engine: BackendPacket (the event
	// simulator) or BackendFluid (the fixed-step fluid model). Empty means
	// BackendPacket.
	Backend string
	// Faults injects deterministic adverse-link conditions (loss, ACK
	// loss, capacity flaps, loss bursts) on the legacy single bottleneck;
	// the zero value is a clean link. Specs with explicit Links attach
	// faults per link instead.
	Faults Faults
	// Links, when set, replaces the scalar bottleneck with a validated
	// multi-link topology; each group then names its Path through it.
	// Topology() canonicalizes both forms to one link list.
	Links  []Link
	Groups []Group
}

// WithDefaults fills the zero-value fields that have canonical defaults.
// Key and the builders resolve defaults first, so a spec written with
// MSS 0 and one written with the explicit default are the same scenario
// (and likewise Backend "" and "packet").
func (s Spec) WithDefaults() Spec {
	if s.MSS <= 0 {
		s.MSS = units.MSS
	}
	if s.Backend == "" {
		s.Backend = BackendPacket
	}
	return s
}

// TotalFlows counts the senders across all groups.
func (s Spec) TotalFlows() int {
	n := 0
	for _, g := range s.Groups {
		n += g.Count
	}
	return n
}

// ValidateTopology checks everything about a spec except that its
// algorithm names resolve. Name resolution belongs to the backend that
// builds the spec: netsim.Build looks each name up in the cc registry for
// the constructor it needs anyway, and the fluid backend accepts only the
// algorithms it models. Everyone else should call Validate.
func (s Spec) ValidateTopology() error {
	s = s.WithDefaults()
	if len(s.Links) > 0 {
		if err := s.validateLinks(); err != nil {
			return err
		}
	} else {
		if err := (Link{Capacity: s.Capacity, Buffer: s.Buffer}).checkFinite(); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		if s.Capacity <= 0 {
			return fmt.Errorf("scenario: non-positive capacity %v", s.Capacity)
		}
		if s.Buffer < s.MSS {
			return fmt.Errorf("scenario: buffer %v below one segment (%v)", s.Buffer, s.MSS)
		}
	}
	if s.Duration <= 0 {
		return fmt.Errorf("scenario: non-positive duration %v", s.Duration)
	}
	if s.AckJitter < 0 {
		return fmt.Errorf("scenario: negative ack jitter %v", s.AckJitter)
	}
	if s.StartJitter < 0 {
		return fmt.Errorf("scenario: negative start jitter %v", s.StartJitter)
	}
	if s.Backend != BackendPacket && s.Backend != BackendFluid {
		return fmt.Errorf("scenario: unknown backend %q (want %q or %q)", s.Backend, BackendPacket, BackendFluid)
	}
	if err := s.Faults.Validate(); err != nil {
		return err
	}
	if len(s.Groups) == 0 {
		return fmt.Errorf("scenario: no flow groups")
	}
	for i, g := range s.Groups {
		if g.Algorithm == "" {
			return fmt.Errorf("scenario: group %d names no algorithm", i)
		}
		if g.Count < 0 {
			return fmt.Errorf("scenario: group %d has negative count %d", i, g.Count)
		}
		if g.RTT <= 0 {
			return fmt.Errorf("scenario: group %d has non-positive RTT %v", i, g.RTT)
		}
		if g.Start < 0 {
			return fmt.Errorf("scenario: group %d has negative start offset %v", i, g.Start)
		}
		if err := s.validatePath(i, g.Path); err != nil {
			return err
		}
	}
	if s.TotalFlows() == 0 {
		return fmt.Errorf("scenario: no flows")
	}
	return nil
}

// Validate checks the spec completely: topology plus algorithm names
// against the cc registry.
func (s Spec) Validate() error {
	if err := s.ValidateTopology(); err != nil {
		return err
	}
	for i, g := range s.Groups {
		if _, err := cc.AlgorithmByName(g.Algorithm); err != nil {
			return fmt.Errorf("scenario: group %d: %w", i, err)
		}
	}
	return nil
}

// MaxRTT is the largest base RTT across groups (the bound the invariant
// audit sizes the pipe with).
func (s Spec) MaxRTT() time.Duration {
	var m time.Duration
	for _, g := range s.Groups {
		if g.RTT > m {
			m = g.RTT
		}
	}
	return m
}

// Mix is the paper's canonical two-class scenario: numX flows of algorithm
// x against numCubic CUBIC flows at one shared RTT, with the experiment
// protocol's jitters. Both groups are always present (possibly empty) so
// group 0 is the x class and group 1 the CUBIC class at every sweep point.
func Mix(x string, numX, numCubic int, capacity units.Rate, buffer units.Bytes, rtt, duration time.Duration) Spec {
	return Spec{
		Capacity:    capacity,
		Buffer:      buffer,
		AckJitter:   DefaultAckJitter,
		StartJitter: DefaultStartJitter,
		Duration:    duration,
		Groups: []Group{
			{Algorithm: x, Count: numX, RTT: rtt},
			{Algorithm: "cubic", Count: numCubic, RTT: rtt},
		},
	}
}
