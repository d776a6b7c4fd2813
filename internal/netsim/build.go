package netsim

import (
	"fmt"

	"bbrnash/internal/cc"
	"bbrnash/internal/rng"
	"bbrnash/internal/scenario"
)

// Build instantiates a scenario: the bottleneck from the spec's link
// parameters and one flow per group member, named "g<group>.<alg><i>".
// Per-flow start jitter is drawn from the spec's seed in group order, so a
// spec fully determines the simulation — same spec, same run.
//
// The flows come back grouped in spec order (empty groups yield empty
// slices), ready for per-class aggregation after Run.
func Build(sp scenario.Spec) (*Network, [][]*Flow, error) {
	sp = sp.WithDefaults()
	if err := sp.ValidateTopology(); err != nil {
		return nil, nil, err
	}
	ctors := make([]cc.Constructor, len(sp.Groups))
	for i, g := range sp.Groups {
		ctor, err := cc.AlgorithmByName(g.Algorithm)
		if err != nil {
			return nil, nil, fmt.Errorf("scenario: group %d: %w", i, err)
		}
		ctors[i] = ctor
	}
	cfg := Config{
		MSS:       sp.MSS,
		AckJitter: sp.AckJitter,
		Seed:      sp.Seed,
	}
	if len(sp.Links) > 0 {
		cfg.Links = make([]LinkConfig, len(sp.Links))
		for i, l := range sp.Links {
			cfg.Links[i] = LinkConfig{
				Name:        l.Name,
				Capacity:    l.Capacity,
				Buffer:      l.Buffer,
				Faults:      l.Faults,
				RevCapacity: l.RevCapacity,
				RevBuffer:   l.RevBuffer,
			}
		}
	} else {
		cfg.Capacity = sp.Capacity
		cfg.Buffer = sp.Buffer
		cfg.Faults = sp.Faults
	}
	n, err := New(cfg)
	if err != nil {
		return nil, nil, err
	}
	r := rng.New(sp.Seed)
	flows := make([][]*Flow, len(sp.Groups))
	for gi, g := range sp.Groups {
		for i := 0; i < g.Count; i++ {
			f, err := n.AddFlow(FlowConfig{
				Name:      fmt.Sprintf("g%d.%s%d", gi, g.Algorithm, i),
				RTT:       g.RTT,
				Start:     g.Start + r.Duration(sp.StartJitter),
				Algorithm: ctors[gi],
				Path:      g.Path,
			})
			if err != nil {
				return nil, nil, err
			}
			flows[gi] = append(flows[gi], f)
		}
	}
	n.Presize()
	return n, flows, nil
}
