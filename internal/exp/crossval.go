package exp

import (
	"fmt"
	"math"
	"sort"
	"time"

	"bbrnash/internal/core"
	"bbrnash/internal/numeric"
	"bbrnash/internal/scenario"
	"bbrnash/internal/units"
)

// Cross-validation of the two execution backends. The fluid model is only
// trustworthy where it agrees with the packet engine, and the places it
// does not are themselves findings — the fluid equations are the paper's
// steady-state idealization, so a divergence localizes where that
// idealization breaks (shallow buffers where loss dynamics dominate,
// regimes where ProbeRTT cannot drain the queue, and so on). CrossValidate
// therefore runs both backends over the paper's figure grid and emits a
// machine-readable report; divergence sets a flag and is never an error.

// CrossValSchemaVersion identifies the report layout for downstream
// tooling; bump it when the JSON shape changes.
const CrossValSchemaVersion = 1

// CrossValConfig describes one cross-validation sweep: a buffer-depth ×
// flow-mix grid at a single capacity and RTT, every point run on both
// backends.
type CrossValConfig struct {
	Capacity units.Rate
	RTT      time.Duration
	Seed     uint64
	// BufferBDPs are the buffer depths in BDP multiples (default: the
	// paper's figure grid, 1–50 in steps of 2 — pinned by the Arange
	// regression tests).
	BufferBDPs []float64
	// Mixes are the (NumBBR, NumCubic) flow mixes to run at every depth.
	Mixes [][2]int
	// Threshold is the relative throughput error above which a point is
	// flagged as diverged (default 0.25).
	Threshold float64
	// Scale supplies each simulation's length, FlowDuration (the paper's
	// two minutes when not positive; verify.sh's smoke uses seconds), and
	// the execution machinery: Pool, Cache, Journal, Ctx, Audit, Trials.
	// The scale's Backend override is ignored — the whole point is to run
	// both.
	Scale Scale
}

func (c CrossValConfig) withDefaults() CrossValConfig {
	if c.Scale.FlowDuration <= 0 {
		c.Scale.FlowDuration = 2 * time.Minute
	}
	if len(c.BufferBDPs) == 0 {
		c.BufferBDPs = CrossValBuffers()
	}
	if len(c.Mixes) == 0 {
		c.Mixes = [][2]int{{1, 1}, {2, 2}, {4, 4}}
	}
	if c.Threshold <= 0 {
		c.Threshold = 0.25
	}
	return c
}

// CrossValBuffers returns the buffer depths CrossValidate runs when
// BufferBDPs is empty: the paper's Fig 1 buffer grid (see figures.go and
// the Arange regression tests pinning its size).
func CrossValBuffers() []float64 { return numeric.Arange(1, 50, 2) }

// spec is the grid point at buf BDP and mix (NumBBR, NumCubic) on one
// backend.
func (c CrossValConfig) spec(buf float64, mix [2]int, backend string) scenario.Spec {
	sp := scenario.Mix("bbr", mix[0], mix[1], c.Capacity,
		units.BufferBytes(c.Capacity, c.RTT, buf), c.RTT, c.Scale.FlowDuration)
	sp.Backend = backend
	return sp
}

// CrossValPoint is one grid point's paired measurement. Rates are per-flow
// class averages in Mbps (the figures' unit); relative errors are
// |fluid−packet|/packet against the packet engine as reference, zero when
// the class is empty.
type CrossValPoint struct {
	BufferBDP float64 `json:"buffer_bdp"`
	NumBBR    int     `json:"num_bbr"`
	NumCubic  int     `json:"num_cubic"`
	// Regime is the model-validity classification of the scenario
	// (internal/core): "valid", "shallow(<1BDP)" or "ultradeep".
	Regime string `json:"regime"`

	PacketBBRMbps   float64 `json:"packet_bbr_mbps"`
	FluidBBRMbps    float64 `json:"fluid_bbr_mbps"`
	PacketCubicMbps float64 `json:"packet_cubic_mbps"`
	FluidCubicMbps  float64 `json:"fluid_cubic_mbps"`

	RelErrBBR   float64 `json:"rel_err_bbr"`
	RelErrCubic float64 `json:"rel_err_cubic"`
	// Diverged marks a relative error above the configured threshold — a
	// finding about where the fluid idealization breaks, not a failure.
	Diverged bool `json:"diverged"`
}

// CrossValSummary aggregates the grid.
type CrossValSummary struct {
	Points    int     `json:"points"`
	Diverged  int     `json:"diverged"`
	MaxRelErr float64 `json:"max_rel_err"`
	// MeanRelErr averages the per-point maximum class error.
	MeanRelErr float64 `json:"mean_rel_err"`
	// WorstPoint names the point with the largest error, as
	// "buf=<bdp> bbr=<n> cubic=<n>".
	WorstPoint string `json:"worst_point,omitempty"`
}

// CrossValReport is the machine-readable divergence report.
type CrossValReport struct {
	SchemaVersion int     `json:"schema_version"`
	CapacityMbps  float64 `json:"capacity_mbps"`
	RTTMs         float64 `json:"rtt_ms"`
	DurationS     float64 `json:"duration_s"`
	Threshold     float64 `json:"threshold"`
	// KeyVersion records the canonical-encoding generation the results
	// were produced (and cached) under.
	KeyVersion string          `json:"key_version"`
	Points     []CrossValPoint `json:"points"`
	Summary    CrossValSummary `json:"summary"`
}

// relErr is the relative error of got against a reference, zero when the
// reference is zero (empty class or starved flow — a starved reference
// would make every finite error infinite and drown the signal).
func relErr(ref, got float64) float64 {
	if ref <= 0 {
		return 0
	}
	d := got - ref
	if d < 0 {
		d = -d
	}
	return d / ref
}

// CrossValidate runs every (buffer, mix) grid point on both backends and
// reports per-point divergence. Point×backend units fan out through the
// scale's pool with results collected in submission order, so the report
// is byte-identical at any worker count; each unit goes through the cached
// spec path, so a warmed cache (or a prior figure run) satisfies the
// packet half for free. Trials average exactly like figure sweeps.
func CrossValidate(cfg CrossValConfig) (CrossValReport, error) {
	cfg = cfg.withDefaults()
	s := cfg.Scale
	rep := CrossValReport{
		SchemaVersion: CrossValSchemaVersion,
		CapacityMbps:  float64(cfg.Capacity) / 1e6,
		RTTMs:         float64(cfg.RTT) / float64(time.Millisecond),
		DurationS:     cfg.Scale.FlowDuration.Seconds(),
		Threshold:     cfg.Threshold,
		KeyVersion:    scenario.KeyVersion,
	}

	type cell struct {
		buf float64
		mix [2]int
	}
	var grid []cell
	for _, b := range cfg.BufferBDPs {
		for _, m := range cfg.Mixes {
			grid = append(grid, cell{b, m})
		}
	}

	// One flat unit list, packet and fluid interleaved per cell, run
	// through the scale's sweep machinery (trial averaging, cache,
	// journal, audit, watchdog).
	backends := [2]string{scenario.BackendPacket, scenario.BackendFluid}
	pts, err := s.Sweep(cfg.Seed, 2*len(grid), func(i int) scenario.Spec {
		c := grid[i/2]
		return cfg.spec(c.buf, c.mix, backends[i%2])
	})
	if err != nil {
		return CrossValReport{}, err
	}

	var errSum float64
	for i, c := range grid {
		packet, fl := pts[2*i], pts[2*i+1]
		sc := core.Scenario{
			Capacity: cfg.Capacity,
			Buffer:   units.BufferBytes(cfg.Capacity, cfg.RTT, c.buf),
			RTT:      cfg.RTT,
			NumBBR:   c.mix[0],
			NumCubic: c.mix[1],
		}
		p := CrossValPoint{
			BufferBDP:       c.buf,
			NumBBR:          c.mix[0],
			NumCubic:        c.mix[1],
			Regime:          sc.Regime().String(),
			PacketBBRMbps:   float64(packet.PerFlow[0]) / 1e6,
			FluidBBRMbps:    float64(fl.PerFlow[0]) / 1e6,
			PacketCubicMbps: float64(packet.PerFlow[1]) / 1e6,
			FluidCubicMbps:  float64(fl.PerFlow[1]) / 1e6,
		}
		p.RelErrBBR = relErr(p.PacketBBRMbps, p.FluidBBRMbps)
		p.RelErrCubic = relErr(p.PacketCubicMbps, p.FluidCubicMbps)
		worst := math.Max(p.RelErrBBR, p.RelErrCubic)
		p.Diverged = worst > cfg.Threshold
		rep.Points = append(rep.Points, p)

		errSum += worst
		if worst > rep.Summary.MaxRelErr {
			rep.Summary.MaxRelErr = worst
			rep.Summary.WorstPoint = fmt.Sprintf("buf=%g bbr=%d cubic=%d", c.buf, c.mix[0], c.mix[1])
		}
		if p.Diverged {
			rep.Summary.Diverged++
		}
	}
	rep.Summary.Points = len(grid)
	if len(grid) > 0 {
		rep.Summary.MeanRelErr = errSum / float64(len(grid))
	}
	// Stable presentation order regardless of grid construction: by
	// buffer, then mix.
	sort.SliceStable(rep.Points, func(i, j int) bool {
		a, b := rep.Points[i], rep.Points[j]
		if a.BufferBDP != b.BufferBDP {
			return a.BufferBDP < b.BufferBDP
		}
		if a.NumBBR != b.NumBBR {
			return a.NumBBR < b.NumBBR
		}
		return a.NumCubic < b.NumCubic
	})
	return rep, nil
}
