// Package core implements the paper's primary contribution: the analytical
// model of competing CUBIC and BBR flows (Mishra, Tiu & Leong, "Are we
// heading towards a BBR-dominant Internet?", IMC 2022, §2), the baseline
// model by Ware et al. (IMC 2019) it is compared against, and the Nash
// Equilibrium predictor built on top (§4).
//
// # The model in brief
//
// All flows share one bottleneck of capacity C with a drop-tail buffer of B
// bytes and the same base RTT. BBR competing with CUBIC is cwnd-bound at
// 2·BtlBw·RTT⁺ where RTT⁺ — BBR's over-estimate of the minimum RTT — equals
// the base RTT plus the drain time of CUBIC's *minimum* buffer occupancy
// b_cmin (what remains queued during BBR's ProbeRTT). Writing both flows'
// throughputs as inflight/RTT and eliminating, the paper derives (Eq 10)
//
//	b_b + b_c = 2·b_cmin + C·RTT,
//
// and, approximating b_b + b_c ≈ B, a single equation (Eq 18) for BBR's
// buffer share b_b:
//
//	S + S·(C·RTT)/(S + b_b) = f·(B − b_b)·(1 + C·RTT/B),  S = (B − C·RTT)/2
//
// where f is the CUBIC backoff fraction: 0.7 when all CUBIC flows are
// synchronized (Eq 21) and (Nc − 0.3)/Nc when perfectly de-synchronized
// (Eq 22). The equation reduces to a quadratic with exactly one root in
// (0, B); CUBIC's aggregate bandwidth follows from Eq 19 and BBR's from
// Eq 20. The two synchronization extremes bracket reality, so predictions
// are intervals.
package core

import (
	"errors"
	"fmt"
	"time"

	"bbrnash/internal/numeric"
	"bbrnash/internal/units"
)

// CubicBeta is CUBIC's multiplicative-decrease factor: after a loss the
// window shrinks to this fraction of its peak. It is the f of the
// synchronized bound.
const CubicBeta = 0.7

// UltraDeepBDP is the buffer depth (in BDP multiples) beyond which the
// paper observed its model to over-estimate BBR's throughput because BBR
// stops being cwnd-limited (§5, Figure 12).
const UltraDeepBDP = 100.0

// Scenario describes a modeled bottleneck shared by CUBIC and BBR flows
// with a common base RTT.
type Scenario struct {
	// Capacity is the bottleneck link rate C.
	Capacity units.Rate
	// Buffer is the bottleneck buffer size B in bytes.
	Buffer units.Bytes
	// RTT is the common base round-trip propagation delay.
	RTT time.Duration
	// NumCubic and NumBBR are the competing flow counts.
	NumCubic int
	NumBBR   int
}

// BDP returns the scenario's bandwidth-delay product in bytes.
func (s Scenario) BDP() units.Bytes { return units.BDP(s.Capacity, s.RTT) }

// BufferBDP returns the buffer size as a multiple of the BDP.
func (s Scenario) BufferBDP() float64 { return units.InBDP(s.Buffer, s.Capacity, s.RTT) }

// FairShare returns the per-flow fair share C/N.
func (s Scenario) FairShare() units.Rate {
	n := s.NumCubic + s.NumBBR
	if n == 0 {
		return 0
	}
	return s.Capacity / units.Rate(n)
}

func (s Scenario) validate() error {
	if s.Capacity <= 0 {
		return errors.New("core: Capacity must be positive")
	}
	if s.Buffer <= 0 {
		return errors.New("core: Buffer must be positive")
	}
	if s.RTT <= 0 {
		return errors.New("core: RTT must be positive")
	}
	if s.NumCubic < 0 || s.NumBBR < 0 {
		return errors.New("core: flow counts must be non-negative")
	}
	return nil
}

// SyncMode selects which synchronization extreme of the CUBIC flows the
// model assumes (§2.4).
type SyncMode int

const (
	// Synchronized: all CUBIC flows back off together; aggregate b_cmin is
	// 0.7·Ŵmax (Eq 21). This is the bound the paper found empirical
	// results usually closer to.
	Synchronized SyncMode = iota
	// Desynchronized: only one of Nc CUBIC flows backs off at a time;
	// aggregate b_cmin is ((Nc−0.3)/Nc)·Ŵmax (Eq 22).
	Desynchronized
)

func (m SyncMode) String() string {
	switch m {
	case Synchronized:
		return "synchronized"
	case Desynchronized:
		return "desynchronized"
	default:
		return "unknown"
	}
}

// backoffFraction returns f for the mode: the fraction of the aggregate
// CUBIC window that survives a backoff event.
func (m SyncMode) backoffFraction(numCubic int) float64 {
	switch m {
	case Desynchronized:
		nc := float64(numCubic)
		if nc < 1 {
			nc = 1
		}
		return (nc - (1 - CubicBeta)) / nc
	default:
		return CubicBeta
	}
}

// Regime classifies where a scenario falls relative to the model's validity
// domain (§2.3 assumptions, §5 discussion).
type Regime int

const (
	// RegimeValid: buffer between 1 and ~100 BDP; BBR is cwnd-limited and
	// the model applies.
	RegimeValid Regime = iota
	// RegimeShallow: buffer below 1 BDP; the model's "link always full,
	// BBR cwnd-bound" assumptions break. Predictions are clamped to the
	// 1-BDP boundary behaviour (BBR takes the link).
	RegimeShallow
	// RegimeUltraDeep: buffer beyond ~100 BDP; BBR is no longer reliably
	// cwnd-limited and the model over-estimates BBR's throughput (Fig 12).
	RegimeUltraDeep
)

func (r Regime) String() string {
	switch r {
	case RegimeValid:
		return "valid"
	case RegimeShallow:
		return "shallow(<1BDP)"
	case RegimeUltraDeep:
		return "ultra-deep(>100BDP)"
	default:
		return "unknown"
	}
}

// Prediction is the model's output for one scenario and sync mode.
type Prediction struct {
	// Mode is the synchronization assumption used.
	Mode SyncMode
	// Regime classifies model validity for the scenario.
	Regime Regime
	// BBRBuffer is b_b, the aggregate BBR buffer occupancy, in bytes.
	BBRBuffer units.Bytes
	// CubicMinBuffer is S = (B − C·RTT)/2, the b̂_cmin the closed equations
	// use for the aggregate CUBIC flow.
	CubicMinBuffer units.Bytes
	// AggCubic and AggBBR are the aggregate bandwidths λ̄c, λ̄b.
	AggCubic units.Rate
	AggBBR   units.Rate
	// PerCubic and PerBBR are per-flow averages (zero when the scenario
	// has no flows of that class).
	PerCubic units.Rate
	PerBBR   units.Rate
	// RTTPlus is BBR's over-estimated minimum RTT (Eq 9).
	RTTPlus time.Duration
}

// Predict evaluates the model for one synchronization mode.
//
// Degenerate mixes short-circuit: with no BBR flows CUBIC takes the link
// and vice versa. Scenarios below 1 BDP report RegimeShallow with the
// boundary solution; beyond 100 BDP the prediction is computed as usual but
// flagged RegimeUltraDeep.
func Predict(s Scenario, mode SyncMode) (Prediction, error) {
	if err := s.validate(); err != nil {
		return Prediction{}, err
	}
	if s.NumCubic+s.NumBBR == 0 {
		return Prediction{}, errors.New("core: scenario has no flows")
	}

	p := Prediction{Mode: mode, Regime: regimeFor(s)}

	// Degenerate single-class mixes: the class takes the whole link.
	if s.NumBBR == 0 {
		p.AggCubic = s.Capacity
		p.PerCubic = s.Capacity / units.Rate(s.NumCubic)
		p.RTTPlus = s.RTT
		return p, nil
	}
	if s.NumCubic == 0 {
		p.AggBBR = s.Capacity
		p.PerBBR = s.Capacity / units.Rate(s.NumBBR)
		p.RTTPlus = s.RTT
		return p, nil
	}

	cBps := s.Capacity.BytesPerSecond()
	bdp := float64(s.BDP())
	b := float64(s.Buffer)

	// S = b̂_cmin from Eq 10 with b_b + b_c ≈ B.
	sVal := (b - bdp) / 2
	if sVal <= 0 {
		// At or below 1 BDP the boundary solution has BBR occupying the
		// buffer and CUBIC starved (Figure 3's leftmost points).
		p.BBRBuffer = s.Buffer
		p.CubicMinBuffer = 0
		p.AggBBR = s.Capacity
		p.PerBBR = s.Capacity / units.Rate(s.NumBBR)
		p.RTTPlus = s.RTT
		return p, nil
	}

	f := mode.backoffFraction(s.NumCubic)
	bb, err := solveBBRBuffer(b, bdp, sVal, f)
	if err != nil {
		return Prediction{}, fmt.Errorf("core: solving Eq 18 for b_b: %w", err)
	}

	// Eq 19: λ̄c·(RTT + 2S/C) = 2S + C·RTT − b_b, in byte/s then to bits.
	lambdaCBps := cBps * (2*sVal + bdp - bb) / (bdp + 2*sVal)
	lambdaCBps = numeric.Clamp(lambdaCBps, 0, cBps)
	aggCubic := units.Rate(8 * lambdaCBps)
	aggBBR := s.Capacity - aggCubic // Eq 20

	p.BBRBuffer = units.Bytes(bb)
	p.CubicMinBuffer = units.Bytes(sVal)
	p.AggCubic = aggCubic
	p.AggBBR = aggBBR
	p.PerCubic = aggCubic / units.Rate(s.NumCubic)
	p.PerBBR = aggBBR / units.Rate(s.NumBBR)
	p.RTTPlus = s.RTT + time.Duration(sVal/cBps*float64(time.Second))
	return p, nil
}

// Interval is the model's bracketed prediction: both synchronization
// extremes (§2.4). Lo is the synchronized bound (less BBR bandwidth), Hi
// the de-synchronized bound (more BBR bandwidth).
type Interval struct {
	Sync   Prediction
	Desync Prediction
}

// PredictInterval evaluates both bounds.
func PredictInterval(s Scenario) (Interval, error) {
	sync, err := Predict(s, Synchronized)
	if err != nil {
		return Interval{}, err
	}
	desync, err := Predict(s, Desynchronized)
	if err != nil {
		return Interval{}, err
	}
	return Interval{Sync: sync, Desync: desync}, nil
}

// ContainsBBRPerFlow reports whether rate falls inside the predicted
// per-flow BBR interval, widened by slack (a fraction of each endpoint) on
// both sides.
//
// The endpoints are ordered before the slack is applied: the sync bound is
// usually the lower one, but the interval can invert (Sync.PerBBR >
// Desync.PerBBR, e.g. at Nc = 1 where both modes coincide up to float
// error, or in boundary regimes). Widening before ordering would shrink an
// inverted interval on one side instead of widening it on both.
func (iv Interval) ContainsBBRPerFlow(rate units.Rate, slack float64) bool {
	lo, hi := float64(iv.Sync.PerBBR), float64(iv.Desync.PerBBR)
	if lo > hi {
		lo, hi = hi, lo
	}
	lo *= 1 - slack
	hi *= 1 + slack
	r := float64(rate)
	return r >= lo && r <= hi
}

// Regime classifies the scenario's model validity by buffer depth, the
// same classification Predict stamps on its output — exported so harness
// reports (e.g. backend cross-validation) can label points without running
// the model.
func (s Scenario) Regime() Regime { return regimeFor(s) }

func regimeFor(s Scenario) Regime {
	x := s.BufferBDP()
	switch {
	case x < 1:
		return RegimeShallow
	case x > UltraDeepBDP:
		return RegimeUltraDeep
	default:
		return RegimeValid
	}
}

// solveBBRBuffer solves the generalized Eq 18 for b_b:
//
//	S + S·bdp/(S + b_b) = f·(B − b_b)·(1 + bdp/B)
//
// Multiplying by (S + b_b) gives the quadratic
//
//	K·b_b² + (K·S − K·B + S)·b_b + S² + S·bdp − K·B·S = 0,  K = f·(1 + bdp/B).
//
// For B > bdp (S > 0) and f > 1/2 the constant term is negative and the
// leading coefficient positive, so exactly one root lies in (0, B).
func solveBBRBuffer(b, bdp, s, f float64) (float64, error) {
	k := f * (1 + bdp/b)
	qa := k
	qb := k*s - k*b + s
	qc := s*s + s*bdp - k*b*s
	for _, r := range numeric.Quadratic(qa, qb, qc) {
		if r > 0 && r < b {
			return r, nil
		}
	}
	// Root finding should never fail in the valid domain; fall back to
	// Brent for robustness at extreme parameters. The residual is singular
	// at b_b = -S and meaningless beyond the buffer, so the bracketing
	// expansion is confined to [0, B].
	g := func(bb float64) float64 {
		return s + s*bdp/(s+bb) - k*(b-bb)
	}
	lo, hi, err := numeric.BracketRootIn(g, b/4, 3*b/4, 0, b, 60)
	if err != nil {
		return 0, fmt.Errorf("bracketing Eq 18 residual in [0, %g]: %w", b, err)
	}
	root, err := numeric.Brent(g, lo, hi, 1e-6)
	if err != nil {
		return 0, err
	}
	return root, nil
}
