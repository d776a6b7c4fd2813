package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"bbrnash/internal/numeric"
	"bbrnash/internal/units"
)

func baseScenario() Scenario {
	return Scenario{
		Capacity: 50 * units.Mbps,
		Buffer:   units.BufferBytes(50*units.Mbps, 40*time.Millisecond, 3),
		RTT:      40 * time.Millisecond,
		NumCubic: 1,
		NumBBR:   1,
	}
}

// Hand-computed reference point: C = 50 Mbps, RTT = 40 ms (BDP = 250 kB),
// B = 3 BDP = 750 kB, one CUBIC vs one BBR, synchronized.
// S = 250 kB, K = 0.7·(4/3) = 14/15, and the quadratic root is exactly
// b_b = 375 kB, giving a 25/25 Mbps split.
func TestPredictHandComputedPoint(t *testing.T) {
	p, err := Predict(baseScenario(), Synchronized)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(p.BBRBuffer)-375000) > 1 {
		t.Errorf("b_b = %v, want 375000", float64(p.BBRBuffer))
	}
	if math.Abs(p.AggBBR.Mbit()-25) > 0.01 {
		t.Errorf("AggBBR = %v Mbps, want 25", p.AggBBR.Mbit())
	}
	if math.Abs(p.AggCubic.Mbit()-25) > 0.01 {
		t.Errorf("AggCubic = %v Mbps, want 25", p.AggCubic.Mbit())
	}
	if p.Regime != RegimeValid {
		t.Errorf("Regime = %v, want valid", p.Regime)
	}
	// RTT⁺ = RTT + S/C = 40ms + 250000/6.25e6 s = 80 ms.
	if p.RTTPlus != 80*time.Millisecond {
		t.Errorf("RTTPlus = %v, want 80ms", p.RTTPlus)
	}
}

func TestPredictValidation(t *testing.T) {
	bad := []Scenario{
		{Capacity: 0, Buffer: 1, RTT: time.Millisecond, NumCubic: 1, NumBBR: 1},
		{Capacity: 1, Buffer: 0, RTT: time.Millisecond, NumCubic: 1, NumBBR: 1},
		{Capacity: 1, Buffer: 1, RTT: 0, NumCubic: 1, NumBBR: 1},
		{Capacity: 1, Buffer: 1, RTT: time.Millisecond, NumCubic: -1, NumBBR: 1},
		{Capacity: 1, Buffer: 1, RTT: time.Millisecond},
	}
	for i, s := range bad {
		if _, err := Predict(s, Synchronized); err == nil {
			t.Errorf("scenario %d accepted", i)
		}
	}
}

func TestPredictDegenerateMixes(t *testing.T) {
	s := baseScenario()
	s.NumBBR = 0
	s.NumCubic = 4
	p, err := Predict(s, Synchronized)
	if err != nil {
		t.Fatal(err)
	}
	if p.AggCubic != s.Capacity || p.AggBBR != 0 {
		t.Errorf("all-CUBIC: agg = %v/%v", p.AggCubic, p.AggBBR)
	}
	if p.PerCubic != s.Capacity/4 {
		t.Errorf("PerCubic = %v", p.PerCubic)
	}

	s.NumBBR = 5
	s.NumCubic = 0
	p, err = Predict(s, Synchronized)
	if err != nil {
		t.Fatal(err)
	}
	if p.AggBBR != s.Capacity || p.PerBBR != s.Capacity/5 {
		t.Errorf("all-BBR: agg = %v per = %v", p.AggBBR, p.PerBBR)
	}
}

func TestPredictOneBDPBoundary(t *testing.T) {
	s := baseScenario()
	s.Buffer = units.BufferBytes(s.Capacity, s.RTT, 1)
	p, err := Predict(s, Synchronized)
	if err != nil {
		t.Fatal(err)
	}
	if p.AggBBR != s.Capacity {
		t.Errorf("at 1 BDP, AggBBR = %v, want full capacity", p.AggBBR)
	}
	if p.Regime != RegimeValid {
		t.Errorf("Regime = %v", p.Regime)
	}
}

func TestRegimes(t *testing.T) {
	s := baseScenario()
	s.Buffer = units.BufferBytes(s.Capacity, s.RTT, 0.5)
	if p, _ := Predict(s, Synchronized); p.Regime != RegimeShallow {
		t.Errorf("0.5 BDP regime = %v", p.Regime)
	}
	s.Buffer = units.BufferBytes(s.Capacity, s.RTT, 150)
	if p, _ := Predict(s, Synchronized); p.Regime != RegimeUltraDeep {
		t.Errorf("150 BDP regime = %v", p.Regime)
	}
}

func TestSharesSumToCapacityProperty(t *testing.T) {
	f := func(bufQ uint8, nc, nb uint8) bool {
		s := baseScenario()
		s.Buffer = units.BufferBytes(s.Capacity, s.RTT, 1+float64(bufQ%200)/4) // 1..50.75 BDP
		s.NumCubic = int(nc%10) + 1
		s.NumBBR = int(nb%10) + 1
		for _, mode := range []SyncMode{Synchronized, Desynchronized} {
			p, err := Predict(s, mode)
			if err != nil {
				return false
			}
			if math.Abs(float64(p.AggBBR+p.AggCubic-s.Capacity)) > 1 {
				return false
			}
			if p.AggBBR < 0 || p.AggCubic < 0 {
				return false
			}
			if float64(p.BBRBuffer) < 0 || float64(p.BBRBuffer) > float64(s.Buffer) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBBRShareDecreasesWithBuffer(t *testing.T) {
	s := baseScenario()
	prev := math.Inf(1)
	for _, bdp := range []float64{1.5, 2, 3, 5, 10, 20, 30, 50} {
		s.Buffer = units.BufferBytes(s.Capacity, s.RTT, bdp)
		p, err := Predict(s, Synchronized)
		if err != nil {
			t.Fatal(err)
		}
		if float64(p.AggBBR) > prev+1 {
			t.Errorf("AggBBR increased at %v BDP: %v > %v", bdp, float64(p.AggBBR), prev)
		}
		prev = float64(p.AggBBR)
	}
}

// The de-synchronized bound always gives BBR at least as much bandwidth as
// the synchronized bound (it is the upper edge of the predicted region).
func TestSyncBoundBelowDesyncBound(t *testing.T) {
	f := func(bufQ uint8, nc uint8) bool {
		s := baseScenario()
		s.Buffer = units.BufferBytes(s.Capacity, s.RTT, 1.2+float64(bufQ%100)/3)
		s.NumCubic = int(nc%15) + 2 // ≥2 so the bounds differ
		s.NumBBR = 3
		iv, err := PredictInterval(s)
		if err != nil {
			return false
		}
		return float64(iv.Desync.AggBBR) >= float64(iv.Sync.AggBBR)-1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// With one CUBIC flow the two bounds coincide: (1-0.3)/1 = 0.7.
func TestBoundsCoincideForSingleCubic(t *testing.T) {
	iv, err := PredictInterval(baseScenario())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(iv.Sync.AggBBR-iv.Desync.AggBBR)) > 1 {
		t.Errorf("bounds differ for Nc=1: %v vs %v", iv.Sync.AggBBR, iv.Desync.AggBBR)
	}
}

// Per-flow BBR bandwidth must decrease as the proportion of BBR flows grows
// (the diminishing-returns result of §3.3, Figure 5).
func TestDiminishingReturns(t *testing.T) {
	s := baseScenario()
	s.Buffer = units.BufferBytes(s.Capacity, s.RTT, 10)
	const n = 10
	prev := math.Inf(1)
	for nb := 1; nb < n; nb++ {
		s.NumBBR = nb
		s.NumCubic = n - nb
		p, err := Predict(s, Synchronized)
		if err != nil {
			t.Fatal(err)
		}
		if float64(p.PerBBR) >= prev {
			t.Errorf("per-flow BBR bandwidth did not decrease at Nb=%d: %v >= %v", nb, float64(p.PerBBR), prev)
		}
		prev = float64(p.PerBBR)
	}
}

// The quadratic solution of Eq 18 must agree with an independent Brent
// solve of the original rational equation.
func TestQuadraticAgreesWithBrent(t *testing.T) {
	f := func(bufQ, fQ uint8) bool {
		bdp := 250000.0
		b := bdp * (1.2 + float64(bufQ%200)/4)
		sVal := (b - bdp) / 2
		frac := 0.7 + 0.3*float64(fQ%100)/100*0.99 // f in [0.7, ~1)
		bb, err := solveBBRBuffer(b, bdp, sVal, frac)
		if err != nil {
			return false
		}
		k := frac * (1 + bdp/b)
		g := func(x float64) float64 { return sVal + sVal*bdp/(sVal+x) - k*(b-x) }
		ref, err := numeric.Brent(g, 0, b, 1e-9)
		if err != nil {
			return false
		}
		return math.Abs(bb-ref) < 1e-3*b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntervalContains(t *testing.T) {
	iv, err := PredictInterval(baseScenario())
	if err != nil {
		t.Fatal(err)
	}
	mid := (iv.Sync.PerBBR + iv.Desync.PerBBR) / 2
	if !iv.ContainsBBRPerFlow(mid, 0.01) {
		t.Error("midpoint not contained")
	}
	if iv.ContainsBBRPerFlow(iv.Desync.PerBBR*2, 0.01) {
		t.Error("far point contained")
	}
}

func TestScenarioHelpers(t *testing.T) {
	s := baseScenario()
	if got := s.BDP(); got != 250000 {
		t.Errorf("BDP = %v", got)
	}
	if got := s.BufferBDP(); math.Abs(got-3) > 1e-9 {
		t.Errorf("BufferBDP = %v", got)
	}
	if got := s.FairShare(); got != 25*units.Mbps {
		t.Errorf("FairShare = %v", got)
	}
	if (Scenario{}).FairShare() != 0 {
		t.Error("FairShare of empty scenario should be 0")
	}
}

func TestStringers(t *testing.T) {
	if Synchronized.String() != "synchronized" || Desynchronized.String() != "desynchronized" || SyncMode(9).String() != "unknown" {
		t.Error("SyncMode.String wrong")
	}
	if RegimeValid.String() != "valid" || RegimeShallow.String() != "shallow(<1BDP)" ||
		RegimeUltraDeep.String() != "ultra-deep(>100BDP)" || Regime(9).String() != "unknown" {
		t.Error("Regime.String wrong")
	}
}

// TestContainsBBRPerFlowInvertedInterval pins the slack-ordering regression:
// slack used to be applied to the endpoints before they were ordered, so an
// inverted interval (Sync.PerBBR > Desync.PerBBR) was narrowed on one side
// — lo became max*(1-slack) only after the swap, while hi had been computed
// from the smaller endpoint — instead of widened on both.
func TestContainsBBRPerFlowInvertedInterval(t *testing.T) {
	iv := Interval{
		Sync:   Prediction{PerBBR: 20 * units.Mbps}, // inverted: sync above desync
		Desync: Prediction{PerBBR: 10 * units.Mbps},
	}
	const slack = 0.1
	// Just below the low endpoint and just above the high one: both are
	// within 10% slack of the ordered interval [10, 20] and must be inside.
	for _, r := range []units.Rate{
		9.5 * units.Mbps,  // 10*(1-slack)=9 <= 9.5
		10 * units.Mbps,   // the (ordered) low endpoint itself
		20 * units.Mbps,   // the (ordered) high endpoint itself
		21.5 * units.Mbps, // 20*(1+slack)=22 >= 21.5
	} {
		if !iv.ContainsBBRPerFlow(r, slack) {
			t.Errorf("inverted interval rejects %v with slack %v", r, slack)
		}
	}
	// Outside the widened bounds stays outside.
	for _, r := range []units.Rate{8 * units.Mbps, 23 * units.Mbps} {
		if iv.ContainsBBRPerFlow(r, slack) {
			t.Errorf("inverted interval accepts %v with slack %v", r, slack)
		}
	}

	// A properly ordered interval behaves identically to before.
	ok := Interval{
		Sync:   Prediction{PerBBR: 10 * units.Mbps},
		Desync: Prediction{PerBBR: 20 * units.Mbps},
	}
	if !ok.ContainsBBRPerFlow(9.5*units.Mbps, slack) || ok.ContainsBBRPerFlow(8*units.Mbps, slack) {
		t.Error("ordered interval misclassifies with slack")
	}
}
