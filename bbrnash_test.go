package bbrnash_test

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"bbrnash"
)

// The facade must expose a working end-to-end path: model prediction,
// simulation, and agreement between the two.
func TestFacadePredictAndSimulate(t *testing.T) {
	const rtt = 40 * time.Millisecond
	capacity := 50 * bbrnash.Mbps
	buf := bbrnash.BufferBytes(capacity, rtt, 5)

	p, err := bbrnash.Predict(bbrnash.Scenario{
		Capacity: capacity, Buffer: buf, RTT: rtt, NumCubic: 1, NumBBR: 1,
	}, bbrnash.Synchronized)
	if err != nil {
		t.Fatal(err)
	}
	if p.AggBBR <= 0 || p.AggBBR >= capacity {
		t.Fatalf("model AggBBR = %v", p.AggBBR)
	}

	n, err := bbrnash.NewNetwork(bbrnash.NetworkConfig{Capacity: capacity, Buffer: buf})
	if err != nil {
		t.Fatal(err)
	}
	fb, err := n.AddFlow(bbrnash.FlowConfig{Name: "bbr", RTT: rtt, Algorithm: bbrnash.BBR})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddFlow(bbrnash.FlowConfig{Name: "cubic", RTT: rtt, Algorithm: bbrnash.CUBIC}); err != nil {
		t.Fatal(err)
	}
	n.Run(60 * time.Second)
	got := float64(fb.Stats().Throughput)
	want := float64(p.AggBBR)
	if math.Abs(got-want)/want > 0.35 {
		t.Errorf("sim %v vs model %v differ by more than 35%%", got, want)
	}
}

func TestFacadeAlgorithms(t *testing.T) {
	ctors := map[string]bbrnash.AlgorithmConstructor{
		"cubic": bbrnash.CUBIC, "reno": bbrnash.NewReno, "bbr": bbrnash.BBR,
		"bbrv2": bbrnash.BBRv2, "copa": bbrnash.Copa, "vivace": bbrnash.Vivace,
	}
	for want, ctor := range ctors {
		if got := ctor(bbrnash.AlgorithmParams{}).Name(); got != want {
			t.Errorf("constructor name = %q, want %q", got, want)
		}
		byName, err := bbrnash.AlgorithmByName(want)
		if err != nil {
			t.Errorf("AlgorithmByName(%q): %v", want, err)
			continue
		}
		if byName(bbrnash.AlgorithmParams{}).Name() != want {
			t.Errorf("registry mismatch for %q", want)
		}
	}
}

func TestFacadeNash(t *testing.T) {
	region, err := bbrnash.PredictNashRegion(bbrnash.NashScenario{
		Capacity: 100 * bbrnash.Mbps,
		Buffer:   bbrnash.BufferBytes(100*bbrnash.Mbps, 40*time.Millisecond, 5),
		RTT:      40 * time.Millisecond,
		N:        20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if region.CubicLow() < 0 || region.CubicHigh() > 20 {
		t.Errorf("region out of range: [%v, %v]", region.CubicLow(), region.CubicHigh())
	}
}

func TestFacadeFigures(t *testing.T) {
	if len(bbrnash.Figures()) != 24 {
		t.Errorf("expected 24 figures, got %d", len(bbrnash.Figures()))
	}
	if _, err := bbrnash.FigureByID("7"); err != nil {
		t.Error(err)
	}
}

func TestFacadeScales(t *testing.T) {
	// Every scale uses the paper's 2-minute flows (shorter flows bias BBR
	// down); scales differ in trials and sweep density instead.
	for _, s := range []bbrnash.ExperimentScale{bbrnash.FullScale, bbrnash.QuickScale, bbrnash.SmokeScale} {
		if s.FlowDuration != 2*time.Minute {
			t.Errorf("%s scale FlowDuration = %v, want 2m", s.Name, s.FlowDuration)
		}
	}
	if bbrnash.SmokeScale.Trials >= bbrnash.FullScale.Trials {
		t.Error("smoke scale should run fewer trials than full")
	}
	if !bbrnash.FullScale.Exhaustive {
		t.Error("full scale should use exhaustive NE scans")
	}
}

// RunScenario is the facade's one way to run a spec: a short fluid mix run
// twice against one cache simulates once and replays the same result.
func TestRunScenario(t *testing.T) {
	const rtt = 40 * time.Millisecond
	capacity := 20 * bbrnash.Mbps
	sp := bbrnash.MixScenario("bbr", 1, 1, capacity, bbrnash.BufferBytes(capacity, rtt, 2), rtt, 5*time.Second)
	sp.Backend = "fluid"
	env := bbrnash.ScenarioEnv{Cache: bbrnash.NewResultCache()}
	first, hit, err := bbrnash.RunScenario(context.Background(), sp, env)
	if err != nil || hit {
		t.Fatalf("first run: hit=%v err=%v", hit, err)
	}
	if len(first.Groups) != 2 || len(first.Groups[0]) != 1 || first.Groups[0][0].Throughput <= 0 {
		t.Fatalf("first run's result lacks a BBR flow with positive throughput: %+v", first)
	}
	again, hit, err := bbrnash.RunScenario(context.Background(), sp, env)
	if err != nil || !hit {
		t.Fatalf("second run: hit=%v err=%v", hit, err)
	}
	if !reflect.DeepEqual(again, first) {
		t.Errorf("replayed result differs from the first run:\n%+v\nvs\n%+v", again, first)
	}
}
