// Benchmarks regenerating every table and figure in the paper's evaluation,
// plus micro-benchmarks of the substrate and ablation benchmarks for the
// design choices called out in DESIGN.md.
//
// Each BenchmarkFigXX runs the corresponding figure generator and prints
// its summary notes once; the full series (CSV + ASCII chart) comes from
// `go run ./cmd/figures -fig <id>`. Benchmarks default to a reduced scale
// so the whole suite finishes on one core; set BBRNASH_BENCH_SCALE=quick or
// =full to rerun closer to the paper's protocol (full takes hours).
//
// Nash-equilibrium payoff measurements always use the paper's two-minute
// flows regardless of scale (see exp.FindNE), so the equilibrium positions
// these benchmarks print are directly comparable to Figures 9-11.
package bbrnash_test

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"bbrnash/internal/cc"
	"bbrnash/internal/cc/bbr"
	"bbrnash/internal/cc/cubic"
	"bbrnash/internal/core"
	"bbrnash/internal/exp"
	"bbrnash/internal/netsim"
	"bbrnash/internal/numeric"
	"bbrnash/internal/scenario"
	"bbrnash/internal/units"
)

// benchScale returns the scale benchmarks run at. The NE searches (figures
// 9-11) get a narrower sweep because each payoff evaluation is a two-minute
// 30-50 flow simulation.
func benchScale(heavy bool) exp.Scale {
	name := os.Getenv("BBRNASH_BENCH_SCALE")
	if name == "" {
		s := exp.Smoke
		if heavy {
			s.SweepPoints = 2
		}
		return s
	}
	s, err := exp.ScaleByName(name)
	if err != nil {
		panic(err)
	}
	return s
}

func benchmarkFigure(b *testing.B, id string, heavy bool) {
	fig, err := exp.FigureByID(id)
	if err != nil {
		b.Fatal(err)
	}
	scale := benchScale(heavy)
	for i := 0; i < b.N; i++ {
		res, err := fig.Generate(scale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, note := range res.Notes {
				fmt.Printf("  fig %s [%s scale]: %s\n", id, scale.Name, note)
			}
		}
	}
}

// One benchmark per figure in the paper's evaluation.

func BenchmarkFig01(b *testing.B)  { benchmarkFigure(b, "1", false) }
func BenchmarkFig03a(b *testing.B) { benchmarkFigure(b, "3a", false) }
func BenchmarkFig03b(b *testing.B) { benchmarkFigure(b, "3b", false) }
func BenchmarkFig03c(b *testing.B) { benchmarkFigure(b, "3c", false) }
func BenchmarkFig03d(b *testing.B) { benchmarkFigure(b, "3d", false) }
func BenchmarkFig04a(b *testing.B) { benchmarkFigure(b, "4a", false) }
func BenchmarkFig04b(b *testing.B) { benchmarkFigure(b, "4b", false) }
func BenchmarkFig05a(b *testing.B) { benchmarkFigure(b, "5a", false) }
func BenchmarkFig05b(b *testing.B) { benchmarkFigure(b, "5b", false) }
func BenchmarkFig05c(b *testing.B) { benchmarkFigure(b, "5c", false) }
func BenchmarkFig05d(b *testing.B) { benchmarkFigure(b, "5d", false) }
func BenchmarkFig06(b *testing.B)  { benchmarkFigure(b, "6", false) }
func BenchmarkFig07(b *testing.B)  { benchmarkFigure(b, "7", false) }
func BenchmarkFig08(b *testing.B)  { benchmarkFigure(b, "8", false) }
func BenchmarkFig09a(b *testing.B) { benchmarkFigure(b, "9a", true) }
func BenchmarkFig09b(b *testing.B) { benchmarkFigure(b, "9b", true) }
func BenchmarkFig09c(b *testing.B) { benchmarkFigure(b, "9c", true) }
func BenchmarkFig09d(b *testing.B) { benchmarkFigure(b, "9d", true) }
func BenchmarkFig09e(b *testing.B) { benchmarkFigure(b, "9e", true) }
func BenchmarkFig09f(b *testing.B) { benchmarkFigure(b, "9f", true) }
func BenchmarkFig10(b *testing.B)  { benchmarkFigure(b, "10", true) }
func BenchmarkFig11a(b *testing.B) { benchmarkFigure(b, "11a", true) }
func BenchmarkFig11b(b *testing.B) { benchmarkFigure(b, "11b", true) }
func BenchmarkFig12(b *testing.B)  { benchmarkFigure(b, "12", false) }

// Micro-benchmarks of the substrate.

// BenchmarkModelPredict measures one closed-form model evaluation.
func BenchmarkModelPredict(b *testing.B) {
	s := core.Scenario{
		Capacity: 100 * units.Mbps,
		Buffer:   units.BufferBytes(100*units.Mbps, 40*time.Millisecond, 10),
		RTT:      40 * time.Millisecond,
		NumCubic: 25, NumBBR: 25,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Predict(s, core.Synchronized); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNashPredict measures a full model-side NE region computation.
func BenchmarkNashPredict(b *testing.B) {
	ns := core.NashScenario{
		Capacity: 100 * units.Mbps,
		Buffer:   units.BufferBytes(100*units.Mbps, 40*time.Millisecond, 10),
		RTT:      40 * time.Millisecond,
		N:        50,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PredictNashRegion(ns); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benchmarks for the design choices in DESIGN.md §7. Each runs a
// head-to-head and reports the outcome as metrics (and a printed line).

// BenchmarkAblationCwndGain shows that BBR's 2xBDP in-flight cap is the
// mechanism behind its bandwidth share: raising or lowering the cap moves
// the share against CUBIC accordingly.
func BenchmarkAblationCwndGain(b *testing.B) {
	for _, gain := range []float64{1.0, 2.0, 3.0} {
		gain := gain
		b.Run(fmt.Sprintf("gain%.0f", gain), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n, err := netsim.New(netsim.Config{
					Capacity: 50 * units.Mbps,
					Buffer:   units.BufferBytes(50*units.Mbps, 40*time.Millisecond, 5),
				})
				if err != nil {
					b.Fatal(err)
				}
				ctor := func(p cc.Params) cc.Algorithm {
					return bbr.NewWithOptions(p, bbr.WithCwndGain(gain), bbr.WithCycleOffset(0))
				}
				fb, err := n.AddFlow(netsim.FlowConfig{RTT: 40 * time.Millisecond, Algorithm: ctor})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := n.AddFlow(netsim.FlowConfig{RTT: 40 * time.Millisecond, Algorithm: cubic.New}); err != nil {
					b.Fatal(err)
				}
				n.Run(60 * time.Second)
				share := float64(fb.Stats().Throughput) / (50e6)
				b.ReportMetric(share, "bbr-share")
				if i == 0 {
					fmt.Printf("  ablation cwnd gain %.0f: BBR share %.2f of link\n", gain, share)
				}
			}
		})
	}
}

// BenchmarkAblationModelApproximation quantifies the paper's b_b+b_c=B
// simplification by comparing the published closed form to the exact-form
// variant (core.PredictExact) across the buffer sweep.
func BenchmarkAblationModelApproximation(b *testing.B) {
	s := core.Scenario{
		Capacity: 50 * units.Mbps, RTT: 40 * time.Millisecond, NumCubic: 1, NumBBR: 1,
	}
	grid := numeric.Arange(2, 40, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var maxDiff float64
		for _, bdp := range grid {
			s.Buffer = units.BufferBytes(s.Capacity, s.RTT, bdp)
			pub, err := core.Predict(s, core.Synchronized)
			if err != nil {
				b.Fatal(err)
			}
			exact, err := core.PredictExact(s, core.Synchronized)
			if err != nil {
				b.Fatal(err)
			}
			diff := float64(pub.AggBBR-exact.AggBBR) / float64(s.Capacity)
			if diff < 0 {
				diff = -diff
			}
			if diff > maxDiff {
				maxDiff = diff
			}
		}
		b.ReportMetric(100*maxDiff, "max-diff-%capacity")
		if i == 0 {
			fmt.Printf("  ablation approximation: published vs exact form differ by at most %.1f%% of capacity\n", 100*maxDiff)
		}
	}
}

// BenchmarkAblationSyncBound checks which synchronization bound tracks the
// simulator in the paper's Figure 4 setting. Like the paper's §2.4
// observation ("empirical results are generally much closer to the case
// where CUBIC flows are synchronized"), our measurements hug the
// synchronized bound: BBR's collective ProbeRTT exits overflow the buffer
// and synchronize the CUBIC backoffs (§5, "Forced synchronization").
func BenchmarkAblationSyncBound(b *testing.B) {
	const rtt = 40 * time.Millisecond
	capacity := 100 * units.Mbps
	grid := []float64{3, 8, 15, 25}
	for i := 0; i < b.N; i++ {
		closerToDesync := 0
		for _, bdp := range grid {
			buf := units.BufferBytes(capacity, rtt, bdp)
			iv, err := core.PredictInterval(core.Scenario{
				Capacity: capacity, Buffer: buf, RTT: rtt, NumCubic: 5, NumBBR: 5,
			})
			if err != nil {
				b.Fatal(err)
			}
			sp := scenario.Mix("bbr", 5, 5, capacity, buf, rtt, 2*time.Minute)
			sp.Seed = 11
			res, _, err := exp.Run(context.Background(), sp, exp.Env{})
			if err != nil {
				b.Fatal(err)
			}
			perBBR := perFlow(res.Groups[0])
			dSync := abs(float64(perBBR - iv.Sync.PerBBR))
			dDesync := abs(float64(perBBR - iv.Desync.PerBBR))
			if dDesync < dSync {
				closerToDesync++
			}
		}
		b.ReportMetric(float64(closerToDesync)/float64(len(grid)), "frac-closer-desync")
		if i == 0 {
			fmt.Printf("  ablation sync bound: %d/%d points closer to the de-synchronized bound\n",
				closerToDesync, len(grid))
		}
	}
}

// BenchmarkAblationFastConvergence compares two-flow CUBIC convergence with
// the fast-convergence heuristic on and off.
func BenchmarkAblationFastConvergence(b *testing.B) {
	run := func(fast bool) float64 {
		n, err := netsim.New(netsim.Config{
			Capacity: 50 * units.Mbps,
			Buffer:   units.BufferBytes(50*units.Mbps, 40*time.Millisecond, 2),
		})
		if err != nil {
			b.Fatal(err)
		}
		ctor := cubic.New
		if !fast {
			ctor = func(p cc.Params) cc.Algorithm {
				return cubic.NewWithOptions(p, cubic.WithoutFastConvergence())
			}
		}
		fa, _ := n.AddFlow(netsim.FlowConfig{RTT: 40 * time.Millisecond, Algorithm: ctor})
		fb, _ := n.AddFlow(netsim.FlowConfig{RTT: 40 * time.Millisecond, Start: 10 * time.Second, Algorithm: ctor})
		n.Run(70 * time.Second)
		ta, tb := float64(fa.Stats().Throughput), float64(fb.Stats().Throughput)
		return (ta + tb) * (ta + tb) / (2 * (ta*ta + tb*tb)) // Jain index
	}
	for i := 0; i < b.N; i++ {
		on := run(true)
		off := run(false)
		b.ReportMetric(on, "jain-fastconv")
		b.ReportMetric(off, "jain-nofastconv")
		if i == 0 {
			fmt.Printf("  ablation fast convergence: Jain %.3f with vs %.3f without\n", on, off)
		}
	}
}

// BenchmarkAblationCubicVsReno reproduces the historical transition the
// paper discusses in §5: CUBIC outgrows Reno on a high-BDP path, which is
// why that switch was an easy call compared to CUBIC vs BBR.
func BenchmarkAblationCubicVsReno(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sp := scenario.Mix("reno", 1, 1, 100*units.Mbps,
			units.BufferBytes(100*units.Mbps, 80*time.Millisecond, 1), 80*time.Millisecond, 2*time.Minute)
		res, _, err := exp.Run(context.Background(), sp, exp.Env{})
		if err != nil {
			b.Fatal(err)
		}
		ratio := float64(perFlow(res.Groups[1])) / float64(perFlow(res.Groups[0]))
		b.ReportMetric(ratio, "cubic/reno")
		if i == 0 {
			fmt.Printf("  ablation cubic vs reno at high BDP: CUBIC/Reno throughput ratio %.2f\n", ratio)
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// perFlow is the mean throughput of one spec group's flows.
func perFlow(stats []netsim.FlowStats) units.Rate {
	var sum units.Rate
	for _, st := range stats {
		sum += st.Throughput
	}
	return sum / units.Rate(len(stats))
}

// BenchmarkScalingLargeN probes §5's open question — do the predictions
// hold for hundreds of concurrent flows? — with a 200-flow, 1 Gbps
// bottleneck at the model's predicted equilibrium. The reported metric is
// the per-flow BBR/CUBIC payoff ratio there (≈1 at a true equilibrium).
func BenchmarkScalingLargeN(b *testing.B) {
	const n = 200
	const rtt = 40 * time.Millisecond
	capacity := units.Gbps
	buf := units.BufferBytes(capacity, rtt, 3)
	pt, err := core.PredictNash(core.NashScenario{
		Capacity: capacity, Buffer: buf, RTT: rtt, N: n,
	}, core.Synchronized)
	if err != nil {
		b.Fatal(err)
	}
	nb := int(pt.BBRFlows + 0.5)
	for i := 0; i < b.N; i++ {
		sp := scenario.Mix("bbr", nb, n-nb, capacity, buf, rtt, 2*time.Minute)
		sp.Seed = 99
		res, _, err := exp.Run(context.Background(), sp, exp.Env{})
		if err != nil {
			b.Fatal(err)
		}
		ratio := float64(perFlow(res.Groups[0])) / float64(perFlow(res.Groups[1]))
		b.ReportMetric(ratio, "bbr/cubic-at-NE")
		if i == 0 {
			fmt.Printf("  scaling: N=200 at model NE (%d BBR): per-flow BBR/CUBIC = %.2f (1.0 = equilibrium)\n", nb, ratio)
		}
	}
}
