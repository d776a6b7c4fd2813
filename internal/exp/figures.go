package exp

import (
	"fmt"
	"time"

	"bbrnash/internal/core"
	"bbrnash/internal/numeric"
	"bbrnash/internal/plot"
	"bbrnash/internal/scenario"
	"bbrnash/internal/units"
)

// Figure is one reproducible artifact from the paper's evaluation.
type Figure struct {
	// ID matches the paper's numbering ("1", "3a", ..., "12").
	ID string
	// Title describes the experiment.
	Title string
	// Generate runs the experiment at the given scale.
	Generate func(Scale) (*FigureResult, error)
}

// FigureResult is a generated figure: one or more charts plus notes
// summarizing the headline comparison for EXPERIMENTS.md.
type FigureResult struct {
	ID     string
	Title  string
	Charts []*plot.Chart
	Notes  []string
}

// Figures returns the full registry in paper order.
func Figures() []Figure {
	var figs []Figure
	add := func(id, title string, gen func(Scale) (*FigureResult, error)) {
		figs = append(figs, Figure{ID: id, Title: title, Generate: gen})
	}

	add("1", "Ware et al. prediction vs BBR's actual share (50 Mbps, 40 ms)", Fig1)

	for _, v := range []struct {
		id  string
		cap units.Rate
		rtt time.Duration
	}{
		{"3a", 50 * units.Mbps, 40 * time.Millisecond},
		{"3b", 50 * units.Mbps, 80 * time.Millisecond},
		{"3c", 100 * units.Mbps, 40 * time.Millisecond},
		{"3d", 100 * units.Mbps, 80 * time.Millisecond},
	} {
		v := v
		add(v.id, fmt.Sprintf("2-flow model validation (%v, %v)", v.cap, v.rtt),
			func(s Scale) (*FigureResult, error) { return Fig3(s, v.id, v.cap, v.rtt) })
	}

	for _, v := range []struct {
		id    string
		nEach int
	}{{"4a", 5}, {"4b", 10}} {
		v := v
		add(v.id, fmt.Sprintf("multi-flow model validation (%dv%d, 100 Mbps, 40 ms)", v.nEach, v.nEach),
			func(s Scale) (*FigureResult, error) { return Fig4(s, v.id, v.nEach) })
	}

	for _, v := range []struct {
		id     string
		n      int
		bufBDP float64
	}{{"5a", 10, 3}, {"5b", 20, 3}, {"5c", 10, 10}, {"5d", 20, 10}} {
		v := v
		add(v.id, fmt.Sprintf("diminishing returns (%d flows, %g BDP buffer)", v.n, v.bufBDP),
			func(s Scale) (*FigureResult, error) { return Fig5(s, v.id, v.n, v.bufBDP) })
	}

	add("6", "Nash Equilibrium construction (model per-flow BBR bandwidth vs fair share)", Fig6)
	add("7", "disproportionate share for BBR/BBRv2/Copa/Vivace vs CUBIC (10 flows, 2 BDP)", Fig7)
	add("8", "throughput and queueing delay vs distribution (10 flows, 2 BDP)", Fig8)

	for _, v := range []struct {
		id  string
		cap units.Rate
		rtt time.Duration
	}{
		{"9a", 50 * units.Mbps, 20 * time.Millisecond},
		{"9b", 50 * units.Mbps, 40 * time.Millisecond},
		{"9c", 50 * units.Mbps, 80 * time.Millisecond},
		{"9d", 100 * units.Mbps, 20 * time.Millisecond},
		{"9e", 100 * units.Mbps, 40 * time.Millisecond},
		{"9f", 100 * units.Mbps, 80 * time.Millisecond},
	} {
		v := v
		add(v.id, fmt.Sprintf("predicted vs observed NE, 50 flows (%v, %v)", v.cap, v.rtt),
			func(s Scale) (*FigureResult, error) { return Fig9(s, v.id, v.cap, v.rtt, nil, "bbr") })
	}

	add("10", "NE with mixed RTTs (30 flows: 10/30/50 ms)", Fig10)

	for _, v := range []struct {
		id  string
		cap units.Rate
	}{{"11a", 50 * units.Mbps}, {"11b", 100 * units.Mbps}} {
		v := v
		add(v.id, fmt.Sprintf("NE for BBRv2, 50 flows (%v)", v.cap),
			func(s Scale) (*FigureResult, error) { return Fig11(s, v.id, v.cap) })
	}

	add("12", "ultra-deep buffers: model validity limit (1-250 BDP)", Fig12)
	return figs
}

// FigureByID finds a figure.
func FigureByID(id string) (Figure, error) {
	for _, f := range Figures() {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("exp: unknown figure %q", id)
}

// Fig1 reproduces Figure 1: Ware et al.'s prediction against BBR's actual
// bandwidth share for one CUBIC vs one BBR flow at 50 Mbps / 40 ms, buffer
// 1-50 BDP.
func Fig1(s Scale) (*FigureResult, error) {
	const rtt = 40 * time.Millisecond
	capacity := 50 * units.Mbps
	grid := s.thin(numeric.Arange(1, 50, 2))

	sims, err := s.Sweep(1, len(grid), func(i int) scenario.Spec {
		return scenario.Mix("bbr", 1, 1, capacity,
			units.BufferBytes(capacity, rtt, grid[i]), rtt, s.FlowDuration)
	})
	if err != nil {
		return nil, err
	}
	var ware, actual []float64
	for i, bdp := range grid {
		buf := units.BufferBytes(capacity, rtt, bdp)
		wp, err := core.PredictWare(core.WareScenario{
			Capacity: capacity, Buffer: buf, RTT: rtt, NumBBR: 1, Duration: s.FlowDuration,
		})
		if err != nil {
			return nil, err
		}
		ware = append(ware, wp.AggBBR.Mbit())
		actual = append(actual, sims[i].Agg[0].Mbit())
	}
	chart := &plot.Chart{Title: "Fig 1: BBR bandwidth share, 50 Mbps / 40 ms", XLabel: "buffer (BDP)", YLabel: "bandwidth (Mbps)"}
	chart.Add("ware", grid, ware)
	chart.Add("actual", grid, actual)
	return &FigureResult{
		ID: "1", Title: "Ware et al. vs actual", Charts: []*plot.Chart{chart},
		Notes: []string{
			fmt.Sprintf("mean |ware-actual| error %.0f%% (paper: at least 30%% in shallow buffers)",
				100*meanRelErr(ware, actual)),
		},
	}, nil
}

// Fig3 reproduces Figure 3: the 2-flow model against Ware et al. and the
// simulator across buffer sizes 1-30 BDP.
func Fig3(s Scale, id string, capacity units.Rate, rtt time.Duration) (*FigureResult, error) {
	grid := s.thin(numeric.Arange(1, 30, 0.5))

	sims, err := s.Sweep(3, len(grid), func(i int) scenario.Spec {
		return scenario.Mix("bbr", 1, 1, capacity,
			units.BufferBytes(capacity, rtt, grid[i]), rtt, s.FlowDuration)
	})
	if err != nil {
		return nil, err
	}
	var ours, ware, actual []float64
	for i, bdp := range grid {
		buf := units.BufferBytes(capacity, rtt, bdp)
		p, err := core.Predict(core.Scenario{
			Capacity: capacity, Buffer: buf, RTT: rtt, NumCubic: 1, NumBBR: 1,
		}, core.Synchronized)
		if err != nil {
			return nil, err
		}
		ours = append(ours, p.AggBBR.Mbit())
		wp, err := core.PredictWare(core.WareScenario{
			Capacity: capacity, Buffer: buf, RTT: rtt, NumBBR: 1, Duration: s.FlowDuration,
		})
		if err != nil {
			return nil, err
		}
		ware = append(ware, wp.AggBBR.Mbit())
		actual = append(actual, sims[i].Agg[0].Mbit())
	}
	chart := &plot.Chart{
		Title:  fmt.Sprintf("Fig %s: BBR share, %v / %v", id, capacity, rtt),
		XLabel: "buffer (BDP)", YLabel: "bandwidth (Mbps)",
	}
	chart.Add("ware", grid, ware)
	chart.Add("actual", grid, actual)
	chart.Add("our model", grid, ours)
	return &FigureResult{
		ID: id, Title: chart.Title, Charts: []*plot.Chart{chart},
		Notes: []string{
			fmt.Sprintf("our model mean error %.0f%%, ware mean error %.0f%% (paper: ~5%% vs >30%%)",
				100*meanRelErr(ours, actual), 100*meanRelErr(ware, actual)),
		},
	}, nil
}

// Fig4 reproduces Figure 4: the multi-flow model's confidence interval
// (sync and de-sync bounds) against measured per-flow BBR throughput for
// nEach vs nEach flows at 100 Mbps / 40 ms.
func Fig4(s Scale, id string, nEach int) (*FigureResult, error) {
	const rtt = 40 * time.Millisecond
	capacity := 100 * units.Mbps
	grid := s.thin(numeric.Arange(1, 30, 1))

	sims, err := s.Sweep(4, len(grid), func(i int) scenario.Spec {
		return scenario.Mix("bbr", nEach, nEach, capacity,
			units.BufferBytes(capacity, rtt, grid[i]), rtt, s.FlowDuration)
	})
	if err != nil {
		return nil, err
	}
	var syncB, desyncB, ware, actual []float64
	for i, bdp := range grid {
		buf := units.BufferBytes(capacity, rtt, bdp)
		iv, err := core.PredictInterval(core.Scenario{
			Capacity: capacity, Buffer: buf, RTT: rtt, NumCubic: nEach, NumBBR: nEach,
		})
		if err != nil {
			return nil, err
		}
		syncB = append(syncB, iv.Sync.PerBBR.Mbit())
		desyncB = append(desyncB, iv.Desync.PerBBR.Mbit())
		wp, err := core.PredictWare(core.WareScenario{
			Capacity: capacity, Buffer: buf, RTT: rtt, NumBBR: nEach, Duration: s.FlowDuration,
		})
		if err != nil {
			return nil, err
		}
		ware = append(ware, wp.AggBBR.Mbit()/float64(nEach))
		actual = append(actual, sims[i].PerFlow[0].Mbit())
	}
	chart := &plot.Chart{
		Title:  fmt.Sprintf("Fig %s: %dv%d per-flow BBR bandwidth", id, nEach, nEach),
		XLabel: "buffer (BDP)", YLabel: "avg per-flow bandwidth (Mbps)",
	}
	chart.Add("ware", grid, ware)
	chart.Add("sync bound", grid, syncB)
	chart.Add("desync bound", grid, desyncB)
	chart.Add("actual", grid, actual)
	inBand := 0
	for i := range actual {
		lo, hi := syncB[i], desyncB[i]
		if lo > hi {
			lo, hi = hi, lo
		}
		if actual[i] >= lo*0.95 && actual[i] <= hi*1.05 {
			inBand++
		}
	}
	return &FigureResult{
		ID: id, Title: chart.Title, Charts: []*plot.Chart{chart},
		Notes: []string{fmt.Sprintf("%d/%d measured points inside the predicted region (±5%%)", inBand, len(actual))},
	}, nil
}

// Fig5 reproduces Figure 5: per-flow BBR bandwidth as the number of BBR
// flows grows, against both model bounds (diminishing returns).
func Fig5(s Scale, id string, n int, bufBDP float64) (*FigureResult, error) {
	const rtt = 40 * time.Millisecond
	capacity := 100 * units.Mbps
	buf := units.BufferBytes(capacity, rtt, bufBDP)

	var grid []float64
	for nb := 1; nb <= n; nb++ {
		grid = append(grid, float64(nb))
	}
	grid = s.thin(grid)

	sims, err := s.Sweep(5, len(grid), func(i int) scenario.Spec {
		nb := int(grid[i])
		return scenario.Mix("bbr", nb, n-nb, capacity, buf, rtt, s.FlowDuration)
	})
	if err != nil {
		return nil, err
	}
	var syncB, desyncB, actual []float64
	for i, g := range grid {
		nb := int(g)
		iv, err := core.PredictInterval(core.Scenario{
			Capacity: capacity, Buffer: buf, RTT: rtt, NumCubic: n - nb, NumBBR: nb,
		})
		if err != nil {
			return nil, err
		}
		syncB = append(syncB, iv.Sync.PerBBR.Mbit())
		desyncB = append(desyncB, iv.Desync.PerBBR.Mbit())
		actual = append(actual, sims[i].PerFlow[0].Mbit())
	}
	chart := &plot.Chart{
		Title:  fmt.Sprintf("Fig %s: diminishing returns, %d flows, %g BDP", id, n, bufBDP),
		XLabel: "# of BBR flows", YLabel: "avg per-flow bandwidth (Mbps)",
	}
	chart.Add("sync bound", grid, syncB)
	chart.Add("desync bound", grid, desyncB)
	chart.Add("actual", grid, actual)
	// The headline is the diminishing-returns trend; individual trials
	// jitter, so report the overall decline and any local inversions.
	inversions := 0
	for i := 1; i < len(actual); i++ {
		if actual[i] > actual[i-1]*1.02 {
			inversions++
		}
	}
	first, last := actual[0], actual[len(actual)-1]
	return &FigureResult{
		ID: id, Title: chart.Title, Charts: []*plot.Chart{chart},
		Notes: []string{fmt.Sprintf(
			"per-flow BBR bandwidth declines %.1f -> %.1f Mbps as BBR flows go %d -> %d (%d local inversions; paper: monotone decline)",
			first, last, int(grid[0]), int(grid[len(grid)-1]), inversions)},
	}, nil
}

// Fig6 reproduces the Figure 6 construction from the model: per-flow BBR
// bandwidth against the number of BBR flows with the fair-share line; the
// crossing is the Nash Equilibrium.
func Fig6(s Scale) (*FigureResult, error) {
	const rtt = 40 * time.Millisecond
	capacity := 100 * units.Mbps
	const n = 10
	buf := units.BufferBytes(capacity, rtt, 3)

	var grid, perBBR, fair []float64
	for nb := 1; nb <= n; nb++ {
		p, err := core.Predict(core.Scenario{
			Capacity: capacity, Buffer: buf, RTT: rtt, NumCubic: n - nb, NumBBR: nb,
		}, core.Synchronized)
		if err != nil {
			return nil, err
		}
		grid = append(grid, float64(nb))
		perBBR = append(perBBR, p.PerBBR.Mbit())
		fair = append(fair, capacity.Mbit()/n)
	}
	pt, err := core.PredictNash(core.NashScenario{Capacity: capacity, Buffer: buf, RTT: rtt, N: n}, core.Synchronized)
	if err != nil {
		return nil, err
	}
	chart := &plot.Chart{
		Title:  "Fig 6: NE where per-flow BBR bandwidth crosses fair share",
		XLabel: "# of BBR flows", YLabel: "per-flow bandwidth (Mbps)",
	}
	chart.Add("BBR per-flow (model)", grid, perBBR)
	chart.Add("fair share", grid, fair)
	return &FigureResult{
		ID: "6", Title: chart.Title, Charts: []*plot.Chart{chart},
		Notes: []string{fmt.Sprintf("model NE at N_b = %.1f of %d flows (3 BDP buffer)", pt.BBRFlows, n)},
	}, nil
}

// Fig7 reproduces Figure 7: average per-flow throughput of algorithm X
// versus the number of X flows (out of 10) for X in {Vivace, BBR, BBRv2,
// Copa}, at 100 Mbps with a 2 BDP buffer.
func Fig7(s Scale) (*FigureResult, error) {
	const rtt = 40 * time.Millisecond
	capacity := 100 * units.Mbps
	const n = 10
	buf := units.BufferBytes(capacity, rtt, 2)

	var grid []float64
	for nx := 1; nx <= n; nx++ {
		grid = append(grid, float64(nx))
	}
	grid = s.thin(grid)

	chart := &plot.Chart{
		Title:  "Fig 7: avg per-flow bandwidth vs # of non-CUBIC flows (2 BDP)",
		XLabel: "# of non-CUBIC flows", YLabel: "avg per-flow bandwidth (Mbps)",
	}
	fair := make([]float64, len(grid))
	for i := range fair {
		fair[i] = capacity.Mbit() / n
	}
	chart.Add("fair-share", grid, fair)

	notes := []string{}
	for _, name := range []string{"vivace", "bbr", "bbrv2", "copa"} {
		name := name
		sims, err := s.Sweep(7, len(grid), func(i int) scenario.Spec {
			nx := int(grid[i])
			return scenario.Mix(name, nx, n-nx, capacity, buf, rtt, s.FlowDuration)
		})
		if err != nil {
			return nil, err
		}
		var ys []float64
		for i := range grid {
			ys = append(ys, sims[i].PerFlow[0].Mbit())
		}
		chart.Add(name, grid, ys)
		notes = append(notes, fmt.Sprintf("%s at 1 flow: %.1f Mbps vs fair %.1f (disproportionate: %v)",
			name, ys[0], capacity.Mbit()/n, ys[0] > capacity.Mbit()/n))
	}
	return &FigureResult{ID: "7", Title: chart.Title, Charts: []*plot.Chart{chart}, Notes: notes}, nil
}

// Fig8 reproduces Figure 8: (a) average per-flow throughput of CUBIC and
// BBR and (b) shared average queueing delay, as the distribution varies.
func Fig8(s Scale) (*FigureResult, error) {
	const rtt = 40 * time.Millisecond
	capacity := 100 * units.Mbps
	const n = 10
	buf := units.BufferBytes(capacity, rtt, 2)

	var grid []float64
	for nb := 0; nb <= n; nb++ {
		grid = append(grid, float64(nb))
	}
	grid = s.thin(grid)

	sims, err := s.Sweep(8, len(grid), func(i int) scenario.Spec {
		nb := int(grid[i])
		return scenario.Mix("bbr", nb, n-nb, capacity, buf, rtt, s.FlowDuration)
	})
	if err != nil {
		return nil, err
	}
	var cubicY, bbrY, delayY []float64
	var gx []float64
	for i, g := range grid {
		gx = append(gx, g)
		cubicY = append(cubicY, sims[i].PerFlow[1].Mbit())
		bbrY = append(bbrY, sims[i].PerFlow[0].Mbit())
		delayY = append(delayY, float64(sims[i].MeanQueueDelay.Milliseconds()))
	}
	tputChart := &plot.Chart{
		Title:  "Fig 8a: avg per-flow throughput vs distribution",
		XLabel: "# of non-CUBIC (BBR) flows", YLabel: "avg per-flow bandwidth (Mbps)",
	}
	tputChart.Add("cubic", gx, cubicY)
	tputChart.Add("bbr", gx, bbrY)
	delayChart := &plot.Chart{
		Title:  "Fig 8b: avg queueing delay vs distribution",
		XLabel: "# of non-CUBIC (BBR) flows", YLabel: "queueing delay (ms)",
	}
	delayChart.Add("queueing delay", gx, delayY)

	// The §4.3 argument: delay barely moves until every flow is BBR,
	// while the throughput gap is large — so throughput drives switching.
	spread := 0.0
	for i := range bbrY {
		if d := bbrY[i] - cubicY[i]; d > spread {
			spread = d
		}
	}
	return &FigureResult{
		ID: "8", Title: "Fig 8: throughput vs delay asymmetry",
		Charts: []*plot.Chart{tputChart, delayChart},
		Notes: []string{
			fmt.Sprintf("max per-flow throughput gap %.1f Mbps; delay at all-BBR %.1f ms vs mixed %.1f ms",
				spread, delayY[len(delayY)-1], delayY[0]),
		},
	}, nil
}

// Fig9 reproduces Figure 9: the model's predicted NE region against
// empirically found NE distributions, for 50 flows across buffer sizes.
// bufGrid overrides the default sweep grid; algName is the X class's cc
// registry name.
func Fig9(s Scale, id string, capacity units.Rate, rtt time.Duration, bufGrid []float64, algName string) (*FigureResult, error) {
	const n = 50
	grid := bufGrid
	if grid == nil {
		grid = s.thin([]float64{0.5, 1, 2, 3, 5, 8, 12, 16, 22, 30, 40, 50})
	}

	var syncY, desyncY []float64
	var neX, neY []float64
	for _, bdp := range grid {
		buf := units.BufferBytes(capacity, rtt, bdp)
		region, err := core.PredictNashRegion(core.NashScenario{
			Capacity: capacity, Buffer: buf, RTT: rtt, N: n,
		})
		if err != nil {
			return nil, err
		}
		syncY = append(syncY, region.Sync.CubicFlows)
		desyncY = append(desyncY, region.Desync.CubicFlows)
		for trial := 0; trial < s.Trials; trial++ {
			res, err := FindNE(NESearchConfig{
				Capacity: capacity, Buffer: buf, RTT: rtt, N: n,
				Duration: s.FlowDuration, Seed: uint64(trial+1) * 1e6,
				X: algName, Exhaustive: s.Exhaustive,
				Pool: s.Pool, Cache: s.Cache, Journal: s.Journal, Ctx: s.Ctx,
				Audit: s.Audit, Trace: s.Trace, Backend: s.Backend,
			})
			if err != nil {
				return nil, err
			}
			for _, k := range res.EquilibriaX {
				neX = append(neX, bdp)
				neY = append(neY, float64(n-k))
			}
		}
	}
	chart := &plot.Chart{
		Title:  fmt.Sprintf("Fig %s: NE region, 50 flows, %v / %v (%s)", id, capacity, rtt, algName),
		XLabel: "buffer (BDP)", YLabel: "# CUBIC flows at NE",
	}
	chart.Add("sync bound", grid, syncY)
	chart.Add("desync bound", grid, desyncY)
	chart.Add("observed NE", neX, neY)

	inRegion, total := 0, 0
	for i := range neX {
		lo, hi := regionAt(grid, desyncY, neX[i]), regionAt(grid, syncY, neX[i])
		if lo > hi {
			lo, hi = hi, lo
		}
		total++
		if neY[i] >= lo-3 && neY[i] <= hi+3 {
			inRegion++
		}
	}
	return &FigureResult{
		ID: id, Title: chart.Title, Charts: []*plot.Chart{chart},
		Notes: []string{fmt.Sprintf("%d/%d observed NE inside predicted region (±3 flows)", inRegion, total)},
	}, nil
}

// regionAt linearly interpolates a bound curve at x.
func regionAt(xs, ys []float64, x float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if x <= xs[0] {
		return ys[0]
	}
	for i := 1; i < len(xs); i++ {
		if x <= xs[i] {
			f := (x - xs[i-1]) / (xs[i] - xs[i-1])
			return ys[i-1] + f*(ys[i]-ys[i-1])
		}
	}
	return ys[len(ys)-1]
}

// Fig10 reproduces Figure 10: NE distributions for 30 flows in three
// same-RTT groups (10, 30, 50 ms) sharing a 100 Mbps bottleneck. Buffer
// sizes are multiples of the shortest-RTT flow's BDP, as in the paper.
func Fig10(s Scale) (*FigureResult, error) {
	capacity := 100 * units.Mbps
	rtts := []time.Duration{10 * time.Millisecond, 30 * time.Millisecond, 50 * time.Millisecond}
	sizes := []int{10, 10, 10}
	grid := s.thin([]float64{2, 5, 10, 20, 35, 50})

	var neX, neY []float64
	shortRTTCubicBias := 0
	totalNE := 0
	for _, bdp := range grid {
		buf := units.BufferBytes(capacity, rtts[0], bdp)
		for trial := 0; trial < s.Trials; trial++ {
			res, err := FindGroupNE(GroupNEConfig{
				Capacity: capacity, Buffer: buf, RTTs: rtts, Sizes: sizes,
				Duration: s.FlowDuration, Seed: uint64(trial+1) * 31337,
				Exhaustive: false,
				Pool:       s.Pool, Cache: s.Cache, Journal: s.Journal, Ctx: s.Ctx,
				Audit: s.Audit, Trace: s.Trace, Backend: s.Backend,
			})
			if err != nil {
				return nil, err
			}
			for _, k := range res.Equilibria {
				numCubic := 30 - (k[0] + k[1] + k[2])
				neX = append(neX, bdp)
				neY = append(neY, float64(numCubic))
				totalNE++
				// The paper's observation: CUBIC slots fill short-RTT
				// groups first (k counts X flows, so CUBIC count per
				// group is size − k).
				if sizes[0]-k[0] >= sizes[2]-k[2] {
					shortRTTCubicBias++
				}
			}
		}
	}
	chart := &plot.Chart{
		Title:  "Fig 10: NE with mixed RTTs (10/30/50 ms)",
		XLabel: "buffer (BDP of 10 ms flow)", YLabel: "# CUBIC flows at NE",
	}
	chart.Add("observed NE", neX, neY)
	return &FigureResult{
		ID: "10", Title: chart.Title, Charts: []*plot.Chart{chart},
		Notes: []string{
			fmt.Sprintf("found %d NE profiles; short-RTT group had >= as many CUBIC flows as long-RTT in %d/%d",
				totalNE, shortRTTCubicBias, totalNE),
		},
	}, nil
}

// Fig11 reproduces Figure 11: empirical NE for CUBIC vs BBRv2 compared to
// the region the model predicts for BBR, at three RTTs per link speed.
func Fig11(s Scale, id string, capacity units.Rate) (*FigureResult, error) {
	const n = 50
	grid := s.thin([]float64{0.5, 1, 2, 3, 5, 8, 12, 16, 22, 30, 40, 50})
	rtts := []time.Duration{20 * time.Millisecond, 40 * time.Millisecond, 80 * time.Millisecond}

	// Model region for BBR (the comparison the paper plots).
	var syncY, desyncY []float64
	for _, bdp := range grid {
		buf := units.BufferBytes(capacity, 40*time.Millisecond, bdp)
		region, err := core.PredictNashRegion(core.NashScenario{
			Capacity: capacity, Buffer: buf, RTT: 40 * time.Millisecond, N: n,
		})
		if err != nil {
			return nil, err
		}
		syncY = append(syncY, region.Sync.CubicFlows)
		desyncY = append(desyncY, region.Desync.CubicFlows)
	}
	chart := &plot.Chart{
		Title:  fmt.Sprintf("Fig %s: BBRv2 NE vs BBR-predicted region (%v)", id, capacity),
		XLabel: "buffer (BDP)", YLabel: "# CUBIC flows at NE",
	}
	chart.Add("bbr sync bound", grid, syncY)
	chart.Add("bbr desync bound", grid, desyncY)

	rttGrid := rtts
	if s.SweepPoints > 0 && s.SweepPoints < 3 {
		rttGrid = rtts[:1]
	}
	// Two observations from §4.6: BBRv2 equilibria are never below the
	// BBR-predicted region (the BBR model "works well for BBRv2 when the
	// RTT is relatively small"), and in deeper buffers they have strictly
	// more CUBIC flows than the BBR prediction.
	inOrAbove, total := 0, 0
	deepMoreCubic, deepTotal := 0, 0
	deepest := grid[len(grid)-1]
	for _, rtt := range rttGrid {
		var xs, ys []float64
		for _, bdp := range grid {
			buf := units.BufferBytes(capacity, rtt, bdp)
			for trial := 0; trial < s.Trials; trial++ {
				res, err := FindNE(NESearchConfig{
					Capacity: capacity, Buffer: buf, RTT: rtt, N: n,
					Duration: s.FlowDuration, Seed: uint64(trial+1) * 424243,
					X: "bbrv2", Exhaustive: s.Exhaustive,
					Pool: s.Pool, Cache: s.Cache, Journal: s.Journal, Ctx: s.Ctx,
					Audit: s.Audit, Trace: s.Trace, Backend: s.Backend,
				})
				if err != nil {
					return nil, err
				}
				for _, k := range res.EquilibriaX {
					cubicAtNE := float64(n - k)
					xs = append(xs, bdp)
					ys = append(ys, cubicAtNE)
					total++
					if cubicAtNE >= regionAt(grid, desyncY, bdp)-3 {
						inOrAbove++
					}
					if bdp == deepest {
						deepTotal++
						if cubicAtNE > regionAt(grid, syncY, bdp) {
							deepMoreCubic++
						}
					}
				}
			}
		}
		chart.Add(fmt.Sprintf("%v RTT", rtt), xs, ys)
	}
	return &FigureResult{
		ID: id, Title: chart.Title, Charts: []*plot.Chart{chart},
		Notes: []string{
			fmt.Sprintf("%d/%d BBRv2 NE inside or above the BBR-predicted region (±3)", inOrAbove, total),
			fmt.Sprintf("%d/%d at the deepest buffer strictly above the BBR sync bound (paper: v2 NEs have more CUBIC flows)",
				deepMoreCubic, deepTotal),
		},
	}, nil
}

// Fig12 reproduces Figure 12: model vs actual in ultra-deep buffers
// (1-250 BDP), where BBR stops being cwnd-limited and the model
// over-estimates.
func Fig12(s Scale) (*FigureResult, error) {
	const rtt = 40 * time.Millisecond
	capacity := 50 * units.Mbps
	grid := s.thin([]float64{1, 5, 10, 20, 40, 60, 80, 100, 130, 160, 200, 250})

	sims, err := s.Sweep(12, len(grid), func(i int) scenario.Spec {
		return scenario.Mix("bbr", 1, 1, capacity,
			units.BufferBytes(capacity, rtt, grid[i]), rtt, s.FlowDuration)
	})
	if err != nil {
		return nil, err
	}
	var ours, ware, actual []float64
	for i, bdp := range grid {
		buf := units.BufferBytes(capacity, rtt, bdp)
		p, err := core.Predict(core.Scenario{
			Capacity: capacity, Buffer: buf, RTT: rtt, NumCubic: 1, NumBBR: 1,
		}, core.Synchronized)
		if err != nil {
			return nil, err
		}
		ours = append(ours, p.AggBBR.Mbit())
		wp, err := core.PredictWare(core.WareScenario{
			Capacity: capacity, Buffer: buf, RTT: rtt, NumBBR: 1, Duration: s.FlowDuration,
		})
		if err != nil {
			return nil, err
		}
		ware = append(ware, wp.AggBBR.Mbit())
		actual = append(actual, sims[i].Agg[0].Mbit())
	}
	chart := &plot.Chart{
		Title:  "Fig 12: ultra-deep buffers (model over-estimates beyond ~100 BDP)",
		XLabel: "buffer (BDP)", YLabel: "bandwidth (Mbps)",
	}
	chart.Add("ware", grid, ware)
	chart.Add("actual", grid, actual)
	chart.Add("our model", grid, ours)

	over := 0
	deepPoints := 0
	for i, bdp := range grid {
		if bdp >= 100 {
			deepPoints++
			if ours[i] > actual[i] {
				over++
			}
		}
	}
	return &FigureResult{
		ID: "12", Title: chart.Title, Charts: []*plot.Chart{chart},
		Notes: []string{fmt.Sprintf("model over-estimates at %d/%d points beyond 100 BDP (paper: always)", over, deepPoints)},
	}, nil
}

// meanRelErr is the mean relative error of got against want, skipping
// zero references.
func meanRelErr(got, want []float64) float64 {
	sum, n := 0.0, 0
	for i := range got {
		if want[i] == 0 {
			continue
		}
		sum += numeric.RelErr(got[i], want[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
