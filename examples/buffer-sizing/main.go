// Buffer sizing: how does router buffer depth shape the CUBIC/BBR balance?
//
// Buffer sizing rules of thumb (1 BDP, BDP/sqrt(N), "tiny buffers") assume
// loss-based congestion control; the paper (§1, §5) argues BBR forces the
// question open again. This example sweeps the buffer from shallow to
// ultra-deep for a fixed flow population and reports who wins at each
// depth, which regime the analytical model assigns, and where the
// equilibrium mix settles.
//
// Run with:
//
//	go run ./examples/buffer-sizing
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"bbrnash"
)

func main() {
	const rtt = 40 * time.Millisecond
	capacity := 50 * bbrnash.Mbps

	fmt.Printf("one CUBIC vs one BBR flow at %v / %v\n\n", capacity, rtt)
	fmt.Printf("%10s %10s %12s %12s %22s\n", "buffer", "BBR(sim)", "BBR(model)", "queue delay", "model regime")

	for _, bufBDP := range []float64{0.5, 1, 3, 10, 30, 120} {
		buffer := bbrnash.BufferBytes(capacity, rtt, bufBDP)

		res, _, err := bbrnash.RunScenario(context.Background(),
			bbrnash.MixScenario("bbr", 1, 1, capacity, buffer, rtt, 2*time.Minute), bbrnash.ScenarioEnv{})
		if err != nil {
			log.Fatal(err)
		}
		bbr := res.Groups[0][0] // group 0 is the BBR class, group 1 CUBIC
		pred, err := bbrnash.Predict(bbrnash.Scenario{
			Capacity: capacity, Buffer: buffer, RTT: rtt, NumCubic: 1, NumBBR: 1,
		}, bbrnash.Synchronized)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%7.1f BDP %7.1f Mb %9.1f Mb %12v %22v\n",
			bufBDP, bbr.Throughput.Mbit(), pred.AggBBR.Mbit(),
			res.Link.MeanQueueDelay.Round(time.Millisecond), pred.Regime)
	}

	fmt.Println("\nshallow buffers hand the link to BBR and starve CUBIC; deep buffers do the")
	fmt.Println("opposite while bloating delay. For a 20-flow population the equilibrium mix")
	fmt.Println("moves with depth:")
	for _, bufBDP := range []float64{1, 5, 20, 40} {
		region, err := bbrnash.PredictNashRegion(bbrnash.NashScenario{
			Capacity: capacity,
			Buffer:   bbrnash.BufferBytes(capacity, rtt, bufBDP),
			RTT:      rtt,
			N:        20,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %5.1f BDP -> %4.1f-%4.1f of 20 flows on CUBIC at equilibrium\n",
			bufBDP, region.CubicLow(), region.CubicHigh())
	}
}
