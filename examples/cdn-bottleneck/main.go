// CDN bottleneck: should your CDN switch its senders from CUBIC to BBR?
//
// The paper's motivating scenario (§1): operators like Dropbox, YouTube and
// Spotify switched to BBR for throughput. This example models an edge
// bottleneck shared by ten CDN flows with similar RTTs (plausible because
// most traffic is served from nearby caches, §2) and asks how the benefit
// of switching changes as more of the flows make the same choice — the
// diminishing-returns effect of §3.3.
//
// Run with:
//
//	go run ./examples/cdn-bottleneck
package main

import (
	"fmt"
	"log"
	"time"

	"bbrnash"
)

func main() {
	const (
		rtt      = 40 * time.Millisecond
		numFlows = 10
	)
	capacity := 100 * bbrnash.Mbps
	buffer := bbrnash.BufferBytes(capacity, rtt, 3)
	fair := capacity.Mbit() / numFlows

	fmt.Printf("edge bottleneck: %v, %d flows, 3 BDP buffer, fair share %.1f Mbps\n\n",
		capacity, numFlows, fair)
	fmt.Printf("%-28s %14s %14s %12s\n", "scenario", "BBR per-flow", "CUBIC per-flow", "BBR gain")

	// Each mix is a one-point sweep averaged over two jittered trials.
	scale := bbrnash.ExperimentScale{Trials: 2}
	for _, numBBR := range []int{1, 2, 4, 6, 8, 9} {
		pts, err := scale.Sweep(1, 1, func(int) bbrnash.ScenarioSpec {
			return bbrnash.MixScenario("bbr", numBBR, numFlows-numBBR, capacity, buffer, rtt, time.Minute)
		})
		if err != nil {
			log.Fatal(err)
		}
		bbr, cubic := pts[0].PerFlow[0].Mbit(), pts[0].PerFlow[1].Mbit()
		fmt.Printf("%2d BBR vs %2d CUBIC %23.1f %14.1f %11.0f%%\n",
			numBBR, numFlows-numBBR, bbr, cubic, 100*(bbr/cubic-1))
	}

	region, err := bbrnash.PredictNashRegion(bbrnash.NashScenario{
		Capacity: capacity, Buffer: buffer, RTT: rtt, N: numFlows,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nthe early adopters win big, but the advantage shrinks as others follow.\n")
	fmt.Printf("model: switching stops paying once only %.0f-%.0f of the %d flows remain on CUBIC.\n",
		region.CubicLow(), region.CubicHigh(), numFlows)
}
