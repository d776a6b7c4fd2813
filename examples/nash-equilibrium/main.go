// Nash equilibrium: predict the stable CUBIC/BBR mix for a bottleneck and
// verify it empirically (§4 of the paper).
//
// The program predicts the equilibrium band with the analytical model, then
// plays the congestion-control choice game in the simulator: starting from
// the predicted distribution it follows unilateral switching incentives
// until no flow can gain by changing algorithm.
//
// Run with:
//
//	go run ./examples/nash-equilibrium
package main

import (
	"fmt"
	"log"
	"time"

	"bbrnash"
)

func main() {
	const (
		rtt = 40 * time.Millisecond
		n   = 20
	)
	capacity := 100 * bbrnash.Mbps

	for _, bufBDP := range []float64{2, 8, 25} {
		buffer := bbrnash.BufferBytes(capacity, rtt, bufBDP)

		region, err := bbrnash.PredictNashRegion(bbrnash.NashScenario{
			Capacity: capacity, Buffer: buffer, RTT: rtt, N: n,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("buffer %4.0f BDP: model predicts equilibrium at %4.1f-%4.1f CUBIC flows of %d",
			bufBDP, region.CubicLow(), region.CubicHigh(), n)

		res, err := bbrnash.FindNE(bbrnash.NESearchConfig{
			Capacity: capacity,
			Buffer:   buffer,
			RTT:      rtt,
			N:        n,
			Duration: 30 * time.Second, // every payoff run is lifted to two minutes
			Seed:     1,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("; observed:")
		for _, k := range res.EquilibriaX {
			fmt.Printf(" %d", n-k)
		}
		fmt.Printf(" (in %d simulations)\n", res.Simulations)
	}

	fmt.Println("\ndeeper buffers shift the equilibrium toward CUBIC — the paper's Figure 9 trend.")
	fmt.Println("because the equilibria are mixed, BBR is unlikely to fully displace CUBIC.")
}
