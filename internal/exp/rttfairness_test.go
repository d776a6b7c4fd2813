package exp

import (
	"testing"
	"time"
)

// §4.5's mechanism, CUBIC side: among CUBIC flows sharing a bottleneck,
// the short-RTT flow gets more bandwidth (quicker feedback, faster
// probing).
func TestCubicFavorsShortRTT(t *testing.T) {
	if testing.Short() {
		t.Skip("2-minute simulation")
	}
	// A shallow buffer keeps queueing delay small relative to the base
	// RTT spread; in very deep buffers the shared queue dominates both
	// flows' effective RTTs and the asymmetry washes out.
	res, _, err := Run(t.Context(), rttGroupsSpec(2, 0, 2*time.Minute), Env{}) // all CUBIC
	if err != nil {
		t.Fatal(err)
	}
	short, long := float64(meanRate(res, 1)), float64(meanRate(res, 3))
	if short <= long {
		t.Errorf("short-RTT CUBIC (%.2e) did not beat long-RTT CUBIC (%.2e)", short, long)
	}
}

// §4.5's mechanism, BBR side: among BBR flows, the long-RTT flow keeps a
// buffer share proportional to its RTT and so gets more bandwidth.
func TestBBRFavorsLongRTT(t *testing.T) {
	if testing.Short() {
		t.Skip("2-minute simulation")
	}
	res, _, err := Run(t.Context(), rttGroupsSpec(20, 2, 2*time.Minute), Env{}) // all BBR
	if err != nil {
		t.Fatal(err)
	}
	short, long := float64(meanRate(res, 0)), float64(meanRate(res, 2))
	if long <= short {
		t.Errorf("long-RTT BBR (%.2e) did not beat short-RTT BBR (%.2e)", long, short)
	}
}
