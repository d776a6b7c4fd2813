package scenario

import (
	"fmt"
	"time"

	"bbrnash/internal/units"
)

// Faults describes deterministic adverse-link conditions injected at the
// bottleneck: stochastic data-packet loss, ACK-path loss, periodic link
// capacity flaps, and burst-loss episodes. The zero value is a clean link.
//
// All randomness is drawn from the simulation's seeded RNG stream, so a
// faulted scenario is exactly as reproducible as a clean one: same spec +
// seed ⇒ byte-identical drop traces and statistics at any worker count.
// Faults participate in the spec's canonical key (generation v3), so a
// faulted and a clean variant of the same topology never share a cache
// entry.
type Faults struct {
	// LossRate is the probability that an arriving data packet is dropped
	// before queueing (in addition to drop-tail overflow), in [0, 1).
	LossRate float64
	// AckLossRate is the probability that a returning ACK is lost, in
	// [0, 1). A lost ACK's information is recovered by the next cumulative
	// ACK one segment's serialization time later; consecutive losses
	// compound.
	AckLossRate float64
	// FlapPeriod is the period of a square-wave capacity flap: the link
	// serves at full capacity for FlapPeriod/2, then at the reduced rate
	// for FlapPeriod/2, starting full at time zero. Zero disables flaps.
	FlapPeriod time.Duration
	// FlapDepth is the fractional capacity reduction during the low phase:
	// the link serves at Capacity·(1−FlapDepth), in [0, 1). A positive
	// depth requires a FlapPeriod of at least 2ns, so that the half period
	// between rate changes is nonzero.
	FlapDepth float64
	// BurstEvery schedules burst-loss episodes: every BurstEvery of
	// simulated time, the next BurstLen arriving data packets are dropped.
	// Zero disables bursts.
	BurstEvery time.Duration
	// BurstLen is the number of consecutive arrivals dropped per episode.
	// A positive length requires a positive BurstEvery.
	BurstLen int
}

// Active reports whether any fault effect is enabled.
func (f Faults) Active() bool {
	return f.LossRate > 0 || f.AckLossRate > 0 || f.FlapDepth > 0 || f.BurstLen > 0
}

// Validate checks the fault block's internal consistency.
func (f Faults) Validate() error {
	if f.LossRate < 0 || f.LossRate >= 1 {
		return fmt.Errorf("scenario: loss rate %v outside [0,1)", f.LossRate)
	}
	if f.AckLossRate < 0 || f.AckLossRate >= 1 {
		return fmt.Errorf("scenario: ack loss rate %v outside [0,1)", f.AckLossRate)
	}
	if f.FlapDepth < 0 || f.FlapDepth >= 1 {
		return fmt.Errorf("scenario: flap depth %v outside [0,1)", f.FlapDepth)
	}
	if f.FlapPeriod < 0 {
		return fmt.Errorf("scenario: negative flap period %v", f.FlapPeriod)
	}
	// The flap changes rate every FlapPeriod/2. Below 2ns that rounds to
	// zero and the rate change would reschedule itself at the same instant
	// forever.
	if f.FlapDepth > 0 && f.FlapPeriod < 2*time.Nanosecond {
		return fmt.Errorf("scenario: flap depth %v needs a flap period of at least 2ns, got %v", f.FlapDepth, f.FlapPeriod)
	}
	if f.BurstEvery < 0 {
		return fmt.Errorf("scenario: negative burst interval %v", f.BurstEvery)
	}
	if f.BurstLen < 0 {
		return fmt.Errorf("scenario: negative burst length %d", f.BurstLen)
	}
	if f.BurstLen > 0 && f.BurstEvery <= 0 {
		return fmt.Errorf("scenario: burst length %d needs a positive burst interval", f.BurstLen)
	}
	return nil
}

// MinCapacity returns the lowest effective link rate under the flap: the
// full capacity when flaps are off, Capacity·(1−FlapDepth) otherwise. The
// invariant audit bounds queue-drain delays with it.
func (f Faults) MinCapacity(c units.Rate) units.Rate {
	if f.FlapDepth <= 0 {
		return c
	}
	return units.Rate(float64(c) * (1 - f.FlapDepth))
}

// MeanCapacityOver returns the exact time-average of the flapping link's
// service rate over [0, dur]: full capacity for the first half period,
// reduced for the second, repeating. The invariant audit bounds aggregate
// throughput and utilization with it — the share-sum invariant under flaps
// is "delivered rate fits the integral of capacity", not the nominal rate.
func (f Faults) MeanCapacityOver(c units.Rate, dur time.Duration) units.Rate {
	if f.FlapDepth <= 0 || f.FlapPeriod <= 0 || dur <= 0 {
		return c
	}
	half := f.FlapPeriod / 2
	up := time.Duration(dur/f.FlapPeriod) * half
	if rem := dur % f.FlapPeriod; rem > half {
		up += half
	} else {
		up += rem
	}
	down := dur - up
	low := float64(f.MinCapacity(c))
	return units.Rate((float64(up)*float64(c) + float64(down)*low) / float64(dur))
}
