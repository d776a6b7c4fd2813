package exp

import (
	"time"

	"bbrnash/internal/units"
)

// UtilityFunc scores one flow's outcome: its average throughput and the
// bottleneck's average queueing delay (shared by every flow regardless of
// algorithm — the asymmetry §4.3 builds its argument on). Set one as
// NESearchConfig.Utility to search for equilibria under it: a flow
// switches algorithm when doing so raises its utility by more than eps.
//
// Because queueing delay is shared between CUBIC and X flows at the same
// bottleneck, delay terms shift both strategies' utilities almost equally;
// the paper conjectures — and the search confirms for linear utilities —
// that equilibria stay near the throughput-only positions until the delay
// weight dominates.
type UtilityFunc func(throughput units.Rate, queueDelay time.Duration) float64

// ThroughputUtility is the paper's default: utility is throughput alone.
func ThroughputUtility(throughput units.Rate, _ time.Duration) float64 {
	return float64(throughput)
}

// LinearUtility builds the §4.3 family: α·throughput − γ·delay, with
// throughput in Mbps and delay in milliseconds.
func LinearUtility(alpha, gamma float64) UtilityFunc {
	return func(throughput units.Rate, queueDelay time.Duration) float64 {
		return alpha*throughput.Mbit() - gamma*float64(queueDelay.Milliseconds())
	}
}
