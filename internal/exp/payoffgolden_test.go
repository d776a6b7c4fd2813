package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"bbrnash/internal/units"
)

// TestNEPayoffShapeGolden pins the NE search's payoff simulation, the
// shape every equilibrium figure (Figs 9–11) is built from: 25 BBR and 25
// CUBIC flows on one 50 Mbps, 40 ms link for PayoffDuration(0), the spec
// FindNE's payoff table compiles for the 25-BBR row. Unlike the engine
// goldens' 2 s runs of 3–4 flows, these runs are long and crowded enough
// for ProbeBW gain cycling, ProbeRTT and, at 50 BDP, loss detections a
// deep queue's drain ahead. Each depth's SpecResult JSON is pinned to one
// SHA-256; JSON carries every float64 in its shortest round-trip form, so
// a single flipped bit in any reported value changes the digest. A
// failure means the packet engine's output changed and every packet cache
// entry is stale.
func TestNEPayoffShapeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("three 2-minute 50-flow simulations")
	}
	const rtt = 40 * time.Millisecond
	capacity := 50 * units.Mbps
	for _, tc := range []struct {
		bdp  float64
		seed uint64
		want string
	}{
		{0.5, 1, "2d85f00804c9f448d5b66546052780eef266d01c69dbf36baa67f00d761b5325"},
		{5, 2, "b56701b0fd57efae31408ac68dd92faf2de9dca369da3ae131f6bc6e9d8f6fde"},
		{50, 3, "1049010cf2d0c10acf155d2828acfec21709e6dabe764269670add9d3426fc0d"},
	} {
		t.Run(fmt.Sprintf("%gBDP", tc.bdp), func(t *testing.T) {
			table := &PayoffTable{
				Base:       PayoffBase(capacity, units.BufferBytes(capacity, rtt, tc.bdp), 0, ""),
				RTTs:       []time.Duration{rtt},
				Algorithms: []string{"bbr", "cubic"},
				Seed:       func([][]int) uint64 { return tc.seed },
			}
			res, _, err := Run(t.Context(), table.Spec([][]int{{25, 25}}), Env{})
			if err != nil {
				t.Fatal(err)
			}
			body, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(body)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("payoff-shape digest drifted:\ngot  %s\nwant %s", got, tc.want)
			}
		})
	}
}
