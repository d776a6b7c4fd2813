package game

import "testing"

// A cycling payoff landscape (rock-paper-scissors flavoured) must make the
// incentive walk give up rather than loop forever.
func TestFirstEquilibriumCyclingPayoffs(t *testing.T) {
	// Construct payoffs with no equilibrium at any k: whichever side you
	// are on, switching always looks strictly better.
	g := lineGame(4,
		func(k int) float64 {
			if k%2 == 0 {
				return 10
			}
			return 0
		},
		func(k int) float64 {
			if k%2 == 0 {
				return 0
			}
			return 10
		})
	_, ok, err := g.Walk(line(4, 2), 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		// With these payoffs some k may still satisfy the two one-sided
		// checks; verify against the exhaustive enumeration.
		ne, err := g.Equilibria(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(ne) == 0 {
			t.Error("walk claimed an equilibrium the enumeration does not find")
		}
	}
}

// The walk must respect the step budget.
func TestFirstEquilibriumStepBudget(t *testing.T) {
	calls := 0
	g := lineGame(1000,
		func(int) float64 {
			calls++
			return 1000 // always switch to X
		},
		func(int) float64 {
			calls++
			return 0
		})
	k, ok, err := g.Walk(line(1000, 0), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("walk claimed convergence after 5 steps at %v", k)
	}
	if k[0][0] != 5 {
		t.Errorf("walk should have advanced exactly 5 steps, got %v", k)
	}
	if calls != 10 {
		t.Errorf("5 steps read %d payoffs, want 10", calls)
	}
}

// Equilibria and IsEquilibrium must agree for random-ish payoff tables.
func TestEquilibriaConsistentWithIsEquilibrium(t *testing.T) {
	g := lineGame(12,
		func(k int) float64 { return float64((k*7)%5) + 40/float64(k+1) },
		func(k int) float64 { return float64((k*3)%4) + 60/float64(13-k) })
	ne, err := g.Equilibria(0.5)
	if err != nil {
		t.Fatal(err)
	}
	inNE := map[int]bool{}
	for _, k := range lineCounts(ne) {
		inNE[k] = true
	}
	for k := 0; k <= 12; k++ {
		ok, err := g.IsEquilibrium(line(12, k), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if ok != inNE[k] {
			t.Errorf("IsEquilibrium(%d) disagrees with Equilibria", k)
		}
	}
}

// GroupSymmetric equilibria must be invariant to group order relabeling.
func TestGroupSymmetricRelabelInvariance(t *testing.T) {
	// pay is in X counts per group: x[c] of group c's 2 players run X.
	pay := func(c, s int, x []int) float64 {
		if s == 0 {
			// Higher group index prefers X more.
			return float64(c*5) + 10/float64(x[c]+1)
		}
		return float64((2-c)*5) + 5/float64(1+x[0]+x[1]+x[2])
	}
	game := func(relabel func(c int, x []int) (int, []int)) *Symmetric {
		return &Symmetric{
			Sizes:      []int{2, 2, 2},
			Strategies: 2,
			Payoff: func(c, s int, k [][]int) (float64, error) {
				c, x := relabel(c, []int{k[0][0], k[1][0], k[2][0]})
				return pay(c, s, x), nil
			},
		}
	}
	ne1, err := game(func(c int, x []int) (int, []int) { return c, x }).Equilibria(0)
	if err != nil {
		t.Fatal(err)
	}
	// Relabel groups in reverse: payoffs see the mirrored group index and
	// mirrored profile.
	ne2, err := game(func(c int, x []int) (int, []int) { return 2 - c, []int{x[2], x[1], x[0]} }).Equilibria(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ne1) != len(ne2) {
		t.Fatalf("relabeled game has %d NE, original %d", len(ne2), len(ne1))
	}
	x1, x2 := xCounts(ne1), xCounts(ne2)
	for i, k := range x1 {
		m := x2[len(x2)-1-i]
		if k[0] != m[2] || k[1] != m[1] || k[2] != m[0] {
			t.Errorf("NE %v has no mirrored counterpart %v", k, m)
		}
	}
}
