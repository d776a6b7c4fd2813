package game

import (
	"reflect"
	"testing"
)

// The tests keep the names of the three game shapes Symmetric plays:
// SymmetricBinary is §4.1's one class of N players choosing X or CUBIC,
// GroupSymmetric is §4.5's one class per RTT group with the same two
// strategies, and MultiSymmetric is one class with many strategies, the
// adoption dynamics' game.

// lineGame is the SymmetricBinary shape: one class of n players, strategy 0
// is X and strategy 1 CUBIC, and x(k) and c(k) are the per-flow X and
// CUBIC payoffs when k players run X.
func lineGame(n int, x, c func(k int) float64) *Symmetric {
	return &Symmetric{
		Sizes:      []int{n},
		Strategies: 2,
		Payoff: func(_, s int, k [][]int) (float64, error) {
			if s == 0 {
				return x(k[0][0]), nil
			}
			return c(k[0][0]), nil
		},
	}
}

// line is the SymmetricBinary profile with k of n players on X.
func line(n, k int) [][]int { return [][]int{{k, n - k}} }

// xCounts maps two-strategy profiles to their X counts: one []int per
// profile, one count per class.
func xCounts(ks [][][]int) [][]int {
	var out [][]int
	for _, k := range ks {
		x := make([]int, len(k))
		for c, row := range k {
			x[c] = row[0]
		}
		out = append(out, x)
	}
	return out
}

// lineCounts maps SymmetricBinary profiles to their X counts.
func lineCounts(ks [][][]int) []int {
	var out []int
	for _, x := range xCounts(ks) {
		out = append(out, x[0])
	}
	return out
}

// The paper's Figure 6 construction: per-flow X payoff declines in k and
// crosses the constant fair share; the crossing point is the equilibrium.
func fig6Game(n int, capacity float64) *Symmetric {
	// Aggregate X bandwidth fixed at 40% of capacity: per-flow X payoff
	// 0.4·C/k; CUBIC players split the rest.
	return lineGame(n,
		func(k int) float64 { return 0.4 * capacity / float64(k) },
		func(k int) float64 {
			if k == n {
				return 0
			}
			return 0.6 * capacity / float64(n-k)
		})
}

func TestSymmetricBinaryCrossingNE(t *testing.T) {
	// n=10, C=100: X payoff 40/k, CUBIC payoff 60/(10−k); crossing where
	// 40/k = 60/(10−k) → k = 4.
	g := fig6Game(10, 100)
	ne, err := g.Equilibria(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := lineCounts(ne); !reflect.DeepEqual(got, []int{4}) {
		t.Errorf("NE = %v, want [4]", got)
	}
}

func TestSymmetricBinaryToleranceWidensNESet(t *testing.T) {
	g := fig6Game(10, 100)
	strict, err := g.Equilibria(0)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := g.Equilibria(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(loose) < len(strict) {
		t.Errorf("tolerance shrank the NE set: %v vs %v", loose, strict)
	}
}

// If X always beats CUBIC, all-X is the only equilibrium (Case 1 of §4.1).
func TestSymmetricBinaryAllXNE(t *testing.T) {
	g := lineGame(8, func(int) float64 { return 100 }, func(int) float64 { return 1 })
	ne, err := g.Equilibria(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := lineCounts(ne); !reflect.DeepEqual(got, []int{8}) {
		t.Errorf("NE = %v, want [8]", got)
	}
}

func TestSymmetricBinaryValidation(t *testing.T) {
	pay := func(int, int, [][]int) (float64, error) { return 0, nil }
	for name, g := range map[string]*Symmetric{
		"no classes":     {Strategies: 2, Payoff: pay},
		"one strategy":   {Sizes: []int{3}, Strategies: 1, Payoff: pay},
		"nil payoff":     {Sizes: []int{3}, Strategies: 2},
		"negative class": {Sizes: []int{3, -1}, Strategies: 2, Payoff: pay},
	} {
		if _, err := g.Equilibria(0); err == nil {
			t.Errorf("%s: Equilibria accepted the game", name)
		}
	}
}

func TestFirstEquilibriumWalk(t *testing.T) {
	g := fig6Game(10, 100)
	for _, start := range []int{0, 4, 10} {
		k, ok, err := g.Walk(line(10, start), 0, 100)
		if err != nil || !ok || !reflect.DeepEqual(k, line(10, 4)) {
			t.Errorf("walk from %d gave %v ok=%v err=%v, want %v", start, k, ok, err, line(10, 4))
		}
	}
	// A start outside the profile space is refused, not clamped: a
	// malformed profile would be memoized under a valid-looking key.
	for _, start := range [][][]int{line(10, -5), line(10, 11), {{4, 5}}} {
		if k, _, err := g.Walk(start, 0, 100); err == nil {
			t.Errorf("walk from %v accepted, gave %v", start, k)
		}
	}
}

func TestFirstEquilibriumMemoizes(t *testing.T) {
	calls := 0
	g := lineGame(10,
		func(k int) float64 {
			calls++
			return 40 / float64(k)
		},
		func(k int) float64 {
			if k == 10 {
				return 0
			}
			return 60 / float64(10-k)
		})
	if _, _, err := g.Walk(line(10, 0), 0, 100); err != nil {
		t.Fatal(err)
	}
	first := calls
	if _, _, err := g.Walk(line(10, 0), 0, 100); err != nil {
		t.Fatal(err)
	}
	if calls != first {
		t.Errorf("payoffs re-evaluated despite memoization: %d then %d", first, calls)
	}
}

// Group-symmetric game reproducing the §4.5 structure: short-RTT flows
// prefer CUBIC, long-RTT flows prefer X.
func TestGroupSymmetricEquilibria(t *testing.T) {
	// Two groups of 2. Group 0 players always do better with CUBIC;
	// group 1 players always do better with X.
	g := &Symmetric{
		Sizes:      []int{2, 2},
		Strategies: 2,
		Payoff: func(c, s int, _ [][]int) (float64, error) {
			if (c == 0) == (s == 0) {
				return 1, nil
			}
			return 10, nil
		},
	}
	ne, err := g.Equilibria(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][][]int{{{0, 2}, {2, 0}}}; !reflect.DeepEqual(ne, want) {
		t.Errorf("NE = %v, want %v", ne, want)
	}
}

func TestGroupSymmetricValidation(t *testing.T) {
	if _, err := (&Symmetric{Strategies: 2}).Equilibria(0); err == nil {
		t.Error("no groups accepted")
	}
	if _, err := (&Symmetric{Sizes: []int{-1}, Strategies: 2}).Equilibria(0); err == nil {
		t.Error("negative group size accepted")
	}
	// Sizes above 255 are legal: memo keys are collision-free at any count.
	big := lineGame(300, func(int) float64 { return 1 }, func(int) float64 { return 0 })
	ne, err := big.Equilibria(0)
	if err != nil {
		t.Fatalf("size-300 group rejected: %v", err)
	}
	if got := lineCounts(ne); !reflect.DeepEqual(got, []int{300}) {
		t.Errorf("NE = %v, want [300]", got)
	}
}

func TestEpsilon(t *testing.T) {
	if Epsilon(100, 10, 0.05) != 0.5 {
		t.Error("Epsilon wrong")
	}
	if Epsilon(100, 0, 0.05) != 0 {
		t.Error("Epsilon with zero flows should be 0")
	}
}
