package game

import (
	"reflect"
	"testing"
)

// The paper's Figure 6 construction: per-flow X payoff declines in k and
// crosses the constant fair share; the crossing point is the equilibrium.
func fig6Game(n int, capacity float64) *SymmetricBinary {
	// Aggregate X bandwidth fixed at 40% of capacity: per-flow X payoff
	// 0.4·C/k; CUBIC players split the rest.
	return &SymmetricBinary{
		N: n,
		PayoffX: func(k int) float64 {
			return 0.4 * capacity / float64(k)
		},
		PayoffCubic: func(k int) float64 {
			if k == n {
				return 0
			}
			return 0.6 * capacity / float64(n-k)
		},
	}
}

func TestSymmetricBinaryCrossingNE(t *testing.T) {
	// n=10, C=100: X payoff 40/k, CUBIC payoff 60/(10−k); crossing where
	// 40/k = 60/(10−k) → k = 4.
	g := fig6Game(10, 100)
	ne, err := g.Equilibria(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ne, []int{4}) {
		t.Errorf("NE = %v, want [4]", ne)
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
	g := &SymmetricBinary{
		N:           8,
		PayoffX:     func(k int) float64 { return 100 },
		PayoffCubic: func(k int) float64 { return 1 },
	}
	ne, err := g.Equilibria(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ne, []int{8}) {
		t.Errorf("NE = %v, want [8]", ne)
	}
}

func TestSymmetricBinaryValidation(t *testing.T) {
	if _, err := (&SymmetricBinary{}).Equilibria(0); err == nil {
		t.Error("zero-N game accepted")
	}
	if _, err := (&SymmetricBinary{N: 3}).Equilibria(0); err == nil {
		t.Error("nil payoffs accepted")
	}
}

func TestFirstEquilibriumWalk(t *testing.T) {
	g := fig6Game(10, 100)
	for _, start := range []int{0, 4, 10} {
		k, ok := g.FirstEquilibrium(start, 0, 100)
		if !ok || k != 4 {
			t.Errorf("walk from %d gave k=%d ok=%v, want 4", start, k, ok)
		}
	}
	// Out-of-range starts are clamped.
	if k, ok := g.FirstEquilibrium(-5, 0, 100); !ok || k != 4 {
		t.Errorf("walk from -5 gave %d,%v", k, ok)
	}
}

func TestFirstEquilibriumMemoizes(t *testing.T) {
	calls := 0
	g := &SymmetricBinary{
		N: 10,
		PayoffX: func(k int) float64 {
			calls++
			return 40 / float64(k)
		},
		PayoffCubic: func(k int) float64 {
			if k == 10 {
				return 0
			}
			return 60 / float64(10-k)
		},
	}
	g.FirstEquilibrium(0, 0, 100)
	first := calls
	g.FirstEquilibrium(0, 0, 100)
	if calls != first {
		t.Errorf("payoffs re-evaluated despite memoization: %d then %d", first, calls)
	}
}

// Group-symmetric game reproducing the §4.5 structure: short-RTT flows
// prefer CUBIC, long-RTT flows prefer X.
func TestGroupSymmetricEquilibria(t *testing.T) {
	// Two groups of 2. Group 0 players always do better with CUBIC;
	// group 1 players always do better with X.
	g := &GroupSymmetric{
		Groups: []GroupSpec{{Size: 2}, {Size: 2}},
		PayoffX: func(group int, k []int) float64 {
			if group == 0 {
				return 1
			}
			return 10
		},
		PayoffCubic: func(group int, k []int) float64 {
			if group == 0 {
				return 10
			}
			return 1
		},
	}
	ne, err := g.Equilibria(0)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 2}}
	if !reflect.DeepEqual(ne, want) {
		t.Errorf("NE = %v, want %v", ne, want)
	}
}

func TestGroupSymmetricMatchesSymmetricBinary(t *testing.T) {
	// A single group must agree with the symmetric binary game.
	bin := fig6Game(6, 100)
	grp := &GroupSymmetric{
		Groups:      []GroupSpec{{Size: 6}},
		PayoffX:     func(_ int, k []int) float64 { return bin.PayoffX(k[0]) },
		PayoffCubic: func(_ int, k []int) float64 { return bin.PayoffCubic(k[0]) },
	}
	wantKs, err := bin.Equilibria(0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := grp.Equilibria(0)
	if err != nil {
		t.Fatal(err)
	}
	var gotKs []int
	for _, k := range got {
		gotKs = append(gotKs, k[0])
	}
	if !reflect.DeepEqual(gotKs, wantKs) {
		t.Errorf("group NE %v != binary NE %v", gotKs, wantKs)
	}
}

func TestGroupSymmetricValidation(t *testing.T) {
	if _, err := (&GroupSymmetric{}).Equilibria(0); err == nil {
		t.Error("no groups accepted")
	}
	g := &GroupSymmetric{Groups: []GroupSpec{{Size: -1}}}
	if _, err := g.Equilibria(0); err == nil {
		t.Error("negative group size accepted")
	}
	// Sizes above 255 are legal since the memo keys became collision-free
	// (the former 250 cap guarded the byte-truncating key encoding).
	big := &GroupSymmetric{
		Groups:      []GroupSpec{{Size: 300}},
		PayoffX:     func(int, []int) float64 { return 1 },
		PayoffCubic: func(int, []int) float64 { return 0 },
	}
	ne, err := big.Equilibria(0)
	if err != nil {
		t.Fatalf("size-300 group rejected: %v", err)
	}
	if !reflect.DeepEqual(ne, [][]int{{300}}) {
		t.Errorf("NE = %v, want [[300]]", ne)
	}
}

func TestTotalX(t *testing.T) {
	if TotalX([]int{1, 2, 3}) != 6 {
		t.Error("TotalX wrong")
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
