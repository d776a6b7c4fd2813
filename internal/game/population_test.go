package game

import (
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"bbrnash/internal/rng"
)

// Memo keys must be injective over (class, strategy, profile) well past 255
// per count: a byte(v) encoding once collided (300) with (44), which
// silently served a cached payoff for the wrong profile once group sizes
// entered the population-scale regime. The property test drives random
// triples through memoKey and asserts distinct inputs never share a key.
func TestKeyOfInjective(t *testing.T) {
	src := rng.New(42)
	seen := make(map[string]string)
	for trial := 0; trial < 20000; trial++ {
		c, s := src.Intn(4), src.Intn(4)
		k := make([][]int, 1+src.Intn(3))
		for i := range k {
			k[i] = make([]int, 1+src.Intn(3))
			for j := range k[i] {
				// Counts straddle the byte boundary: a byte(v) encoding
				// maps v and v+256 to one key.
				k[i][j] = src.Intn(1024)
			}
		}
		in := fmt.Sprint(c, s, k)
		key := string(memoKey(nil, c, s, k))
		if prev, dup := seen[key]; dup && prev != in {
			t.Fatalf("key %q collides: %s and %s", key, prev, in)
		}
		seen[key] = in
	}
	// The adversarial pairs for a byte(v) cast, checked explicitly.
	if string(memoKey(nil, 0, 0, [][]int{{300}})) == string(memoKey(nil, 0, 0, [][]int{{44}})) {
		t.Fatal("profiles (300) and (44) share a memo key")
	}
	if string(memoKey(nil, 1, 0, [][]int{{0}})) == string(memoKey(nil, 257, 0, [][]int{{0}})) {
		t.Fatal("classes 1 and 257 share a memo key")
	}
}

// A group of size > 255 must produce the equilibrium the payoffs put
// there. Payoffs for k ≥ 256 that hit the memo entries of k−256 would
// steer the enumeration to bogus equilibria.
func TestGroupSymmetricLargeGroupMatchesUnmemoized(t *testing.T) {
	const n = 300
	g := lineGame(n,
		func(k int) float64 { return 0.4 * 1000 / float64(k) },
		func(k int) float64 {
			if k == n {
				return 0
			}
			return 0.6 * 1000 / float64(n-k)
		})
	got, err := g.Equilibria(0)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: the crossing 0.4·C/k = 0.6·C/(n−k) sits at k = 0.4n = 120.
	if want := [][][]int{line(n, 120)}; !reflect.DeepEqual(got, want) {
		t.Errorf("NE = %v, want %v", got, want)
	}
}

// A profile that does not fit the game is an error before any payoff is
// read, on every method that takes one: memoized under a valid-looking key
// it would poison later lookups.
func TestGroupSymmetricIsEquilibriumValidatesProfile(t *testing.T) {
	reads := 0
	g := &Symmetric{
		Sizes:      []int{2, 2},
		Strategies: 2,
		Payoff:     func(int, int, [][]int) (float64, error) { reads++; return 1, nil },
	}
	for _, bad := range [][][]int{
		{{1, 1}},                 // too few classes
		{{1, 1}, {1, 1}, {1, 1}}, // too many
		{{1, 1}, {1}},            // a short row
		{{-1, 3}, {1, 1}},        // a negative count
		{{3, 0}, {1, 1}},         // counts over the class size
		{{0, 1}, {1, 1}},         // counts under it
	} {
		if _, err := g.IsEquilibrium(bad, 0); err == nil || !strings.HasPrefix(err.Error(), "game:") {
			t.Errorf("IsEquilibrium(%v): err = %v, want a game: error", bad, err)
		}
		if _, _, err := g.Walk(bad, 0, 10); err == nil {
			t.Errorf("Walk(%v) accepted", bad)
		}
		if _, err := g.Deviations(bad); err == nil {
			t.Errorf("Deviations(%v) accepted", bad)
		}
	}
	if reads != 0 {
		t.Errorf("%d payoffs read for malformed profiles", reads)
	}
}

// bruteEquilibria is the unmemoized reference for Symmetric.Equilibria:
// it counts through every matrix of counts in [0, size] per cell, keeps
// those whose rows sum to their class sizes, and tests every one-player
// switch of each against payoffs read afresh each time.
func bruteEquilibria(sizes []int, m int, pay func(c, s int, k [][]int) float64, eps float64) [][][]int {
	k := make([][]int, len(sizes))
	for c := range k {
		k[c] = make([]int, m)
	}
	stable := func() bool {
		for c := range k {
			for s := 0; s < m; s++ {
				for t := 0; t < m; t++ {
					if k[c][s] == 0 || t == s {
						continue
					}
					stay := pay(c, s, k)
					k[c][s]--
					k[c][t]++
					moved := pay(c, t, k)
					k[c][t]--
					k[c][s]++
					if moved > stay+eps {
						return false
					}
				}
			}
		}
		return true
	}
	var out [][][]int
	for {
		fits := true
		for c, row := range k {
			n := 0
			for _, v := range row {
				n += v
			}
			fits = fits && n == sizes[c]
		}
		if fits && stable() {
			out = append(out, clone(k))
		}
		// Advance the last cell fastest, as an odometer.
		c, s := len(k)-1, m-1
		for c >= 0 {
			if k[c][s]++; k[c][s] <= sizes[c] {
				break
			}
			k[c][s] = 0
			if s--; s < 0 {
				c, s = c-1, m-1
			}
		}
		if c < 0 {
			return out
		}
	}
}

// randomPayoff is a seeded pure payoff over (class, strategy, profile),
// whatever order it is read in: one of a few levels, so that ties and
// near-ties within eps occur.
func randomPayoff(seed uint64) func(c, s int, k [][]int) float64 {
	return func(c, s int, k [][]int) float64 {
		h := fnv.New64a()
		fmt.Fprint(h, seed, c, s, k)
		return float64(rng.New(h.Sum64()).Intn(8)) / 2
	}
}

// refCompare checks Symmetric.Equilibria against bruteEquilibria on
// seeded random games of the given shapes.
func refCompare(t *testing.T, trials int, shape func(src *rng.Source) (sizes []int, m int)) {
	t.Helper()
	src := rng.New(7)
	found := 0
	for trial := 0; trial < trials; trial++ {
		sizes, m := shape(src)
		pay := randomPayoff(uint64(trial) + 1)
		eps := []float64{0, 0.5, 1}[trial%3]
		g := &Symmetric{
			Sizes:      sizes,
			Strategies: m,
			Payoff:     func(c, s int, k [][]int) (float64, error) { return pay(c, s, k), nil },
		}
		got, err := g.Equilibria(eps)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteEquilibria(sizes, m, pay, eps)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (sizes %v, %d strategies, eps %v): Equilibria %v, reference %v", trial, sizes, m, eps, got, want)
		}
		found += len(got)
	}
	if found == 0 {
		t.Fatal("no trial had an equilibrium: the tables are too tame to compare")
	}
}

// The multi-class two-strategy shape against the brute-force reference:
// one to three groups of zero to four players.
func TestGroupSymmetricMatchesBruteForce(t *testing.T) {
	refCompare(t, 300, func(src *rng.Source) ([]int, int) {
		sizes := make([]int, 1+src.Intn(3))
		for c := range sizes {
			sizes[c] = src.Intn(5)
		}
		return sizes, 2
	})
}

// The one-class many-strategy shape against the brute-force reference:
// up to seven players over two to four strategies.
func TestMultiSymmetricMatchesBruteForce(t *testing.T) {
	refCompare(t, 300, func(src *rng.Source) ([]int, int) {
		return []int{1 + src.Intn(7)}, 2 + src.Intn(3)
	})
}

// Three strategies with a strictly dominant one: the only equilibrium puts
// every player on it, and IsEquilibrium rejects interior profiles.
func TestMultiSymmetricDominantStrategy(t *testing.T) {
	g := &Symmetric{
		Sizes:      []int{6},
		Strategies: 3,
		Payoff: func(_, s int, _ [][]int) (float64, error) {
			return float64(s), nil // strategy 2 strictly dominates
		},
	}
	ne, err := g.Equilibria(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][][]int{{{0, 0, 6}}}; !reflect.DeepEqual(ne, want) {
		t.Errorf("NE = %v, want %v", ne, want)
	}
	if ok, err := g.IsEquilibrium([][]int{{2, 2, 2}}, 0); ok || err != nil {
		t.Errorf("interior profile: equilibrium %v, err %v", ok, err)
	}
	if ok, err := g.IsEquilibrium([][]int{{0, 0, 6}}, 0); !ok || err != nil {
		t.Errorf("dominant-strategy profile: equilibrium %v, err %v", ok, err)
	}
}

// A congestion-flavoured 3-strategy game: per-player payoff falls with the
// strategy's own occupancy, so the equilibrium spreads players evenly.
func TestMultiSymmetricSplitsLoad(t *testing.T) {
	g := &Symmetric{
		Sizes:      []int{6},
		Strategies: 3,
		Payoff: func(_, s int, k [][]int) (float64, error) {
			return 12 / float64(k[0][s]), nil
		},
	}
	ne, err := g.Equilibria(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][][]int{{{2, 2, 2}}}; !reflect.DeepEqual(ne, want) {
		t.Errorf("NE = %v, want %v", ne, want)
	}
}

func TestMultiSymmetricValidation(t *testing.T) {
	pay := func(int, int, [][]int) (float64, error) { return 0, nil }
	if _, err := (&Symmetric{Sizes: []int{3}, Strategies: 1, Payoff: pay}).Equilibria(0); err == nil {
		t.Error("single-strategy game accepted")
	}
	if _, err := (&Symmetric{Sizes: []int{3}, Strategies: 2}).Equilibria(0); err == nil {
		t.Error("nil payoff accepted")
	}
	g := &Symmetric{Sizes: []int{4}, Strategies: 2, Payoff: pay}
	for _, bad := range [][][]int{{{4}}, {{1, 1}}, {{-1, 5}}, {{5, -1}}} {
		if _, err := g.IsEquilibrium(bad, 0); err == nil {
			t.Errorf("profile %v accepted", bad)
		}
	}
}

func TestDeviations(t *testing.T) {
	g := &Symmetric{Sizes: []int{2, 0, 1}, Strategies: 3, Payoff: func(int, int, [][]int) (float64, error) { return 0, nil }}
	got, err := g.Deviations([][]int{{1, 0, 1}, {0, 0, 0}, {0, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	// Class by class, then source, then target; the empty class has none.
	want := [][][]int{
		{{0, 1, 1}, {0, 0, 0}, {0, 1, 0}},
		{{0, 0, 2}, {0, 0, 0}, {0, 1, 0}},
		{{2, 0, 0}, {0, 0, 0}, {0, 1, 0}},
		{{1, 1, 0}, {0, 0, 0}, {0, 1, 0}},
		{{1, 0, 1}, {0, 0, 0}, {1, 0, 0}},
		{{1, 0, 1}, {0, 0, 0}, {0, 0, 1}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Deviations = %v, want %v", got, want)
	}
	// Each deviation owns its rows.
	got[0][2][1] = 9
	if got[1][2][1] != 1 {
		t.Error("deviations share rows")
	}
}

// IsEquilibrium and Walk read payoffs in the orders NE searches pin their
// lookup counts on. IsEquilibrium: class by class, each occupied source,
// each target, the switcher's payoff after the switch before the source's
// own. Walk: class by class, each target, each source, the same pair per
// switch, so a binary walk tries X(k+1) against C(k) before C(k−1)
// against X(k).
func TestReadOrder(t *testing.T) {
	type read struct{ c, s, x int }
	var reads []read
	g := &Symmetric{
		Sizes:      []int{3, 3},
		Strategies: 2,
		Payoff: func(c, s int, k [][]int) (float64, error) {
			reads = append(reads, read{c, s, k[c][0]})
			return 0, nil
		},
	}
	k := [][]int{{1, 2}, {3, 0}}
	if ok, err := g.IsEquilibrium(k, 0); !ok || err != nil {
		t.Fatalf("flat payoffs: equilibrium %v, err %v", ok, err)
	}
	// Class 0: X→CUBIC reads C(0) then X(1), CUBIC→X reads X(2) then
	// C(1); class 1 has no CUBIC player: C(2) then X(3).
	want := []read{{0, 1, 0}, {0, 0, 1}, {0, 0, 2}, {0, 1, 1}, {1, 1, 2}, {1, 0, 3}}
	if !reflect.DeepEqual(reads, want) {
		t.Errorf("IsEquilibrium reads %v, want %v", reads, want)
	}

	reads = nil
	g.memo = nil
	if _, ok, err := g.Walk(k, 0, 5); !ok || err != nil {
		t.Fatalf("flat payoffs: walk converged %v, err %v", ok, err)
	}
	want = []read{{0, 0, 2}, {0, 1, 1}, {0, 1, 0}, {0, 0, 1}, {1, 1, 2}, {1, 0, 3}}
	if !reflect.DeepEqual(reads, want) {
		t.Errorf("Walk reads %v, want %v", reads, want)
	}
}

// A payoff error ends every method that reads payoffs: it is returned,
// nothing is read after it, it is not memoized, and the profile handed in
// is restored.
func TestPayoffErrorStopsReads(t *testing.T) {
	boom := errors.New("boom")
	for _, failAt := range []int{1, 2, 3} {
		reads := 0
		g := &Symmetric{
			Sizes:      []int{4},
			Strategies: 2,
			Payoff: func(_, s int, k [][]int) (float64, error) {
				if reads++; reads == failAt {
					return 0, boom
				}
				return float64(k[0][s]), nil
			},
		}
		// At eps 100 no switch gains, so the checks read on; at eps −1
		// every switch gains, so the walk moves.
		k := line(4, 2)
		for name, run := range map[string]func() error{
			"IsEquilibrium": func() error { _, err := g.IsEquilibrium(k, 100); return err },
			"Walk":          func() error { _, _, err := g.Walk(k, -1, 10); return err },
			"Equilibria":    func() error { _, err := g.Equilibria(100); return err },
		} {
			reads, g.memo = 0, nil
			if err := run(); !errors.Is(err, boom) {
				t.Errorf("%s, failing read %d: err = %v, want boom", name, failAt, err)
			}
			if reads != failAt {
				t.Errorf("%s: %d reads, want %d: a read followed the failed one", name, reads, failAt)
			}
			if !reflect.DeepEqual(k, line(4, 2)) {
				t.Fatalf("%s left the profile at %v", name, k)
			}
			if len(g.memo) != failAt-1 {
				t.Errorf("%s: memo holds %d payoffs after %d good reads", name, len(g.memo), failAt-1)
			}
		}
	}
}
