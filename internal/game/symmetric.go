// Package game provides the game-theoretic machinery of §4 of the paper:
// the congestion-control choice game, in which every flow picks an
// algorithm and no flow should gain by switching alone. One type plays it
// in all three of its shapes: N same-RTT flows choosing CUBIC or X (§4.1),
// the same choice in same-RTT groups (§4.5), and many algorithms per RTT
// class, the game the adoption dynamics evolve over.
//
// Payoffs are supplied by the caller: the analytical model (internal/core)
// for predictions, or measured simulator throughput for empirical
// equilibria. Because measured payoffs are noisy, equilibrium checks accept
// a tolerance: a deviation only counts as an incentive when it improves the
// payoff by more than epsilon.
package game

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Symmetric is the congestion-control choice game over classes of
// interchangeable players: Sizes[c] players in class c, each running one
// of Strategies algorithms. Players of a class differ only in their
// strategy, so a profile is the count matrix k, with k[c][s] players of
// class c on strategy s and Σ_s k[c][s] = Sizes[c]. §4.1's game is one
// class of N flows with strategies [X, CUBIC]; §4.5's has one class per
// RTT group; the adoption dynamics' fixed-point check has one class per
// RTT class and one strategy per algorithm.
//
// Payoff(c, s, k) is the per-player utility of a class-c player on
// strategy s under profile k. It is only called with k[c][s] ≥ 1: a
// switcher's payoff is read in the profile after its switch. It must not
// retain k. Payoffs are memoized by (class, strategy, profile), because an
// empirical payoff costs a simulation; a payoff error is returned by the
// method that read it, and never memoized.
//
// IsEquilibrium modifies the profile it is given while it runs and
// restores it before it returns. A Symmetric is not safe for concurrent
// use.
type Symmetric struct {
	Sizes      []int
	Strategies int
	Payoff     func(c, s int, k [][]int) (float64, error)

	memo map[string]float64
}

// memoKey appends the memo key of (c, s, k) to dst: every number as a
// uvarint. Uvarints are prefix-free, so distinct (class, strategy, profile)
// triples never share a key, at any count.
func memoKey(dst []byte, c, s int, k [][]int) []byte {
	dst = binary.AppendUvarint(dst, uint64(c))
	dst = binary.AppendUvarint(dst, uint64(s))
	for _, row := range k {
		for _, v := range row {
			dst = binary.AppendUvarint(dst, uint64(v))
		}
	}
	return dst
}

func (g *Symmetric) payoff(c, s int, k [][]int) (float64, error) {
	var buf [64]byte
	key := memoKey(buf[:0], c, s, k)
	if v, ok := g.memo[string(key)]; ok {
		return v, nil
	}
	v, err := g.Payoff(c, s, k)
	if err != nil {
		return 0, err
	}
	if g.memo == nil {
		g.memo = make(map[string]float64)
	}
	g.memo[string(key)] = v
	return v, nil
}

// check reports a game that cannot be played: no classes, a negative
// class size, fewer than two strategies or no payoff function.
func (g *Symmetric) check() error {
	if len(g.Sizes) == 0 || slices.Min(g.Sizes) < 0 || g.Strategies < 2 || g.Payoff == nil {
		return fmt.Errorf("game: %d strategies over class sizes %v (need a class, no negative size, two strategies and a payoff function)", g.Strategies, g.Sizes)
	}
	return nil
}

// fits reports whether k is a profile of g. A profile that does not fit
// would be memoized under a valid-looking key and poison every later
// lookup of that key, so it is refused before any payoff is read.
func (g *Symmetric) fits(k [][]int) error {
	if err := g.check(); err != nil {
		return err
	}
	if len(k) != len(g.Sizes) {
		return fmt.Errorf("game: profile has %d classes, game has %d", len(k), len(g.Sizes))
	}
	for c, row := range k {
		n := 0
		for _, v := range row {
			n += v
		}
		if len(row) != g.Strategies || slices.Min(row) < 0 || n != g.Sizes[c] {
			return fmt.Errorf("game: class %d counts %v do not split its %d players over %d strategies", c, row, g.Sizes[c], g.Strategies)
		}
	}
	return nil
}

// gains reports whether one class-c player of strategy from gains more
// than eps by switching to to. It reads the switcher's payoff in the
// profile after the switch before from's payoff in k.
func (g *Symmetric) gains(k [][]int, c, from, to int, eps float64) (bool, error) {
	k[c][from]--
	k[c][to]++
	moved, err := g.payoff(c, to, k)
	k[c][to]--
	k[c][from]++
	if err != nil {
		return false, err
	}
	stay, err := g.payoff(c, from, k)
	if err != nil {
		return false, err
	}
	return moved > stay+eps, nil
}

// IsEquilibrium reports whether profile k is a Nash equilibrium with
// tolerance eps: no player gains more than eps by switching strategy
// alone. It checks class by class; within a class it takes each occupied
// strategy s in order, and for each target t ≠ s in order reads the
// switcher's payoff after the switch, then s's payoff in k. It stops at the
// first gaining switch, and at the first payoff error, which it returns.
func (g *Symmetric) IsEquilibrium(k [][]int, eps float64) (bool, error) {
	if err := g.fits(k); err != nil {
		return false, err
	}
	for c, row := range k {
		for s := range row {
			if row[s] == 0 {
				continue
			}
			for t := range row {
				if t == s {
					continue
				}
				if gain, err := g.gains(k, c, s, t, eps); gain || err != nil {
					return false, err
				}
			}
		}
	}
	return true, nil
}

// Walk follows unilateral switching incentives from start (§4.1's
// line-walk, and its multi-class generalization), as a population would
// evolve, and returns the first profile from which no switch gains more
// than eps. Each step takes the first gaining switch class by class;
// within a class it takes each target t in order, then each source s ≠ t
// in order, reading the switcher's payoff after the switch before s's
// payoff. So in a game with strategies [X, CUBIC] a step tries CUBIC→X
// before X→CUBIC. It reads only the profiles on its path, which makes it
// cheaper than Equilibria when payoffs are simulations.
//
// maxSteps bounds the walk. Noisy payoffs can cycle; a walk still moving
// when its budget runs out returns where it stopped with converged false.
// A payoff error ends the walk and is returned.
func (g *Symmetric) Walk(start [][]int, eps float64, maxSteps int) (k [][]int, converged bool, err error) {
	if err := g.fits(start); err != nil {
		return nil, false, err
	}
	k = clone(start)
walk:
	for step := 0; step < maxSteps; step++ {
		for c, row := range k {
			for to := range row {
				for from := range row {
					if from == to || row[from] == 0 {
						continue
					}
					gain, err := g.gains(k, c, from, to, eps)
					if err != nil {
						return k, false, err
					}
					if gain {
						row[from]--
						row[to]++
						continue walk
					}
				}
			}
		}
		return k, true, nil
	}
	return k, false, nil
}

// Profiles lists every profile of the game in lexicographic order: class
// 0's row varies slowest, and within a class the count of strategy 0,
// then of strategy 1, and so on, ascends. The list has
// Π_c C(Sizes[c]+Strategies−1, Strategies−1) profiles; bounding that is
// the caller's business. Each profile is a fresh matrix the caller may
// keep.
func (g *Symmetric) Profiles() ([][][]int, error) {
	if err := g.check(); err != nil {
		return nil, err
	}
	var out [][][]int
	k := make([][]int, len(g.Sizes))
	for c := range k {
		k[c] = make([]int, g.Strategies)
	}
	sizes := append(slices.Clone(g.Sizes), 0) // the 0 ends the last class
	// fill sets k[c][s:] to every split of left players, then fills the
	// classes after c.
	var fill func(c, s, left int)
	fill = func(c, s, left int) {
		switch {
		case c == len(k):
			out = append(out, clone(k))
		case s == g.Strategies-1:
			k[c][s] = left
			fill(c+1, 0, sizes[c+1])
		default:
			for v := 0; v <= left; v++ {
				k[c][s] = v
				fill(c, s+1, left-v)
			}
		}
	}
	fill(0, 0, sizes[0])
	return out, nil
}

// Equilibria lists every equilibrium profile in Profiles order. Noisy
// payoffs commonly produce several adjacent equilibria, as the paper
// observes in §4.4. The first payoff error ends the scan and is returned.
func (g *Symmetric) Equilibria(eps float64) ([][][]int, error) {
	profiles, err := g.Profiles()
	if err != nil {
		return nil, err
	}
	var out [][][]int
	for _, k := range profiles {
		ok, err := g.IsEquilibrium(k, eps)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, k)
		}
	}
	return out, nil
}

// Deviations lists every profile one player's switch reaches from k: for
// each class c, each occupied strategy s and each t ≠ s, in that order, k
// with one class-c player moved from s to t. They are the profiles
// IsEquilibrium(k) reads besides k itself, so a caller can look their
// payoffs up as one batch before the check.
func (g *Symmetric) Deviations(k [][]int) ([][][]int, error) {
	if err := g.fits(k); err != nil {
		return nil, err
	}
	var out [][][]int
	for c, row := range k {
		for s := range row {
			if row[s] == 0 {
				continue
			}
			for t := range row {
				if t == s {
					continue
				}
				d := clone(k)
				d[c][s]--
				d[c][t]++
				out = append(out, d)
			}
		}
	}
	return out, nil
}

// clone deep-copies a profile.
func clone(k [][]int) [][]int {
	out := make([][]int, len(k))
	for c, row := range k {
		out[c] = append([]int(nil), row...)
	}
	return out
}

// Epsilon suggests an equilibrium tolerance for throughput payoffs: frac of
// the fair share. The paper notes that gains around the NE are marginal,
// which is why multiple neighbouring NE distributions appear across trials.
func Epsilon(capacity float64, n int, frac float64) float64 {
	if n <= 0 {
		return 0
	}
	return math.Abs(frac) * capacity / float64(n)
}
