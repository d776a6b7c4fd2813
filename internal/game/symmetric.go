// Package game provides the game-theoretic machinery of §4 of the paper:
// the symmetric binary congestion-control choice game (every flow picks
// CUBIC or X), its group-symmetric extension for flows with different
// RTTs, and the many-strategy population game the adoption dynamics
// evolve over.
//
// Payoffs are supplied by the caller: the analytical model (internal/core)
// for predictions, or measured simulator throughput for empirical
// equilibria. Because measured payoffs are noisy, equilibrium checks accept
// a tolerance: a deviation only counts as an incentive when it improves the
// payoff by more than epsilon.
package game

import (
	"errors"
	"fmt"
	"math"
	"strconv"
)

// SymmetricBinary is the congestion-control choice game of §4.1: N
// indistinguishable players each run either CUBIC or an alternative
// algorithm X (BBR in the paper's main experiments). Because players are
// symmetric, a strategy profile is fully described by k, the number of
// players choosing X, so there are only N+1 distinct distributions.
//
// PayoffX(k) is the per-flow utility of an X player when k players run X
// (1 ≤ k ≤ N); PayoffCubic(k) is the per-flow utility of a CUBIC player
// when k players run X (0 ≤ k ≤ N−1). Payoffs are memoized: empirical
// payoff evaluation costs a simulation each.
type SymmetricBinary struct {
	N           int
	PayoffX     func(k int) float64
	PayoffCubic func(k int) float64

	memoX map[int]float64
	memoC map[int]float64
}

func (g *SymmetricBinary) payoffX(k int) float64 {
	if g.memoX == nil {
		g.memoX = make(map[int]float64)
	}
	if v, ok := g.memoX[k]; ok {
		return v
	}
	v := g.PayoffX(k)
	g.memoX[k] = v
	return v
}

func (g *SymmetricBinary) payoffC(k int) float64 {
	if g.memoC == nil {
		g.memoC = make(map[int]float64)
	}
	if v, ok := g.memoC[k]; ok {
		return v
	}
	v := g.PayoffCubic(k)
	g.memoC[k] = v
	return v
}

// IsEquilibrium reports whether the distribution with k X-players is a Nash
// Equilibrium with tolerance eps: no CUBIC player gains more than eps by
// switching to X, and no X player gains more than eps by switching to
// CUBIC.
func (g *SymmetricBinary) IsEquilibrium(k int, eps float64) bool {
	if k > 0 {
		// An X player switching to CUBIC lands in distribution k−1.
		if g.payoffC(k-1) > g.payoffX(k)+eps {
			return false
		}
	}
	if k < g.N {
		// A CUBIC player switching to X lands in distribution k+1.
		if g.payoffX(k+1) > g.payoffC(k)+eps {
			return false
		}
	}
	return true
}

// Equilibria enumerates every equilibrium distribution, returned as counts
// of X players in ascending order. Noisy payoffs commonly produce several
// adjacent equilibria, as the paper observes in §4.4.
func (g *SymmetricBinary) Equilibria(eps float64) ([]int, error) {
	if g.N < 1 {
		return nil, errors.New("game: SymmetricBinary needs N >= 1")
	}
	if g.PayoffX == nil || g.PayoffCubic == nil {
		return nil, errors.New("game: SymmetricBinary needs both payoff functions")
	}
	var out []int
	for k := 0; k <= g.N; k++ {
		if g.IsEquilibrium(k, eps) {
			out = append(out, k)
		}
	}
	return out, nil
}

// FirstEquilibrium performs the §4.1 line-walk: starting from k X-players,
// follow unilateral switching incentives until a distribution with no
// incentive remains, mirroring how a population would evolve. It is faster
// than Equilibria when payoff evaluations are expensive because it only
// explores the walked path. maxSteps bounds the walk (N suffices when
// payoffs are monotone; noisy payoffs may cycle, in which case the last
// visited distribution is returned with ok == false).
func (g *SymmetricBinary) FirstEquilibrium(start int, eps float64, maxSteps int) (k int, ok bool) {
	k = start
	if k < 0 {
		k = 0
	}
	if k > g.N {
		k = g.N
	}
	for step := 0; step < maxSteps; step++ {
		switch {
		case k < g.N && g.payoffX(k+1) > g.payoffC(k)+eps:
			k++
		case k > 0 && g.payoffC(k-1) > g.payoffX(k)+eps:
			k--
		default:
			return k, true
		}
	}
	return k, false
}

// GroupSpec is one same-RTT group in the group-symmetric game.
type GroupSpec struct {
	// Size is the number of flows in the group.
	Size int
}

// GroupSymmetric generalizes SymmetricBinary to m groups of symmetric
// players (the §4.5 multi-RTT experiments: 3 groups of 10 flows). A profile
// is a vector k with k[i] X-players in group i; the state space is
// Π(Size_i + 1) instead of 2^N.
//
// PayoffX(i, k) is an X player's utility in group i under profile k;
// PayoffCubic(i, k) likewise for a CUBIC player. Implementations may assume
// k is not retained after the call returns.
type GroupSymmetric struct {
	Groups      []GroupSpec
	PayoffX     func(group int, k []int) float64
	PayoffCubic func(group int, k []int) float64

	memoX map[string]float64
	memoC map[string]float64
}

// keyOf encodes a memo key for (group, profile) collision-free: decimal
// counts with explicit separators. The previous encoding cast each count
// with byte(v), which silently collided once counts exceeded 255 — profile
// (300) and profile (44) shared a key — exactly the regime population-scale
// games enter. Decimal digits plus separators are trivially injective: the
// key is parseable back into the profile.
func keyOf(group int, k []int) string {
	b := make([]byte, 0, 4+4*len(k))
	b = strconv.AppendInt(b, int64(group), 10)
	b = append(b, ':')
	for _, v := range k {
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, ',')
	}
	return string(b)
}

func (g *GroupSymmetric) payoffX(group int, k []int) float64 {
	if g.memoX == nil {
		g.memoX = make(map[string]float64)
	}
	key := keyOf(group, k)
	if v, ok := g.memoX[key]; ok {
		return v
	}
	v := g.PayoffX(group, k)
	g.memoX[key] = v
	return v
}

func (g *GroupSymmetric) payoffC(group int, k []int) float64 {
	if g.memoC == nil {
		g.memoC = make(map[string]float64)
	}
	key := keyOf(group, k)
	if v, ok := g.memoC[key]; ok {
		return v
	}
	v := g.PayoffCubic(group, k)
	g.memoC[key] = v
	return v
}

// validateProfile panics when profile k does not fit the game's groups: a
// malformed profile would be memoized under a syntactically valid key and
// silently poison every later lookup, so it is a wiring bug, not a runtime
// condition. Validation runs on the memoized IsEquilibrium path — not only
// inside Equilibria — because external callers (incentive walks, adoption
// dynamics) hand IsEquilibrium profiles they built themselves.
func (g *GroupSymmetric) validateProfile(k []int) {
	if len(k) != len(g.Groups) {
		panic(fmt.Sprintf("game: profile has %d groups, game has %d", len(k), len(g.Groups)))
	}
	for i, spec := range g.Groups {
		if k[i] < 0 || k[i] > spec.Size {
			panic(fmt.Sprintf("game: group %d count %d outside [0, %d]", i, k[i], spec.Size))
		}
	}
}

// IsEquilibrium reports whether profile k is a Nash Equilibrium with
// tolerance eps. A profile that does not fit the game's groups panics (see
// validateProfile).
func (g *GroupSymmetric) IsEquilibrium(k []int, eps float64) bool {
	g.validateProfile(k)
	for i, spec := range g.Groups {
		if k[i] > 0 {
			// An X player in group i switches to CUBIC.
			k[i]--
			gain := g.payoffC(i, k)
			k[i]++
			if gain > g.payoffX(i, k)+eps {
				return false
			}
		}
		if k[i] < spec.Size {
			// A CUBIC player in group i switches to X.
			k[i]++
			gain := g.payoffX(i, k)
			k[i]--
			if gain > g.payoffC(i, k)+eps {
				return false
			}
		}
	}
	return true
}

// Equilibria enumerates all equilibrium profiles.
func (g *GroupSymmetric) Equilibria(eps float64) ([][]int, error) {
	if len(g.Groups) == 0 {
		return nil, errors.New("game: GroupSymmetric needs at least one group")
	}
	for _, spec := range g.Groups {
		// No upper bound: memo keys are collision-free at any count (the
		// former 250 cap guarded the byte(v) key encoding). The profile
		// space is Π(Size+1) — bounding enumeration cost is the caller's
		// business.
		if spec.Size < 0 {
			return nil, errors.New("game: negative group size")
		}
	}
	if g.PayoffX == nil || g.PayoffCubic == nil {
		return nil, errors.New("game: GroupSymmetric needs both payoff functions")
	}
	k := make([]int, len(g.Groups))
	var out [][]int
	var walk func(i int)
	walk = func(i int) {
		if i == len(g.Groups) {
			if g.IsEquilibrium(k, eps) {
				out = append(out, append([]int(nil), k...))
			}
			return
		}
		for v := 0; v <= g.Groups[i].Size; v++ {
			k[i] = v
			walk(i + 1)
		}
		k[i] = 0
	}
	walk(0)
	return out, nil
}

// TotalX sums the X players in a profile.
func TotalX(k []int) int {
	t := 0
	for _, v := range k {
		t += v
	}
	return t
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
