// Package rng provides a small, deterministic pseudo-random number generator
// for reproducible experiments.
//
// The generator is xoshiro256** seeded via splitmix64, the combination
// recommended by its authors for general-purpose simulation. Every trial in
// the experiment harness owns its own *Source derived from the scenario seed
// and trial index, so runs are reproducible regardless of scheduling and no
// global state is shared.
package rng

import (
	"math/bits"
	"time"
)

// Source is a deterministic xoshiro256** generator. It is not safe for
// concurrent use; give each goroutine its own Source (see Split).
//
// Concurrency rules at the runner boundary (internal/runner): derive every
// parallel unit's seed or child Source up front with Split, on the
// submitting goroutine, before any worker starts; then hand each worker
// its own child. A child shares no state with its parent or siblings, so
// execution order cannot change any unit's stream. The same confinement
// applies to anything that owns a Source — in particular a netsim.Network
// is never shared across goroutines; each unit builds its own from its
// pre-derived seed. See the internal/runner package example.
//
// The state is four scalar fields rather than a [4]uint64 so that the step
// fits the compiler's inlining budget: indexed, Uint64 did not (go1.24
// costed it 81 against a budget of 80), and every draw was a function
// call. go1.24 costs Next 56, Uint64 65, Float64 77 and Duration 78, so
// each still inlines into its caller; scripts/verify.sh fails if one stops.
type Source struct {
	s0, s1, s2, s3 uint64
}

// New returns a Source seeded from seed via splitmix64, so that nearby seeds
// yield uncorrelated streams.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	src.s0 = splitmix64(&sm)
	src.s1 = splitmix64(&sm)
	src.s2 = splitmix64(&sm)
	src.s3 = splitmix64(&sm)
	// A xoshiro state of all zeros is a fixed point; splitmix64 cannot
	// produce it from any seed, but guard anyway.
	if src.s0|src.s1|src.s2|src.s3 == 0 {
		src.s0 = 1
	}
	return &src
}

// splitmix64 advances *x and returns its next output.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives an independent child generator. The child's stream is a
// deterministic function of the parent state, and the parent advances, so
// successive Splits yield distinct children.
func (s *Source) Split() *Source {
	return New(s.Uint64())
}

// Next is xoshiro256**'s step in value form: it returns the Source
// advanced by one draw and the value drawn. Uint64 and Float64 are written
// through it. A caller that keeps a Source in a local, assigns Next's
// result back to it and never takes its address lets the compiler hold the
// four state words in registers across a loop of draws; a pointer-receiver
// draw keeps them in memory even when it inlines.
func (s Source) Next() (Source, uint64) {
	result := bits.RotateLeft64(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = bits.RotateLeft64(s.s3, 45)
	return s, result
}

// Uint64 returns the next value in the stream. The named result keeps it
// within the inlining budget with Duration's and Float64's work on top.
func (s *Source) Uint64() (x uint64) {
	*s, x = s.Next()
	return x
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return Unit(s.Uint64())
}

// Unit maps a drawn value to the uniform value in [0, 1) that Float64
// returns for it: its top 53 bits, scaled.
func Unit(x uint64) float64 {
	return float64(x>>11) * 0x1p-53
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	un := uint64(n)
	hi, lo := bits.Mul64(s.Uint64(), un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), un)
		}
	}
	return int(hi)
}

// Range returns a uniform value in [lo, hi). It panics if hi < lo.
func (s *Source) Range(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: Range with hi < lo")
	}
	return lo + (hi-lo)*s.Float64()
}

// Duration returns a uniform duration in [0, d). A non-positive d yields 0.
func (s *Source) Duration(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(s.Uint64() % uint64(d))
}

// Perm returns a uniform random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
