// Package numeric implements the root-finding and elementary numerical
// routines the analytical model needs: Brent's method on a bracket found
// by domain-bounded expansion, stable quadratic solving, and grid and
// summary statistics.
//
// Go's ecosystem is thin on numerical code and this module is offline-only,
// so these are written from scratch against the standard references
// (Brent 1973; Press et al., Numerical Recipes §9).
package numeric

import (
	"errors"
	"fmt"
	"math"
)

// Errors reported by the solvers.
var (
	// ErrNoBracket is returned when the supplied interval does not bracket
	// a sign change.
	ErrNoBracket = errors.New("numeric: interval does not bracket a root")
	// ErrNoConverge is returned when an iterative method fails to reach the
	// requested tolerance within its iteration budget.
	ErrNoConverge = errors.New("numeric: failed to converge")
)

// DefaultTol is the default absolute tolerance on the root location.
const DefaultTol = 1e-10

const maxIterations = 200

// Brent finds a root of f in [a, b] using Brent's method (inverse quadratic
// interpolation with bisection fallback). f(a) and f(b) must have opposite
// signs. It converges superlinearly on smooth functions while retaining
// bisection's guarantees.
func Brent(f func(float64) float64, a, b, tol float64) (float64, error) {
	if tol <= 0 {
		tol = DefaultTol
	}
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, a, fa, b, fb)
	}
	// Ensure |f(b)| <= |f(a)|: b is the best estimate.
	if math.Abs(fa) < math.Abs(fb) {
		a, b = b, a
		fa, fb = fb, fa
	}
	c, fc := a, fa
	mflag := true
	var d float64
	for i := 0; i < maxIterations; i++ {
		if fb == 0 || math.Abs(b-a) < tol {
			return b, nil
		}
		var s float64
		if fa != fc && fb != fc {
			// Inverse quadratic interpolation.
			s = a*fb*fc/((fa-fb)*(fa-fc)) +
				b*fa*fc/((fb-fa)*(fb-fc)) +
				c*fa*fb/((fc-fa)*(fc-fb))
		} else {
			// Secant.
			s = b - fb*(b-a)/(fb-fa)
		}
		lo, hi := (3*a+b)/4, b
		if lo > hi {
			lo, hi = hi, lo
		}
		cond := s < lo || s > hi ||
			(mflag && math.Abs(s-b) >= math.Abs(b-c)/2) ||
			(!mflag && math.Abs(s-b) >= math.Abs(c-d)/2) ||
			(mflag && math.Abs(b-c) < tol) ||
			(!mflag && math.Abs(c-d) < tol)
		if cond {
			s = a + (b-a)/2
			mflag = true
		} else {
			mflag = false
		}
		fs := f(s)
		d = c
		c, fc = b, fb
		if math.Signbit(fa) != math.Signbit(fs) {
			b, fb = s, fs
		} else {
			a, fa = s, fs
		}
		if math.Abs(fa) < math.Abs(fb) {
			a, b = b, a
			fa, fb = fb, fa
		}
	}
	return b, ErrNoConverge
}

// Quadratic solves a*x^2 + b*x + c = 0, returning real roots in ascending
// order. It uses the numerically stable formulation that avoids catastrophic
// cancellation. A degenerate (a == 0) equation is solved linearly; if no
// real root exists, roots is empty.
func Quadratic(a, b, c float64) (roots []float64) {
	if a == 0 {
		if b == 0 {
			return nil
		}
		return []float64{-c / b}
	}
	disc := b*b - 4*a*c
	if disc < 0 {
		return nil
	}
	if disc == 0 {
		return []float64{-b / (2 * a)}
	}
	sq := math.Sqrt(disc)
	// q = -(b + sign(b)*sqrt(disc)) / 2 avoids subtracting nearly equal
	// magnitudes.
	var q float64
	if b >= 0 {
		q = -(b + sq) / 2
	} else {
		q = -(b - sq) / 2
	}
	r1, r2 := q/a, c/q
	if r1 > r2 {
		r1, r2 = r2, r1
	}
	return []float64{r1, r2}
}

// BracketRootIn expands an initial guess interval [a, b] geometrically
// until it brackets a sign change of f, up to maxExpand doublings, within
// the domain [domLo, domHi]: the expanding endpoints are clamped to the
// domain, so f is never evaluated outside it (e.g. below 0 where a residual
// is singular). The initial guesses are clamped too. Once both endpoints
// are pinned at the domain bounds without a sign change, no further
// expansion can help and ErrNoBracket is returned early.
func BracketRootIn(f func(float64) float64, a, b, domLo, domHi float64, maxExpand int) (lo, hi float64, err error) {
	if domLo > domHi {
		domLo, domHi = domHi, domLo
	}
	a = Clamp(a, domLo, domHi)
	b = Clamp(b, domLo, domHi)
	if a == b {
		b = Clamp(a+1, domLo, domHi)
		if a == b { // degenerate domain: a single point cannot bracket
			if f(a) == 0 {
				return a, b, nil
			}
			return 0, 0, ErrNoBracket
		}
	}
	if a > b {
		a, b = b, a
	}
	fa, fb := f(a), f(b)
	for i := 0; i < maxExpand; i++ {
		if math.Signbit(fa) != math.Signbit(fb) || fa == 0 || fb == 0 {
			return a, b, nil
		}
		if a == domLo && b == domHi {
			return 0, 0, ErrNoBracket
		}
		w := b - a
		if math.Abs(fa) < math.Abs(fb) && a > domLo || b == domHi {
			a = math.Max(a-w, domLo)
			fa = f(a)
		} else {
			b = math.Min(b+w, domHi)
			fb = f(b)
		}
	}
	if math.Signbit(fa) != math.Signbit(fb) {
		return a, b, nil
	}
	return 0, 0, ErrNoBracket
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Arange returns values lo, lo+step, ... up to and including hi (within a
// tiny relative tolerance of floating error). step must be positive and
// lo <= hi.
//
// Each value is computed as lo + i*step rather than by repeated addition:
// accumulating x += step drifts by an ulp per step, and across a long grid
// the drift can drop or duplicate the endpoint depending on which way it
// accumulated. The previous accumulate-and-compare form also used a cutoff
// of hi + step/2, which let the grid overshoot hi by up to half a step
// (Arange(1, 50, 2) produced a 51). The index form makes the grid size an
// exact function of (hi-lo)/step and never emits a value beyond hi.
func Arange(lo, hi, step float64) []float64 {
	if step <= 0 {
		panic("numeric: Arange needs positive step")
	}
	// The 1e-9 slack admits an endpoint that lands on hi up to float noise
	// without admitting the next grid point.
	n := int(math.Floor((hi-lo)/step + 1e-9))
	if n < 0 {
		return nil
	}
	out := make([]float64, 0, n+1)
	for i := 0; i <= n; i++ {
		out = append(out, lo+float64(i)*step)
	}
	return out
}
