package numeric

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestBrentMatchesKnownRoots(t *testing.T) {
	tests := []struct {
		name string
		f    func(float64) float64
		a, b float64
		want float64
	}{
		{"sqrt2", func(x float64) float64 { return x*x - 2 }, 0, 2, math.Sqrt2},
		{"cbrt5", func(x float64) float64 { return x*x*x - 5 }, 0, 5, math.Cbrt(5)},
		{"cos", math.Cos, 0, 3, math.Pi / 2},
		{"expm1", func(x float64) float64 { return math.Exp(x) - 1 }, -1, 1, 0},
		{"rational", func(x float64) float64 { return 1/(x+1) - 0.25 }, 0, 10, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			root, err := Brent(tt.f, tt.a, tt.b, 1e-13)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(root-tt.want) > 1e-9 {
				t.Errorf("root = %v, want %v", root, tt.want)
			}
		})
	}
}

func TestBrentNoBracket(t *testing.T) {
	_, err := Brent(func(x float64) float64 { return 1 + x*x }, -3, 3, 0)
	if !errors.Is(err, ErrNoBracket) {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
}

func TestBrentRandomQuadraticsProperty(t *testing.T) {
	// For random monotone-bracketed quadratics (x-r1)(x-r2) with r1 < r2,
	// Brent on [r1-1, (r1+r2)/2] finds r1.
	f := func(a, b int8) bool {
		r1 := float64(a%50) / 3
		r2 := r1 + 1 + float64(b%50+50)/17
		g := func(x float64) float64 { return (x - r1) * (x - r2) }
		root, err := Brent(g, r1-1, (r1+r2)/2, 1e-12)
		return err == nil && math.Abs(root-r1) < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuadratic(t *testing.T) {
	tests := []struct {
		name    string
		a, b, c float64
		want    []float64
	}{
		{"two roots", 1, -3, 2, []float64{1, 2}},
		{"double root", 1, -2, 1, []float64{1}},
		{"no real roots", 1, 0, 1, nil},
		{"linear", 0, 2, -4, []float64{2}},
		{"degenerate", 0, 0, 1, nil},
		{"negative leading", -1, 0, 4, []float64{-2, 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Quadratic(tt.a, tt.b, tt.c)
			if len(got) != len(tt.want) {
				t.Fatalf("got %v, want %v", got, tt.want)
			}
			for i := range got {
				if math.Abs(got[i]-tt.want[i]) > 1e-10 {
					t.Errorf("root[%d] = %v, want %v", i, got[i], tt.want[i])
				}
			}
		})
	}
}

func TestQuadraticStability(t *testing.T) {
	// x^2 - 1e8 x + 1 = 0 has roots ~1e8 and ~1e-8; the naive formula
	// loses the small one to cancellation.
	roots := Quadratic(1, -1e8, 1)
	if len(roots) != 2 {
		t.Fatalf("expected 2 roots, got %v", roots)
	}
	if RelErr(roots[0], 1e-8) > 1e-6 {
		t.Errorf("small root = %v, want 1e-8", roots[0])
	}
}

func TestQuadraticVsBrentProperty(t *testing.T) {
	f := func(p, q int8) bool {
		r1 := float64(p) / 4
		r2 := r1 + float64(q%40+41)/10
		// expand (x-r1)(x-r2)
		b, c := -(r1 + r2), r1*r2
		roots := Quadratic(1, b, c)
		if len(roots) != 2 {
			return false
		}
		return math.Abs(roots[0]-r1) < 1e-8 && math.Abs(roots[1]-r2) < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}

func TestArange(t *testing.T) {
	xs := Arange(1, 3, 0.5)
	if len(xs) != 5 || xs[0] != 1 || xs[4] != 3 {
		t.Errorf("Arange = %v", xs)
	}
}

func TestArangeFloatAccumulation(t *testing.T) {
	xs := Arange(0.5, 50, 0.5)
	if len(xs) != 100 {
		t.Errorf("Arange(0.5,50,0.5) has %d points, want 100", len(xs))
	}
}

// TestArangeEndpointNoOvershoot pins the regression for the accumulate-and-
// compare Arange: the old hi+step/2 cutoff admitted one grid point beyond
// hi (Arange(1,50,2) emitted a 51).
func TestArangeEndpointNoOvershoot(t *testing.T) {
	xs := Arange(1, 50, 2)
	if last := xs[len(xs)-1]; last > 50 {
		t.Errorf("Arange(1,50,2) overshoots hi: last = %v", last)
	}
	if len(xs) != 25 || xs[len(xs)-1] != 49 {
		t.Errorf("Arange(1,50,2) = %d points ending %v, want 25 ending 49", len(xs), xs[len(xs)-1])
	}
}

// TestArangeFigureGrids pins the exact grid sizes of the figure generators
// (Fig 1, Fig 3, Fig 4 in internal/exp/figures.go): an Arange drift that
// drops or duplicates an endpoint would silently change every downstream
// sweep's cache keys and chart shape.
func TestArangeFigureGrids(t *testing.T) {
	cases := []struct {
		lo, hi, step float64
		n            int
		last         float64
	}{
		{1, 50, 2, 25, 49},   // Fig 1
		{1, 30, 0.5, 59, 30}, // Fig 3
		{1, 30, 1, 30, 30},   // Fig 4
	}
	for _, c := range cases {
		xs := Arange(c.lo, c.hi, c.step)
		if len(xs) != c.n {
			t.Errorf("Arange(%v,%v,%v) has %d points, want %d", c.lo, c.hi, c.step, len(xs), c.n)
		}
		if got := xs[len(xs)-1]; got != c.last {
			t.Errorf("Arange(%v,%v,%v) ends at %v, want %v", c.lo, c.hi, c.step, got, c.last)
		}
		for i := 1; i < len(xs); i++ {
			if xs[i] <= xs[i-1] {
				t.Fatalf("Arange(%v,%v,%v) not strictly increasing at %d: %v",
					c.lo, c.hi, c.step, i, xs[i-1:i+1])
			}
		}
	}
}

// TestArangeDriftProneGrids exercises steps that are not exactly
// representable: repeated accumulation drifts across hundreds of points and
// historically dropped or duplicated endpoints.
func TestArangeDriftProneGrids(t *testing.T) {
	cases := []struct {
		lo, hi, step float64
		n            int
	}{
		{0, 1, 0.1, 11},
		{0, 10, 0.1, 101},
		{0, 100, 0.1, 1001},
		{0.1, 0.9, 0.2, 5},
		{1, 250, 0.25, 997},
	}
	for _, c := range cases {
		xs := Arange(c.lo, c.hi, c.step)
		if len(xs) != c.n {
			t.Errorf("Arange(%v,%v,%v) has %d points, want %d", c.lo, c.hi, c.step, len(xs), c.n)
		}
	}
}

func TestBracketRoot(t *testing.T) {
	// An unbounded domain: expansion alone reaches the root, and a
	// function with no sign change exhausts maxExpand.
	inf := math.Inf(1)
	f := func(x float64) float64 { return x - 100 }
	lo, hi, err := BracketRootIn(f, 0, 1, -inf, inf, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !(lo <= 100 && 100 <= hi) {
		t.Errorf("bracket [%v, %v] does not contain 100", lo, hi)
	}
	if _, _, err := BracketRootIn(func(float64) float64 { return 1 }, 0, 1, -inf, inf, 10); !errors.Is(err, ErrNoBracket) {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
}

func TestBracketRootIn(t *testing.T) {
	// The root at 100 lies far outside the initial guess but within the
	// domain: expansion reaches it.
	f := func(x float64) float64 { return x - 100 }
	lo, hi, err := BracketRootIn(f, 0, 1, 0, 1000, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !(lo <= 100 && 100 <= hi) {
		t.Errorf("bracket [%v, %v] does not contain 100", lo, hi)
	}

	// A residual singular below zero (as Eq 18's is at b_b = -S): the
	// bounded search must never evaluate f at a negative argument.
	evaluatedNegative := false
	g := func(x float64) float64 {
		if x < 0 {
			evaluatedNegative = true
		}
		return 1 / (x + 0.5) // no root: same sign everywhere in domain
	}
	if _, _, err := BracketRootIn(g, 0.25, 0.5, 0, 10, 60); !errors.Is(err, ErrNoBracket) {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
	if evaluatedNegative {
		t.Error("BracketRootIn evaluated f outside [0, 10]")
	}

	// Root near the domain edge: expansion clamps at the bound and still
	// brackets.
	h := func(x float64) float64 { return x - 9.5 }
	lo, hi, err = BracketRootIn(h, 1, 2, 0, 10, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !(lo <= 9.5 && 9.5 <= hi) || hi > 10 {
		t.Errorf("bracket [%v, %v] wrong for root 9.5 in [0,10]", lo, hi)
	}

	// Pinned-at-both-bounds exits early with ErrNoBracket rather than
	// spinning through maxExpand.
	calls := 0
	k := func(x float64) float64 { calls++; return 1 }
	if _, _, err := BracketRootIn(k, 0, 10, 0, 10, 1<<20); !errors.Is(err, ErrNoBracket) {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
	if calls > 8 {
		t.Errorf("BracketRootIn made %d calls on an unbracketable pinned domain", calls)
	}
}
