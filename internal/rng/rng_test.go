package rng

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("seeds 1 and 2 produced %d identical values", same)
	}
}

func TestZeroSeedWorks(t *testing.T) {
	s := New(0)
	if s.Uint64() == 0 && s.Uint64() == 0 && s.Uint64() == 0 {
		t.Error("zero seed produced a degenerate stream")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(9)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want about 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(11)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		seen := make(map[int]bool)
		for i := 0; i < 200*n; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			seen[v] = true
		}
		if len(seen) != n {
			t.Errorf("Intn(%d) did not cover all values (saw %d)", n, len(seen))
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestRange(t *testing.T) {
	s := New(13)
	for i := 0; i < 1000; i++ {
		v := s.Range(-5, 5)
		if v < -5 || v >= 5 {
			t.Fatalf("Range out of bounds: %v", v)
		}
	}
	if v := s.Range(3, 3); v != 3 {
		t.Errorf("degenerate Range = %v, want 3", v)
	}
}

func TestRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Range(1,0) did not panic")
		}
	}()
	New(1).Range(1, 0)
}

func TestDuration(t *testing.T) {
	s := New(17)
	d := 10 * time.Millisecond
	for i := 0; i < 1000; i++ {
		v := s.Duration(d)
		if v < 0 || v >= d {
			t.Fatalf("Duration out of bounds: %v", v)
		}
	}
	if v := s.Duration(0); v != 0 {
		t.Errorf("Duration(0) = %v, want 0", v)
	}
	if v := s.Duration(-time.Second); v != 0 {
		t.Errorf("Duration(-1s) = %v, want 0", v)
	}
}

// TestNextMatchesUint64 checks that the value-form step reproduces the
// pointer-form stream: a Source advanced by Next, assigned back each time,
// draws what Uint64 draws from the same seed, and ends in the same state.
func TestNextMatchesUint64(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1 << 63, 0x9e3779b97f4a7c15} {
		ptr, val := New(seed), *New(seed)
		for i := 0; i < 1000; i++ {
			var x uint64
			val, x = val.Next()
			if want := ptr.Uint64(); x != want {
				t.Fatalf("seed %#x: Next #%d = %#016x, Uint64 = %#016x", seed, i, x, want)
			}
		}
		if val != *ptr {
			t.Errorf("seed %#x: states differ after 1000 draws", seed)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(23)
	f := func(n uint8) bool {
		size := int(n%64) + 1
		p := s.Perm(size)
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(31)
	a := parent.Split()
	b := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("split children produced %d identical values", same)
	}
}

// TestStreamGolden pins the generator's output to constants recorded from
// the reference implementation: the first eight Uint64s of three seeds and
// of a split child, then one Float64, Intn(3) and Duration(1ms) draw in
// turn from a fresh New(1), then eight Intn(1<<62 + 1). That bound rejects
// about one draw in four, so the last eight take twelve draws and pin
// Intn's rejection loop too. The other tests compare sources only with
// each other, so without this a change to the state layout or the seeding
// could move every stream and only the engine goldens would notice.
func TestStreamGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  *Source
		want [8]uint64
	}{
		{"New(0)", New(0), [8]uint64{
			0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0, 0x6aa594f1262d2d2c,
			0xbba5ad4a1f842e59, 0xffef8375d9ebcaca, 0x6c160deed2f54c98, 0x8920ad648fc30a3f}},
		{"New(1)", New(1), [8]uint64{
			0xb3f2af6d0fc710c5, 0x853b559647364cea, 0x92f89756082a4514, 0x642e1c7bc266a3a7,
			0xb27a48e29a233673, 0x24c123126ffda722, 0x123004ef8df510e6, 0x61954dcc47b1e89d}},
		{"New(1<<63)", New(1 << 63), [8]uint64{
			0xd01bfa9b44a998c3, 0x797c6b72ff690d62, 0x4576af98398380b1, 0xe5ce401830aaa16c,
			0xa5eeccc1d5d5ee1a, 0xcd43606b62171d67, 0x4205c135c5e32535, 0x6d11e27bbf34f857}},
		{"New(1).Split()", New(1).Split(), [8]uint64{
			0x2c83f301eb3f9c90, 0x4e876d9fae53f0b8, 0x516ba84e3a541549, 0x18a46d9d1df806fc,
			0x1bd0300adeab8c41, 0x7214c066a1fe58a2, 0x5f0bbff67811c95c, 0xc91a3e119a09992c}},
	} {
		for i, want := range tc.want {
			if got := tc.src.Uint64(); got != want {
				t.Errorf("%s: Uint64 #%d = %#016x, want %#016x", tc.name, i, got, want)
			}
		}
	}
	s := New(1)
	if got, want := s.Float64(), 0x1.67e55eda1f8e2p-01; got != want {
		t.Errorf("Float64 = %x, want %x", got, want)
	}
	if got := s.Intn(3); got != 1 {
		t.Errorf("Intn(3) = %d, want 1", got)
	}
	if got := s.Duration(time.Millisecond); got != 690900*time.Nanosecond {
		t.Errorf("Duration(1ms) = %v, want 690.9µs", got)
	}
	before := *s
	for i, want := range [8]int{
		0x2c9e9238a688cd9d, 0x093048c49bff69c8, 0x048c013be37d4439, 0x1865537311ec7a27,
		0x234f36e30ea96c74, 0x3d430ffc79f5fa2a, 0x2ad27b4f6d31990d, 0x26654f1b15e02376,
	} {
		if got := s.Intn(1<<62 + 1); got != want {
			t.Errorf("Intn(1<<62 + 1) #%d = %#016x, want %#016x", i, got, want)
		}
	}
	for i := 0; i < 12; i++ {
		before.Uint64()
	}
	if before != *s {
		t.Error("eight Intn(1<<62 + 1) calls did not take exactly twelve draws")
	}
}
