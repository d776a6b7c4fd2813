package cc

import (
	"math"
	"testing"
	"testing/quick"

	"bbrnash/internal/eventsim"
)

func TestMaxFilterBasic(t *testing.T) {
	f := NewMaxFilter(10)
	if _, ok := f.Get(0); ok {
		t.Error("empty filter reported a value")
	}
	f.Update(0, 5)
	f.Update(1, 3)
	f.Update(2, 7)
	if v, ok := f.Get(2); !ok || v != 7 {
		t.Errorf("max = %v,%v want 7,true", v, ok)
	}
}

func TestMaxFilterExpiry(t *testing.T) {
	f := NewMaxFilter(10)
	f.Update(0, 100)
	f.Update(5, 50)
	if v, _ := f.Get(9); v != 100 {
		t.Errorf("max at 9 = %v, want 100", v)
	}
	// At t=11 the window is [1, 11]; the 100 at t=0 has aged out.
	if v, _ := f.Get(11); v != 50 {
		t.Errorf("max at 11 = %v, want 50", v)
	}
	// At t=16 everything has aged out.
	if _, ok := f.Get(16); ok {
		t.Error("fully expired filter reported a value")
	}
}

func TestMinFilterBasic(t *testing.T) {
	f := NewMinFilter(10)
	f.Update(0, 5)
	f.Update(1, 8)
	f.Update(2, 3)
	if v, ok := f.Get(2); !ok || v != 3 {
		t.Errorf("min = %v,%v want 3,true", v, ok)
	}
	// New minimum displaces the old immediately.
	f.Update(3, 1)
	if v, _ := f.Get(3); v != 1 {
		t.Errorf("min = %v, want 1", v)
	}
}

func TestMinFilterExpiry(t *testing.T) {
	f := NewMinFilter(10)
	f.Update(0, 1)
	f.Update(5, 9)
	if v, _ := f.Get(12); v != 9 {
		t.Errorf("min at 12 = %v, want 9", v)
	}
}

func TestFiltersMatchBruteForceProperty(t *testing.T) {
	type sample struct {
		Dt uint8
		V  uint16
	}
	f := func(samples []sample) bool {
		const window = 50
		maxF := NewMaxFilter(window)
		minF := NewMinFilter(window)
		var hist []filterEntry
		now := eventsim.Time(0)
		for _, s := range samples {
			now += eventsim.Time(s.Dt % 20)
			v := float64(s.V % 1000)
			maxF.Update(now, v)
			minF.Update(now, v)
			hist = append(hist, filterEntry{at: now, v: v})

			// Brute-force expected values over the window [now-window, now].
			bmax, bmin := -1.0, 1e18
			for _, h := range hist {
				if h.at >= now-window {
					if h.v > bmax {
						bmax = h.v
					}
					if h.v < bmin {
						bmin = h.v
					}
				}
			}
			gmax, ok1 := maxF.Get(now)
			gmin, ok2 := minF.Get(now)
			if !ok1 || !ok2 || gmax != bmax || gmin != bmin {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFilterReset(t *testing.T) {
	f := NewMaxFilter(100)
	f.Update(0, 42)
	f.Reset()
	if _, ok := f.Get(0); ok {
		t.Error("reset filter reported a value")
	}
	g := NewMinFilter(100)
	g.Update(0, 42)
	g.Reset()
	if _, ok := g.Get(0); ok {
		t.Error("reset filter reported a value")
	}
}

func TestFilterSetWindow(t *testing.T) {
	f := NewMaxFilter(100)
	f.Update(0, 10)
	f.Update(50, 5)
	f.SetWindow(10)
	if v, _ := f.Get(55); v != 5 {
		t.Errorf("after narrowing window, max = %v, want 5", v)
	}
}

func TestParamsWithDefaults(t *testing.T) {
	p := Params{}.WithDefaults()
	if p.MSS != 1460 {
		t.Errorf("default MSS = %v", p.MSS)
	}
	if p.InitialCwnd != 14600 {
		t.Errorf("default InitialCwnd = %v", p.InitialCwnd)
	}
	q := Params{MSS: 100, InitialCwnd: 500}.WithDefaults()
	if q.MSS != 100 || q.InitialCwnd != 500 {
		t.Error("explicit params overwritten")
	}
}

// FuzzWindowFilters drives a MaxFilter and a MinFilter with one stream of
// samples at nondecreasing timestamps, repeats included, and checks every
// Get and Best against a brute-force scan of all samples in the window:
// the maximum, the minimum, and for Best the newest instant the minimum
// was sampled at. Reads may be skipped, so several Updates can pile up
// entries that lapse before the next read, and the window may change
// between an Update and a read (Copa sets it on every ACK). A window that
// widens does not bring back what an earlier read dropped, so the
// reference scans the samples no older than the latest cutoff any read
// has applied. After every op it checks the deques' shape: at most one
// entry per timestamp, values strictly monotone, and after a read every
// entry inside the window.
//
// Each op is two bytes. In the first, bits 0–1 advance the clock by 0, 1,
// up to half the window, or past the whole window; bits 2–3 at 3 skip the
// update of both filters; bits 4–6 at 7 reset both filters first, at 6
// set both windows to the second byte's top five bits after the update;
// bit 7 skips the read. The second byte is the sample value, folded into
// a small range so that ties are common.
func FuzzWindowFilters(f *testing.F) {
	f.Add(uint8(10), []byte{0, 5, 0, 3, 0, 5, 1, 2, 0, 2, 2, 9, 3, 1, 12, 0, 0, 4})
	f.Add(uint8(0), []byte{0, 1, 0, 1, 1, 0, 0, 7, 0x70, 3, 0, 3, 12, 0})
	f.Add(uint8(3), []byte{1, 4, 0, 4, 0, 6, 1, 2, 1, 1, 1, 0, 3, 5, 13, 0, 0, 0xff, 0, 0x80})
	// Unread updates that lapse together, then a narrower window, then a
	// wider one.
	f.Add(uint8(8), []byte{0x80, 5, 0x81, 4, 0x81, 3, 0x81, 2, 0x82, 9, 0x60, 1 << 3, 0x8c, 0, 0x60, 20 << 3})
	f.Fuzz(func(t *testing.T, window uint8, ops []byte) {
		w := eventsim.Time(window % 32)
		maxF, minF := NewMaxFilter(w), NewMinFilter(w)
		var hist []filterEntry
		now := eventsim.Time(0)
		floor := now - w
		for ; len(ops) >= 2; ops = ops[2:] {
			op, arg := ops[0], ops[1]
			switch op & 3 {
			case 1:
				now++
			case 2:
				now += 1 + eventsim.Time(arg)%(w/2+1)
			case 3:
				now += w + 1 + eventsim.Time(arg%4)
			}
			if op&0x70 == 0x70 {
				maxF.Reset()
				minF.Reset()
				hist = hist[:0]
			}
			if op>>2&3 != 3 {
				v := float64(int8(arg) % 6)
				maxF.Update(now, v)
				minF.Update(now, v)
				hist = append(hist, filterEntry{at: now, v: v})
			}
			if op&0x70 == 0x60 {
				w = eventsim.Time(arg >> 3)
				maxF.SetWindow(w)
				minF.SetWindow(w)
			}
			cutoff := eventsim.Time(math.MinInt64)
			if op&0x80 == 0 {
				cutoff = now - w
				floor = max(floor, cutoff)
				checkRead(t, maxF, minF, hist, now, w, floor)
			}
			checkDeque(t, "max", maxF.entries, cutoff, func(a, b float64) bool { return a > b })
			checkDeque(t, "min", minF.entries, cutoff, func(a, b float64) bool { return a < b })
		}
	})
}

// checkRead reads both filters at now and checks them against a scan of
// the samples in hist no older than floor.
func checkRead(t *testing.T, maxF *MaxFilter, minF *MinFilter, hist []filterEntry, now, w, floor eventsim.Time) {
	t.Helper()
	var inWindow bool
	var bmax, bmin float64
	var bminAt eventsim.Time
	for _, h := range hist {
		if h.at < floor {
			continue
		}
		if !inWindow || h.v > bmax {
			bmax = h.v
		}
		if !inWindow || h.v <= bmin {
			bmin, bminAt = h.v, h.at
		}
		inWindow = true
	}
	gmax, okMax := maxF.Get(now)
	gmin, okMin := minF.Get(now)
	bv, bat, okBest := minF.Best(now)
	if okMax != inWindow || okMin != inWindow || okBest != inWindow {
		t.Fatalf("at %d (window %d): Get/Get/Best report %v/%v/%v, want %v",
			now, w, okMax, okMin, okBest, inWindow)
	}
	if inWindow && (gmax != bmax || gmin != bmin || bv != bmin || bat != bminAt) {
		t.Fatalf("at %d (window %d): max %v, min %v, best %v@%d; want %v, %v, %v@%d",
			now, w, gmax, gmin, bv, bat, bmax, bmin, bmin, bminAt)
	}
}

// checkDeque checks a filter's entries: all at or after cutoff (the start
// of the window of the read just made, if any), timestamps strictly
// increasing (one entry per instant) and each value strictly before the
// next in the filter's order.
func checkDeque(t *testing.T, name string, es []filterEntry, cutoff eventsim.Time, before func(a, b float64) bool) {
	t.Helper()
	for i, e := range es {
		if e.at < cutoff {
			t.Fatalf("%s filter kept entry %d at %d, older than the window's start %d", name, i, e.at, cutoff)
		}
		if i > 0 && (e.at <= es[i-1].at || !before(es[i-1].v, e.v)) {
			t.Fatalf("%s filter entries %d and %d out of order: %+v then %+v", name, i-1, i, es[i-1], e)
		}
	}
}
