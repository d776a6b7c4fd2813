package cc

import (
	"bbrnash/internal/eventsim"
)

// MaxFilter tracks the running maximum of a signal over a sliding window.
// It is the exact deque-based formulation: Get returns the true maximum of
// all samples whose timestamps lie within the window. BBR uses one for its
// bottleneck-bandwidth estimate (window measured in round trips, supplied by
// the caller as synthetic timestamps) and a MinFilter for its RTprop
// estimate (window in wall-clock time).
type MaxFilter struct {
	window  eventsim.Time // in the same units as the sample timestamps
	entries []filterEntry
}

// MinFilter tracks the running minimum of a signal over a sliding window.
type MinFilter struct {
	window  eventsim.Time
	entries []filterEntry
}

type filterEntry struct {
	at eventsim.Time
	v  float64
}

// NewMaxFilter returns a max filter with the given window width.
func NewMaxFilter(window eventsim.Time) *MaxFilter { return &MaxFilter{window: window} }

// MakeMaxFilter returns, by value, a max filter over a window of the given
// number of whole units (BBR counts round trips), with room for every entry
// it can hold. Update keeps at most one entry per distinct timestamp, and
// Get drops the entries older than the window, so a filter whose timestamps
// are whole units and that is read after every Update holds at most
// rounds+1 live entries, plus one that lapsed since the last read: it
// never grows past rounds+2.
func MakeMaxFilter(rounds int) MaxFilter {
	return MaxFilter{window: eventsim.Time(rounds), entries: make([]filterEntry, 0, rounds+2)}
}

// NewMinFilter returns a min filter with the given window width.
func NewMinFilter(window eventsim.Time) *MinFilter { return &MinFilter{window: window} }

// Update inserts a sample at time now. Timestamps must be nondecreasing.
// A sample no larger than the entry already taken at the same instant is
// skipped: Get can never return it, and it would expire together with
// that entry. So the filter holds at most one entry per distinct
// timestamp. Entries older than the window are dropped by the next Get,
// which keeps Update small enough to inline.
func (f *MaxFilter) Update(now eventsim.Time, v float64) {
	n := len(f.entries)
	if n > 0 && f.entries[n-1].at == now && f.entries[n-1].v >= v {
		return
	}
	// Drop entries dominated by the new sample: they can never be the
	// maximum again.
	for n > 0 && f.entries[n-1].v <= v {
		n--
	}
	f.entries = append(f.entries[:n], filterEntry{at: now, v: v})
}

// Get returns the maximum over the window ending at now, and whether any
// sample is present.
func (f *MaxFilter) Get(now eventsim.Time) (float64, bool) {
	f.expire(now)
	if len(f.entries) == 0 {
		return 0, false
	}
	return f.entries[0].v, true
}

// Reset discards all samples.
func (f *MaxFilter) Reset() { f.entries = f.entries[:0] }

// SetWindow changes the window width. A wider window does not bring back
// the entries an earlier Get dropped.
func (f *MaxFilter) SetWindow(w eventsim.Time) { f.window = w }

func (f *MaxFilter) expire(now eventsim.Time) {
	cutoff := now - f.window
	i := 0
	for i < len(f.entries) && f.entries[i].at < cutoff {
		i++
	}
	if i > 0 {
		f.entries = f.entries[:copy(f.entries, f.entries[i:])]
	}
}

// Update inserts a sample at time now. Timestamps must be nondecreasing.
// Like MaxFilter.Update, it skips a sample no smaller than the entry
// already taken at the same instant, which Get and Best can never return,
// and leaves the window's expiry to them.
func (f *MinFilter) Update(now eventsim.Time, v float64) {
	n := len(f.entries)
	if n > 0 && f.entries[n-1].at == now && f.entries[n-1].v <= v {
		return
	}
	for n > 0 && f.entries[n-1].v >= v {
		n--
	}
	f.entries = append(f.entries[:n], filterEntry{at: now, v: v})
}

// Get returns the minimum over the window ending at now, and whether any
// sample is present.
func (f *MinFilter) Get(now eventsim.Time) (float64, bool) {
	f.expire(now)
	if len(f.entries) == 0 {
		return 0, false
	}
	return f.entries[0].v, true
}

// Best returns the minimum over the window ending at now along with the
// time that minimum was sampled. BBRv2 uses the sample age to decide when a
// fresh ProbeRTT is due.
func (f *MinFilter) Best(now eventsim.Time) (v float64, at eventsim.Time, ok bool) {
	f.expire(now)
	if len(f.entries) == 0 {
		return 0, 0, false
	}
	return f.entries[0].v, f.entries[0].at, true
}

// Reset discards all samples.
func (f *MinFilter) Reset() { f.entries = f.entries[:0] }

// SetWindow changes the window width. A wider window does not bring back
// the entries an earlier Get or Best dropped.
func (f *MinFilter) SetWindow(w eventsim.Time) { f.window = w }

func (f *MinFilter) expire(now eventsim.Time) {
	cutoff := now - f.window
	i := 0
	for i < len(f.entries) && f.entries[i].at < cutoff {
		i++
	}
	if i > 0 {
		f.entries = f.entries[:copy(f.entries, f.entries[i:])]
	}
}
