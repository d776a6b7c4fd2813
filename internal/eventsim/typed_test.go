package eventsim

import (
	"testing"
	"time"
)

// recorder is a typed event target that logs (kind, at) pairs.
type recorder struct {
	loop  *Loop
	kinds []Kind
	times []Time
}

func (r *recorder) OnEvent(k Kind) {
	r.kinds = append(r.kinds, k)
	r.times = append(r.times, r.loop.Now())
}

func TestTypedEventsDispatchByKind(t *testing.T) {
	var l Loop
	r := &recorder{loop: &l}
	l.ScheduleEvent(At(2*time.Millisecond), 7, r)
	l.ScheduleEvent(At(1*time.Millisecond), 3, r)
	l.AfterEvent(3*time.Millisecond, 9, r)
	l.Drain()
	if len(r.kinds) != 3 || r.kinds[0] != 3 || r.kinds[1] != 7 || r.kinds[2] != 9 {
		t.Errorf("kinds = %v, want [3 7 9]", r.kinds)
	}
	if r.times[0] != At(time.Millisecond) || r.times[2] != At(3*time.Millisecond) {
		t.Errorf("times = %v", r.times)
	}
}

// Satellite regression: a stopped timer's event leaves the queue
// immediately — it must not linger until its original deadline inflating
// Pending, and a re-arm must move the entry rather than add one.
func TestTimerStopRemovesPendingEvent(t *testing.T) {
	var l Loop
	tm := newTimer(&l, func() {})
	tm.ArmAfter(10 * time.Millisecond)
	if l.Pending() != 1 {
		t.Fatalf("Pending after Arm = %d, want 1", l.Pending())
	}
	tm.Stop()
	if l.Pending() != 0 {
		t.Fatalf("Pending after Stop = %d, want 0 (stale event lingering)", l.Pending())
	}
	// Re-arming many times keeps exactly one live entry.
	for i := 0; i < 100; i++ {
		tm.ArmAfter(time.Duration(i+1) * time.Millisecond)
	}
	if l.Pending() != 1 {
		t.Fatalf("Pending after 100 re-arms = %d, want 1", l.Pending())
	}
	// And a fired timer counts exactly once.
	if n := l.Drain(); n != 1 {
		t.Fatalf("Drain executed %d events, want 1", n)
	}
	if l.Processed() != 1 {
		t.Fatalf("Processed = %d, want 1 (cancelled events must not count)", l.Processed())
	}
}

// A timer re-armed to the same deadline as other same-instant events fires
// in the position its *latest* arm would give it — the fresh-sequence
// semantics the old cancel-by-generation engine had.
func TestTimerRearmTakesFreshSequence(t *testing.T) {
	var l Loop
	var order []string
	tm := newTimer(&l, func() { order = append(order, "timer") })
	at := At(10 * time.Millisecond)
	tm.Arm(at)
	l.ScheduleEvent(at, 0, fn(func() { order = append(order, "a") }))
	tm.Arm(at) // re-arm to the same instant: now logically after "a"
	l.ScheduleEvent(at, 0, fn(func() { order = append(order, "b") }))
	l.Drain()
	if len(order) != 3 || order[0] != "a" || order[1] != "timer" || order[2] != "b" {
		t.Errorf("order = %v, want [a timer b]", order)
	}
}

// A re-arm at the deadline the timer already holds keeps the timer's place
// in its bucket but still draws a fresh sequence number: it now fires after
// a fast-lane event scheduled at the same instant in between, and before a
// bucket successor with a later deadline.
func TestTimerRearmSameDeadlineInPlace(t *testing.T) {
	var l Loop
	var order []string
	tm := newTimer(&l, func() { order = append(order, "timer") })
	at := At(10 * time.Millisecond)
	tm.Arm(at)
	l.ScheduleEvent(at+1, 0, fn(func() { order = append(order, "later") }))
	l.ScheduleNext(at, 0, fn(func() { order = append(order, "fast") }))
	tm.Arm(at)
	l.Drain()
	if len(order) != 3 || order[0] != "fast" || order[1] != "timer" || order[2] != "later" {
		t.Errorf("order = %v, want [fast timer later]", order)
	}
}

// Reserve pre-sizes the arena: scheduling within the reserved population
// must not allocate.
func TestReservePreventsGrowth(t *testing.T) {
	var l Loop
	l.Reserve(256)
	r := &recorder{loop: &l}
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 200; i++ {
			l.ScheduleEvent(l.Now().Add(time.Duration(i+1)*time.Microsecond), 0, r)
		}
		r.kinds = r.kinds[:0]
		r.times = r.times[:0]
		l.RunFor(time.Millisecond)
	})
	if allocs > 0 {
		t.Errorf("scheduling within reserved capacity allocated %.0f times per run", allocs)
	}
}

// Interleaved schedule/cancel/re-arm traffic keeps the indexed heap
// consistent: everything live fires in (at, seq) order.
func TestIndexedHeapStress(t *testing.T) {
	var l Loop
	const timers = 33
	var fired []Time
	tms := make([]*Timer, timers)
	for i := range tms {
		tms[i] = newTimer(&l, func() { fired = append(fired, l.Now()) })
	}
	// A deterministic pseudo-random walk of arms, stops and one-off events.
	state := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
	for step := 0; step < 5000; step++ {
		tm := tms[next(timers)]
		switch next(3) {
		case 0:
			tm.ArmAfter(time.Duration(next(5000)) * time.Microsecond)
		case 1:
			tm.Stop()
		case 2:
			l.AfterEvent(time.Duration(next(5000))*time.Microsecond, 0, fn(func() { fired = append(fired, l.Now()) }))
		}
		if step%97 == 0 {
			l.RunFor(time.Duration(next(2000)) * time.Microsecond)
		}
	}
	l.Drain()
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("events fired out of order at %d: %v then %v", i, fired[i-1], fired[i])
		}
	}
	if l.Pending() != 0 {
		t.Errorf("Pending after drain = %d", l.Pending())
	}
}
