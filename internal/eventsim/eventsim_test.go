package eventsim

import (
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestRunOrdersByTime(t *testing.T) {
	var l Loop
	var got []int
	l.ScheduleEvent(At(3*time.Millisecond), 0, fn(func() { got = append(got, 3) }))
	l.ScheduleEvent(At(1*time.Millisecond), 0, fn(func() { got = append(got, 1) }))
	l.ScheduleEvent(At(2*time.Millisecond), 0, fn(func() { got = append(got, 2) }))
	l.Run(At(time.Second))
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("execution order = %v", got)
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var l Loop
	var got []int
	at := At(5 * time.Millisecond)
	for i := 0; i < 10; i++ {
		i := i
		l.ScheduleEvent(at, 0, fn(func() { got = append(got, i) }))
	}
	l.Drain()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events executed out of order: %v", got)
		}
	}
}

func TestRunStopsAtUntil(t *testing.T) {
	var l Loop
	ran := false
	l.ScheduleEvent(At(2*time.Second), 0, fn(func() { ran = true }))
	n := l.Run(At(time.Second))
	if n != 0 || ran {
		t.Error("event beyond until should not run")
	}
	if l.Now() != At(time.Second) {
		t.Errorf("clock = %v, want 1s", l.Now())
	}
	l.Run(At(3 * time.Second))
	if !ran {
		t.Error("event within later window did not run")
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	var l Loop
	var seen Time
	l.ScheduleEvent(At(7*time.Millisecond), 0, fn(func() { seen = l.Now() }))
	l.Drain()
	if seen != At(7*time.Millisecond) {
		t.Errorf("Now inside event = %v, want 7ms", seen)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var l Loop
	l.ScheduleEvent(At(time.Second), 0, fn(func() {}))
	l.Run(At(2 * time.Second))
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	l.ScheduleEvent(At(time.Millisecond), 0, fn(func() {}))
}

func TestAfterNegativeDelay(t *testing.T) {
	var l Loop
	ran := false
	l.AfterEvent(-time.Second, 0, fn(func() { ran = true }))
	l.Drain()
	if !ran {
		t.Error("AfterEvent with negative delay never ran")
	}
}

func TestEventsScheduleEvents(t *testing.T) {
	var l Loop
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			l.AfterEvent(time.Millisecond, 0, fn(recurse))
		}
	}
	l.AfterEvent(0, 0, fn(recurse))
	l.Run(At(time.Second))
	if depth != 100 {
		t.Errorf("depth = %d, want 100", depth)
	}
	if l.Processed() != 100 {
		t.Errorf("Processed = %d, want 100", l.Processed())
	}
}

func TestRunForIsRelative(t *testing.T) {
	var l Loop
	count := 0
	for i := 1; i <= 10; i++ {
		l.ScheduleEvent(At(time.Duration(i)*time.Second), 0, fn(func() { count++ }))
	}
	l.RunFor(5 * time.Second)
	if count != 5 {
		t.Errorf("count after first window = %d, want 5", count)
	}
	l.RunFor(5 * time.Second)
	if count != 10 {
		t.Errorf("count after second window = %d, want 10", count)
	}
}

func TestPending(t *testing.T) {
	var l Loop
	for i := 0; i < 4; i++ {
		l.ScheduleEvent(At(time.Duration(i)*time.Second), 0, fn(func() {}))
	}
	if l.Pending() != 4 {
		t.Errorf("Pending = %d, want 4", l.Pending())
	}
	l.Drain()
	if l.Pending() != 0 {
		t.Errorf("Pending after drain = %d", l.Pending())
	}
}

func TestOrderProperty(t *testing.T) {
	// Any batch of events executes in nondecreasing time order.
	f := func(delays []uint32) bool {
		var l Loop
		var fired []Time
		for _, d := range delays {
			at := At(time.Duration(d%1e6) * time.Microsecond)
			l.ScheduleEvent(at, 0, fn(func() { fired = append(fired, l.Now()) }))
		}
		l.Drain()
		if len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimerFires(t *testing.T) {
	var l Loop
	fired := 0
	tm := newTimer(&l, func() { fired++ })
	tm.ArmAfter(10 * time.Millisecond)
	l.RunFor(time.Second)
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if _, armed := tm.Armed(); armed {
		t.Error("timer still armed after firing")
	}
}

func TestTimerStop(t *testing.T) {
	var l Loop
	fired := 0
	tm := newTimer(&l, func() { fired++ })
	tm.ArmAfter(10 * time.Millisecond)
	tm.Stop()
	l.RunFor(time.Second)
	if fired != 0 {
		t.Errorf("stopped timer fired %d times", fired)
	}
}

func TestTimerRearmReplacesDeadline(t *testing.T) {
	var l Loop
	var firedAt []Time
	tm := newTimer(&l, func() { firedAt = append(firedAt, l.Now()) })
	tm.ArmAfter(10 * time.Millisecond)
	tm.ArmAfter(20 * time.Millisecond) // replaces the 10ms deadline
	l.RunFor(time.Second)
	if len(firedAt) != 1 || firedAt[0] != At(20*time.Millisecond) {
		t.Errorf("firedAt = %v, want [20ms]", firedAt)
	}
}

func TestTimerRearmFromCallback(t *testing.T) {
	var l Loop
	count := 0
	var tm *Timer
	tm = newTimer(&l, func() {
		count++
		if count < 5 {
			tm.ArmAfter(time.Millisecond)
		}
	})
	tm.ArmAfter(time.Millisecond)
	l.RunFor(time.Second)
	if count != 5 {
		t.Errorf("periodic timer fired %d times, want 5", count)
	}
}

func TestTimeHelpers(t *testing.T) {
	x := At(time.Second)
	if x.Add(time.Second) != At(2*time.Second) {
		t.Error("Add wrong")
	}
	if At(3*time.Second).Sub(x) != 2*time.Second {
		t.Error("Sub wrong")
	}
	if x.Seconds() != 1 {
		t.Error("Seconds wrong")
	}
	if Never.String() != "never" {
		t.Error("Never.String wrong")
	}
	if At(1500*time.Millisecond).String() != "1.5s" {
		t.Errorf("String = %q", At(1500*time.Millisecond).String())
	}
}
