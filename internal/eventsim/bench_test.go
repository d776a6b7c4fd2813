package eventsim

import (
	"testing"
	"time"
)

func BenchmarkScheduleRun(b *testing.B) {
	var l Loop
	nop := fn(func() {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.AfterEvent(time.Microsecond, 0, nop)
		if l.Pending() > 1024 {
			l.RunFor(2 * time.Millisecond)
		}
	}
	l.Drain()
}

func BenchmarkTimerRearm(b *testing.B) {
	var l Loop
	tm := newTimer(&l, func() {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.ArmAfter(time.Millisecond)
		if i%1024 == 1023 {
			l.RunFor(2 * time.Millisecond)
		}
	}
	l.Drain()
}
