package eventsim

// fn adapts a func to Handler for tests and benchmarks. A func value is
// pointer-shaped, so storing one in an event record does not allocate.
type fn func()

func (f fn) OnEvent(Kind) { f() }

// newTimer returns a timer on l that runs f when it fires.
func newTimer(l *Loop, f func()) *Timer {
	t := new(Timer)
	t.Init(l, 0, fn(f))
	return t
}
