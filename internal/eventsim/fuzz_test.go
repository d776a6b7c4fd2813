package eventsim

import (
	"sort"
	"testing"
	"time"
)

// horizon is the wheel's reach: deadlines this far ahead of the clock's
// bucket go to the far heap.
const horizon = wheelBuckets << wheelShift

// fuzzDelays are the queue's edge cases: same-instant, one nanosecond, one
// wheel bucket, the wheel horizon -1/0/+1, and deadlines well past it.
var fuzzDelays = [8]time.Duration{
	0, 1, 1 << wheelShift,
	horizon - 1, horizon, horizon + 1,
	2*horizon + 3, 3 * horizon,
}

// maxFuzzOps caps the operations decoded from one input, so the
// reference's linear inserts stay cheap on large inputs.
const maxFuzzOps = 256

// FuzzLoopOrder checks the three-tier queue against a reference: a plain
// slice kept sorted on (at, seq), with seq drawn per schedule or arm. The
// input decodes into ScheduleEvent, ScheduleNext (only while the fast lane
// is empty), Timer.Arm, Timer.Stop and Run(until) calls with delays from
// fuzzDelays, and some handlers schedule, arm or stop from inside
// dispatch. Every dispatched event must be the reference's earliest, at
// its time and with its kind; Now and Pending must match after every
// operation, and Processed must count every event fired.
func FuzzLoopOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		h := &orderHarness{t: t}
		for i := range h.timers {
			h.targets[i] = timerTarget{h: h, i: i}
			h.timers[i].Init(&h.loop, timerKind(i), &h.targets[i])
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		for ops := 0; ops < maxFuzzOps && len(data) > 0; ops++ {
			switch op := next(); op % 8 {
			case 0, 1, 2, 3:
				d, c := next(), next()
				h.schedule(fuzzDelays[d&7], followUp{int(c & 3), c >> 2 & 3, fuzzDelays[c>>4&7]}, op%8 == 3)
			case 4:
				c, d := next(), next()
				i := int(c & 3)
				h.rearms[i] = followUp{int(c>>2) % 3, 0, fuzzDelays[d&7]}
				h.arm(i, fuzzDelays[d&7])
			case 5:
				h.stop(int(next() & 3))
			default:
				h.run(h.loop.Now().Add(fuzzDelays[next()&7]))
			}
			h.check()
		}
		h.run(Never)
		if len(h.ref) != 0 {
			t.Fatalf("%d events never fired", len(h.ref))
		}
		if got := h.loop.Processed(); got != h.fired {
			t.Fatalf("Processed = %d, want %d fired", got, h.fired)
		}
	})
}

// refEvent is one pending event in the reference. id is positive for a
// one-off event and -1-i for timer i.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

// followUp is what a handler does from inside dispatch: n more links of a
// chain, by action 0 (ScheduleEvent), 1 (ScheduleNext, or ScheduleEvent
// while the fast lane is busy), 2 (arm a timer) or 3 (stop a timer).
type followUp struct {
	n      int
	action byte
	delay  time.Duration
}

// orderHarness drives a Loop and the reference in lockstep.
type orderHarness struct {
	t       *testing.T
	loop    Loop
	ref     []refEvent // pending events sorted by (at, seq)
	seq     uint64     // the reference's sequence counter
	now     Time       // the reference's clock
	fired   uint64
	lastID  int
	fastID  int // the pending fast-lane event's id, 0 when the lane is empty
	timers  [4]Timer
	targets [4]timerTarget
	rearms  [4]followUp // re-arms a timer performs from its own handler
}

// timerKind gives each timer its own kind. Kinds belong to the caller, so
// negative ones are as good as any.
func timerKind(i int) Kind { return Kind(-1 - i) }

// oneOff is a ScheduleEvent or ScheduleNext event.
type oneOff struct {
	h      *orderHarness
	id     int
	follow followUp
}

func (e *oneOff) OnEvent(k Kind) {
	h := e.h
	h.fire(e.id, k, Kind(e.id))
	f := e.follow
	if f.n == 0 {
		return
	}
	next := followUp{f.n - 1, f.action, f.delay}
	switch f.action {
	case 0, 1:
		h.schedule(f.delay, next, f.action == 1)
	case 2:
		h.arm(e.id&3, f.delay)
	case 3:
		h.stop(e.id & 3)
	}
}

type timerTarget struct {
	h *orderHarness
	i int
}

func (tt *timerTarget) OnEvent(k Kind) {
	h := tt.h
	h.fire(-1-tt.i, k, timerKind(tt.i))
	if r := &h.rearms[tt.i]; r.n > 0 {
		r.n--
		h.arm(tt.i, r.delay)
	}
}

// add inserts an event into the reference under a fresh sequence number.
func (h *orderHarness) add(at Time, id int) {
	h.seq++
	e := refEvent{at, h.seq, id}
	i := sort.Search(len(h.ref), func(i int) bool {
		r := h.ref[i]
		return r.at > e.at || (r.at == e.at && r.seq > e.seq)
	})
	h.ref = append(h.ref, refEvent{})
	copy(h.ref[i+1:], h.ref[i:])
	h.ref[i] = e
}

// remove drops a pending event from the reference, if present.
func (h *orderHarness) remove(id int) {
	for i, r := range h.ref {
		if r.id == id {
			h.ref = append(h.ref[:i], h.ref[i+1:]...)
			return
		}
	}
}

// schedule adds a one-off event d from now, through the fast lane when
// fast is set and the lane is empty.
func (h *orderHarness) schedule(d time.Duration, f followUp, fast bool) {
	h.lastID++
	e := &oneOff{h: h, id: h.lastID, follow: f}
	at := h.loop.Now().Add(d)
	h.add(at, e.id)
	if fast && h.fastID == 0 {
		h.fastID = e.id
		h.loop.ScheduleNext(at, Kind(e.id), e)
		return
	}
	h.loop.ScheduleEvent(at, Kind(e.id), e)
}

func (h *orderHarness) arm(i int, d time.Duration) {
	at := h.loop.Now().Add(d)
	h.remove(-1 - i)
	h.add(at, -1-i)
	h.timers[i].Arm(at)
}

func (h *orderHarness) stop(i int) {
	h.remove(-1 - i)
	h.timers[i].Stop()
}

// fire checks that the dispatched event is the reference's earliest, at
// the reference's time and with its kind, and retires it.
func (h *orderHarness) fire(id int, got, want Kind) {
	if len(h.ref) == 0 {
		h.t.Fatalf("event %d fired; the reference has nothing pending", id)
	}
	r := h.ref[0]
	if r.id != id {
		h.t.Fatalf("event %d fired at %v; the reference's next is %d at %v (seq %d)", id, h.loop.Now(), r.id, r.at, r.seq)
	}
	if now := h.loop.Now(); now != r.at {
		h.t.Fatalf("event %d fired at %v, want %v", id, now, r.at)
	}
	if got != want {
		h.t.Fatalf("event %d dispatched kind %d, want %d", id, got, want)
	}
	h.ref = h.ref[1:]
	h.now = r.at
	h.fired++
	if h.fastID == id {
		h.fastID = 0
	}
}

// run advances the loop to until and checks it fired exactly the events
// the reference has due by then.
func (h *orderHarness) run(until Time) {
	before := h.fired
	if n := h.loop.Run(until); n != h.fired-before {
		h.t.Fatalf("Run(%v) reported %d events, %d fired", until, n, h.fired-before)
	}
	if len(h.ref) > 0 && h.ref[0].at <= until {
		h.t.Fatalf("Run(%v) returned with event %d due at %v", until, h.ref[0].id, h.ref[0].at)
	}
	if h.now < until {
		h.now = until
	}
}

func (h *orderHarness) check() {
	if got := h.loop.Now(); got != h.now {
		h.t.Fatalf("Now = %v, want %v", got, h.now)
	}
	if got := h.loop.Pending(); got != len(h.ref) {
		h.t.Fatalf("Pending = %d, want %d", got, len(h.ref))
	}
}
