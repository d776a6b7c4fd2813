// Package eventsim implements a deterministic discrete-event simulation
// engine: a virtual clock and a time-ordered event queue.
//
// Events scheduled for the same instant fire in scheduling order (FIFO
// tie-break by sequence number), which makes simulations reproducible
// independent of map iteration or scheduler behaviour.
//
// The queue is typed and allocation-free: every event is a flat
// (Kind, Handler) record in a pooled arena, dispatched by one
// target.OnEvent(kind) call. Scheduling allocates nothing once the arena
// has reached its steady-state size.
//
// Ordering is maintained by a three-tier structure chosen by benchmark (see
// DESIGN §13). A single-slot fast lane (ScheduleNext) holds the most
// frequent event, a link's next service completion. Events within the near
// horizon — the bulk: other service completions, ACK arrivals, pacer fires,
// most loss detections — live in a calendar queue (a timing wheel of
// per-bucket lists kept sorted by (at, seq), with an occupancy bitmap for
// O(1) next-bucket scans). Events past the wheel's ~268ms horizon live in
// an indexed 4-ary min-heap: fault edges, flow restarts, and loss
// detections scheduled a deep buffer's drain ahead. On the NE search's
// payoff shape that is 0–2.5% of events, peaking at 8,050 heap entries at
// 50 BDP. The wheel and the heap support in-place cancellation, so stale
// timer generations are removed rather than left to no-op and Pending and
// Processed count live events only. A timer re-armed at the deadline it
// already holds (the pacer, on nearly every ACK) usually keeps its place
// in its wheel bucket and only draws a fresh sequence number. Dequeue
// compares the three tiers' minima on the full (at, seq) key, so the
// execution order is exactly the single-queue order.
package eventsim

import (
	"fmt"
	"math/bits"
	"time"
)

// Time is an absolute simulation timestamp in nanoseconds since the start of
// the run.
type Time int64

// Common timestamps.
const (
	Start Time = 0
	// Never sorts after every reachable timestamp; it marks "not scheduled".
	Never Time = 1<<63 - 1
)

// At converts a duration-from-start to an absolute timestamp.
func At(d time.Duration) Time { return Time(d) }

// Add offsets a timestamp by a duration.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration returns the time elapsed since the start of the simulation.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns the timestamp in seconds since the start of the run.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

func (t Time) String() string {
	if t == Never {
		return "never"
	}
	return t.Duration().String()
}

// Kind discriminates events for a Handler's dispatch switch. Its values
// belong wholly to the caller: the engine only stores and passes them back.
type Kind int32

// Handler receives typed events. Implementations are typically small
// pooled objects (a packet, a flow) that switch on the kind; storing a
// pointer implementation in an event record does not allocate.
type Handler interface {
	OnEvent(k Kind)
}

// Wheel geometry. Bucket width is 1<<wheelShift nanoseconds (~33µs), and
// wheelBuckets of them span a ~268ms horizon — comfortably past the
// largest ACK delay a WAN-scale scenario schedules, so per-packet events
// essentially never fall through to the far heap. The wheel costs 65KB, a
// fraction of L2, and with packet-level event densities of tens of
// thousands per simulated second the mean bucket occupancy stays around
// one, keeping sorted insertion O(1) in practice.
const (
	wheelShift   = 15
	wheelBuckets = 8192
)

// Location sentinels for record.pos (non-negative values are far-heap
// positions).
const (
	posWheel int32 = -2
	posFree  int32 = -3
)

// entry is one far-heap element. The (at, seq) sort key lives in the heap
// itself so sifting compares contiguous memory instead of chasing arena
// indices.
type entry struct {
	at  Time
	seq uint64
	idx int32 // arena slot
}

// bucket is one wheel bucket's (at, seq)-sorted list: its head and tail
// arena slots, -1 when empty. The two sit together so that an insert,
// which reads the head and then usually appends at the tail, touches one
// cache line. Keys arrive mostly in ascending order, so most inserts
// append in O(1).
type bucket struct {
	head, tail int32
}

// record is one scheduled event in the arena. Records are recycled through
// an internal free list. pos tracks where the record lives — a far-heap
// position, or posWheel with prev/next linking it into its bucket's sorted
// list — so cancellation and re-arming find it in O(1).
type record struct {
	at     Time
	seq    uint64
	target Handler
	kind   Kind
	pos    int32
	prev   int32 // bucket-list links (wheel residents only); -1 terminates
	next   int32
}

// Loop is a discrete-event simulation loop. The zero value is ready to use.
// It is not safe for concurrent use; a simulation is single-threaded by
// design and parallelism belongs at the whole-simulation level.
type Loop struct {
	now   Time
	seq   uint64
	count uint64
	recs  []record // event arena; referenced by wheel lists, heap and free list
	free  []int32  // recycled arena slots
	heap  []entry  // far events (beyond the wheel horizon), 4-ary min-heap by (at, seq)

	// Calendar queue for near events.
	wheel     []bucket // per-bucket sorted lists
	bits      []uint64 // bucket occupancy bitmap
	wheelLive int      // events currently in the wheel
	minVB     int64    // cached smallest at>>wheelShift among wheel residents (valid when minValid)
	minValid  bool     // invalidated when the minimum bucket empties; wheelMin rescans lazily

	// Single-slot fast lane (see ScheduleNext): the one event class that is
	// both the most frequent and guaranteed unique — a link's next service
	// completion — bypasses the wheel and the arena entirely.
	fastAt     Time
	fastSeq    uint64
	fastKind   Kind
	fastTarget Handler
	fastLive   bool
}

// Now returns the current simulation time.
func (l *Loop) Now() Time { return l.now }

// Processed reports how many events have been executed so far. Cancelled
// events (stopped timers, superseded re-arms) are removed in place and are
// never counted.
func (l *Loop) Processed() uint64 { return l.count }

// Pending reports how many live events are waiting in the queue.
func (l *Loop) Pending() int {
	n := l.wheelLive + len(l.heap)
	if l.fastLive {
		n++
	}
	return n
}

// Reserve grows the queue's internal storage to hold at least n pending
// events without further allocation, and brings the wheel into existence.
// Call it before a run whose steady-state event population is known (e.g.
// from a scenario's bandwidth-delay product), so the hot loop never grows
// the arena mid-simulation.
func (l *Loop) Reserve(n int) {
	if n > cap(l.recs) {
		recs := make([]record, len(l.recs), n)
		copy(recs, l.recs)
		l.recs = recs
	}
	if n > cap(l.heap) {
		heap := make([]entry, len(l.heap), n)
		copy(heap, l.heap)
		l.heap = heap
	}
	if n > cap(l.free) {
		free := make([]int32, len(l.free), n)
		copy(free, l.free)
		l.free = free
	}
	if l.wheel == nil {
		l.initWheel()
	}
}

func (l *Loop) initWheel() {
	l.wheel = make([]bucket, wheelBuckets)
	for i := range l.wheel {
		l.wheel[i] = bucket{-1, -1}
	}
	l.bits = make([]uint64, wheelBuckets/64)
}

// alloc takes a free arena slot (or grows the arena) and stamps its payload.
func (l *Loop) alloc(kind Kind, target Handler) int32 {
	var idx int32
	if n := len(l.free); n > 0 {
		idx = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		idx = int32(len(l.recs))
		l.recs = append(l.recs, record{})
	}
	r := &l.recs[idx]
	r.kind = kind
	r.target = target
	return idx
}

// release returns a slot to the free list. The slot's target is left in
// place — alloc overwrites it on reuse, and the free list is LIFO
// so a released slot is the next one recycled. A handler can be retained at
// most until the queue next reaches the slot, which in a running simulation
// is the very next schedule.
func (l *Loop) release(idx int32) {
	l.recs[idx].pos = posFree
	l.free = append(l.free, idx)
}

// insert places the already-stamped slot idx at deadline at: in the wheel
// when the deadline is within the horizon, in the far heap otherwise. The
// horizon test is against the bucket of the current time, so a wheel
// resident's bucket is always within one rotation of the clock and maps to
// a unique physical bucket.
func (l *Loop) insert(idx int32, at Time) {
	r := &l.recs[idx]
	r.at = at
	r.seq = l.seq
	if l.wheel == nil {
		l.initWheel()
	}
	if (at>>wheelShift)-(l.now>>wheelShift) < wheelBuckets {
		l.wheelInsert(idx, r)
		return
	}
	l.heapPush(entry{at: at, seq: r.seq, idx: idx})
}

// wheelInsert links slot idx into its bucket's (at, seq)-sorted list.
// Sequence numbers grow monotonically and deadlines cluster forward, so
// most arrivals sort after the bucket's tail; checking the tail first
// makes those (including a burst of same-instant events) O(1) instead of
// a walk of the whole list.
func (l *Loop) wheelInsert(idx int32, r *record) {
	vb := int64(r.at >> wheelShift)
	b := int(vb & (wheelBuckets - 1))
	r.pos = posWheel
	// Track the minimum virtual bucket so wheelMin is a single load in the
	// common case. A resident's virtual bucket maps to a unique physical
	// bucket (all residents sit within one rotation of the clock), so the
	// cache pins both. When the cache is stale (minValid false) it stays
	// stale — only a full scan may re-establish it.
	if l.wheelLive == 0 {
		l.minVB, l.minValid = vb, true
	} else if l.minValid && vb < l.minVB {
		l.minVB = vb
	}
	bk := &l.wheel[b]
	head := bk.head
	if head < 0 {
		r.prev, r.next = -1, -1
		bk.head, bk.tail = idx, idx
		l.bits[b>>6] |= 1 << (b & 63)
		l.wheelLive++
		return
	}
	tail := bk.tail
	if t := &l.recs[tail]; t.at < r.at || (t.at == r.at && t.seq < r.seq) {
		r.prev, r.next = tail, -1
		t.next = idx
		bk.tail = idx
		l.wheelLive++
		return
	}
	h := &l.recs[head]
	if r.at < h.at || (r.at == h.at && r.seq < h.seq) {
		r.prev, r.next = -1, head
		h.prev = idx
		bk.head = idx
		l.wheelLive++
		return
	}
	p := head
	for {
		pn := l.recs[p].next
		if pn < 0 {
			break
		}
		n := &l.recs[pn]
		if r.at < n.at || (r.at == n.at && r.seq < n.seq) {
			break
		}
		p = pn
	}
	r.prev, r.next = p, l.recs[p].next
	if r.next >= 0 {
		l.recs[r.next].prev = idx
	} else {
		bk.tail = idx
	}
	l.recs[p].next = idx
	l.wheelLive++
}

// wheelRemove unlinks slot idx from its bucket list.
func (l *Loop) wheelRemove(idx int32) {
	r := &l.recs[idx]
	vb := int64(r.at >> wheelShift)
	b := int(vb & (wheelBuckets - 1))
	if r.prev >= 0 {
		l.recs[r.prev].next = r.next
	} else {
		l.wheel[b].head = r.next
		if r.next < 0 {
			l.bits[b>>6] &^= 1 << (b & 63)
			if vb == l.minVB {
				// The minimum bucket just emptied; the next wheelMin rescans.
				l.minValid = false
			}
		}
	}
	if r.next >= 0 {
		l.recs[r.next].prev = r.prev
	} else {
		l.wheel[b].tail = r.prev
	}
	l.wheelLive--
}

// wheelPopHead unlinks r, the head of its bucket, as Run does with the
// queue's minimum: there is no predecessor to relink, and a bucket left
// empty keeps its stale tail, which nothing reads while its head is -1.
// The minimum's bucket is the cached minimum bucket (wheelMin left it
// valid), so emptying it invalidates the cache.
func (l *Loop) wheelPopHead(r *record) {
	b := int((r.at >> wheelShift) & (wheelBuckets - 1))
	l.wheel[b].head = r.next
	if r.next >= 0 {
		l.recs[r.next].prev = -1
	} else {
		l.bits[b>>6] &^= 1 << (b & 63)
		l.minValid = false
	}
	l.wheelLive--
}

// wheelMin returns the arena slot of the earliest wheel event, or -1 when
// the wheel is empty. Wheel residents are always within one rotation ahead
// of the clock, so the first occupied bucket in ring order from the
// current bucket holds the minimum, and its sorted head is the event. The
// bitmap turns the ring scan into a handful of word reads, and the same
// one-rotation bound gives the found bucket's virtual index from its ring
// distance to the clock's bucket, without loading the record.
func (l *Loop) wheelMin() int32 {
	if l.wheelLive == 0 {
		return -1
	}
	if l.minValid {
		return l.wheel[int(l.minVB&(wheelBuckets-1))].head
	}
	start := int((l.now >> wheelShift) & (wheelBuckets - 1))
	w0 := start >> 6
	word := l.bits[w0] & (^uint64(0) << (start & 63))
	w := w0
	for {
		if word != 0 {
			b := w<<6 + bits.TrailingZeros64(word)
			l.minVB = int64(l.now>>wheelShift) + int64((b-start)&(wheelBuckets-1))
			l.minValid = true
			return l.wheel[b].head
		}
		w++
		if w == len(l.bits) {
			w = 0
		}
		if w == w0 {
			// Wrapped all the way: only the skipped low bits of the start
			// word remain.
			word = l.bits[w0] &^ (^uint64(0) << (start & 63))
			if word == 0 {
				return -1
			}
			continue
		}
		word = l.bits[w]
	}
}

// heapPush appends e to the far heap and restores order.
func (l *Loop) heapPush(e entry) {
	i := len(l.heap)
	l.heap = append(l.heap, e)
	l.recs[e.idx].pos = int32(i)
	l.siftUp(i)
}

// siftUp moves the entry at heap position i toward the root until its
// parent orders before it. The moved entry is held in a hole while parents
// shift down, so each step writes one entry and one position.
func (l *Loop) siftUp(i int) {
	h := l.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) / 4
		pe := h[p]
		if pe.at < e.at || (pe.at == e.at && pe.seq < e.seq) {
			break
		}
		h[i] = pe
		l.recs[pe.idx].pos = int32(i)
		i = p
	}
	h[i] = e
	l.recs[e.idx].pos = int32(i)
}

// siftDown moves the entry at heap position i toward the leaves until no
// child orders before it.
func (l *Loop) siftDown(i int) {
	h := l.heap
	n := len(h)
	e := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		// Find the least of up to four children; they are adjacent in the
		// heap slice, so this scan stays within two cache lines.
		m := c
		me := h[c]
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			je := h[j]
			if je.at < me.at || (je.at == me.at && je.seq < me.seq) {
				m, me = j, je
			}
		}
		if e.at < me.at || (e.at == me.at && e.seq < me.seq) {
			break
		}
		h[i] = me
		l.recs[me.idx].pos = int32(i)
		i = m
	}
	h[i] = e
	l.recs[e.idx].pos = int32(i)
}

// fix restores heap order for the entry at heap position i after its key
// changed or after an arbitrary entry was moved there. If siftUp moves the
// entry toward the root, the former parent now at i already bounds i's
// subtree, so the subsequent siftDown is a no-op.
func (l *Loop) fix(i int) {
	l.siftUp(i)
	l.siftDown(i)
}

// heapRemove deletes the entry at heap position i, moving the last entry
// into the hole.
func (l *Loop) heapRemove(i int) {
	n := len(l.heap) - 1
	last := l.heap[n]
	l.heap = l.heap[:n]
	if i < n {
		l.heap[i] = last
		l.recs[last.idx].pos = int32(i)
		l.fix(i)
	}
}

// detach removes the pending slot idx from whichever tier holds it,
// without releasing the arena slot.
func (l *Loop) detach(idx int32) {
	if r := &l.recs[idx]; r.pos == posWheel {
		l.wheelRemove(idx)
	} else {
		l.heapRemove(int(r.pos))
	}
}

// schedule stamps and enqueues an event, returning its arena slot.
func (l *Loop) schedule(at Time, kind Kind, target Handler) int32 {
	if at < l.now {
		panic(fmt.Sprintf("eventsim: scheduling event at %v before now %v", at, l.now))
	}
	l.seq++
	idx := l.alloc(kind, target)
	l.insert(idx, at)
	return idx
}

// reschedule moves a pending event to a new deadline in place, stamping a
// fresh sequence number — exactly the tie-break a cancel-and-reschedule
// would produce, without touching the free list.
//
// A re-arm at the deadline a wheel resident already holds (the pacer's
// common case: every ACK re-arms it at an unchanged next-send time) only
// draws the new sequence number and keeps its place. The fresh seq is the
// largest ever drawn, so the record still sorts after everything ahead of
// it in its bucket, and before its successor as long as that successor's
// deadline is later — exactly where detach plus insert would put it. A
// successor at the same deadline would now sort first, so that case takes
// the full path.
func (l *Loop) reschedule(idx int32, at Time) {
	if at < l.now {
		panic(fmt.Sprintf("eventsim: scheduling event at %v before now %v", at, l.now))
	}
	if r := &l.recs[idx]; r.at == at && r.pos == posWheel && (r.next < 0 || l.recs[r.next].at != at) {
		l.seq++
		r.seq = l.seq
		return
	}
	l.detach(idx)
	l.seq++
	l.insert(idx, at)
}

// ScheduleEvent enqueues an event: at time at, target.OnEvent(kind) is
// called. Nothing is allocated once the queue has reached steady-state
// size. Scheduling in the past panics: it is always a logic error in the
// caller, and silently reordering time would corrupt a simulation.
func (l *Loop) ScheduleEvent(at Time, kind Kind, target Handler) {
	l.schedule(at, kind, target)
}

// AfterEvent enqueues an event after delay d from the current time.
// Negative delays are treated as zero.
func (l *Loop) AfterEvent(d time.Duration, kind Kind, target Handler) {
	if d < 0 {
		d = 0
	}
	l.ScheduleEvent(l.now.Add(d), kind, target)
}

// ScheduleNext enqueues an event through the single-slot fast lane:
// no arena record, no wheel or heap insertion, one compare at dispatch.
// At most one fast-lane event may be pending per loop; scheduling a second
// panics. It exists for the tightest recurring event a simulation has —
// netsim uses it for the bottleneck's next service completion — and is
// otherwise interchangeable with ScheduleEvent, including its position in
// the (at, seq) total order.
func (l *Loop) ScheduleNext(at Time, kind Kind, target Handler) {
	if at < l.now {
		panic(fmt.Sprintf("eventsim: scheduling event at %v before now %v", at, l.now))
	}
	if l.fastLive {
		panic("eventsim: ScheduleNext called with a fast-lane event already pending")
	}
	l.seq++
	l.fastAt = at
	l.fastSeq = l.seq
	l.fastKind = kind
	l.fastTarget = target
	l.fastLive = true
}

// min locates the earliest pending event across the three tiers. It returns
// the arena slot, or -1 with fast=true for the fast-lane slot, or -1 with
// fast=false for an empty queue.
func (l *Loop) min() (idx int32, fast bool) {
	at, seq := Never, ^uint64(0)
	if l.fastLive {
		at, seq, fast = l.fastAt, l.fastSeq, true
	}
	idx = -1
	if widx := l.wheelMin(); widx >= 0 {
		r := &l.recs[widx]
		if r.at < at || (r.at == at && r.seq < seq) {
			at, seq, idx, fast = r.at, r.seq, widx, false
		}
	}
	if len(l.heap) > 0 {
		if e := l.heap[0]; e.at < at || (e.at == at && e.seq < seq) {
			idx, fast = e.idx, false
		}
	}
	return idx, fast
}

// PeekSameInstant reports the earliest pending event if and only if its
// deadline is exactly the current instant; ok is false when the next event
// lies in the future. It costs a constant handful of loads — a
// same-instant wheel event can only live at the head of the clock's own
// bucket — so dispatch code can afford it on every event when coalescing
// consecutive same-instant work.
func (l *Loop) PeekSameInstant() (kind Kind, target Handler, ok bool) {
	idx := int32(-1)
	var seq uint64
	if l.wheelLive > 0 {
		b := int((l.now >> wheelShift) & (wheelBuckets - 1))
		if h := l.wheel[b].head; h >= 0 && l.recs[h].at == l.now {
			idx, seq = h, l.recs[h].seq
		}
	}
	if len(l.heap) > 0 {
		if e := l.heap[0]; e.at == l.now && (idx < 0 || e.seq < seq) {
			idx, seq = e.idx, e.seq
		}
	}
	if l.fastLive && l.fastAt == l.now && (idx < 0 || l.fastSeq < seq) {
		return l.fastKind, l.fastTarget, true
	}
	if idx < 0 {
		return 0, nil, false
	}
	r := &l.recs[idx]
	return r.kind, r.target, true
}

// Run executes events in timestamp order until the queue empties or the
// clock would pass until. It returns the number of events executed. The
// clock is left at the later of its current value and until when the queue
// drains early, so successive Run calls observe monotonic time.
func (l *Loop) Run(until Time) uint64 {
	var n uint64
	for {
		idx, fast := l.min()
		if fast {
			if l.fastAt > until {
				break
			}
			l.now = l.fastAt
			kind, target := l.fastKind, l.fastTarget
			l.fastTarget = nil
			l.fastLive = false
			target.OnEvent(kind)
			n++
			l.count++
			continue
		}
		if idx < 0 {
			break
		}
		r := &l.recs[idx]
		if r.at > until {
			break
		}
		l.now = r.at
		kind, target := r.kind, r.target
		// Detach the record before dispatch: the handler may schedule,
		// cancel or re-arm freely against a consistent queue. A wheel
		// minimum is its bucket's head.
		if r.pos == posWheel {
			l.wheelPopHead(r)
		} else {
			l.heapRemove(int(r.pos))
		}
		l.release(idx)
		target.OnEvent(kind)
		n++
		l.count++
	}
	if l.now < until {
		l.now = until
	}
	return n
}

// RunFor executes events for duration d of simulated time from now.
func (l *Loop) RunFor(d time.Duration) uint64 { return l.Run(l.now.Add(d)) }

// Drain executes all remaining events regardless of timestamp. Useful in
// tests; simulations should normally bound time with Run.
func (l *Loop) Drain() uint64 { return l.Run(Never) }

// Timer is a cancellable, re-armable scheduled event. A Timer may be
// re-armed from within its own handler. Re-arming moves the pending entry
// within the queue and stopping removes it — a stale deadline never remains
// behind to no-op. The zero value is invalid; embed a Timer and call Init.
type Timer struct {
	loop   *Loop
	target Handler
	kind   Kind
	id     int32 // arena slot of the pending event, or -1
	at     Time
}

// Init prepares an embedded timer in place: when it fires, it calls
// target.OnEvent(kind). It must be called exactly once, before any Arm.
func (t *Timer) Init(l *Loop, kind Kind, target Handler) {
	t.loop = l
	t.kind = kind
	t.target = target
	t.id = -1
	t.at = Never
}

// OnEvent runs the handler of a timer event popped by the loop. The slot
// is cleared first so the handler may immediately re-arm. It implements
// Handler; callers never invoke it directly.
func (t *Timer) OnEvent(Kind) {
	t.id = -1
	t.at = Never
	t.target.OnEvent(t.kind)
}

// Arm sets the timer to fire at absolute time at, replacing any prior
// deadline in place.
func (t *Timer) Arm(at Time) {
	t.at = at
	if t.id >= 0 {
		t.loop.reschedule(t.id, at)
		return
	}
	t.id = t.loop.schedule(at, t.kind, t)
}

// ArmAfter sets the timer to fire after d from now.
func (t *Timer) ArmAfter(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.Arm(t.loop.Now().Add(d))
}

// Stop cancels any pending firing, removing the queued event in place.
func (t *Timer) Stop() {
	if t.id >= 0 {
		t.loop.detach(t.id)
		t.loop.release(t.id)
		t.id = -1
	}
	t.at = Never
}

// Armed reports whether the timer has a pending deadline, and the deadline.
func (t *Timer) Armed() (Time, bool) { return t.at, t.at != Never }
