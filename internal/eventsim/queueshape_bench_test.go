package eventsim

import (
	"strconv"
	"testing"
	"time"
)

// BenchmarkQueueShape measures the event queue on a hold-model workload
// shaped like netsim's: each popped event reschedules itself one
// simulated-ACK delay ahead, with a paced subset using sub-millisecond
// holds. The populations span the steady-state event counts of small to
// mid-sized scenarios. DESIGN §13 records the wheel-versus-heap comparison
// this benchmark once made, which is the measurement behind the queue
// choice.
func BenchmarkQueueShape(b *testing.B) {
	for _, pop := range []int{64, 512, 4096} {
		b.Run("n"+strconv.Itoa(pop), func(b *testing.B) {
			var l Loop
			l.Reserve(pop + 16)
			// Seed the population: 3/4 ACK-like holds (tens of ms), 1/4
			// pacer-like holds (hundreds of µs), deterministic spread from
			// the slot index.
			var hold [8]time.Duration
			for i := range hold {
				if i < 6 {
					hold[i] = time.Duration(20+7*i) * time.Millisecond
				} else {
					hold[i] = time.Duration(150+400*(i-6)) * time.Microsecond
				}
			}
			var tick fn
			n := 0
			tick = func() {
				l.AfterEvent(hold[n&7], 0, tick)
				n++
			}
			for i := 0; i < pop; i++ {
				l.AfterEvent(hold[i&7], 0, tick)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Run(l.Now().Add(50 * time.Millisecond))
			}
			b.StopTimer()
			events := l.Processed()
			if b.N > 0 {
				b.ReportMetric(float64(events)/float64(b.N), "events/op")
			}
		})
	}
}
