package bench

import (
	"container/heap"
	"encoding/json"
	"math"
	"sort"
	"sync"
	"time"
)

// The reference machine is a shared host whose speed drifts by tens of
// percent over minutes, and a pass's wall time drifts with it (README.md,
// "Measured spread"). So the benchmark also times a fixed calibration loop
// in a gap before the first pass and after every pass, and reports each
// pass's wall time in units of the loop (wall_cal). The loop uses the
// standard library only, so no change to the repository's code moves it;
// it mixes the kinds of work the workloads do: priority-queue churn, float
// math, map updates, sorting and JSON.
//
// One calibration sample lasts about a tenth of a second and is noisy on
// its own, so each gap runs samples for a share of the pass before it and
// a pass is divided by the mean sample of the gaps on both sides.

const (
	// calShare is a gap's length as a share of the wall time of the pass
	// before it.
	calShare = 0.3
	// firstGap is the length of the gap before the first pass, which has
	// no pass before it; it also warms the processor up.
	firstGap = time.Second
)

// calItem is one record of the loop's JSON round trip.
type calItem struct {
	Key   uint64  `json:"key"`
	Value float64 `json:"value"`
	Name  string  `json:"name"`
}

type calHeap []uint64

func (h calHeap) Len() int           { return len(h) }
func (h calHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h calHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *calHeap) Push(x any)        { *h = append(*h, x.(uint64)) }
func (h *calHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// calSink keeps the loop's results live so the compiler cannot drop it.
var calSink float64

// calLoop is the calibration work for one goroutine. It is deterministic:
// equal seeds return equal sums.
func calLoop(seed uint64) float64 {
	s := seed*0x9e3779b97f4a7c15 | 1
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	var h calHeap
	for i := 0; i < 4096; i++ {
		heap.Push(&h, next()%1e9)
	}
	for i := 0; i < 250000; i++ {
		heap.Push(&h, heap.Pop(&h).(uint64)+next()%1e6)
	}
	x := 0.0
	for i := 0; i < 1200000; i++ {
		f := float64(next()%1000000) / 1e3
		x += math.Cbrt(f) + math.Max(f, x*1e-9) - math.Min(f, 3)
	}
	counts := map[uint64]int{}
	for i := 0; i < 100000; i++ {
		counts[next()%50000]++
	}
	keys := make([]uint64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	items := make([]calItem, 2000)
	for i := range items {
		items[i] = calItem{Key: keys[i], Value: float64(counts[keys[i]]) / 3, Name: "cubic"}
	}
	for i := 0; i < 10; i++ {
		b, err := json.Marshal(items)
		if err == nil {
			err = json.Unmarshal(b, &items)
		}
		if err != nil {
			panic(err) // cannot happen: the items are plain values
		}
	}
	return x + float64(h[0]) + items[len(items)-1].Value
}

// calSample runs calLoop on `workers` goroutines at once, as many as the
// pools use, and returns the wall time in seconds.
func calSample() float64 {
	sums := make([]float64, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for g := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[g] = calLoop(uint64(g) + 1)
		}()
	}
	wg.Wait()
	d := time.Since(start).Seconds()
	for _, v := range sums {
		calSink += v
	}
	return d
}

// calGap takes calibration samples until d has elapsed, at least one, and
// returns their times.
func calGap(d time.Duration) []float64 {
	start := time.Now()
	var out []float64
	for len(out) == 0 || time.Since(start) < d {
		out = append(out, calSample())
	}
	return out
}

// mean of xs; 0 for none.
func mean(xs ...[]float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		for _, v := range x {
			sum += v
		}
		n += len(x)
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
