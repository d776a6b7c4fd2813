package bench

import (
	"fmt"
	"math"
	"sort"
)

// Metric describes one reported number. Bound is how far a change's median
// may move in the worse direction before the metric counts as regressed;
// per-layer metrics have none.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  *Bound
}

// Bound is a regression allowance: a change may be worse than the base by
// at most max(Rel·|base|, Abs). Rel alone is a relative bound, Abs alone an
// absolute one, and both together a relative bound with an absolute floor.
type Bound struct {
	Rel float64
	Abs float64
}

// Allowed reports how much worse than base a value may be.
func (b Bound) Allowed(base float64) float64 {
	return math.Max(b.Rel*math.Abs(base), b.Abs)
}

// Within reports whether value is no worse than base by more than the bound,
// given which direction is better.
func (b Bound) Within(base, value float64, better string) bool {
	worse := value - base
	if better == "higher" {
		worse = base - value
	}
	return worse <= b.Allowed(base)+1e-12
}

func rel(r float64) *Bound { return &Bound{Rel: r} }

// endToEnd are the metrics every workload reports with tracing off, and
// perLayer those every workload reports with tracing on. Both lists are
// mirrored in BENCHMARK.json (TestBenchmarkFileMatchesTables keeps them in
// step). Every workload must be able to report each of them, so metrics
// that exist only for one workload live in extra.
//
// The bounds are wide because the reference machine is shared: a fixed
// simulation's speed drifts by tens of percent over minutes (see README.md,
// "Measured spread"). For the same reason the pass time in BENCHMARK.json
// is wall_cal, the pass's wall time in units of the calibration loop
// (calibrate.go); the raw wall_s is kept in extra. -compare also applies
// setup_s's absolute floor, which BENCHMARK.json cannot express:
// exec-to-ready is a few milliseconds, where scheduling noise alone exceeds
// a relative bound.
var endToEnd = []Metric{
	{"setup_s", "s", "lower", &Bound{Rel: 0.25, Abs: 0.05}},
	{"wall_cal", "x", "lower", rel(0.25)},
	{"peak_rss_mb", "MB", "lower", rel(0.25)},
}

var perLayer = []Metric{
	// Layer probe: the workload's own inputs replayed through each public
	// boundary (see probe.go).
	{"netsim.build_ms", "ms", "lower", nil},
	{"netsim.ns_per_event", "ns", "lower", nil},
	{"netsim.events", "count", "lower", nil},
	{"fluid.ns_per_step", "ns", "lower", nil},
	{"fluid.steps", "count", "lower", nil},
	{"scenario.decode_us", "us", "lower", nil},
	{"scenario.key_us", "us", "lower", nil},
	{"runner.cache.put_us", "us", "lower", nil},
	{"runner.cache.get_us", "us", "lower", nil},
	{"runner.cache.getraw_us", "us", "lower", nil},
	{"runner.cache.save_ms", "ms", "lower", nil},
	{"runner.cache.bytes", "bytes", "lower", nil},
	{"runner.journal.record_us", "us", "lower", nil},
	{"exp.replay_us", "us", "lower", nil},
	// Counters read from public getters, per pass.
	{"runner.pool.jobs", "count", "higher", nil},
	{"runner.pool.utilization", "ratio", "higher", nil},
	{"runner.pool.retries", "count", "lower", nil},
	{"runner.pool.stalls", "count", "lower", nil},
	{"runner.cache.hits", "count", "higher", nil},
	{"runner.cache.misses", "count", "lower", nil},
	{"runner.cache.hit_rate", "ratio", "higher", nil},
	{"runner.journal.records", "count", "lower", nil},
	{"exp.ne.sims", "count", "lower", nil},
	{"exp.ne.cache_hits", "count", "higher", nil},
	{"exp.ne.converged", "count", "higher", nil},
	{"adopt.sims", "count", "lower", nil},
	{"adopt.cache_hits", "count", "higher", nil},
	{"check.violations", "count", "lower", nil},
	{"serve.instant", "count", "higher", nil},
	{"serve.enqueued", "count", "lower", nil},
	{"serve.deduped", "count", "higher", nil},
	{"serve.shed", "count", "lower", nil},
	{"serve.failed", "count", "lower", nil},
	{"serve.queue_depth_max", "count", "lower", nil},
	{"proc.cpu_s", "s", "lower", nil},
	{"proc.alloc_mb", "MB", "lower", nil},
	{"proc.gc_cycles", "count", "lower", nil},
	{"trace.overhead_pct", "%", "lower", nil},
}

// extra are reported where they apply but are not in BENCHMARK.json: they
// are zero by design (error_rate), need more operations than a packet
// workload completes in a run (the tail percentile), describe one workload
// only, or drift with the machine by more than a bound allows (wall_s,
// latency_p50_ms; see README.md). -compare checks the bounded ones all the
// same.
var extra = []Metric{
	{"wall_s", "s", "lower", rel(0.25)},
	{"cal_s", "s", "lower", nil},
	{"latency_p50_ms", "ms", "lower", rel(0.25)},
	{"latency_p99_ms", "ms", "lower", rel(0.25)},
	{"latency_n", "count", "higher", nil},
	{"throughput_per_s", "1/s", "higher", rel(0.25)},
	{"error_rate", "fraction", "lower", &Bound{Abs: 0}},
	{"runner.pool.busy_s", "s", "lower", nil},
	{"runner.pool.max_unit_s", "s", "lower", nil},
	{"serve.hit_latency_p50_ms", "ms", "lower", nil},
	{"serve.hit_latency_p99_ms", "ms", "lower", nil},
	{"serve.miss_latency_p50_ms", "ms", "lower", nil},
	{"serve.miss_latency_p99_ms", "ms", "lower", nil},
	{"serve.flight_mean_ms", "ms", "lower", nil},
	{"serve.http_overhead_ms", "ms", "lower", nil},
}

// metricByName finds a metric in any of the tables.
func metricByName(name string) (Metric, bool) {
	for _, list := range [][]Metric{endToEnd, perLayer, extra} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return Metric{}, false
}

// Summary is a latency distribution reported the way the benchmark reports
// timings: the median plus the highest percentile (at most Want) that still
// has at least ten samples beyond it, with the sample count.
type Summary struct {
	N       int
	P50     float64
	TailPct float64 // 0 when fewer than 11 samples leave no percentile with ten beyond it
	Tail    float64
}

// Summarize sorts a copy of xs and reports its Summary with the tail
// percentile capped at want (99 for p99).
func Summarize(xs []float64, want float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50 = median(sorted)
	// Percentile p leaves n·(1−p/100) samples beyond it; ten or more
	// requires p ≤ 100·(1−10/n).
	if limit := 100 * (1 - 10/float64(len(xs))); limit > 0 {
		s.TailPct = math.Min(want, limit)
		s.Tail = nearestRank(sorted, s.TailPct)
	}
	return s
}

// nearestRank is the nearest-rank percentile of sorted data.
func nearestRank(sorted []float64, pct float64) float64 {
	// The epsilon keeps a rank that is whole in exact arithmetic, such as
	// p9.09 of 11 samples, from rounding up a place.
	i := int(math.Ceil(pct/100*float64(len(sorted))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median of already-sorted data; 0 for none.
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	default:
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
}

// Median of unsorted data.
func Median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return median(sorted)
}

// Quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match the ones the acceptance check
// computes. It needs at least two values.
func Quartiles(xs []float64) (q1, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, fmt.Errorf("bench: quartiles need at least 2 values, have %d", len(xs))
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3), nil
}
