// Package serve is the long-running sweep service on top of the harness's
// cache+journal substrate (ROADMAP item 4): an HTTP API that accepts
// scenario.Spec submissions, answers instantly on cache hit, coalesces
// concurrent submissions of one canonical key into a single execution, and
// absorbs sustained overload by shedding instead of growing without bound.
//
// Robustness is the architecture, not a feature on the side:
//
//   - Single-writer-per-key: an in-process flight registry guarantees at
//     most one execution per canonical key at a time (every concurrent
//     submitter of that key waits on the same flight and receives the same
//     bytes), and the runner's advisory store locks guarantee at most one
//     process per cache/journal, so the discipline holds machine-wide.
//   - One shield: every flight is one runner.MapCtx unit on the command's
//     pool, and the unit calls Config.Run (exp.Run unless a test swaps it)
//     inside runner.Protect. A flight that fails, panics or stalls becomes
//     a *runner.UnitError naming its key (a panic also carries its stack)
//     and fails only itself; the worker goes on to the next flight.
//   - Admission control: the queue is bounded; a submission that finds it
//     full is shed with HTTP 429 + Retry-After rather than queued into an
//     OOM. Shedding is loud (Stats.Shed) and cheap, and clients retry.
//   - Resilient execution: every flight runs through the pool's stall
//     watchdog and seeded retry-with-backoff machinery, so a stalled
//     simulation is cancelled, retried from its pre-derived seed, and —
//     because every unit is a deterministic function of its key — a retry
//     that succeeds is byte-identical to a first attempt that did.
//   - Crash recovery: completed flights are journaled (fsynced) before
//     their waiters are answered. A kill -9 mid-sweep loses only the units
//     in flight; on restart OpenJournal replays the completed ones, and a
//     resubmitted spec is answered with byte-identical results without
//     re-simulating (scripts/serve_smoke.sh proves this end to end,
//     including trace files).
//   - Graceful drain: Drain stops admission (readyz turns 503), lets
//     in-flight flights finish and journal, fails still-queued flights so
//     no waiter hangs, and the caller then persists the cache. Everything
//     the drain completed is durable; everything it could not is
//     re-runnable.
//
// The degradation is observable: /stats reports queue depth, shed count,
// dedup count, retry/stall counters, cache hit rate and per-key latencies
// in machine-readable form.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bbrnash/internal/check"
	"bbrnash/internal/exp"
	"bbrnash/internal/runner"
	"bbrnash/internal/scenario"
	"bbrnash/internal/telemetry"
)

// Config assembles a Server. Zero values select the documented defaults;
// only Cache is required (use runner.NewCache for a purely in-memory
// service).
type Config struct {
	// Cache memoizes results by canonical key and answers repeat
	// submissions instantly. Required.
	Cache *runner.Cache
	// Journal, when set, is the crash-safe write-ahead log: every completed
	// flight is recorded (fsynced) before its waiters are answered, and a
	// restarted server replays it. Nil forfeits crash recovery.
	Journal *runner.Journal
	// Recorder, when set, writes per-run telemetry traces exactly as the
	// CLIs' -trace flag does (journal replays skip re-tracing; the files
	// were written before the journal records).
	Recorder *telemetry.Recorder
	// Audit, when set, validates every result — fresh or replayed — against
	// the physical invariants; a violation fails the flight.
	Audit *check.Auditor
	// Pool runs the flights: its Workers() is the number of concurrent
	// executions, and its stall watchdog and retry settings apply to every
	// flight. Nil selects runner.NewPool(0): GOMAXPROCS workers, no
	// watchdog, no retries.
	Pool *runner.Pool
	// QueueDepth bounds the submission queue; <= 0 selects 256. A full
	// queue sheds with 429.
	QueueDepth int
	// RequestTimeout bounds how long one HTTP request waits for its flight
	// before returning 202/504 (the flight keeps running; poll /result).
	// <= 0 selects 2 minutes.
	RequestTimeout time.Duration
	// Run executes one flight's spec through the server's stores; nil
	// selects exp.Run. Tests substitute it to count executions or inject
	// faults; a substitute runs under the same pool, panic shield and
	// strict-audit check as exp.Run. Like exp.Run it must memoize a result
	// in env.Cache, which answers the submissions that arrive after the
	// flight closes, and only a result that passed its audit: the cache
	// answers without one.
	Run func(ctx context.Context, sp scenario.Spec, env exp.Env) (exp.SpecResult, bool, error)
}

// flight states, for progress streaming.
const (
	flightQueued int32 = iota
	flightRunning
)

// flight is one in-progress canonical key: the single execution every
// concurrent submitter of that key attaches to. result/err are set before
// done is closed and immutable afterwards.
type flight struct {
	key      string
	spec     scenario.Spec
	enqueued time.Time
	state    atomic.Int32
	done     chan struct{}
	result   json.RawMessage
	err      error
}

// KeyLatency is one completed flight's end-to-end latency (enqueue to
// answer), reported by Stats for the most recent completions.
type KeyLatency struct {
	Key       string `json:"key"`
	LatencyNS int64  `json:"latency_ns"`
}

// recentLatencies is how many per-key latencies Stats retains.
const recentLatencies = 32

// Server is the sweep service. Construct with New, mount Handler on an
// http.Server, and Drain on shutdown.
type Server struct {
	cfg   Config
	env   exp.Env // the stores every flight runs through
	queue chan *flight

	mu      sync.Mutex
	flights map[string]*flight

	baseCtx    context.Context // cancelled only by a hard-stop Drain deadline
	baseCancel context.CancelFunc
	drain      chan struct{}
	drainOnce  sync.Once
	wg         sync.WaitGroup

	started time.Time

	enqueued  atomic.Int64
	deduped   atomic.Int64
	instant   atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	shed      atomic.Int64

	latMu    sync.Mutex
	latCount int64
	latSum   time.Duration
	latMax   time.Duration
	recent   []KeyLatency
}

// Sentinel admission errors; the HTTP layer maps them to 429 and 503.
var (
	errQueueFull = errors.New("serve: submission queue is full")
	errDraining  = errors.New("serve: server is draining")
)

// New builds the server and starts one worker goroutine per pool worker.
// The caller owns the cache and journal lifecycles (persist the cache after
// Drain).
func New(cfg Config) *Server {
	if cfg.Pool == nil {
		cfg.Pool = runner.NewPool(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Minute
	}
	if cfg.Run == nil {
		cfg.Run = exp.Run
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		env:        exp.Env{Cache: cfg.Cache, Journal: cfg.Journal, Audit: cfg.Audit, Trace: cfg.Recorder},
		queue:      make(chan *flight, cfg.QueueDepth),
		flights:    make(map[string]*flight),
		baseCtx:    ctx,
		baseCancel: cancel,
		drain:      make(chan struct{}),
		started:    time.Now(),
	}
	workers := cfg.Pool.Workers()
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.work()
	}
	return s
}

// submit admits one spec under its canonical key, which it derives once and
// returns for the caller's envelopes. Of the other returns exactly one is
// meaningful: raw is the instant cache answer; fl is the (new or joined)
// flight to wait on; err is errQueueFull or errDraining.
func (s *Server) submit(sp scenario.Spec) (key string, raw json.RawMessage, fl *flight, err error) {
	key = sp.Key()
	if raw, ok := s.cfg.Cache.GetRaw(key); ok {
		s.instant.Add(1)
		return key, raw, nil, nil
	}
	if s.Draining() {
		return key, nil, nil, errDraining
	}
	s.mu.Lock()
	if fl, ok := s.flights[key]; ok {
		s.mu.Unlock()
		s.deduped.Add(1)
		return key, nil, fl, nil
	}
	// The key's flight may have finished since the unlocked lookup above:
	// it memoizes a result that passed its audit before finish removes it
	// under s.mu, so with the flight gone the cache now holds that answer.
	if raw, ok := s.cfg.Cache.GetRaw(key); ok {
		s.mu.Unlock()
		s.instant.Add(1)
		return key, raw, nil, nil
	}
	fl = &flight{key: key, spec: sp, done: make(chan struct{}), enqueued: time.Now()}
	select {
	case s.queue <- fl:
		s.flights[key] = fl
		s.mu.Unlock()
		s.enqueued.Add(1)
		return key, nil, fl, nil
	default:
		s.mu.Unlock()
		s.shed.Add(1)
		return key, nil, nil, errQueueFull
	}
}

// lookup finds an open flight by key.
func (s *Server) lookup(key string) (*flight, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fl, ok := s.flights[key]
	return fl, ok
}

// work executes flights until drain.
func (s *Server) work() {
	defer s.wg.Done()
	for {
		select {
		case <-s.drain:
			return
		case fl := <-s.queue:
			s.execute(fl)
		}
	}
}

// execute runs one flight to completion and answers its waiters. The
// flight is one runner.MapCtx unit on the pool, so the watchdog and retries
// apply, and Config.Run runs inside runner.Protect: a failure or a panic —
// and, under -strict, an audit violation — comes back as a
// *runner.UnitError naming the flight's key, and fails only this flight.
func (s *Server) execute(fl *flight) {
	fl.state.Store(flightRunning)
	out, err := runner.MapCtx(s.baseCtx, s.cfg.Pool, 1, func(ctx context.Context, _ int) (exp.SpecResult, error) {
		return runner.Protect(fl.key, func() (exp.SpecResult, error) {
			res, _, err := s.cfg.Run(ctx, fl.spec, s.env)
			if err == nil {
				if vs := s.cfg.Audit.ViolationsFor(fl.key); len(vs) > 0 {
					err = fmt.Errorf("serve: strict audit: %s", vs[0])
				}
			}
			return res, err
		})
	})
	if err != nil {
		s.finish(fl, nil, err)
		return
	}
	raw, err := json.Marshal(out[0])
	if err != nil {
		s.finish(fl, nil, fmt.Errorf("serve: encoding result for %s: %w", fl.key, err))
		return
	}
	s.finish(fl, raw, nil)
}

// finish closes a flight: removes it from the registry (so a later
// submission of the key re-runs or hits the cache), publishes the outcome,
// and wakes every waiter. Latency is accounted on success only. The
// waiters wake last, so one that reads Stats finds its flight counted.
func (s *Server) finish(fl *flight, raw json.RawMessage, err error) {
	s.mu.Lock()
	delete(s.flights, fl.key)
	s.mu.Unlock()
	fl.result, fl.err = raw, err
	defer close(fl.done)
	if err != nil {
		s.failed.Add(1)
		return
	}
	s.completed.Add(1)
	lat := time.Since(fl.enqueued)
	s.latMu.Lock()
	s.latCount++
	s.latSum += lat
	if lat > s.latMax {
		s.latMax = lat
	}
	s.recent = append(s.recent, KeyLatency{Key: fl.key, LatencyNS: int64(lat)})
	if len(s.recent) > recentLatencies {
		s.recent = s.recent[len(s.recent)-recentLatencies:]
	}
	s.latMu.Unlock()
}

// Draining reports whether Drain has begun (readyz turns 503 then).
func (s *Server) Draining() bool {
	select {
	case <-s.drain:
		return true
	default:
		return false
	}
}

// Drain shuts the service down gracefully: admission stops, workers finish
// (and journal) the flights they are executing, still-queued flights are
// failed with errDraining so their waiters get an answer, and the call
// returns when every worker has exited. If ctx expires first, in-flight
// executions are hard-cancelled through the base context — anything they
// had journaled stays durable, anything unfinished is re-runnable after
// restart. The caller persists the cache and closes the journal afterwards.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() { close(s.drain) })
	// Fail whatever is still queued; workers race this loop for the same
	// channel, and either outcome — executed or failed-as-draining — is
	// final for each flight exactly once.
	for {
		select {
		case fl := <-s.queue:
			s.finish(fl, nil, errDraining)
			continue
		default:
		}
		break
	}
	workersDone := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(workersDone)
	}()
	select {
	case <-workersDone:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-workersDone
		return ctx.Err()
	}
}

// Stats is the /stats payload: one machine-readable snapshot of the
// service's load, shedding, flight outcomes and store effectiveness.
type Stats struct {
	UptimeNS      int64 `json:"uptime_ns"`
	Workers       int   `json:"workers"`
	QueueDepth    int   `json:"queue_depth"`
	QueueCapacity int   `json:"queue_capacity"`
	InFlight      int   `json:"in_flight"`
	Draining      bool  `json:"draining"`
	// Admission outcomes: Enqueued new flights, Deduped joins of an
	// existing flight, Instant cache answers, Shed 429s.
	Enqueued int64 `json:"enqueued"`
	Deduped  int64 `json:"deduped"`
	Instant  int64 `json:"instant"`
	Shed     int64 `json:"shed"`
	// Flight outcomes.
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	// Resilience counters from the execution pool.
	Retries int64 `json:"retries"`
	Stalls  int64 `json:"stalls"`
	// Store effectiveness.
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	JournalHits  int64   `json:"journal_hits"`
	JournalLen   int     `json:"journal_len"`
	// Per-key latency: aggregate over completed flights plus the most
	// recent completions individually.
	LatencyCount  int64        `json:"latency_count"`
	LatencyMeanNS int64        `json:"latency_mean_ns"`
	LatencyMaxNS  int64        `json:"latency_max_ns"`
	Recent        []KeyLatency `json:"recent,omitempty"`
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	inFlight := len(s.flights)
	s.mu.Unlock()
	st := Stats{
		UptimeNS:      int64(time.Since(s.started)),
		Workers:       s.cfg.Pool.Workers(),
		QueueDepth:    len(s.queue),
		QueueCapacity: cap(s.queue),
		InFlight:      inFlight,
		Draining:      s.Draining(),
		Enqueued:      s.enqueued.Load(),
		Deduped:       s.deduped.Load(),
		Instant:       s.instant.Load(),
		Shed:          s.shed.Load(),
		Completed:     s.completed.Load(),
		Failed:        s.failed.Load(),
		Retries:       s.cfg.Pool.Retries(),
		Stalls:        s.cfg.Pool.Stalls(),
		CacheHits:     s.cfg.Cache.Hits(),
		CacheMisses:   s.cfg.Cache.Misses(),
		CacheHitRate:  s.cfg.Cache.HitRate(),
		JournalHits:   s.cfg.Journal.Hits(),
		JournalLen:    s.cfg.Journal.Len(),
	}
	s.latMu.Lock()
	st.LatencyCount = s.latCount
	if s.latCount > 0 {
		st.LatencyMeanNS = int64(s.latSum) / s.latCount
	}
	st.LatencyMaxNS = int64(s.latMax)
	st.Recent = append([]KeyLatency(nil), s.recent...)
	s.latMu.Unlock()
	return st
}
