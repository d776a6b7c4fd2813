// Package telemetry is the harness's observability layer: deterministic run
// traces of individual simulations and machine-readable reports of sweep
// execution.
//
// A Recorder attaches per-flow and link samplers plus event hooks (drops,
// congestion-control state transitions, capacity-flap edges) to a
// netsim.Network and emits one versioned JSONL trace plus a flat CSV per
// canonical scenario key. Because the simulator is a deterministic function
// of (spec, seed) and observation never mutates simulation state, two runs
// of the same spec produce byte-identical trace files — which is why trace
// configuration is deliberately excluded from the scenario cache key: a
// traced and an untraced run of one spec are the same experiment.
//
// Everything is zero-cost when disabled: a nil *Recorder is valid, attaches
// nothing, registers no hooks and allocates nothing on the simulator's
// packet hot path (asserted by an allocation-guard test).
package telemetry

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bbrnash/internal/eventsim"
	"bbrnash/internal/netsim"
	"bbrnash/internal/runner"
	"bbrnash/internal/scenario"
	"bbrnash/internal/units"
)

// TraceVersion is the trace file format generation, recorded in every trace
// header. Bump it when the record shapes below change incompatibly.
//
// Version 2 added topology-aware link identity: the header counts sampled
// links, and multi-bottleneck traces key their link series, drop events and
// rate events by link name. Single-link traces omit every link field, so
// their record bodies are byte-identical to version 1.
const TraceVersion = 2

// DefaultInterval is the sampling interval used when none is configured.
const DefaultInterval = 100 * time.Millisecond

// Recorder writes run traces into one directory. Construct with
// NewRecorder; a nil *Recorder is valid and disabled — every method is a
// no-op — so callers thread one pointer instead of branching.
//
// Within one Recorder each canonical key is traced once: repeated runs of
// the same spec (cache misses across trials, NE re-evaluations) would
// rewrite identical bytes. Methods are safe for concurrent use by parallel
// sweep workers.
type Recorder struct {
	dir      string
	interval time.Duration

	mu       sync.Mutex
	written  map[string]struct{}
	files    atomic.Int64
	untraced atomic.Int64
}

// NewRecorder returns a recorder writing traces into dir, creating it if
// needed.
func NewRecorder(dir string) (*Recorder, error) {
	if dir == "" {
		return nil, errors.New("telemetry: trace directory must be non-empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("telemetry: creating trace directory: %w", err)
	}
	return &Recorder{dir: dir, interval: DefaultInterval, written: make(map[string]struct{})}, nil
}

// SetInterval sets the sampling interval for subsequently attached
// captures; non-positive values are ignored. Returns the recorder for
// chaining; nil-safe.
func (r *Recorder) SetInterval(d time.Duration) *Recorder {
	if r != nil && d > 0 {
		r.interval = d
	}
	return r
}

// Dir reports the trace directory, "" for a disabled recorder.
func (r *Recorder) Dir() string {
	if r == nil {
		return ""
	}
	return r.dir
}

// Traces reports how many distinct scenario traces have been written.
func (r *Recorder) Traces() int64 {
	if r == nil {
		return 0
	}
	return r.files.Load()
}

// Untraced reports how many runs were handed this recorder with no
// network to instrument: fluid-backend runs, whose fixed-step integration
// has no event flow to trace (see Attach).
func (r *Recorder) Untraced() int64 {
	if r == nil {
		return 0
	}
	return r.untraced.Load()
}

// TraceID names a trace on disk: the first 16 hex digits of the canonical
// key's SHA-256. Keys contain '|' and ':' and can exceed filename limits,
// so the files are trace-<id>.jsonl / trace-<id>.csv with the full key in
// the JSONL header.
func TraceID(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:8])
}

// TracePaths returns the JSONL and CSV paths a trace of key would be
// written to under dir.
func TracePaths(dir, key string) (jsonl, csv string) {
	id := TraceID(key)
	return filepath.Join(dir, "trace-"+id+".jsonl"),
		filepath.Join(dir, "trace-"+id+".csv")
}

// Event is one discrete occurrence in a traced run, in global event order.
// Kind selects which fields are meaningful: "drop" (Link, Flow, Seq,
// Injected), "state" (Flow, State) or "rate" (Link, Rate). Link names which
// link the event happened on; it is recorded but not emitted for
// single-link scenarios, whose traces stay in the version-1 body shape.
type Event struct {
	At       eventsim.Time
	Kind     string
	Link     string
	Flow     string
	Seq      uint64
	Injected bool
	State    string
	Rate     units.Rate
}

// Capture observes one simulation: samplers on every flow and on every
// link, plus the network's drop/state/rate hooks merged into one ordered
// event stream. Obtain one from Recorder.Attach before running the network;
// call Finish afterwards to emit the trace. A nil *Capture is valid and
// inert.
type Capture struct {
	rec      *Recorder
	spec     scenario.Spec
	interval time.Duration
	flows    []*netsim.Flow
	samplers []*netsim.Sampler
	links    []*netsim.LinkSampler
	multi    bool
	events   []Event
}

// Attach instruments n for tracing: one sampler per flow, one per link
// (every forward link and reverse ACK twin of a multi-bottleneck topology;
// just the bottleneck otherwise), and the drop, state-change and
// rate-change hooks (replacing any previously registered ones). Call before
// running n; sp is recorded in the trace header so the trace is replayable.
// A nil recorder returns a nil capture and touches nothing. A nil n is a
// run with nothing to instrument, a fluid-backend run: Attach counts it
// (see Untraced) and returns a nil capture.
func (r *Recorder) Attach(n *netsim.Network, sp scenario.Spec) *Capture {
	if r == nil {
		return nil
	}
	if n == nil {
		r.untraced.Add(1)
		return nil
	}
	c := &Capture{rec: r, spec: sp, interval: r.interval, multi: sp.MultiLink()}
	if c.multi {
		c.links = n.LinkSamplers(c.interval)
	} else {
		c.links = []*netsim.LinkSampler{netsim.NewLinkSampler(n, c.interval)}
	}
	for _, f := range n.Flows() {
		c.flows = append(c.flows, f)
		c.samplers = append(c.samplers, netsim.NewSampler(f, c.interval))
	}
	n.OnDrop(func(e netsim.DropEvent) {
		c.events = append(c.events, Event{At: e.Time, Kind: "drop", Link: e.Link, Flow: e.Flow, Seq: e.Seq, Injected: e.Injected})
	})
	n.OnStateChange(func(e netsim.StateEvent) {
		c.events = append(c.events, Event{At: e.Time, Kind: "state", Flow: e.Flow, State: e.State})
	})
	n.OnRateChange(func(e netsim.RateEvent) {
		c.events = append(c.events, Event{At: e.Time, Kind: "rate", Link: e.Link, Rate: e.Rate})
	})
	return c
}

// Finish detaches the capture's samplers and writes the trace files for
// key with runner.WriteFileAtomic: neither a process killed mid-write nor a
// power loss leaves a partial trace under the trace-* name, and the trace
// is on disk before the journal record exp.Run writes after it, so a
// resumed sweep never skips a unit whose trace was lost. A key already
// traced by this recorder is skipped — the bytes would be identical. Write
// failures are returned: a trace the operator asked for that cannot
// persist must not fail silently. Nil-safe; an empty key detaches without
// writing.
func (c *Capture) Finish(key string) error {
	if c == nil {
		return nil
	}
	for _, s := range c.samplers {
		s.Detach()
	}
	for _, ls := range c.links {
		ls.Detach()
	}
	if key == "" {
		return nil
	}
	r := c.rec
	r.mu.Lock()
	if _, dup := r.written[key]; dup {
		r.mu.Unlock()
		return nil
	}
	r.written[key] = struct{}{}
	r.mu.Unlock()

	jsonlPath, csvPath := TracePaths(r.dir, key)
	if err := runner.WriteFileAtomic(jsonlPath, c.encodeJSONL(key)); err != nil {
		return fmt.Errorf("telemetry: writing trace: %w", err)
	}
	if err := runner.WriteFileAtomic(csvPath, c.encodeCSV()); err != nil {
		return fmt.Errorf("telemetry: writing trace CSV: %w", err)
	}
	r.files.Add(1)
	return nil
}

// Events returns the captured event stream (for tests).
func (c *Capture) Events() []Event {
	if c == nil {
		return nil
	}
	return c.events
}

// The JSONL record shapes. Field order within each struct fixes the byte
// layout; encoding/json renders float64 values in their shortest exact
// form, so the encoding is a pure function of the captured values.
type traceHeader struct {
	Record     string        `json:"record"` // "trace"
	Version    int           `json:"version"`
	Key        string        `json:"key"`
	IntervalNS int64         `json:"interval_ns"`
	Flows      int           `json:"flows"`
	Links      int           `json:"links"`
	Events     int           `json:"events"`
	Spec       scenario.Spec `json:"spec"`
}

type flowHeader struct {
	Record    string `json:"record"` // "flow"
	Flow      string `json:"flow"`
	Algorithm string `json:"algorithm"`
	RTTNS     int64  `json:"rtt_ns"`
}

type flowSample struct {
	Record        string  `json:"record"` // "sample"
	Flow          string  `json:"flow"`
	AtNS          int64   `json:"at_ns"`
	ThroughputBPS float64 `json:"throughput_bps"`
	InflightBytes float64 `json:"inflight_bytes"`
	QueueBytes    float64 `json:"queue_bytes"`
}

type linkSample struct {
	Record        string  `json:"record"` // "link"
	Link          string  `json:"link,omitempty"`
	AtNS          int64   `json:"at_ns"`
	QueueBytes    float64 `json:"queue_bytes"`
	ThroughputBPS float64 `json:"throughput_bps"`
	RateBPS       float64 `json:"rate_bps"`
}

type dropEvent struct {
	Record   string `json:"record"` // "event"
	Kind     string `json:"kind"`   // "drop"
	Link     string `json:"link,omitempty"`
	AtNS     int64  `json:"at_ns"`
	Flow     string `json:"flow"`
	Seq      uint64 `json:"seq"`
	Injected bool   `json:"injected"`
}

type stateEvent struct {
	Record string `json:"record"` // "event"
	Kind   string `json:"kind"`   // "state"
	AtNS   int64  `json:"at_ns"`
	Flow   string `json:"flow"`
	State  string `json:"state"`
}

type rateEvent struct {
	Record  string  `json:"record"` // "event"
	Kind    string  `json:"kind"`   // "rate"
	Link    string  `json:"link,omitempty"`
	AtNS    int64   `json:"at_ns"`
	RateBPS float64 `json:"rate_bps"`
}

// encodeJSONL renders the trace: one header line, one flow-header line per
// flow, the per-flow sample series (flows in spec order), the link series
// (links in netsim.PerLink order), then the event stream in simulation
// order. Link fields appear only in multi-bottleneck traces; a single-link
// trace's record bodies match the version-1 layout byte for byte.
func (c *Capture) encodeJSONL(key string) []byte {
	var buf []byte
	line := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			// Record shapes are plain structs of strings and numbers; a
			// marshal failure is a programming error.
			panic(fmt.Sprintf("telemetry: encoding trace record: %v", err))
		}
		buf = append(buf, b...)
		buf = append(buf, '\n')
	}
	line(traceHeader{
		Record:     "trace",
		Version:    TraceVersion,
		Key:        key,
		IntervalNS: int64(c.interval),
		Flows:      len(c.flows),
		Links:      len(c.links),
		Events:     len(c.events),
		Spec:       c.spec,
	})
	for _, f := range c.flows {
		line(flowHeader{Record: "flow", Flow: f.Name(), Algorithm: f.AlgorithmName(), RTTNS: int64(f.BaseRTT())})
	}
	for i, f := range c.flows {
		name := f.Name()
		for _, s := range c.samplers[i].Samples() {
			line(flowSample{
				Record:        "sample",
				Flow:          name,
				AtNS:          int64(s.At),
				ThroughputBPS: float64(s.Throughput),
				InflightBytes: float64(s.Inflight),
				QueueBytes:    float64(s.QueueBytes),
			})
		}
	}
	for _, ls := range c.links {
		rec := linkSample{Record: "link"}
		if c.multi {
			rec.Link = ls.LinkName()
		}
		for _, s := range ls.Samples() {
			rec.AtNS = int64(s.At)
			rec.QueueBytes = float64(s.QueueBytes)
			rec.ThroughputBPS = float64(s.Throughput)
			rec.RateBPS = float64(s.Rate)
			line(rec)
		}
	}
	for _, e := range c.events {
		link := ""
		if c.multi {
			link = e.Link
		}
		switch e.Kind {
		case "drop":
			line(dropEvent{Record: "event", Kind: "drop", Link: link, AtNS: int64(e.At), Flow: e.Flow, Seq: e.Seq, Injected: e.Injected})
		case "state":
			line(stateEvent{Record: "event", Kind: "state", AtNS: int64(e.At), Flow: e.Flow, State: e.State})
		case "rate":
			line(rateEvent{Record: "event", Kind: "rate", Link: link, AtNS: int64(e.At), RateBPS: float64(e.Rate)})
		}
	}
	return buf
}

// encodeCSV renders the per-flow sample series flat for spreadsheet and
// plotting tools; the JSONL file is the complete record (link series and
// events included).
func (c *Capture) encodeCSV() []byte {
	buf := []byte("at_ns,flow,algorithm,throughput_bps,inflight_bytes,queue_bytes\n")
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for i, f := range c.flows {
		name, alg := f.Name(), f.AlgorithmName()
		for _, s := range c.samplers[i].Samples() {
			buf = append(buf, strconv.FormatInt(int64(s.At), 10)...)
			buf = append(buf, ',')
			buf = append(buf, name...)
			buf = append(buf, ',')
			buf = append(buf, alg...)
			buf = append(buf, ',')
			buf = append(buf, num(float64(s.Throughput))...)
			buf = append(buf, ',')
			buf = append(buf, num(float64(s.Inflight))...)
			buf = append(buf, ',')
			buf = append(buf, num(float64(s.QueueBytes))...)
			buf = append(buf, '\n')
		}
	}
	return buf
}
