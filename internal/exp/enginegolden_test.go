package exp

// Event-order equivalence goldens for the packet engine.
//
// The event queue was rebuilt from a container/heap of closures into a
// typed, allocation-free indexed heap (internal/eventsim), and the
// single-bottleneck forwarding path was later generalized to multi-link
// topologies. The refactor's correctness contract is that the *event
// order* — and therefore every trace record — is identical to the old
// engine's (same (at, seq) FIFO tie-break). These golden .jsonl bodies
// were generated with the old closure-based single-link engine and are
// deliberately kept as that engine's evidence; the test replays the
// paper's figure-grid corner scenarios (faults and AckJitter enabled,
// every registered algorithm covered) and asserts byte-identical record
// bodies at worker counts 1 and GOMAXPROCS. The header line is compared
// structurally instead: the trace format version and the canonical key
// scheme legitimately move ahead of the goldens (keys.txt tracks the
// current scheme), while the sampling interval, flow count, event count
// and embedded spec must still match the old engine exactly.
//
// Regenerate only on a deliberate, understood behaviour change (existing
// golden bodies are preserved; keys.txt is always rewritten):
//
//	go test ./internal/exp -run TestEngineTraceGoldens -update-engine-goldens

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"bbrnash/internal/runner"
	"bbrnash/internal/scenario"
	"bbrnash/internal/telemetry"
	"bbrnash/internal/units"
)

var updateEngineGoldens = flag.Bool("update-engine-goldens", false,
	"rewrite the engine trace goldens from the current engine")

// engineCornerSpecs returns the figure-grid corner scenarios: shallow and
// deep buffers, homogeneous and mixed RTTs, every fault mechanism, and all
// registered algorithms. Short durations keep the suite fast; the point is
// ordering coverage, not steady-state statistics.
func engineCornerSpecs() map[string]scenario.Spec {
	const rtt = 30 * time.Millisecond
	capacity := 20 * units.Mbps
	return map[string]scenario.Spec{
		// Shallow buffer: constant overflow, the drop/loss-detection path
		// under both drop-tail and stochastic loss, plus ACK-path loss.
		"shallowbuf": {
			Capacity:    capacity,
			Buffer:      units.BufferBytes(capacity, rtt, 0.5),
			AckJitter:   scenario.DefaultAckJitter,
			StartJitter: scenario.DefaultStartJitter,
			Duration:    2 * time.Second,
			Seed:        21,
			Faults:      scenario.Faults{LossRate: 0.01, AckLossRate: 0.02},
			Groups: []scenario.Group{
				{Algorithm: "bbr", Count: 2, RTT: rtt},
				{Algorithm: "cubic", Count: 2, RTT: rtt},
			},
		},
		// Deep buffer with capacity flaps: rate-change edges interleave
		// with a standing queue.
		"deepbuf-flap": {
			Capacity:    capacity,
			Buffer:      units.BufferBytes(capacity, rtt, 8),
			AckJitter:   scenario.DefaultAckJitter,
			StartJitter: scenario.DefaultStartJitter,
			Duration:    2 * time.Second,
			Seed:        22,
			Faults:      scenario.Faults{FlapPeriod: 500 * time.Millisecond, FlapDepth: 0.4},
			Groups: []scenario.Group{
				{Algorithm: "bbr", Count: 1, RTT: rtt},
				{Algorithm: "cubic", Count: 1, RTT: rtt},
				{Algorithm: "reno", Count: 1, RTT: rtt},
			},
		},
		// Mixed RTT groups with burst-loss episodes: many same-instant
		// loss-detection events for one flow, the ordering corner the
		// batched dispatch must preserve.
		"mixedrtt-burst": {
			Capacity:    capacity,
			Buffer:      units.BufferBytes(capacity, rtt, 2),
			AckJitter:   scenario.DefaultAckJitter,
			StartJitter: scenario.DefaultStartJitter,
			Duration:    2 * time.Second,
			Seed:        23,
			Faults:      scenario.Faults{BurstEvery: 400 * time.Millisecond, BurstLen: 12},
			Groups: []scenario.Group{
				{Algorithm: "bbr", Count: 2, RTT: 15 * time.Millisecond},
				{Algorithm: "cubic", Count: 2, RTT: 90 * time.Millisecond},
			},
		},
		// The rest of the registry under combined faults: the paced and
		// model-driven algorithms (bbrv2, copa, vivace) exercise the pacer
		// timer far harder than the loss-based ones.
		"paced-registry": {
			Capacity:    capacity,
			Buffer:      units.BufferBytes(capacity, rtt, 1),
			AckJitter:   scenario.DefaultAckJitter,
			StartJitter: scenario.DefaultStartJitter,
			Duration:    2 * time.Second,
			Seed:        24,
			Faults:      scenario.Faults{LossRate: 0.005, FlapPeriod: time.Second, FlapDepth: 0.25},
			Groups: []scenario.Group{
				{Algorithm: "bbrv2", Count: 1, RTT: rtt},
				{Algorithm: "copa", Count: 1, RTT: rtt},
				{Algorithm: "vivace", Count: 1, RTT: rtt},
			},
		},
	}
}

func engineGoldenDir(t *testing.T) string {
	t.Helper()
	return filepath.Join("testdata", "engine")
}

// traceSpecs runs every corner spec through the harness with the given
// worker count, tracing into a fresh directory, and returns it.
func traceSpecs(t *testing.T, specs map[string]scenario.Spec, order []string, workers int) string {
	t.Helper()
	dir := t.TempDir()
	rec, err := telemetry.NewRecorder(dir)
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.NewPool(workers)
	_, err = runner.Map(pool, len(order), func(i int) (struct{}, error) {
		_, _, err := Run(t.Context(), specs[order[i]], Env{Trace: rec})
		return struct{}{}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestEngineTraceGoldens asserts byte-identical trace JSONL and cache keys
// against the goldens generated by the pre-refactor engine, at one worker
// and at GOMAXPROCS workers.
func TestEngineTraceGoldens(t *testing.T) {
	specs := engineCornerSpecs()
	order := []string{"shallowbuf", "deepbuf-flap", "mixedrtt-burst", "paced-registry"}
	golden := engineGoldenDir(t)

	if *updateEngineGoldens {
		if err := os.MkdirAll(golden, 0o755); err != nil {
			t.Fatal(err)
		}
		dir := traceSpecs(t, specs, order, 1)
		var keys []byte
		for _, name := range order {
			key := specs[name].Key()
			jsonl, _ := telemetry.TracePaths(dir, key)
			data, err := os.ReadFile(jsonl)
			if err != nil {
				t.Fatalf("golden trace for %s missing: %v", name, err)
			}
			out := filepath.Join(golden, name+".jsonl")
			if _, err := os.Stat(out); os.IsNotExist(err) {
				// Existing bodies are old-engine evidence; only a missing
				// golden is (re)generated from the current engine.
				if err := os.WriteFile(out, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			keys = append(keys, fmt.Sprintf("%s\t%s\n", name, key)...)
		}
		if err := os.WriteFile(filepath.Join(golden, "keys.txt"), keys, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("engine trace goldens rewritten")
		return
	}

	// The canonical keys must match the goldens exactly: the key is the
	// cache identity, and a drifting key silently orphans every cached
	// result and journal entry.
	wantKeys, err := os.ReadFile(filepath.Join(golden, "keys.txt"))
	if err != nil {
		t.Fatalf("missing goldens (run with -update-engine-goldens on a known-good engine): %v", err)
	}
	var gotKeys []byte
	for _, name := range order {
		gotKeys = append(gotKeys, fmt.Sprintf("%s\t%s\n", name, specs[name].Key())...)
	}
	if string(gotKeys) != string(wantKeys) {
		t.Fatalf("cache keys drifted from goldens:\ngot:\n%swant:\n%s", gotKeys, wantKeys)
	}

	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		workers := workers
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			dir := traceSpecs(t, specs, order, workers)
			for _, name := range order {
				want, err := os.ReadFile(filepath.Join(golden, name+".jsonl"))
				if err != nil {
					t.Fatal(err)
				}
				jsonl, _ := telemetry.TracePaths(dir, specs[name].Key())
				got, err := os.ReadFile(jsonl)
				if err != nil {
					t.Fatalf("%s: trace not written: %v", name, err)
				}
				gotHdr, gotBody, okG := strings.Cut(string(got), "\n")
				wantHdr, wantBody, okW := strings.Cut(string(want), "\n")
				if !okG || !okW {
					t.Fatalf("%s: trace has no header line", name)
				}
				if gotBody != wantBody {
					t.Errorf("%s: trace record body differs from old-engine golden (%d vs %d bytes); event order is not equivalent",
						name, len(gotBody), len(wantBody))
				}
				compareTraceHeader(t, name, gotHdr, wantHdr, specs[name])
			}
		})
	}
}

// goldenHeader mirrors the trace header fields the golden comparison
// reads; Links is absent from version-1 goldens and decodes as zero.
type goldenHeader struct {
	Record     string          `json:"record"`
	Version    int             `json:"version"`
	Key        string          `json:"key"`
	IntervalNS int64           `json:"interval_ns"`
	Flows      int             `json:"flows"`
	Links      int             `json:"links"`
	Events     int             `json:"events"`
	Spec       json.RawMessage `json:"spec"`
}

// compareTraceHeader checks the header structurally: format version and
// key scheme follow the current code (the goldens predate both), while
// everything describing the captured run — interval, flow count, event
// count, the embedded spec — must match the old engine's exactly.
func compareTraceHeader(t *testing.T, name, gotLine, wantLine string, sp scenario.Spec) {
	t.Helper()
	var got, want goldenHeader
	if err := json.Unmarshal([]byte(gotLine), &got); err != nil {
		t.Fatalf("%s: decoding trace header: %v", name, err)
	}
	if err := json.Unmarshal([]byte(wantLine), &want); err != nil {
		t.Fatalf("%s: decoding golden header: %v", name, err)
	}
	if got.Record != "trace" || got.Version != telemetry.TraceVersion {
		t.Errorf("%s: header record %q version %d, want trace version %d", name, got.Record, got.Version, telemetry.TraceVersion)
	}
	if wantKey := sp.Key(); got.Key != wantKey {
		t.Errorf("%s: header key %q, want %q", name, got.Key, wantKey)
	}
	if got.Links != 1 {
		t.Errorf("%s: header links = %d, want 1 for a single-bottleneck spec", name, got.Links)
	}
	if got.IntervalNS != want.IntervalNS || got.Flows != want.Flows || got.Events != want.Events {
		t.Errorf("%s: header run shape (interval %d, flows %d, events %d) differs from golden (interval %d, flows %d, events %d)",
			name, got.IntervalNS, got.Flows, got.Events, want.IntervalNS, want.Flows, want.Events)
	}
	var gotSpec, wantSpec scenario.Spec
	if err := json.Unmarshal(got.Spec, &gotSpec); err != nil {
		t.Fatalf("%s: decoding header spec: %v", name, err)
	}
	if err := json.Unmarshal(want.Spec, &wantSpec); err != nil {
		t.Fatalf("%s: decoding golden header spec: %v", name, err)
	}
	if !reflect.DeepEqual(gotSpec, wantSpec) {
		t.Errorf("%s: header spec drifted from golden:\n got %+v\nwant %+v", name, gotSpec, wantSpec)
	}
}
