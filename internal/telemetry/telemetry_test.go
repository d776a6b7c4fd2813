package telemetry_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"bbrnash/internal/cc/bbr"
	"bbrnash/internal/cc/cubic"
	"bbrnash/internal/exp"
	"bbrnash/internal/netsim"
	"bbrnash/internal/scenario"
	"bbrnash/internal/telemetry"
	"bbrnash/internal/units"
)

// testSpec is a small but non-trivial scenario: a shallow buffer forces
// drops and BBR contributes congestion-control state transitions, so the
// trace exercises samples and both event kinds.
func testSpec() scenario.Spec {
	capacity := 20 * units.Mbps
	rtt := 20 * time.Millisecond
	sp := scenario.Mix("bbr", 1, 1, capacity, units.BufferBytes(capacity, rtt, 1), rtt, 5*time.Second)
	sp.Seed = 7
	return sp
}

func readTrace(t *testing.T, dir string, key string) (jsonl, csv []byte) {
	t.Helper()
	jp, cp := telemetry.TracePaths(dir, key)
	jsonl, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	csv, err = os.ReadFile(cp)
	if err != nil {
		t.Fatal(err)
	}
	return jsonl, csv
}

// Two traced runs of the same spec and seed must produce byte-identical
// trace files, and tracing must not change the simulation's result — the
// reason trace configuration is excluded from the scenario cache key.
func TestTraceDeterminismAndResultNeutrality(t *testing.T) {
	sp := testSpec()
	plain, _, err := exp.Run(context.Background(), sp, exp.Env{})
	if err != nil {
		t.Fatal(err)
	}
	var traces [2][2][]byte
	for i := range traces {
		dir := t.TempDir()
		rec, err := telemetry.NewRecorder(dir)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := exp.Run(context.Background(), sp, exp.Env{Trace: rec})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, plain) {
			t.Fatal("traced run's result differs from untraced run")
		}
		if rec.Traces() != 1 {
			t.Fatalf("Traces = %d, want 1", rec.Traces())
		}
		traces[i][0], traces[i][1] = readTrace(t, dir, sp.Key())
	}
	if !bytes.Equal(traces[0][0], traces[1][0]) {
		t.Error("JSONL traces of identical runs differ")
	}
	if !bytes.Equal(traces[0][1], traces[1][1]) {
		t.Error("CSV traces of identical runs differ")
	}
}

// The JSONL trace must carry a versioned header with the canonical key and
// replayable spec, per-flow sample records, link records, and the discrete
// event stream (drops from the shallow buffer, BBR state transitions).
func TestTraceContents(t *testing.T) {
	sp := testSpec()
	dir := t.TempDir()
	rec, err := telemetry.NewRecorder(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := exp.Run(context.Background(), sp, exp.Env{Trace: rec}); err != nil {
		t.Fatal(err)
	}
	jsonl, csv := readTrace(t, dir, sp.Key())

	type record struct {
		Record  string `json:"record"`
		Version int    `json:"version"`
		Key     string `json:"key"`
		Kind    string `json:"kind"`
		State   string `json:"state"`
	}
	counts := map[string]int{}
	kinds := map[string]int{}
	sc := bufio.NewScanner(bytes.NewReader(jsonl))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	first := true
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		if first {
			if r.Record != "trace" || r.Version != telemetry.TraceVersion || r.Key != sp.Key() {
				t.Fatalf("bad header: %+v", r)
			}
			first = false
		}
		counts[r.Record]++
		if r.Record == "event" {
			kinds[r.Kind]++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if counts["trace"] != 1 || counts["flow"] != 2 {
		t.Errorf("header/flow records = %d/%d, want 1/2", counts["trace"], counts["flow"])
	}
	if counts["sample"] == 0 || counts["link"] == 0 {
		t.Errorf("missing time series: %d flow samples, %d link samples", counts["sample"], counts["link"])
	}
	if kinds["drop"] == 0 {
		t.Error("shallow-buffer run recorded no drop events")
	}
	if kinds["state"] == 0 {
		t.Error("BBR run recorded no congestion-control state transitions")
	}
	if !bytes.HasPrefix(csv, []byte("at_ns,flow,algorithm,")) {
		t.Error("CSV missing header row")
	}
}

// Within one recorder a canonical key is traced once: repeated runs of the
// same spec would rewrite identical bytes.
func TestRecorderDedupsKeys(t *testing.T) {
	sp := testSpec()
	rec, err := telemetry.NewRecorder(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := exp.Run(context.Background(), sp, exp.Env{Trace: rec}); err != nil {
			t.Fatal(err)
		}
	}
	if rec.Traces() != 1 {
		t.Errorf("Traces = %d, want 1 (second run of the same key must not re-trace)", rec.Traces())
	}
}

// A trace the operator asked for that cannot persist must fail the run, not
// vanish silently.
func TestFinishReportsWriteFailure(t *testing.T) {
	sp := testSpec()
	dir := filepath.Join(t.TempDir(), "traces")
	rec, err := telemetry.NewRecorder(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, _, err := exp.Run(context.Background(), sp, exp.Env{Trace: rec}); err == nil {
		t.Fatal("expected an error when the trace directory is gone")
	}
}

func TestTraceIDAndPaths(t *testing.T) {
	if id := telemetry.TraceID("scenario|v3|a"); len(id) != 16 {
		t.Errorf("TraceID length = %d, want 16", len(id))
	}
	if telemetry.TraceID("a") == telemetry.TraceID("b") {
		t.Error("distinct keys must map to distinct trace IDs")
	}
	j, c := telemetry.TracePaths("dir", "k")
	if filepath.Dir(j) != "dir" || filepath.Ext(j) != ".jsonl" || filepath.Ext(c) != ".csv" {
		t.Errorf("TracePaths = %q, %q", j, c)
	}
}

// Every entry point must be a no-op on a nil recorder/capture, so callers
// thread one pointer with no branching.
func TestNilRecorderIsInert(t *testing.T) {
	var rec *telemetry.Recorder
	if rec.SetInterval(time.Second) != nil {
		t.Error("nil SetInterval should return nil")
	}
	if rec.Dir() != "" || rec.Traces() != 0 || rec.Untraced() != 0 {
		t.Error("nil accessors should return zero values")
	}
	if cap := rec.Attach(nil, scenario.Spec{}); cap != nil {
		t.Error("nil Attach should return nil")
	}
	var cap *telemetry.Capture
	if err := cap.Finish("key"); err != nil {
		t.Error("nil Finish should be a no-op")
	}
	if cap.Events() != nil {
		t.Error("nil Events should be nil")
	}
}

// The zero-cost-when-disabled guarantee: threading a nil recorder through a
// simulation must add no allocations over not mentioning telemetry at all.
// The simulator is deterministic, so the two allocation counts are exactly
// comparable.
func TestDisabledRecorderAddsNoAllocations(t *testing.T) {
	capacity := 20 * units.Mbps
	rtt := 20 * time.Millisecond
	runSim := func(attach bool) {
		n, err := netsim.New(netsim.Config{Capacity: capacity, Buffer: units.BufferBytes(capacity, rtt, 1)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.AddFlow(netsim.FlowConfig{Name: "b", RTT: rtt, Algorithm: bbr.New}); err != nil {
			t.Fatal(err)
		}
		if _, err := n.AddFlow(netsim.FlowConfig{Name: "c", RTT: rtt, Algorithm: cubic.New}); err != nil {
			t.Fatal(err)
		}
		if attach {
			var rec *telemetry.Recorder
			cap := rec.Attach(n, scenario.Spec{})
			defer func() {
				if err := cap.Finish(""); err != nil {
					t.Fatal(err)
				}
			}()
		}
		n.Run(2 * time.Second)
	}
	base := testing.AllocsPerRun(3, func() { runSim(false) })
	withNil := testing.AllocsPerRun(3, func() { runSim(true) })
	if withNil > base {
		t.Errorf("disabled telemetry allocated: %.0f allocs with nil recorder vs %.0f without", withNil, base)
	}
}

// Collect is nil-safe across all components and Write round-trips through
// JSON.
func TestReportCollectAndWrite(t *testing.T) {
	rep := telemetry.Collect("test", "ok", 2*time.Second, nil, nil, nil, nil)
	if rep.Version != telemetry.ReportVersion || rep.Command != "test" || rep.Outcome != "ok" {
		t.Fatalf("bad report: %+v", rep)
	}
	if rep.WallNS != int64(2*time.Second) {
		t.Errorf("WallNS = %d", rep.WallNS)
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := rep.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back telemetry.Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != rep {
		t.Errorf("report round-trip mismatch: %+v != %+v", back, rep)
	}
}
