package bench

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: Summarize must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n                  int
		p50, tailPct, tail float64
	}{
		{1000, 500.5, 99, 990}, // exactly ten samples beyond p99
		{2000, 1000.5, 99, 1980},
		{100, 50.5, 90, 90}, // p99 would have one sample beyond: cap at p90
		{11, 6, 100 * (1 - 10.0/11), 1},
		{10, 5.5, 0, 0}, // no percentile has ten beyond it
	} {
		s := Summarize(seq(tc.n), 99)
		if s.N != tc.n || s.P50 != tc.p50 || math.Abs(s.TailPct-tc.tailPct) > 1e-9 || s.Tail != tc.tail {
			t.Errorf("n=%d: got %+v, want p50 %v tail p%v = %v", tc.n, s, tc.p50, tc.tailPct, tc.tail)
		}
	}
	if s := Summarize(nil, 99); s != (Summary{}) {
		t.Errorf("empty: %+v", s)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{2, 1}, 0.75, 2.25},
		{[]float64{3.1, 0.2, 7.7, 5.0, 2.2}, 1.2, 6.35},
	} {
		q1, q3, err := Quartiles(tc.xs)
		if err != nil || math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("%v: got %v %v %v, want %v %v", tc.xs, q1, q3, err, tc.q1, tc.q3)
		}
	}
	if _, _, err := Quartiles([]float64{1}); err == nil {
		t.Error("one value: want an error")
	}
}

func TestBoundWithin(t *testing.T) {
	for _, tc := range []struct {
		name        string
		b           Bound
		base, value float64
		better      string
		want        bool
	}{
		{"relative ok", Bound{Rel: 0.1}, 10, 11, "lower", true},
		{"relative over", Bound{Rel: 0.1}, 10, 11.01, "lower", false},
		{"relative better", Bound{Rel: 0.1}, 10, 2, "lower", true},
		{"relative higher ok", Bound{Rel: 0.1}, 10, 9, "higher", true},
		{"relative higher over", Bound{Rel: 0.1}, 10, 8.99, "higher", false},
		{"absolute zero held", Bound{Abs: 0}, 0, 0, "lower", true},
		{"absolute zero broken", Bound{Abs: 0}, 0, 0.001, "lower", false},
		{"floor dominates", Bound{Rel: 0.1, Abs: 0.05}, 0.1, 0.15, "lower", true},
		{"floor exceeded", Bound{Rel: 0.1, Abs: 0.05}, 0.1, 0.1501, "lower", false},
		{"relative dominates floor", Bound{Rel: 0.1, Abs: 0.05}, 1, 1.1, "lower", true},
		{"relative over floor", Bound{Rel: 0.1, Abs: 0.05}, 1, 1.11, "lower", false},
	} {
		if got := tc.b.Within(tc.base, tc.value, tc.better); got != tc.want {
			t.Errorf("%s: Within(%v, %v) = %v", tc.name, tc.base, tc.value, got)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	gen := map[string]func(seed uint64, smoke bool) any{
		"sweep": func(s uint64, sm bool) any { return sweepInputs(s, sm) },
		"ne":    func(s uint64, sm bool) any { return neInputs(s, sm) },
		"adopt": func(s uint64, sm bool) any { return adoptInputs(s, sm) },
		"serve": func(s uint64, sm bool) any {
			in, err := serveInputs(s, sm)
			if err != nil {
				t.Fatal(err)
			}
			return in
		},
	}
	for name, g := range gen {
		for _, smoke := range []bool{false, true} {
			a, b, c := marshal(t, g(7, smoke)), marshal(t, g(7, smoke)), marshal(t, g(8, smoke))
			if a != b {
				t.Errorf("%s smoke=%v: equal seeds gave different inputs", name, smoke)
			}
			if a == c {
				t.Errorf("%s smoke=%v: seeds 7 and 8 gave identical inputs", name, smoke)
			}
		}
	}
	in, err := serveInputs(1, false)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	repeats := 0
	for i, o := range in.Order {
		switch {
		case seen[o]:
			repeats++
		case o != len(seen):
			t.Fatalf("position %d introduces spec %d out of order", i, o)
		}
		seen[o] = true
	}
	if len(seen) != len(in.Specs) || 10*repeats != 6*len(in.Order) {
		t.Errorf("%d specs used of %d, %d repeats in %d requests: want all used and 60%% repeats", len(seen), len(in.Specs), repeats, len(in.Order))
	}
}

func marshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestRunSetRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "set.json")
	run := Run{Seed: 7, Seconds: 15, Trace: true, Host: Host{CPU: "x", NumCPU: 2, GoVersion: "go1", OS: "linux", Arch: "amd64"},
		Results: []Result{{
			Workload: "sweep_packet", Correct: true, Attempted: 3, Passes: 3, Digest: "abc",
			Metrics:  map[string]float64{"wall_s": 3.8969310325000004, "setup_s": 0.001504125},
			SelfTime: map[string]SelfTime{"pass": {Count: 1, TotalS: 1.5, SelfS: 0.25}},
		}, {
			Workload: "serve_mixed", Problems: []string{"p"}, Attempted: 5, Failed: 1,
			Metrics: map[string]float64{"latency_p50_ms": 0.2617165},
		}}}
	for i := 0; i < 2; i++ {
		if err := appendRun(path, run); err != nil {
			t.Fatal(err)
		}
	}
	got, err := loadRunSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := (RunSet{Runs: []Run{run, run}}); !reflect.DeepEqual(got, want) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestWriteGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.json")
	if err := os.WriteFile(path, []byte(`{"ne_walk_packet": "old", "sweep_packet": "keep"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	smoke := Run{Smoke: true, Results: []Result{{Workload: "sweep_packet", Correct: true, Digest: "s1"}}}
	full := Run{Results: []Result{{Workload: "ne_walk_packet", Correct: true, Digest: "n1"}}}
	for _, run := range []Run{smoke, full} {
		if err := writeGolden(path, run); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]string
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"sweep_packet": "keep", "sweep_packet/smoke": "s1", "ne_walk_packet": "n1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("golden file %v, want %v", got, want)
	}
	bad := Run{Results: []Result{{Workload: "adopt_fluid", Digest: "x"}}}
	if err := writeGolden(path, bad); err == nil {
		t.Error("recorded the digest of an incorrect run")
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &Tracer{spans: []Span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "req", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "req", Start: 20, End: 50},  // overlaps its sibling
		{ID: 4, Parent: 1, Name: "req", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Name: "inner", Start: 25, End: 35},
		{ID: 6, Name: "open", Start: 0, End: -1}, // never closed: ignored
	}}
	got := tr.SelfTimes()
	want := map[string]SelfTime{
		"pass":  {Count: 1, TotalS: 100e-9, SelfS: 50e-9},
		"req":   {Count: 3, TotalS: 80e-9, SelfS: 70e-9},
		"inner": {Count: 1, TotalS: 10e-9, SelfS: 10e-9},
	}
	for k, w := range want {
		g := got[k]
		if g.Count != w.Count || math.Abs(g.TotalS-w.TotalS) > 1e-15 || math.Abs(g.SelfS-w.SelfS) > 1e-15 {
			t.Errorf("%s: got %+v, want %+v", k, g, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d names, want %d", len(got), len(want))
	}
	var nilTracer *Tracer
	nilTracer.End(nilTracer.Begin(0, "x", 0)) // a nil tracer records nothing and does not panic
}

func TestCompareSets(t *testing.T) {
	set := func(walls ...float64) RunSet {
		var s RunSet
		for _, w := range walls {
			s.Runs = append(s.Runs, Run{Results: []Result{{Workload: "adopt_fluid", Metrics: map[string]float64{"wall_s": w, "error_rate": 0}}}})
		}
		return s
	}
	var out strings.Builder
	if !compareSets(&out, set(3.0, 3.1, 2.9), set(3.6, 3.7, 3.5)) {
		t.Errorf("3.0 vs 3.6 within wall_s's 25%% bound should agree:\n%s", out.String())
	}
	if compareSets(&out, set(3.0, 3.1, 2.9), set(4.0, 4.1, 3.9)) {
		t.Error("3.0 vs 4.0 should disagree")
	}
	if compareSets(&out, set(4.5, 4.6, 4.4), set(3.0, 3.1, 2.9)) {
		t.Error("agreement is symmetric: a large improvement disagrees too")
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []benchMetric `json:"end_to_end"`
	PerLayer   []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and the metric and
// workload tables in step.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: file %+v, table %q %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, file []benchMetric, table []Metric) {
		if len(file) != len(table) {
			t.Errorf("%s: file lists %d metrics, table %d", kind, len(file), len(table))
			return
		}
		for i, fm := range file {
			d := table[i]
			if fm.Name != d.Name || fm.Unit != d.Unit || fm.Better != d.Better {
				t.Errorf("%s %d: file %+v, table %+v", kind, i, fm, d)
			}
			switch {
			case d.Bound == nil && fm.Bound != nil, d.Bound != nil && fm.Bound == nil:
				t.Errorf("%s: bound present in only one of file and table", d.Name)
			case d.Bound != nil && *fm.Bound != d.Bound.Rel:
				t.Errorf("%s: file bound %v, table %v", d.Name, *fm.Bound, d.Bound.Rel)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
}
