package bench

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeEmitsEveryMetric builds the command and bbrserve, runs every
// workload on its smoke inputs with tracing, and checks that each passes
// the correctness gate (the seed-1 smoke goldens included) and emits every
// metric BENCHMARK.json names.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	dir := t.TempDir()
	bin, srv := filepath.Join(dir, "bbrbench"), filepath.Join(dir, "bbrserve")
	for _, b := range [][]string{{bin, "./cmd/bbrbench"}, {srv, "bbrnash/cmd/bbrserve"}} {
		if out, err := exec.Command("go", "build", "-o", b[0], b[1]).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", b[1], err, out)
		}
	}
	results := filepath.Join(dir, "results.json")
	cmd := exec.Command(bin, "-smoke", "-workload", "all", "-seed", "1", "-trace", "1",
		"-out", results, "-spans", filepath.Join(dir, "spans.json"), "-bbrserve", srv, "-workdir", dir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatalf("bbrbench: %v\n%s", err, stdout)
	}

	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok || len(last) != 4 {
			t.Errorf("last line keys %v, want exactly correct, attempted, failed, metrics", keys(last))
		}
	}

	set, err := loadRunSet(results)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Runs) != 1 {
		t.Fatalf("%d runs recorded, want 1", len(set.Runs))
	}
	f := readBenchmarkFile(t)
	byName := map[string]Result{}
	for _, r := range set.Runs[0].Results {
		byName[r.Workload] = r
	}
	for _, w := range f.Workloads {
		r, ok := byName[w.Name]
		if !ok {
			t.Errorf("%s: no result", w.Name)
			continue
		}
		if !r.Correct || r.Failed > 0 || r.Attempted < 1 {
			t.Errorf("%s: correct %v, %d of %d failed: %v", w.Name, r.Correct, r.Failed, r.Attempted, r.Problems)
		}
		for _, m := range append(f.EndToEnd, f.PerLayer...) {
			if _, ok := r.Metrics[m.Name]; !ok {
				t.Errorf("%s: metric %s not emitted", w.Name, m.Name)
			}
		}
		for _, m := range f.EndToEnd {
			if r.Metrics[m.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, r.Metrics[m.Name])
			}
		}
	}
}

func keys(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
