package exp

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bbrnash/internal/runner"
	"bbrnash/internal/scenario"
	"bbrnash/internal/units"
)

// The NE figures run their payoff searches under the scale's context: a
// cancelled Scale.Ctx stops Fig9 with context.Canceled before any payoff
// simulation runs, instead of the figure finishing as if nothing happened.
func TestFig9HonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := Smoke
	s.Ctx = ctx
	s.Cache = runner.NewCache()

	start := time.Now()
	_, err := Fig9(s, "9a", 50*units.Mbps, 20*time.Millisecond, []float64{2}, "bbr")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := s.Cache.Len(); n != 0 {
		t.Errorf("cancelled figure simulated %d payoffs", n)
	}
	// One 50-flow two-minute payoff simulation takes seconds.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled figure took %v", elapsed)
	}
}

// journalKeys reads the canonical keys recorded in a closed journal file.
func journalKeys(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var keys []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var line struct{ Key string }
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, line.Key)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return keys
}

// The NE figures run their payoff searches with the scale's journal and
// backend: a one-point fluid Fig9 journals every payoff simulation it ran,
// under keys that carry the fluid backend.
func TestFig9FluidJournalsPayoffRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	journal, err := runner.OpenJournal(path, scenario.KeyVersion)
	if err != nil {
		t.Fatal(err)
	}
	s := Smoke
	s.Backend = scenario.BackendFluid
	s.Journal = journal
	if _, err := Fig9(s, "9a", 50*units.Mbps, 20*time.Millisecond, []float64{2}, "bbr"); err != nil {
		t.Fatal(err)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	keys := journalKeys(t, path)
	if len(keys) == 0 {
		t.Fatal("Fig9 journaled no payoff simulation")
	}
	for _, k := range keys {
		if !strings.Contains(k, "|bk="+scenario.BackendFluid+"|") {
			t.Errorf("journaled key %q is not a fluid-backend key", k)
		}
	}
}

// A utility search honours Backend: every payoff of an exhaustive fluid
// search under a linear utility is cached under its fluid key, so none
// ran on the packet engine.
func TestFindNEUtilityHonoursBackend(t *testing.T) {
	const n = 4
	cfg := fluidNE(n, 7)
	cfg.Exhaustive = true
	cfg.Utility = LinearUtility(1, 0.01)
	cfg.Cache = runner.NewCache()
	res, err := FindNE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Simulations != n+1 {
		t.Fatalf("search ran %d simulations, want %d", res.Simulations, n+1)
	}
	seeds := trialSeeds(cfg.Seed, n+1)
	for numX := 0; numX <= n; numX++ {
		sp := scenario.Mix("bbr", numX, n-numX, cfg.Capacity, cfg.Buffer, cfg.RTT, PayoffDuration(cfg.Duration))
		sp.Seed, sp.Backend = seeds[numX], scenario.BackendFluid
		var got SpecResult
		if !cfg.Cache.Get(sp.Key(), &got) {
			t.Errorf("payoff at %d X flows did not run on the fluid backend", numX)
		}
	}
}
