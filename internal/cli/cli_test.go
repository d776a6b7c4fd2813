package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bbrnash/internal/check"
	"bbrnash/internal/exp"
	"bbrnash/internal/runner"
	"bbrnash/internal/scenario"
	"bbrnash/internal/telemetry"
	"bbrnash/internal/units"
)

// testEnv is an Env with no flags registered and its status lines captured.
func testEnv() (*Env, *bytes.Buffer) {
	var out bytes.Buffer
	return &Env{name: "test", stderr: &out}, &out
}

func TestFailExitCodes(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	tests := []struct {
		name string
		ctx  context.Context
		err  error
		code int
		want string // a line of the explanation
	}{
		{"interrupt", cancelled, fmt.Errorf("figure 3a: %w", context.Canceled), 130, "test: interrupted;"},
		{"stall", nil, &runner.StallError{Index: 2, Window: time.Second},
			1, "test: raise -timeout or add -retries"},
		{"panic", nil, &runner.UnitError{Index: 1, Recovered: "boom", Stack: []byte("goroutine 7 [running]:")},
			1, "test: unit panic stack:\ngoroutine 7 [running]:"},
		{"locked store", nil, fmt.Errorf("runner: c.json: %w by another process", runner.ErrStoreLocked),
			1, "test: another process owns this store; point -cache/-resume elsewhere or stop it"},
		{"plain", nil, errors.New("bad input"), 1, "test: bad input"},
		// Cancellation without an interrupt is a failure, not exit 130.
		{"cancel without interrupt", context.Background(), context.Canceled, 1, "test: context canceled"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			env, out := testEnv()
			env.Ctx = tt.ctx
			if code := env.Fail(tt.err); code != tt.code {
				t.Errorf("Fail = %d, want %d", code, tt.code)
			}
			if !strings.Contains(out.String(), tt.want) {
				t.Errorf("stderr = %q, want it to contain %q", out.String(), tt.want)
			}
		})
	}
}

// An error that already names the command, as adopt.Run's "adopt: …"
// errors do in cmd/adopt, is printed once under that name, not twice.
func TestFailKeepsCommandPrefixOnce(t *testing.T) {
	env, out := testEnv()
	if code := env.Fail(errors.New("test: bad input")); code != 1 {
		t.Errorf("Fail = %d, want 1", code)
	}
	if got, want := out.String(), "test: bad input\n"; got != want {
		t.Errorf("stderr = %q, want %q", got, want)
	}
}

func TestCloseReportOutcome(t *testing.T) {
	for code, want := range map[int]string{0: "ok", 130: "interrupted", 1: "failed"} {
		env, _ := testEnv()
		env.reportPath = filepath.Join(t.TempDir(), "report.json")
		if err := env.Open(); err != nil {
			t.Fatal(err)
		}
		env.Close(code)
		if got := readReport(t, env.reportPath).Outcome; got != want {
			t.Errorf("exit %d: report outcome %q, want %q", code, got, want)
		}
	}
}

// A fluid run has no trace to write, so a -trace run of one says so on
// stderr when it closes; a packet run writes its trace and adds no line.
func TestCloseCountsUntracedFluidRuns(t *testing.T) {
	capacity, rtt := 20*units.Mbps, 20*time.Millisecond
	for _, tc := range []struct {
		backend          string
		untraced, traces int64
		stderr           string // DIR stands for the trace directory
	}{
		{scenario.BackendFluid, 1, 0, "test: -trace DIR: 1 fluid-backend runs have no trace\n"},
		{scenario.BackendPacket, 0, 1, ""},
	} {
		env, out := testEnv()
		env.traceDir = t.TempDir()
		if err := env.Open(); err != nil {
			t.Fatal(err)
		}
		sp := scenario.Mix("bbr", 1, 1, capacity, units.BufferBytes(capacity, rtt, 2), rtt, time.Second)
		sp.Backend = tc.backend
		if _, _, err := exp.Run(context.Background(), sp, exp.Env{Trace: env.Trace}); err != nil {
			t.Fatal(err)
		}
		env.Close(0)
		if got, traces := env.Trace.Untraced(), env.Trace.Traces(); got != tc.untraced || traces != tc.traces {
			t.Errorf("%s run: %d untraced runs and %d traces, want %d and %d", tc.backend, got, traces, tc.untraced, tc.traces)
		}
		if want := strings.ReplaceAll(tc.stderr, "DIR", env.traceDir); out.String() != want {
			t.Errorf("%s run: stderr %q, want %q", tc.backend, out.String(), want)
		}
	}
}

// Close saves the cache while it still holds the store lock, then releases
// it: a second open of the same store must succeed and see the entries.
func TestCloseSavesCacheThenReleasesLock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	env, out := testEnv()
	env.cachePath = path
	if err := env.Open(); err != nil {
		t.Fatal(err)
	}
	key := "test|" + scenario.KeyVersion + "|a"
	var v int
	env.Cache.Get(key, &v) // a miss: this run computed something
	env.Cache.Put(key, 42)
	env.Close(0)

	c, err := runner.OpenCache(path, scenario.KeyVersion)
	if err != nil {
		t.Fatalf("reopening the store after Close: %v", err)
	}
	defer c.Close()
	if !c.Get(key, &v) || v != 42 {
		t.Errorf("reopened cache: Get(%q) = %d, want 42", key, v)
	}
	if want := "test: cache saved to " + path + " (1 entries)"; !strings.Contains(out.String(), want) {
		t.Errorf("stderr = %q, want %q", out.String(), want)
	}
}

// A store that fails to open leaves the Env partly built; Close must still
// release what was opened and write the report.
func TestClosePartlyOpened(t *testing.T) {
	dir := t.TempDir()
	held, err := runner.OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()

	env, out := testEnv()
	env.cachePath = filepath.Join(dir, "cache.json")
	env.resumePath = filepath.Join(dir, "journal.jsonl")
	env.reportPath = filepath.Join(dir, "report.json")
	err = env.Open()
	if !errors.Is(err, runner.ErrStoreLocked) {
		t.Fatalf("Open = %v, want ErrStoreLocked", err)
	}
	code := env.Fail(err)
	env.Close(code)
	if code != 1 || !strings.Contains(out.String(), "another process owns this store") {
		t.Errorf("Fail = %d with %q, want 1 and the locked-store hint", code, out.String())
	}
	if got := readReport(t, env.reportPath).Outcome; got != "failed" {
		t.Errorf("report outcome %q, want failed", got)
	}
	c, err := runner.OpenCache(env.cachePath)
	if err != nil {
		t.Fatalf("cache still locked after Close: %v", err)
	}
	c.Close()
}

func TestVerdict(t *testing.T) {
	env, out := testEnv()
	if code := env.Verdict(); code != 0 || out.Len() != 0 {
		t.Errorf("without -strict: Verdict = %d, stderr %q; want 0 and silence", code, out.String())
	}

	env.Audit = check.New()
	if code := env.Verdict(); code != 0 || out.String() != "test: strict audit: all invariants held\n" {
		t.Errorf("no violations: Verdict = %d, stderr %q", code, out.String())
	}

	out.Reset()
	env.Audit.Record(check.Rate("k1", "throughput", units.Rate(-1))...)
	want := "test: strict: non-negative: throughput = -1 [k1]\ntest: strict: 1 invariant violation(s)\n"
	if code := env.Verdict(); code != 1 || out.String() != want {
		t.Errorf("one violation: Verdict = %d, stderr %q; want 1 and %q", code, out.String(), want)
	}
}

func TestParseFloats(t *testing.T) {
	if got, err := ParseFloats(""); got != nil || err != nil {
		t.Errorf(`ParseFloats("") = %v, %v; want nil, nil`, got, err)
	}
	got, err := ParseFloats("1, 2.5,40")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 2.5 || got[2] != 40 {
		t.Errorf("ParseFloats = %v, %v", got, err)
	}
	for _, bad := range []string{"1,NaN", "Inf", "1,-inf"} {
		if _, err := ParseFloats(bad); err == nil {
			t.Errorf("ParseFloats accepted %q", bad)
		}
	}
	if _, err := ParseFloats("1,x"); err == nil {
		t.Error("ParseFloats accepted a non-number")
	}
}

func readReport(t *testing.T, path string) telemetry.Report {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep telemetry.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}
