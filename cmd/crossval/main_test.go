package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runArgs runs the command with args on a fresh flag set and returns its
// exit code and what it wrote to stderr.
func runArgs(t *testing.T, args ...string) (code int, stderr string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	osArgs, flags, osStderr := os.Args, flag.CommandLine, os.Stderr
	defer func() { os.Args, flag.CommandLine, os.Stderr = osArgs, flags, osStderr }()
	flag.CommandLine = flag.NewFlagSet("crossval", flag.ContinueOnError)
	os.Args = append([]string{"crossval"}, args...)
	os.Stderr = f
	code = run()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}

// A report that cannot be written fails the run: with stdout on a full
// device the JSON write fails, and crossval must exit non-zero instead of
// reporting success over a lost report.
func TestUnwritableReportFailsRun(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("/dev/full is not available")
	}
	defer full.Close()
	args, flags, stdout := os.Args, flag.CommandLine, os.Stdout
	defer func() { os.Args, flag.CommandLine, os.Stdout = args, flags, stdout }()
	flag.CommandLine = flag.NewFlagSet("crossval", flag.ContinueOnError)
	os.Args = []string{"crossval", "-buffers", "2", "-mixes", "1:1", "-duration", "2s"}
	os.Stdout = full
	if code := run(); code == 0 {
		t.Fatal("crossval exited 0 although its report could not be written")
	}
}

// A grid cell with no flows or a buffer depth that is not positive would
// fail only as a unit error once the pool has started; the command rejects
// it while parsing its flags, with an error that names the flag.
func TestEmptyGridCellFailsRun(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"-mixes", "0:0"},
		{"-mixes", "1:1,0:0"},
		{"-buffers", "0"},
		{"-buffers", "-2"},
	} {
		t.Run(tc.flag+"="+tc.value, func(t *testing.T) {
			code, stderr := runArgs(t, "-buffers", "2", "-mixes", "1:1", "-duration", "2s", tc.flag, tc.value)
			if code != 1 {
				t.Errorf("crossval %s %s exited %d, want 1", tc.flag, tc.value, code)
			}
			if want := "crossval: " + tc.flag + ": "; !strings.Contains(stderr, want) {
				t.Errorf("stderr does not name %s:\n%s", tc.flag, stderr)
			}
		})
	}
}

// A positive depth whose buffer holds less than one segment would also
// fail only once the pool has started, as a unit error under the spec's
// long key. The command rejects it while parsing its flags, naming the
// flag, the depth and its bytes; with -buffers unset it checks the default
// 1–49 BDP grid, whose 1 BDP is 1000 B at 0.2 Mbps and 40 ms. A depth of
// exactly one segment is accepted.
func TestSubSegmentBufferFailsRun(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		// 0.001 BDP is 200 B at the default 40 Mbps and 40 ms.
		{[]string{"-buffers", "2,0.001"},
			"crossval: -buffers: depth 0.001 is 200B at 40.00Mbps and 40ms, below one segment (1.46KB)"},
		{[]string{"-capacity", "0.2"},
			"crossval: -buffers: default grid's depth 1 is 1.00KB at 200.00Kbps and 40ms, below one segment (1.46KB)"},
	} {
		t.Run(strings.Join(tc.args, "="), func(t *testing.T) {
			code, stderr := runArgs(t, append([]string{"-mixes", "1:1", "-duration", "2s"}, tc.args...)...)
			if code != 1 {
				t.Errorf("crossval %v exited %d, want 1", tc.args, code)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr lacks %q:\n%s", tc.want, stderr)
			}
			if strings.Contains(stderr, "runner:") {
				t.Errorf("the depth reached the pool:\n%s", stderr)
			}
		})
	}

	// 1460 B at 40 Mbps is 292 µs, 0.0073 of a 40 ms BDP.
	out := filepath.Join(t.TempDir(), "report.json")
	code, stderr := runArgs(t, "-buffers", "0.0073", "-mixes", "1:1", "-duration", "100ms", "-out", out)
	if code != 0 {
		t.Errorf("crossval -buffers 0.0073 exited %d, want 0:\n%s", code, stderr)
	}
}

// A capacity or RTT that is not positive fails while parsing the flags,
// naming that flag, before the buffer check could blame -buffers for the
// 0-byte buffers it gives.
func TestNonPositivePathFailsRun(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"-capacity", "0"},
		{"-capacity", "NaN"},
		{"-rtt", "0"},
		{"-rtt", "-5"},
	} {
		t.Run(tc.flag+"="+tc.value, func(t *testing.T) {
			code, stderr := runArgs(t, "-buffers", "2", "-mixes", "1:1", "-duration", "2s", tc.flag, tc.value)
			if code != 1 {
				t.Errorf("crossval %s %s exited %d, want 1", tc.flag, tc.value, code)
			}
			if want := "crossval: " + tc.flag + ": " + tc.value + " "; !strings.Contains(stderr, want) {
				t.Errorf("stderr lacks %q:\n%s", want, stderr)
			}
		})
	}
}
