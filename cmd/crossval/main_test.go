package main

import (
	"flag"
	"os"
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
