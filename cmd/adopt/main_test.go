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
	flag.CommandLine = flag.NewFlagSet("adopt", flag.ContinueOnError)
	os.Args = append([]string{"adopt"}, args...)
	os.Stderr = f
	code = run()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}

// A trajectory that cannot be written fails the run: with -out on a full
// device every record write fails, and adopt must exit non-zero instead of
// reporting success over a truncated trajectory.
func TestUnwritableTrajectoryFailsRun(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full is not available")
	}
	if code, _ := runArgs(t, "-capacity", "50", "-buffer", "3", "-agents", "200",
		"-generations", "3", "-algs", "cubic,bbr", "-shares", "0.7,0.3", "-simflows", "6",
		"-seed", "7", "-out", "/dev/full"); code == 0 {
		t.Fatal("adopt exited 0 although no trajectory record could be written")
	}
}

// adopt.Config reads a zero revise probability, population or flow count
// as its default (1, 10000, 20), and its errors for a non-finite noise,
// class weight or share do not name a flag, so the command must reject
// these values itself: each must fail the run before it starts, with an
// error naming its flag.
func TestOutOfRangeFlagsFailRun(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"-revise", "0"},
		{"-revise", "NaN"},
		{"-agents", "0"},
		{"-simflows", "0"},
		{"-noise", "NaN"},
		{"-class-weights", "NaN,1"},
		{"-shares", "Inf,1"},
	} {
		t.Run(tc.flag+"="+tc.value, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "trajectory.jsonl")
			code, stderr := runArgs(t, "-capacity", "50", "-buffer", "3", "-agents", "1000",
				"-generations", "2", "-algs", "cubic,bbr", "-rtts", "20,80", "-shares", "0.9,0.1",
				"-dynamics", "bestresponse", "-simflows", "6", "-out", out, tc.flag, tc.value)
			if code == 0 {
				t.Fatalf("adopt %s %s exited 0", tc.flag, tc.value)
			}
			if want := "adopt: " + tc.flag + " "; !strings.Contains(stderr, want) {
				t.Errorf("stderr does not name %s:\n%s", tc.flag, stderr)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("the rejected run created its -out file (stat: %v)", err)
			}
		})
	}
}

// A config that adopt.Run rejects fails the run before its first record,
// so no -out file may be left behind, and the error, which already starts
// "adopt: ", is printed under the command's name once.
func TestRejectedConfigLeavesNoOutFile(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"-class-weights", "0,1"},
		{"-shares", "-1,1"},
		{"-capacity", "0"},
	} {
		t.Run(tc.flag+"="+tc.value, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "w.jsonl")
			code, stderr := runArgs(t, "-buffer", "3", "-agents", "1000", "-generations", "2",
				"-algs", "cubic,bbr", "-rtts", "20,80", "-simflows", "6", "-out", out, tc.flag, tc.value)
			if code != 1 {
				t.Errorf("adopt %s %s exited %d, want 1", tc.flag, tc.value, code)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("the rejected run left its -out file (stat: %v)", err)
			}
			if strings.Contains(stderr, "adopt: adopt:") {
				t.Errorf("stderr doubles the command name:\n%s", stderr)
			}
		})
	}
}
