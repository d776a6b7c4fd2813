package main

import (
	"flag"
	"os"
	"testing"
)

// A trajectory that cannot be written fails the run: with -out on a full
// device every record write fails, and adopt must exit non-zero instead of
// reporting success over a truncated trajectory.
func TestUnwritableTrajectoryFailsRun(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full is not available")
	}
	args, flags := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = args, flags }()
	flag.CommandLine = flag.NewFlagSet("adopt", flag.ContinueOnError)
	os.Args = []string{"adopt", "-capacity", "50", "-buffer", "3", "-agents", "200",
		"-generations", "3", "-algs", "cubic,bbr", "-shares", "0.7,0.3", "-simflows", "6",
		"-seed", "7", "-out", "/dev/full"}
	if code := run(); code == 0 {
		t.Fatal("adopt exited 0 although no trajectory record could be written")
	}
}
