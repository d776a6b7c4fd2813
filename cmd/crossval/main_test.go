package main

import (
	"flag"
	"os"
	"testing"
)

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
