// Command bbrbench is the repository's end-to-end benchmark. Run it through
// bench/run.sh from the repository root, which builds it and bbrserve:
//
//	bash bench/run.sh -workload all -seed 1
//	bash bench/run.sh -workload serve_mixed -seed 7 -trace 1 -spans spans.json
//	bash bench/run.sh -compare a.json b.json
//
// See bench/README.md for the workloads and metrics.
package main

import (
	"os"

	"bbrnash/bench"
)

func main() {
	os.Exit(bench.Main(os.Args[1:]))
}
