#!/usr/bin/env bash
# Builds bbrbench and the program under test (cmd/bbrserve) from source into
# .bench_build/ at the repository root, then runs bbrbench with the given
# arguments. Everything the build and the run write stays under
# .bench_build/, including the Go build cache.
#
#   bash bench/run.sh -workload all -seed 1
#   bash bench/run.sh --workload adopt_fluid --seed 7 --seconds 15 --trace 1
#
# Without the rest of the repository next to bench/, the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters (and its env
# file) under the build directory too, and GOTMPDIR/TMPDIR its work files.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C "$root/bench" build -o "$build/bbrbench" ./cmd/bbrbench
go -C "$root/bench" build -o "$build/bbrserve" bbrnash/cmd/bbrserve
exec "$build/bbrbench" -bbrserve "$build/bbrserve" -workdir "$build/tmp" "$@"
