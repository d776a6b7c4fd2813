#!/usr/bin/env bash
# Full tier-1 verification recipe (see ROADMAP.md, "Tier-1 verify").
# Run from the repository root: ./scripts/verify.sh
#
# The race pass covers the concurrent fan-out, cache, invariant-audit and
# scenario-key code, and — via internal/netsim and internal/exp — the
# multi-link topology property tests and trace goldens; the exp simulations
# take ~10 minutes under the race detector, hence the explicit timeout.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l . (every Go file formatted)"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need gofmt -w:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go test ./..."
go test ./...

echo "== inlining guard (rng draws, fluid step helpers, event-queue pop, windowed filters)"
# Best-response revision, netsim's per-packet jitter and loss draws (the
# ACK jitter is a Duration draw, its divide included), the fluid step,
# Run's pop of a wheel minimum and BBR's per-ACK bandwidth filter update
# were measured with these calls inlined. A change that pushes one past
# the compiler's budget turns each draw, clamp, pop or update into a call
# and changes no output, so no test would notice. The build cache replays
# the compiler's diagnostics, so this step takes about a second.
INLINE=$(go build -gcflags=-m ./internal/rng ./internal/fluid ./internal/eventsim ./internal/cc 2>&1)
for want in 'rng Source.Next' 'rng (*Source).Uint64' 'rng (*Source).Float64' 'rng (*Source).Duration' \
	'fluid nonNeg' 'fluid below' 'fluid above' 'fluid raise' 'fluid lower' \
	'eventsim (*Loop).wheelPopHead' 'cc (*MaxFilter).Update' 'cc (*MinFilter).Update'; do
	pkg=${want%% *} fn=${want#* }
	if ! printf '%s\n' "$INLINE" | sed -n "s|^internal/$pkg/[^ ]*: can inline ||p" | grep -xF "$fn" >/dev/null; then
		echo "inlining guard: go build -gcflags=-m ./internal/$pkg no longer reports \"can inline $fn\"" >&2
		exit 1
	fi
done

echo "== event-queue differential fuzz (FuzzLoopOrder, 10 s)"
go test ./internal/eventsim -run '^$' -fuzz '^FuzzLoopOrder$' -fuzztime 10s

echo "== windowed-filter differential fuzz (FuzzWindowFilters, 10 s)"
go test ./internal/cc -run '^$' -fuzz '^FuzzWindowFilters$' -fuzztime 10s

echo "== spec JSON round-trip fuzz (FuzzSpecJSON, 10 s)"
go test ./internal/scenario -run '^$' -fuzz '^FuzzSpecJSON$' -fuzztime 10s

echo "== cache and journal store-bytes fuzz (FuzzStoreBytes, 10 s)"
go test ./internal/runner -run '^$' -fuzz '^FuzzStoreBytes$' -fuzztime 10s

echo "== bbrserve HTTP body fuzz (FuzzServeBodies, 10 s)"
# A padded input reads a megabyte per exec, so minimizing one for the
# default 60 s would spend the whole budget; 100 execs per minimization
# keep the fuzzer exploring.
go test ./internal/serve -run '^$' -fuzz '^FuzzServeBodies$' -fuzztime 10s -fuzzminimizetime 100x

echo "== NE-walk determinism smoke (nash -verify at 1 and 2 workers)"
# The walk looks up payoff rows in pairs on the pool; the equilibria and
# the simulation and cache-hit counts must not depend on the worker count.
nash_smoke() {
	go run ./cmd/nash -capacity 50 -n 8 -buffer 3 -verify -scale smoke -workers "$1" 2>/dev/null |
		grep -v -e '^verifying ' -e '^verified in '
}
NASH1=$(nash_smoke 1)
NASH2=$(nash_smoke 2)
if [ "$NASH1" != "$NASH2" ]; then
	echo "nash smoke: -workers 1 and -workers 2 differ:" >&2
	diff <(printf '%s\n' "$NASH1") <(printf '%s\n' "$NASH2") >&2 || true
	exit 1
fi
for want in 'equilibria at 5 CUBIC/3 bbr 4 CUBIC/4 bbr' '(6 simulations, 4 cache hits)'; do
	if ! printf '%s' "$NASH1" | grep -qF "$want"; then
		echo "nash smoke: output lacks \"$want\":" >&2
		printf '%s\n' "$NASH1" >&2
		exit 1
	fi
done

echo "== exhaustive-NE determinism smoke (nash -verify -scale full on fluid at 1 and 2 workers)"
# Ten exhaustive scans, each one prefetch batch of its nine distributions
# and then the enumeration's re-reads from the search's payoff table (2N
# uses, N+1 of them first uses); the output must not depend on the worker
# count, and a re-read that reached the cache again would move the hits.
nash_full() {
	go run ./cmd/nash -capacity 50 -n 8 -buffer 3 -verify -scale full -backend fluid -workers "$1" 2>/dev/null |
		grep -v -e '^verifying ' -e '^verified in '
}
FULL1=$(nash_full 1)
FULL2=$(nash_full 2)
if [ "$FULL1" != "$FULL2" ]; then
	echo "exhaustive nash smoke: -workers 1 and -workers 2 differ:" >&2
	diff <(printf '%s\n' "$FULL1") <(printf '%s\n' "$FULL2") >&2 || true
	exit 1
fi
if [ "$(printf '%s\n' "$FULL1" | grep -cxE 'trial ([1-9]|10): equilibria at 4 CUBIC/4 bbr \(9 simulations, 7 cache hits\)')" -ne 10 ]; then
	echo "exhaustive nash smoke: not all ten trials read \"equilibria at 4 CUBIC/4 bbr (9 simulations, 7 cache hits)\":" >&2
	printf '%s\n' "$FULL1" >&2
	exit 1
fi

echo "== group-NE determinism smoke (figures -fig 10 at 1 and 2 workers)"
# Fig 10's multi-RTT walks look up every payoff as a pool unit; the
# equilibria and the simulation and cache-hit counts must not depend on the
# worker count. The cache-hit count is the command's runner.Cache's, and
# each search's payoff table serves its re-reads, so it reads 0.
# fig10_smoke drops the worker count and the wall-time figures (the elapsed
# times and the speedup).
fig10_smoke() {
	go run ./cmd/figures -fig 10 -scale smoke -backend fluid -out '' -workers "$1" 2>/dev/null |
		sed -e 's/, [0-9]* workers)$/)/' -e 's/ done in [^ ]* (/ done (/' \
			-e 's/^all done in [^:]*: /all done: /' -e 's/, [0-9.]*x speedup//'
}
FIG1=$(fig10_smoke 1)
FIG2=$(fig10_smoke 2)
if [ "$FIG1" != "$FIG2" ]; then
	echo "fig 10 smoke: -workers 1 and -workers 2 differ:" >&2
	diff <(printf '%s\n' "$FIG1") <(printf '%s\n' "$FIG2") >&2 || true
	exit 1
fi
for want in 'found 3 NE profiles' '(29 sims, 0 cache hits'; do
	if ! printf '%s' "$FIG1" | grep -qF "$want"; then
		echo "fig 10 smoke: output lacks \"$want\":" >&2
		printf '%s\n' "$FIG1" >&2
		exit 1
	fi
done

echo "== go -C bench test ./... (benchmark harness, incl. the smoke run checked against bench/golden.json)"
go -C bench test ./...

echo "== go test -race (runner, exp, check, scenario, netsim, telemetry, fluid, serve, game, adopt)"
go test -race -timeout 1800s \
	./internal/runner ./internal/exp ./internal/check ./internal/scenario ./internal/netsim \
	./internal/telemetry ./internal/fluid ./internal/serve ./internal/game ./internal/adopt

echo "== concurrent best-response revision, repeated under the race detector"
go test -race -count=10 -run '^TestRunTwoClassRevisionPinned$' ./internal/adopt

echo "== engine benchmark smoke + allocation guards (packet engine, fluid step)"
go test ./internal/netsim -run TestSteadyStateZeroAllocs \
	-bench 'BenchmarkEngine|BenchmarkTopology' -benchtime 1x -count=1
go test ./internal/fluid -run TestRunZeroAllocs -count=1

echo "== topology example smoke (multi-bottleneck specs under -strict audit)"
for ex in examples/parkinglot-3link.json examples/access-core.json; do
	go run ./cmd/bbrsim -scenario "$ex" -strict >/dev/null
done

echo "== fluid crossval smoke (divergence report schema)"
REPORT=$(go run ./cmd/crossval -buffers 2,6 -mixes 1:1 -duration 2s 2>/dev/null)
for field in schema_version key_version buffer_bdp regime rel_err_bbr rel_err_cubic \
	diverged points max_rel_err mean_rel_err worst_point; do
	if ! printf '%s' "$REPORT" | grep -q "\"$field\""; then
		echo "crossval smoke: report is missing field \"$field\"" >&2
		exit 1
	fi
done

echo "== adoption-dynamics smoke (tiny population, 3 generations, trajectory schema, CPU profile)"
SMOKE_TMP=$(mktemp -d)
trap 'rm -rf "$SMOKE_TMP"' EXIT
ADOPT_PROF="$SMOKE_TMP/cpu.prof"
TRAJ=$(go run ./cmd/adopt -capacity 50 -buffer 3 -agents 200 -generations 3 \
	-algs cubic,bbr -shares 0.7,0.3 -simflows 6 -seed 7 -cpuprofile "$ADOPT_PROF" 2>/dev/null)
if ! [ -s "$ADOPT_PROF" ]; then
	echo "adopt smoke: -cpuprofile wrote no profile" >&2
	exit 1
fi
if [ "$(printf '%s\n' "$TRAJ" | wc -l)" -ne 4 ]; then
	echo "adopt smoke: expected 4 trajectory records, got:" >&2
	printf '%s\n' "$TRAJ" >&2
	exit 1
fi
for field in generation classes rtt_ms counts shares sim_counts payoffs_mbps \
	mean_payoff_mbps fixed_point; do
	if ! printf '%s' "$TRAJ" | grep -q "\"$field\""; then
		echo "adopt smoke: trajectory is missing field \"$field\"" >&2
		exit 1
	fi
done

echo "== adopt determinism smoke (best response, two RTT classes, at 1 and 2 workers)"
# Revisits come from the run's payoff table and the two classes revise
# concurrently; the trajectory and the simulation and cache-hit counts must
# not depend on the worker count.
for w in 1 2; do
	go run ./cmd/adopt -capacity 100 -buffer 5 -rtts 20,80 -agents 2000 -generations 12 \
		-dynamics bestresponse -noise 0.02 -simflows 6 -seed 3 -workers "$w" \
		>"$SMOKE_TMP/traj$w" 2>"$SMOKE_TMP/err$w"
	if ! head -n 1 "$SMOKE_TMP/err$w" | grep -q ' (20 simulations, 146 cache hits)$'; then
		echo "adopt determinism smoke: -workers $w summary does not end (20 simulations, 146 cache hits):" >&2
		cat "$SMOKE_TMP/err$w" >&2
		exit 1
	fi
done
if [ "$(wc -l <"$SMOKE_TMP/traj1")" -ne 13 ] || ! cmp -s "$SMOKE_TMP/traj1" "$SMOKE_TMP/traj2"; then
	echo "adopt determinism smoke: the trajectories at -workers 1 and 2 differ or lack 13 records" >&2
	diff "$SMOKE_TMP/traj1" "$SMOKE_TMP/traj2" >&2 || true
	exit 1
fi

echo "== bbrsim replicate smoke (four packet replicates at 1 and 2 workers, then cold and warm -cache)"
# Replicate seeds are derived before any run starts, so the tables must not
# depend on the worker count, and a warm cache must replay all four runs.
# The packet backend, because a fluid run gives the same value at every
# seed and so could not show a seed-order bug.
bbrsim_smoke() {
	go run ./cmd/bbrsim -flows bbr:2,cubic:2 -buffer 5 -duration 10s -runs 4 -strict "$@" 2>/dev/null
}
# bbrsim_tables drops what differs between equal runs: the worker count
# and the wall-time line.
bbrsim_tables() {
	sed -e 's/ ([0-9]* workers)$//' -e '/^(.* wall time, .*)$/d'
}
SIM1=$(bbrsim_smoke -workers 1)
SIM2=$(bbrsim_smoke -workers 2)
if [ "$(printf '%s\n' "$SIM1" | bbrsim_tables)" != "$(printf '%s\n' "$SIM2" | bbrsim_tables)" ]; then
	echo "bbrsim smoke: -workers 1 and -workers 2 differ:" >&2
	diff <(printf '%s\n' "$SIM1") <(printf '%s\n' "$SIM2") >&2 || true
	exit 1
fi
COLD=$(bbrsim_smoke -cache "$SMOKE_TMP/bbrsim-cache.json")
WARM=$(bbrsim_smoke -cache "$SMOKE_TMP/bbrsim-cache.json")
if [ "$(printf '%s\n' "$COLD" | bbrsim_tables)" != "$(printf '%s\n' "$WARM" | bbrsim_tables)" ]; then
	echo "bbrsim smoke: the warm -cache run prints other tables than the cold one:" >&2
	diff <(printf '%s\n' "$COLD") <(printf '%s\n' "$WARM") >&2 || true
	exit 1
fi
if ! printf '%s\n' "$WARM" | tail -n 1 | grep -q '4 cache hits)$'; then
	echo "bbrsim smoke: the warm -cache run's last line does not end \"4 cache hits)\":" >&2
	printf '%s\n' "$WARM" >&2
	exit 1
fi

echo "== example outputs (each Go example's stdout against examples/testdata/<name>.golden)"
# The examples print simulated results through the public facade, so a
# change to an engine, to a facade call they make or to the specs they
# build shows up here as a diff. Built once, the four take about 7 s on a
# 2-vCPU host. Re-record a golden only for a deliberate output change:
#   go run ./examples/<name> >examples/testdata/<name>.golden
for ex in quickstart buffer-sizing cdn-bottleneck nash-equilibrium; do
	go run "./examples/$ex" >"$SMOKE_TMP/$ex.out"
	if ! cmp -s "$SMOKE_TMP/$ex.out" "examples/testdata/$ex.golden"; then
		echo "examples: ./examples/$ex no longer prints examples/testdata/$ex.golden:" >&2
		diff "examples/testdata/$ex.golden" "$SMOKE_TMP/$ex.out" >&2 || true
		exit 1
	fi
done

echo "== journal-replay smoke test (kill a sweep mid-flight, resume, diff)"
./scripts/resume_smoke.sh

echo "== bbrserve chaos smoke test (kill -9 the service mid-sweep, restart, diff)"
./scripts/serve_smoke.sh

echo "verify: all green"
