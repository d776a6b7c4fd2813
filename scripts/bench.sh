#!/usr/bin/env bash
# Reproducible benchmarks (see DESIGN.md §13 and §14).
#
# Two suites, selected with -s:
#
#   engine (default): BenchmarkEngine — the frozen five-scenario suite in
#   internal/netsim/engine_bench_test.go, where each op advances a warmed
#   simulation by one simulated second; deep50 and ne2bdp are the NE
#   search's 50-flow payoff shape. The record carries per scenario the
#   best-of-count wall time per simulated second, live events per simulated
#   second, ns/event, events/sec of wall time and allocs/event.
#
#   backends: BenchmarkBackendScenario — the packet engine and the fluid
#   fast path each running the same complete scenarios
#   (internal/exp/backend_bench_test.go). The record carries per scenario
#   each backend's ns per scenario and scenarios per second, plus the
#   packet/fluid speedup.
#
#   topology: BenchmarkTopology — the same flows over a single bottleneck
#   and over the 3-link parking-lot chain whose middle link is that
#   bottleneck (internal/netsim/topology_bench_test.go). Same per-scenario
#   fields as the engine suite, plus the chain/single ns-per-event ratio —
#   the per-hop cost of multi-link forwarding.
#
# Both records carry the git SHA, go version and benchmark settings.
#
# Usage:
#   ./scripts/bench.sh                  # engine record to stdout
#   ./scripts/bench.sh -s backends -o BENCH_0007.json -l fluid-fast-path
#                                       # append the record to a JSON array
#   BENCH_TIME=60x BENCH_COUNT=1 ./scripts/bench.sh   # quicker, noisier
#
# The -o file holds a JSON array of records; successive runs append, so a
# baseline measured on one commit and a candidate measured on another live
# in the same file and any consumer can compute ratios.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=""
LABEL="current"
SUITE="engine"
while getopts "o:l:s:" opt; do
	case "$opt" in
	o) OUT=$OPTARG ;;
	l) LABEL=$OPTARG ;;
	s) SUITE=$OPTARG ;;
	*) echo "usage: $0 [-s engine|backends|topology] [-o out.json] [-l label]" >&2; exit 2 ;;
	esac
done

case "$SUITE" in
engine)   BENCH_TIME=${BENCH_TIME:-600x} ;;
backends) BENCH_TIME=${BENCH_TIME:-2x} ;;
topology) BENCH_TIME=${BENCH_TIME:-600x} ;;
*) echo "bench.sh: unknown suite '$SUITE' (want engine, backends or topology)" >&2; exit 2 ;;
esac
BENCH_COUNT=${BENCH_COUNT:-3}
SHA=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
DIRTY=false
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then DIRTY=true; fi
GOVER=$(go env GOVERSION)
DATE=$(date -u +%Y-%m-%dT%H:%M:%SZ)

if [ "$SUITE" = backends ]; then
	RAW=$(go test ./internal/exp -run '^$' -bench BenchmarkBackendScenario \
		-benchtime "$BENCH_TIME" -benchmem -count "$BENCH_COUNT")

	RECORD=$(printf '%s\n' "$RAW" | awk \
		-v label="$LABEL" -v sha="$SHA" -v dirty="$DIRTY" -v gover="$GOVER" \
		-v date="$DATE" -v benchtime="$BENCH_TIME" -v count="$BENCH_COUNT" '
	/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
	/^BenchmarkBackendScenario\// {
		name = $1
		sub(/^BenchmarkBackendScenario\//, "", name)
		sub(/-[0-9]+$/, "", name)
		split(name, parts, "/")
		scen = parts[1]; bk = parts[2]
		ns = $3
		key = scen SUBSEP bk
		if (!(key in best) || ns < best[key]) best[key] = ns
		if (!(scen in seen)) { order[++n] = scen; seen[scen] = 1 }
	}
	END {
		printf "  {\n"
		printf "    \"label\": \"%s\",\n", label
		printf "    \"suite\": \"backends\",\n"
		printf "    \"git_sha\": \"%s\",\n", sha
		printf "    \"dirty\": %s,\n", dirty
		printf "    \"date\": \"%s\",\n", date
		printf "    \"go\": \"%s\",\n", gover
		printf "    \"cpu\": \"%s\",\n", cpu
		printf "    \"benchtime\": \"%s\",\n", benchtime
		printf "    \"count\": %s,\n", count
		printf "    \"scenarios\": [\n"
		maxsp = 0
		for (i = 1; i <= n; i++) {
			scen = order[i]
			pns = best[scen SUBSEP "packet"]; fns = best[scen SUBSEP "fluid"]
			sp = (fns > 0 ? pns / fns : 0)
			if (sp > maxsp) maxsp = sp
			printf "      {\n"
			printf "        \"scenario\": \"%s\",\n", scen
			printf "        \"packet_ns_per_scenario\": %.0f,\n", pns
			printf "        \"fluid_ns_per_scenario\": %.0f,\n", fns
			printf "        \"packet_scenarios_per_second\": %.2f,\n", 1e9 / pns
			printf "        \"fluid_scenarios_per_second\": %.2f,\n", 1e9 / fns
			printf "        \"speedup\": %.1f\n", sp
			printf "      }%s\n", (i < n ? "," : "")
		}
		printf "    ],\n"
		printf "    \"max_speedup\": %.1f\n", maxsp
		printf "  }"
	}')

	if [ -z "$OUT" ]; then
		printf '%s\n' "$RECORD"
		exit 0
	fi
	if [ ! -s "$OUT" ]; then
		printf '[\n%s\n]\n' "$RECORD" >"$OUT"
	else
		tmp=$(mktemp)
		sed '$d' "$OUT" >"$tmp"
		{ cat "$tmp"; printf ',\n%s\n]\n' "$RECORD"; } >"$OUT.new"
		mv "$OUT.new" "$OUT"
		rm -f "$tmp"
	fi
	echo "appended $LABEL backends record to $OUT" >&2
	exit 0
fi

if [ "$SUITE" = topology ]; then
	RAW=$(go test ./internal/netsim -run '^$' -bench BenchmarkTopology \
		-benchtime "$BENCH_TIME" -benchmem -count "$BENCH_COUNT")

	RECORD=$(printf '%s\n' "$RAW" | awk \
		-v label="$LABEL" -v sha="$SHA" -v dirty="$DIRTY" -v gover="$GOVER" \
		-v date="$DATE" -v benchtime="$BENCH_TIME" -v count="$BENCH_COUNT" '
	/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
	/^BenchmarkTopology\// {
		name = $1
		sub(/^BenchmarkTopology\//, "", name)
		sub(/-[0-9]+$/, "", name)
		ns = $3; ev = $5; bytes = $7; allocs = $9
		if (!(name in best) || ns < best[name]) {
			best[name] = ns; events[name] = ev
			bop[name] = bytes; aop[name] = allocs
			if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
		}
	}
	END {
		printf "  {\n"
		printf "    \"label\": \"%s\",\n", label
		printf "    \"suite\": \"topology\",\n"
		printf "    \"git_sha\": \"%s\",\n", sha
		printf "    \"dirty\": %s,\n", dirty
		printf "    \"date\": \"%s\",\n", date
		printf "    \"go\": \"%s\",\n", gover
		printf "    \"cpu\": \"%s\",\n", cpu
		printf "    \"benchtime\": \"%s\",\n", benchtime
		printf "    \"count\": %s,\n", count
		printf "    \"scenarios\": [\n"
		for (i = 1; i <= n; i++) {
			name = order[i]
			ns = best[name]; ev = events[name]
			printf "      {\n"
			printf "        \"scenario\": \"%s\",\n", name
			printf "        \"ns_per_sim_second\": %d,\n", ns
			printf "        \"events_per_sim_second\": %d,\n", ev
			printf "        \"ns_per_event\": %.2f,\n", ns / ev
			printf "        \"events_per_wall_second\": %d,\n", ev * 1e9 / ns
			printf "        \"allocs_per_event\": %.4f,\n", aop[name] / ev
			printf "        \"bytes_per_op\": %s\n", bop[name]
			printf "      }%s\n", (i < n ? "," : "")
		}
		printf "    ],\n"
		s = best["single"] / events["single"]
		c = best["chain3"] / events["chain3"]
		printf "    \"chain_ns_per_event_over_single\": %.2f\n", (s > 0 ? c / s : 0)
		printf "  }"
	}')

	if [ -z "$OUT" ]; then
		printf '%s\n' "$RECORD"
		exit 0
	fi
	if [ ! -s "$OUT" ]; then
		printf '[\n%s\n]\n' "$RECORD" >"$OUT"
	else
		tmp=$(mktemp)
		sed '$d' "$OUT" >"$tmp"
		{ cat "$tmp"; printf ',\n%s\n]\n' "$RECORD"; } >"$OUT.new"
		mv "$OUT.new" "$OUT"
		rm -f "$tmp"
	fi
	echo "appended $LABEL topology record to $OUT" >&2
	exit 0
fi

RAW=$(go test ./internal/netsim -run '^$' -bench BenchmarkEngine \
	-benchtime "$BENCH_TIME" -benchmem -count "$BENCH_COUNT")

RECORD=$(printf '%s\n' "$RAW" | awk \
	-v label="$LABEL" -v sha="$SHA" -v dirty="$DIRTY" -v gover="$GOVER" \
	-v date="$DATE" -v benchtime="$BENCH_TIME" -v count="$BENCH_COUNT" '
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^BenchmarkEngine\// {
	name = $1
	sub(/^BenchmarkEngine\//, "", name)
	sub(/-[0-9]+$/, "", name)
	ns = $3; ev = $5; bytes = $7; allocs = $9
	if (!(name in best) || ns < best[name]) {
		best[name] = ns; events[name] = ev
		bop[name] = bytes; aop[name] = allocs
		if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
	}
}
END {
	printf "  {\n"
	printf "    \"label\": \"%s\",\n", label
	printf "    \"git_sha\": \"%s\",\n", sha
	printf "    \"dirty\": %s,\n", dirty
	printf "    \"date\": \"%s\",\n", date
	printf "    \"go\": \"%s\",\n", gover
	printf "    \"cpu\": \"%s\",\n", cpu
	printf "    \"benchtime\": \"%s\",\n", benchtime
	printf "    \"count\": %s,\n", count
	printf "    \"scenarios\": [\n"
	tns = 0; tev = 0
	for (i = 1; i <= n; i++) {
		name = order[i]
		ns = best[name]; ev = events[name]
		tns += ns; tev += ev
		printf "      {\n"
		printf "        \"scenario\": \"%s\",\n", name
		printf "        \"ns_per_sim_second\": %d,\n", ns
		printf "        \"events_per_sim_second\": %d,\n", ev
		printf "        \"ns_per_event\": %.2f,\n", ns / ev
		printf "        \"events_per_wall_second\": %d,\n", ev * 1e9 / ns
		printf "        \"allocs_per_event\": %.4f,\n", aop[name] / ev
		printf "        \"bytes_per_op\": %s\n", bop[name]
		printf "      }%s\n", (i < n ? "," : "")
	}
	printf "    ],\n"
	printf "    \"suite_events_per_wall_second\": %d\n", tev * 1e9 / tns
	printf "  }"
}')

if [ -z "$OUT" ]; then
	printf '%s\n' "$RECORD"
	exit 0
fi

if [ ! -s "$OUT" ]; then
	printf '[\n%s\n]\n' "$RECORD" >"$OUT"
else
	# Append to the existing JSON array: drop the closing bracket line,
	# join with a comma, re-terminate.
	tmp=$(mktemp)
	sed '$d' "$OUT" >"$tmp"
	{ cat "$tmp"; printf ',\n%s\n]\n' "$RECORD"; } >"$OUT.new"
	mv "$OUT.new" "$OUT"
	rm -f "$tmp"
fi
echo "appended $LABEL record to $OUT" >&2
