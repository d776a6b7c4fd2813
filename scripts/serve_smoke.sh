#!/usr/bin/env bash
# bbrserve chaos smoke test (see DESIGN.md §16): run a sweep through the
# service, SIGKILL the server mid-sweep (no cleanup runs, the worst case),
# restart it on the same cache+journal, and assert every resubmitted spec
# answers byte-identically to an uninterrupted reference server — including
# trace files. Also proves the advisory store lock (a second server on the
# same store fails loudly), overload shedding (429 + Retry-After from a
# saturated queue), graceful SIGTERM drain (cache, CPU profile and run
# report persisted), and the machine-readable /stats surface.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/bbrserve" ./cmd/bbrserve

# Six specs differing only in seed, derived from the example scenario.
nspecs=6
for i in $(seq 1 "$nspecs"); do
    sed "s/\"seed\": 1/\"seed\": $i/" examples/mix-3bbr-2cubic.json > "$tmp/spec-$i.json"
done

# start_server <logfile> <args...>: launches bbrserve on an ephemeral port
# and parses the printed listen address. Sets SRV_PID and SRV_ADDR.
start_server() {
    local log=$1; shift
    # Create the log first: the background shell may not have opened it yet
    # when the first sed below reads it.
    : > "$log"
    "$tmp/bbrserve" -addr 127.0.0.1:0 "$@" > "$log" 2>&1 &
    SRV_PID=$!
    pids+=("$SRV_PID")
    SRV_ADDR=""
    for _ in $(seq 1 200); do
        SRV_ADDR=$(sed -n 's|.*listening on http://\([^ ]*\).*|\1|p' "$log")
        [ -n "$SRV_ADDR" ] && return 0
        if ! kill -0 "$SRV_PID" 2>/dev/null; then
            echo "serve smoke: FAILED — server died on startup:" >&2
            cat "$log" >&2
            exit 1
        fi
        sleep 0.05
    done
    echo "serve smoke: FAILED — server never printed its listen address" >&2
    exit 1
}

journaled() {
    if [ -f "$1" ]; then wc -l < "$1"; else echo 0; fi
}

# --- Phase 1: uninterrupted reference run ------------------------------------
start_server "$tmp/ref.log" -cache "$tmp/ref-cache.json" -trace "$tmp/trace-ref"
ref_addr=$SRV_ADDR; ref_pid=$SRV_PID
for i in $(seq 1 "$nspecs"); do
    curl -sS --max-time 120 -d @"$tmp/spec-$i.json" "http://$ref_addr/run" > "$tmp/ref-$i.json"
    grep -q '"result"' "$tmp/ref-$i.json" || {
        echo "serve smoke: FAILED — reference run $i returned no result: $(cat "$tmp/ref-$i.json")" >&2
        exit 1
    }
done
curl -sS "http://$ref_addr/healthz" | grep -q ok
kill "$ref_pid" && wait "$ref_pid" 2>/dev/null || true
echo "serve smoke: reference server answered $nspecs specs"

# --- Phase 2: SIGKILL mid-sweep, restart, byte-identical recovery ------------
store=$tmp/chaos
mkdir -p "$store"
start_server "$tmp/chaos.log" -cache "$store/cache.json" -resume "$store/journal.jsonl" -trace "$tmp/trace-chaos" -workers 2
chaos_addr=$SRV_ADDR; chaos_pid=$SRV_PID
for i in $(seq 1 "$nspecs"); do
    curl -sS --max-time 10 -d @"$tmp/spec-$i.json" "http://$chaos_addr/run?wait=0" > /dev/null
done
# Kill once a couple of results are journaled but (with luck) not all; if
# the sweep wins the race, the restart simply replays everything — the
# assertions below still hold.
for _ in $(seq 1 600); do
    [ "$(journaled "$store/journal.jsonl")" -ge 2 ] && break
    kill -0 "$chaos_pid" 2>/dev/null || break
    sleep 0.02
done
kill -9 "$chaos_pid" 2>/dev/null || true
wait "$chaos_pid" 2>/dev/null || true
completed=$(journaled "$store/journal.jsonl")
echo "serve smoke: SIGKILLed server after $completed journaled result(s)"
if [ "$completed" -eq 0 ]; then
    echo "serve smoke: FAILED — nothing was journaled before the kill" >&2
    exit 1
fi

# kill -9 ran no cleanup, yet the restart must succeed (the kernel released
# the advisory lock with the process) and replay the journal.
# -cpuprofile and -report: Phase 4 checks the SIGTERM drain flushes the
# profile and writes a report that reads the pool the flights ran on.
start_server "$tmp/restart.log" -cache "$store/cache.json" -resume "$store/journal.jsonl" -trace "$tmp/trace-chaos" -workers 2 \
    -cpuprofile "$tmp/restart.prof" -report "$tmp/restart-report.json"
re_addr=$SRV_ADDR; re_pid=$SRV_PID
replayed=$(sed -n 's|.*listening on http://[^ ]* (\([0-9]*\) replayed journal entries.*|\1|p' "$tmp/restart.log")
if [ "$replayed" != "$completed" ]; then
    echo "serve smoke: FAILED — restart replayed ${replayed:-no} journal entries, want the $completed journaled before the kill:" >&2
    cat "$tmp/restart.log" >&2
    exit 1
fi
for i in $(seq 1 "$nspecs"); do
    curl -sS --max-time 120 -d @"$tmp/spec-$i.json" "http://$re_addr/run" > "$tmp/re-$i.json"
    if ! cmp -s "$tmp/ref-$i.json" "$tmp/re-$i.json"; then
        echo "serve smoke: FAILED — spec $i differs after kill/restart:" >&2
        diff "$tmp/ref-$i.json" "$tmp/re-$i.json" >&2 || true
        exit 1
    fi
done
stats=$(curl -sS "http://$re_addr/stats")
hits=$(printf '%s' "$stats" | grep -oE '"journal_hits":[0-9]+' | grep -oE '[0-9]+')
if [ "${hits:-0}" -eq 0 ]; then
    echo "serve smoke: FAILED — restarted server never hit the journal: $stats" >&2
    exit 1
fi
for field in queue_depth shed workers cache_hit_rate latency_count; do
    printf '%s' "$stats" | grep -q "\"$field\"" || {
        echo "serve smoke: FAILED — /stats missing \"$field\": $stats" >&2
        exit 1
    }
done
echo "serve smoke: $nspecs specs byte-identical across kill -9/restart ($replayed journal entries replayed, $hits journal hits)"

# Trace determinism through the crash: every reference trace file exists,
# byte-identical, in the chaos run's directory.
ref_count=$(ls "$tmp/trace-ref"/trace-* | wc -l)
chaos_count=$(ls "$tmp/trace-chaos"/trace-* | wc -l)
if [ "$ref_count" -eq 0 ] || [ "$ref_count" -ne "$chaos_count" ]; then
    echo "serve smoke: FAILED — trace counts differ (reference $ref_count, chaos $chaos_count)" >&2
    exit 1
fi
for ref in "$tmp/trace-ref"/trace-*; do
    if ! cmp -s "$ref" "$tmp/trace-chaos/$(basename "$ref")"; then
        echo "serve smoke: FAILED — trace $(basename "$ref") differs after kill/restart" >&2
        exit 1
    fi
done
echo "serve smoke: $ref_count trace files byte-identical across kill/restart"

# --- Phase 3: advisory store lock --------------------------------------------
# A second server on the live store must fail loudly, not corrupt it.
if "$tmp/bbrserve" -addr 127.0.0.1:0 -cache "$store/cache.json" > "$tmp/lock.log" 2>&1; then
    echo "serve smoke: FAILED — second server acquired a locked store" >&2
    exit 1
fi
grep -q "another process owns this store" "$tmp/lock.log" || {
    echo "serve smoke: FAILED — lock refusal not explained:" >&2
    cat "$tmp/lock.log" >&2
    exit 1
}
echo "serve smoke: second server on the same store refused loudly"

# --- Phase 4: graceful drain persists the cache ------------------------------
kill -TERM "$re_pid"
for _ in $(seq 1 200); do
    kill -0 "$re_pid" 2>/dev/null || break
    sleep 0.05
done
wait "$re_pid" 2>/dev/null || true
grep -q "drained" "$tmp/restart.log" || {
    echo "serve smoke: FAILED — SIGTERM did not drain:" >&2
    cat "$tmp/restart.log" >&2
    exit 1
}
if ! grep -q '"v":' "$store/cache.json" 2>/dev/null && ! [ -s "$store/cache.json" ]; then
    echo "serve smoke: FAILED — drain did not persist the cache" >&2
    exit 1
fi
if ! [ -s "$tmp/restart.prof" ]; then
    echo "serve smoke: FAILED — SIGTERM drain left no -cpuprofile profile" >&2
    exit 1
fi
if ! grep -q '"workers": 2,' "$tmp/restart-report.json" 2>/dev/null; then
    echo "serve smoke: FAILED — the -workers 2 server's -report does not say \"workers\": 2:" >&2
    cat "$tmp/restart-report.json" >&2 || true
    exit 1
fi
echo "serve smoke: SIGTERM drained and persisted the cache, the CPU profile and a 2-worker report"

# --- Phase 5: overload sheds with 429 ----------------------------------------
start_server "$tmp/shed.log" -workers 1 -queue 1
shed_addr=$SRV_ADDR; shed_pid=$SRV_PID
accepted=0; shed=0
for i in $(seq 101 112); do
    sed "s/\"seed\": 1/\"seed\": $i/" examples/mix-3bbr-2cubic.json > "$tmp/shed-spec.json"
    code=$(curl -sS -o /dev/null -w '%{http_code}' --max-time 10 \
        -d @"$tmp/shed-spec.json" "http://$shed_addr/run?wait=0")
    case "$code" in
    202) accepted=$((accepted + 1)) ;;
    429) shed=$((shed + 1)) ;;
    *)
        echo "serve smoke: FAILED — unexpected status $code under overload" >&2
        exit 1
        ;;
    esac
done
if [ "$shed" -eq 0 ] || [ "$accepted" -eq 0 ]; then
    echo "serve smoke: FAILED — overload outcomes accepted=$accepted shed=$shed (want both > 0)" >&2
    exit 1
fi
curl -sS "http://$shed_addr/stats" | grep -qE '"shed":[1-9]' || {
    echo "serve smoke: FAILED — /stats does not report the shedding" >&2
    exit 1
}
kill -9 "$shed_pid" 2>/dev/null || true
wait "$shed_pid" 2>/dev/null || true
echo "serve smoke: overload shed $shed of $((accepted + shed)) submissions with 429"
echo "serve smoke: all green"
