#!/usr/bin/env bash
# Distributed tracing and live scrape across the replicated service.
# Two same-seed fleets (clapr in front of two clapd replicas) each
# take one traced load that crosses obs_tool -> clapr -> clapd ->
# shard. The script then requires:
#   - the gateway's scrape to carry the fleet watchdog's view;
#   - byte-identical --stable scrapes of each replica across fleets;
#   - a merged span file holding a trace that spans >= 3 processes
#     with valid parent/child nesting.
#
# Usage: scripts/fleet_trace_smoke.sh BUILD_DIR
set -euo pipefail

BUILD=${1:?usage: fleet_trace_smoke.sh BUILD_DIR}
WORK=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$WORK"' EXIT

# start NAME CMD...: run CMD in the background, recording spans to
# NAME.trace.json, and block until its --ready-fd byte lands in
# NAME.ready. A daemon writes that byte only once it is serving (clapr
# after its first health pass has joined the replicas).
start() {
    local name=$1
    shift
    CLAP_TRACE_EVENTS=$name.trace.json "$@" --ready-fd=3 3>"$name.ready" &
    for _ in $(seq 1 200); do
        [ -s "$name.ready" ] && return 0
        sleep 0.05
    done
    echo "fleet_trace_smoke: $name never became ready" >&2
    return 1
}

run_fleet() {
    local dir=$WORK/$1
    mkdir -p "$dir"
    start "$dir/d1" "$BUILD/examples/clapd" \
        --endpoint="unix:$dir/d1.sock" --shards=2 --quiet
    local d1=$!
    start "$dir/d2" "$BUILD/examples/clapd" \
        --endpoint="unix:$dir/d2.sock" --shards=2 --quiet
    local d2=$!
    start "$dir/r" "$BUILD/examples/clapr" --endpoint="unix:$dir/r.sock" \
        --replica="unix:$dir/d1.sock" --replica="unix:$dir/d2.sock" \
        --shards=2 --health-interval-ms=100000 --quiet
    local r=$!

    CLAP_TRACE_EVENTS=$dir/load.trace.json \
        "$BUILD/examples/obs_tool" load "unix:$dir/r.sock" \
        --loads=64 --seed=7 --sample-every=8
    "$BUILD/examples/obs_tool" scrape "unix:$dir/r.sock" \
        > "$dir/r.scrape.json"
    "$BUILD/examples/obs_tool" scrape "unix:$dir/d1.sock" --stable \
        > "$dir/d1.stable.json"
    "$BUILD/examples/obs_tool" scrape "unix:$dir/d2.sock" --stable \
        > "$dir/d2.stable.json"

    # SIGTERM drains each process and flushes its span file; the
    # gateway goes first so it never sees its replicas vanish.
    kill -TERM "$r"
    wait "$r"
    kill -TERM "$d1" "$d2"
    wait "$d1" "$d2"
}

run_fleet a
run_fleet b

# The gateway scrape carries the fleet watchdog's view.
grep -q '"fleet"' "$WORK/a/r.scrape.json"
# Same seed, two fleets: stable scrapes must byte-compare.
cmp "$WORK/a/d1.stable.json" "$WORK/b/d1.stable.json"
cmp "$WORK/a/d2.stable.json" "$WORK/b/d2.stable.json"
# Merge the four span files onto one clock and require a predict
# trace spanning at least three processes.
"$BUILD/examples/obs_tool" merge "$WORK/a/merged.json" \
    "$WORK/a/load.trace.json" "$WORK/a/r.trace.json" \
    "$WORK/a/d1.trace.json" "$WORK/a/d2.trace.json"
"$BUILD/examples/obs_tool" check-spans "$WORK/a/merged.json" \
    --min-trace-procs=3
echo "fleet_trace_smoke: ok"
