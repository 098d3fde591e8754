#!/usr/bin/env bash
# The operator path end to end: two clapd replicas and one clapr front
# door speaking the same wire protocol, probed with the unmodified
# clapd probe client. After one replica is SIGKILLed the gateway must
# still answer the probe, and then everything shuts down cleanly.
#
# Usage: scripts/clapr_failover_smoke.sh BUILD_DIR
set -euo pipefail

BUILD=${1:?usage: clapr_failover_smoke.sh BUILD_DIR}
WORK=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$WORK"' EXIT

# start NAME CMD...: run CMD in the background and block until its
# --ready-fd byte lands in NAME.ready. A daemon writes that byte only
# once it is serving (clapr after its first health pass).
start() {
    local name=$1
    shift
    "$@" --ready-fd=3 3>"$name.ready" &
    for _ in $(seq 1 200); do
        [ -s "$name.ready" ] && return 0
        sleep 0.05
    done
    echo "clapr_failover_smoke: $name never became ready" >&2
    return 1
}

probe() {
    local name=$1
    shift
    "$BUILD/examples/clapd" --probe="unix:$WORK/$name.sock" "$@"
}

start "$WORK/r0" "$BUILD/examples/clapd" \
    --endpoint="unix:$WORK/r0.sock" --shards=2
r0=$!
start "$WORK/r1" "$BUILD/examples/clapd" \
    --endpoint="unix:$WORK/r1.sock" --shards=2
r1=$!
start "$WORK/gw" "$BUILD/examples/clapr" \
    --replica="unix:$WORK/r0.sock" --replica="unix:$WORK/r1.sock" \
    --endpoint="unix:$WORK/gw.sock" --shards=2 --health-interval-ms=100
gw=$!

probe gw
kill -9 "$r1"
probe gw
probe gw --shutdown
wait "$gw"
probe r0 --shutdown
wait "$r0"
echo "clapr_failover_smoke: ok"
