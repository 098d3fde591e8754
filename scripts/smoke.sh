#!/bin/sh
# The behaviour-contract smoke checks, one per ctest (smoke_CHECK):
#
#   serve    bench_serve's cross-check (every cell's service stats
#            equal the sharded PredictorSim reference, else exit 3),
#            with span recording on; the span file must be non-empty
#            and schema-valid trace-event JSON.
#   chaos    bench_chaos twice at once from one working directory,
#            then the two same-seed JSON files must be byte-identical.
#   net      bench_net's 4 clients under injected wire faults (exit 3
#            on any wrong reply), then bench_netchaos twice untraced
#            and once traced: all three JSON files byte-identical.
#   replica  bench_replica twice, byte-identical JSON.
#   obs      obs_tool stats with metrics on and off, byte-identical,
#            and the rendered telemetry tables for hybrid and cap.
#
# Every bench runs at CLAP_TRACE_INSTS=20000 and writes into a
# temporary directory that is removed at exit, so the checks may run
# in parallel (ctest -j). Any failing step fails the check.
#
# Usage: scripts/smoke.sh BUILD_DIR serve|chaos|net|replica|obs
set -eu

BUILD=$(cd "${1:?usage: smoke.sh BUILD_DIR CHECK}" && pwd)
CHECK=${2:?usage: smoke.sh BUILD_DIR CHECK}
BENCH=$BUILD/bench
OBS_TOOL=$BUILD/examples/obs_tool
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM
cd "$WORK"

CLAP_TRACE_INSTS=20000
export CLAP_TRACE_INSTS

case $CHECK in
serve)
    CLAP_SERVE_SHARDS=4 CLAP_TRACE_EVENTS=serve.trace.json \
        "$BENCH/bench_serve" --out=serve.json
    test -s serve.trace.json
    "$OBS_TOOL" check-spans serve.trace.json
    ;;
chaos)
    # Each run keeps its snapshots in its own directory, so two runs
    # sharing this one must neither fail nor differ.
    CLAP_SERVE_SHARDS=2 "$BENCH/bench_chaos" --out=chaos_1.json \
        > chaos_1.log 2>&1 &
    first=$!
    CLAP_SERVE_SHARDS=2 "$BENCH/bench_chaos" --out=chaos_2.json \
        > chaos_2.log 2>&1 &
    second=$!
    status=0
    wait "$first" || status=$?
    wait "$second" || status=$?
    cat chaos_1.log chaos_2.log
    if [ "$status" -ne 0 ]; then
        echo "smoke_chaos: a bench_chaos run exited $status" >&2
        exit 1
    fi
    cmp chaos_1.json chaos_2.json
    ;;
net)
    "$BENCH/bench_net" --fault-rate=0.01 --out=net.json
    "$BENCH/bench_netchaos" --out=netchaos_1.json
    "$BENCH/bench_netchaos" --out=netchaos_2.json
    # Trace propagation must not change untraced traffic.
    CLAP_TRACE_EVENTS=netchaos.trace.json \
        "$BENCH/bench_netchaos" --out=netchaos_traced.json
    cmp netchaos_1.json netchaos_2.json
    cmp netchaos_1.json netchaos_traced.json
    ;;
replica)
    "$BENCH/bench_replica" --out=replica_1.json
    "$BENCH/bench_replica" --out=replica_2.json
    cmp replica_1.json replica_2.json
    ;;
obs)
    # Instrumentation must be invisible to results.
    CLAP_METRICS=1 "$OBS_TOOL" stats INT_go --insts=20000 --json \
        > obs_on.json
    CLAP_METRICS=0 "$OBS_TOOL" stats INT_go --insts=20000 --json \
        > obs_off.json
    cmp obs_on.json obs_off.json
    "$OBS_TOOL" stats INT_go --insts=20000
    "$OBS_TOOL" stats INT_go --insts=20000 --predictor=cap
    ;;
*)
    echo "smoke: unknown check '$CHECK'" >&2
    exit 2
    ;;
esac
echo "smoke_$CHECK: ok"
