#!/bin/sh
# Command-line contract of the bench binaries (bench/bench_util.hh):
#
#   - every paper-figure bench, bench_fault_resilience and
#     bench_hotpath run to exit 0 at a tiny trace budget;
#   - a journalled sweep, rerun with --resume, replays every job from
#     the journal and writes a byte-identical result JSON;
#   - an unknown argument, or a value that is malformed or out of
#     range, exits 2 before any work is done; so does a malformed or
#     out-of-range environment knob, and the message names it.
#
# Every run writes into a temporary directory that is removed at exit.
#
# Usage: scripts/bench_cli_smoke.sh /path/to/build/bench
set -u

BENCH=$(cd "${1:?usage: bench_cli_smoke.sh /path/to/build/bench}" &&
         pwd) || exit 70
WORK=$(mktemp -d) || exit 70
trap 'rm -rf "$WORK"' EXIT INT TERM
cd "$WORK" || exit 70
STATUS=0

fail() {
    echo "bench_cli: $*" >&2
    STATUS=1
}

expect() {
    # $1 = expected exit code; the command follows. Output goes to
    # run.log, which the caller may inspect.
    _want=$1
    shift
    "$@" > run.log 2>&1
    _got=$?
    if [ "$_got" -ne "$_want" ]; then
        fail "[$*] expected exit $_want, got $_got"
        tail -n 5 run.log >&2
    else
        echo "bench_cli: [$*] exit $_got ok"
    fi
}

CLAP_TRACE_INSTS=2000
export CLAP_TRACE_INSTS
for name in intro_rates fig05_predictors fig06_lb_sweep lt_sweep \
            fig07_speedup lt_update_policy fig08_selector \
            fig09_history fig10_confidence fig11_gap \
            fig12_speedup_gap ablation_pf control_based \
            profile_assist fault_resilience; do
    expect 0 "$BENCH/bench_$name"
done
expect 0 "$BENCH/bench_hotpath" --reps=1 --warmup=0 --perf-out=perf.json
[ -s perf.json ] || fail "bench_hotpath --perf-out wrote nothing"

# Resumable sweeps, at a budget that gives the journal real work.
CLAP_TRACE_INSTS=20000
expect 0 "$BENCH/bench_intro_rates" \
    --jobs=4 --journal=sweep.journal --out=sweep.json
expect 0 "$BENCH/bench_intro_rates" \
    --jobs=4 --journal=sweep.journal --resume --out=resumed.json
grep -q '^sweep: 0 executed' run.log ||
    fail "the resumed run executed jobs instead of replaying them"
cmp sweep.json resumed.json || fail "resumed JSON differs"

# Nothing the binary cannot read is ignored.
CLAP_TRACE_INSTS=2000
expect 2 "$BENCH/bench_intro_rates" --jbos=4
expect 2 "$BENCH/bench_intro_rates" --jobs=0
expect 2 "$BENCH/bench_intro_rates" --resume=yes
expect 2 "$BENCH/bench_chaos" --chaos-seed=7x
expect 2 "$BENCH/bench_net" --fault-rate=abc
expect 2 "$BENCH/bench_hotpath" --reps=0
expect 2 env CLAP_SERVE_SHARDS=4x "$BENCH/bench_chaos"
grep -q CLAP_SERVE_SHARDS run.log ||
    fail "bench_chaos did not name CLAP_SERVE_SHARDS"
expect 2 env CLAP_SERVE_SHARDS=0 "$BENCH/bench_serve"
expect 2 env CLAP_TRACE_INSTS=2e4 "$BENCH/bench_intro_rates"
grep -q CLAP_TRACE_INSTS run.log ||
    fail "bench_intro_rates did not name CLAP_TRACE_INSTS"

if [ "$STATUS" -ne 0 ]; then
    echo "bench_cli: FAILURES (see above)" >&2
    exit 1
fi
echo "bench_cli: all bench command lines behave"
