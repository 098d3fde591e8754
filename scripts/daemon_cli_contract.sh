#!/bin/sh
# Command-line contract of the clapd and clapr daemons: every number
# flag goes through one checked parser, so a malformed or out-of-range
# value exits 2 and names the argument before anything is bound, the
# same way an unknown flag does. So does a config the value parses
# into but validation refuses (a shard count that is not a power of
# two).
#
# Every case passes valid endpoints under a scratch directory, so a
# daemon that wrongly accepts its arguments starts serving instead of
# exiting; `timeout` turns that into a failed case, not a hung test.
#
# Usage: scripts/daemon_cli_contract.sh /path/to/clapd /path/to/clapr
set -u

CLAPD=${1:?usage: daemon_cli_contract.sh CLAPD CLAPR}
CLAPR=${2:?usage: daemon_cli_contract.sh CLAPD CLAPR}
WORK=$(mktemp -d) || exit 70
trap 'rm -rf "$WORK"' EXIT INT TERM
STATUS=0

# refused NAME WANT ARG [DAEMON_ARGS...]: run the daemon with ARG plus
# its valid base arguments; require exit 2 and WANT on stderr.
refused() {
    _name=$1
    _want=$2
    _arg=$3
    shift 3
    timeout 10 "$@" "$_arg" > /dev/null 2> "$WORK/stderr"
    _got=$?
    if [ "$_got" -ne 2 ]; then
        echo "daemon_cli_contract: [$_name $_arg] expected exit 2," \
             "got $_got" >&2
        STATUS=1
    elif ! grep -qF -- "$_want" "$WORK/stderr"; then
        echo "daemon_cli_contract: [$_name $_arg] stderr does not" \
             "say \"$_want\":" >&2
        cat "$WORK/stderr" >&2
        STATUS=1
    else
        echo "daemon_cli_contract: [$_name $_arg] exit 2 ok"
    fi
}

clapd_bad() {
    refused clapd "bad value in '$1'" "$1" \
        "$CLAPD" --endpoint="unix:$WORK/d.sock" --quiet
}
clapr_bad() {
    refused clapr "bad value in '$1'" "$1" \
        "$CLAPR" --endpoint="unix:$WORK/r.sock" \
        --replica="unix:$WORK/d.sock" --quiet
}

clapd_bad --write-deadline-ms=2s
clapd_bad --write-deadline-ms=-1
clapd_bad --read-deadline-ms=0
clapd_bad --shards=4x
clapd_bad --shards=
clapd_bad --max-connections=0
clapd_bad --max-connections=4294967296
clapd_bad --ready-fd=x
# Parses, but the service refuses it.
refused clapd "shards must be a power of two" --shards=3 \
    "$CLAPD" --endpoint="unix:$WORK/d.sock" --quiet
# Flags that no longer exist.
for flag in --queue-capacity=8 --max-batch=1 --deterministic \
            --max-inflight=256 --shed-fraction=0.5 \
            --reject-fraction=0.9 --supervise "--snapshot-dir=$WORK" \
            --snapshot-interval-ms=100 --journal-capacity=65536; do
    refused clapd "unknown flag '$flag'" "$flag" \
        "$CLAPD" --endpoint="unix:$WORK/d.sock" --quiet
done

clapr_bad --write-deadline-ms=2s
clapr_bad --read-deadline-ms=-5
clapr_bad --shards=4x
clapr_bad --max-connections=-1
clapr_bad --balance-seed=7x
clapr_bad --strikes=-1
clapr_bad --health-interval-ms=1s
clapr_bad --journal-capacity=lots
clapr_bad --ready-fd=-1
# Replica lists the gateway could never serve: a spec that is no
# endpoint, and one replica listed twice (it would be trained twice).
refused clapr "bad replica 'foo'" --replica=foo \
    "$CLAPR" --endpoint="unix:$WORK/r.sock" --quiet
refused clapr "is listed twice" --replica="unix:$WORK/d.sock" \
    "$CLAPR" --endpoint="unix:$WORK/r.sock" \
    --replica="unix:$WORK/d.sock" --quiet
# Flags that no longer exist.
refused clapr "unknown flag '--max-inflight=256'" --max-inflight=256 \
    "$CLAPR" --endpoint="unix:$WORK/r.sock" \
    --replica="unix:$WORK/d.sock" --quiet

if [ "$STATUS" -ne 0 ]; then
    echo "daemon_cli_contract: FAILED" >&2
    exit 1
fi
echo "daemon_cli_contract: ok"
