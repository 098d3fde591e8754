#!/bin/sh
# Exit-code contract of `state_tool verify` and `inspect`
# (examples/state_tool.cpp), the interface operator scripts stand on.
# Exercises the degenerate inputs a crashed snapshot writer can leave
# behind — a zero-byte file, a header-only file, a truncation
# mid-section, a file cut short by 100 bytes — plus the good-path and
# error-path codes:
#
#   0  verify/inspect succeed on an intact snapshot
#   1  usage error
#   3  input file missing/unreadable
#   4  corrupt beyond use (zero-byte, header-only strict, truncated
#      strict or inspected, and --salvage runs where nothing was
#      recoverable)
#   5  damaged but intact sections were salvaged
#
# Usage: scripts/state_tool_contract.sh /path/to/state_tool
set -u

TOOL=${1:?usage: state_tool_contract.sh /path/to/state_tool}
# Resolved before the cd below, so a relative path works too.
TOOL=$(cd "$(dirname "$TOOL")" && pwd)/$(basename "$TOOL") || exit 70
WORK=$(mktemp -d) || exit 70
trap 'rm -rf "$WORK"' EXIT INT TERM
cd "$WORK" || exit 70
STATUS=0

expect() {
    # $1 = label, $2 = expected exit code; the command follows.
    _label=$1
    _want=$2
    shift 2
    "$@" >/dev/null 2>&1
    _got=$?
    if [ "$_got" -ne "$_want" ]; then
        echo "state_tool_contract: [$_label] expected exit $_want," \
             "got $_got" >&2
        STATUS=1
    else
        echo "state_tool_contract: [$_label] exit $_got ok"
    fi
}

# The demo captures a mid-trace snapshot and proves the restore is
# bit-for-bit; it writes hybrid.state in this script's temporary
# directory, which becomes our good input.
expect "demo"            0 "$TOOL" demo hybrid
[ -s hybrid.state ] ||
    { echo "demo left no hybrid.state" >&2; exit 1; }

expect "verify good"     0 "$TOOL" verify hybrid.state
expect "inspect good"    0 "$TOOL" inspect hybrid.state

# Zero-byte file: nothing to parse, nothing to salvage.
: > empty.state
expect "verify empty"    4 "$TOOL" verify empty.state
expect "salvage empty"   4 "$TOOL" verify empty.state --salvage
expect "inspect empty"   4 "$TOOL" inspect empty.state

# Header-only file: the header parses but every section is missing —
# strict restore refuses, salvage recovers what is intact (the empty
# prefix) and says so with its distinct exit code.
head -c 32 hybrid.state > headeronly.state
expect "verify header-only"  4 "$TOOL" verify headeronly.state
expect "salvage header-only" 5 "$TOOL" verify headeronly.state --salvage

# Truncation mid-section: strict restore refuses; salvage keeps the
# sections before the tear.
SIZE=$(wc -c < hybrid.state)
head -c $((SIZE / 2)) hybrid.state > truncated.state
expect "verify truncated"    4 "$TOOL" verify truncated.state
expect "salvage truncated"   5 "$TOOL" verify truncated.state --salvage

# Cut short by 100 bytes: the tear lands in the last section, so
# inspect and strict verify refuse it; salvage keeps the sections
# before it.
head -c $((SIZE - 100)) hybrid.state > short100.state
expect "inspect short by 100" 4 "$TOOL" inspect short100.state
expect "verify short by 100"  4 "$TOOL" verify short100.state
expect "salvage short by 100" 5 "$TOOL" verify short100.state --salvage

expect "missing file"    3 "$TOOL" verify does_not_exist.state
expect "usage error"     1 "$TOOL" bogus-subcommand

if [ "$STATUS" -ne 0 ]; then
    echo "state_tool_contract: FAILURES (see above)" >&2
    exit 1
fi
echo "state_tool_contract: all exit codes honored"
