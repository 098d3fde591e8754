#!/usr/bin/env python3
"""Compare bench_ladder results of a parent and a change commit.

Usage:
  python3 bench/ladder/compare.py PARENT.jsonl CHANGE.jsonl
  python3 bench/ladder/compare.py --self-test
  bench_ladder --list-metrics | python3 bench/ladder/compare.py --check-list

The two files hold the lines `run.py --jsonl` appends, from at least ten
pairs of runs that alternate which commit runs first. A parent line and
a change line pair up when they share workload, seed and trace mode.
For every workload and metric the report gives each side's median and
quartiles, the share of pairs the change wins, and a verdict:

  improved    the change wins at least 9 in 10 pairs (ties count for
              neither side) and the medians differ by more than the
              parent's own spread (its interquartile range)
  regressed   the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json (per-layer
              metrics have no bound: they regress by the mirror of the
              improved rule)
  unresolved  the parent's spread is wider than the bound, and not
              every change run beats every parent run; or the change
              failed more operations than the parent, which voids a gain
  unchanged   anything else
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_definitions(path=BENCHMARK):
    """name -> (better, bound or None) for every metric in the file."""
    spec = json.loads(Path(path).read_text())
    defs = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    defs.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    return defs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(pairs, better, bound, more_failures=False):
    """Verdict on (parent, change) value pairs; see the module doc."""
    sign = 1.0 if better == "higher" else -1.0
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    p_q1, _, p_q3 = quartiles(parent)
    spread = p_q3 - p_q1
    gain = sign * (c_med - p_med)
    all_better = (min(change) > max(parent) if sign > 0
                  else max(change) < min(parent))

    if wins >= 0.9 * len(pairs) and gain > spread:
        return "unresolved" if more_failures else "improved"
    if bound is None:
        if losses >= 0.9 * len(pairs) and -gain > spread:
            return "regressed"
        return "unchanged"
    scale = abs(p_med)
    if spread > bound * scale and not all_better:
        return "unresolved"
    if -gain > bound * scale:
        return "regressed"
    return "unchanged"


def read_lines(path):
    results = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            row = json.loads(line)
            results[(row["workload"], row["seed"], row["trace"])] = row
    return results


def compare(parent_path, change_path, out=sys.stdout):
    defs = load_definitions()
    parent = read_lines(parent_path)
    change = read_lines(change_path)
    keys = sorted(set(parent) & set(change))
    unpaired = len(set(parent) ^ set(change))
    if unpaired:
        out.write(f"note: {unpaired} runs have no partner and are ignored\n")
    by_workload = defaultdict(list)
    for key in keys:
        by_workload[(key[0], key[2])].append((parent[key], change[key]))

    regressed = False
    for (workload, trace), rows in sorted(by_workload.items()):
        failed_parent = sum(p["failed"] for p, _ in rows)
        failed_change = sum(c["failed"] for _, c in rows)
        out.write(f"\n{workload} ({'traced' if trace else 'untraced'}): "
                  f"{len(rows)} pairs, failed operations "
                  f"{failed_parent} -> {failed_change}\n")
        if len(rows) < 10:
            out.write("  fewer than 10 pairs: verdicts are provisional\n")
        if not all(p["correct"] and c["correct"] for p, c in rows):
            out.write("  some runs failed their output checks\n")
        names = [n for n in rows[0][0]["metrics"] if n in defs]
        for name in names:
            better, bound = defs[name]
            pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                     for p, c in rows]
            result = verdict(pairs, better, bound,
                             more_failures=failed_change > failed_parent)
            regressed = regressed or result == "regressed"
            wins = sum(1 for p, c in pairs
                       if (c - p) * (1 if better == "higher" else -1) > 0)
            pq1, pmed, pq3 = quartiles([p for p, _ in pairs])
            cq1, cmed, cq3 = quartiles([c for _, c in pairs])
            out.write(f"  {name:34s} parent {pmed:12.4g} [{pq1:.4g}, {pq3:.4g}]"
                      f"  change {cmed:12.4g} [{cq1:.4g}, {cq3:.4g}]"
                      f"  wins {wins}/{len(pairs)}  {result}\n")
    return 1 if regressed else 0


def check_list(listing, defs_path=BENCHMARK):
    """Problems between `bench_ladder --list-metrics` and BENCHMARK.json."""
    spec = json.loads(Path(defs_path).read_text())
    problems = []
    if listing["workloads"] != [w["name"] for w in spec["workloads"]]:
        problems.append("workloads differ")
    for section in ("end_to_end", "per_layer"):
        have = {m["name"]: (m["unit"], m["better"]) for m in listing[section]}
        want = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
        for name in sorted(set(have) | set(want)):
            if have.get(name) != want.get(name):
                problems.append(f"{section} {name}: binary {have.get(name)}, "
                                f"BENCHMARK.json {want.get(name)}")
    return problems


def self_test():
    def pairs(parent, change):
        return list(zip(parent, change))

    base = [100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    # Throughput up 10% in every pair: improved.
    assert verdict(pairs(base, [v * 1.1 for v in base]), "higher", 0.1) \
        == "improved"
    # The same gain voided by extra failures.
    assert verdict(pairs(base, [v * 1.1 for v in base]), "higher", 0.1,
                   more_failures=True) == "unresolved"
    # Latency (lower is better) down 10%: improved.
    assert verdict(pairs(base, [v * 0.9 for v in base]), "lower", 0.1) \
        == "improved"
    # Throughput down 20% against a 10% bound: regressed.
    assert verdict(pairs(base, [v * 0.8 for v in base]), "higher", 0.1) \
        == "regressed"
    # Down 5% against a 10% bound: not a gain, within the bound.
    assert verdict(pairs(base, [v * 0.95 for v in base]), "higher", 0.1) \
        == "unchanged"
    # Noise only: unchanged.
    assert verdict(pairs(base, list(reversed(base))), "higher", 0.1) \
        == "unchanged"
    # A parent spread (interquartile 40%) wider than the bound.
    noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
    assert verdict(pairs(noisy, list(reversed(noisy))), "higher", 0.1) \
        == "unresolved"
    # ... unless every change run beats every parent run.
    assert verdict(pairs(noisy, [v + 100 for v in noisy]), "higher", 0.1) \
        == "improved"
    # Wins in 8 of 10 pairs are not enough for a gain.
    mixed = [v * 1.1 for v in base[:8]] + [v * 0.99 for v in base[8:]]
    assert verdict(pairs(base, mixed), "higher", 0.1) == "unchanged"
    # Unbounded (per-layer) metrics regress by the mirrored rule.
    assert verdict(pairs(base, [v * 1.5 for v in base]), "lower", None) \
        == "regressed"
    assert verdict(pairs(base, [v * 1.001 for v in base]), "lower", None) \
        == "unchanged"

    # The metric list check flags a unit mismatch and a missing name.
    spec = json.loads(BENCHMARK.read_text())
    listing = {"workloads": [w["name"] for w in spec["workloads"]],
               "end_to_end": [{k: m[k] for k in ("name", "unit", "better")}
                              for m in spec["end_to_end"]],
               "per_layer": [dict(m) for m in spec["per_layer"]]}
    assert check_list(listing) == []
    listing["end_to_end"][0]["unit"] = "parsecs"
    listing["per_layer"].pop()
    assert len(check_list(listing)) == 2
    print("compare.py self-test: ok")
    return 0


def main(argv):
    if argv[1:] == ["--self-test"]:
        return self_test()
    if argv[1:] == ["--check-list"]:
        problems = check_list(json.load(sys.stdin))
        for problem in problems:
            print("metric list mismatch:", problem)
        return 1 if problems else 0
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    return compare(argv[1], argv[2])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
