#!/usr/bin/env python3
"""Build bench_ladder from source, then run one workload or all four.

Usage (from anywhere; paths resolve against the repository root):

  python3 bench/ladder/run.py --workload NAME [--seed N] [--seconds N]
                              [--trace 0|1] [--jsonl FILE]
  python3 bench/ladder/run.py --workload all ...

NAME is sweep, serve-closed, wire-open or fleet-closed. The build goes
to .bench_build at the repository root (configured once, then brought
up to date on every run, with its log in .bench_build/build.log). The
last line of stdout is the benchmark's JSON result; the exit status is
0 only when every run built, finished and passed its output checks.
--jsonl appends each result, tagged with its workload, seed and trace
mode, to FILE for compare.py.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build"
WORKLOADS = ["sweep", "serve-closed", "wire-open", "fleet-closed"]
# bench_ladder's own watchdog fires well before this; this one only
# catches a process the watchdog could not stop.
RUN_TIMEOUT_S = 175


def build():
    """Configure (once) and build bench_ladder and the daemons."""
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_ladder",
                  "--parallel", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-25:]
                sys.stderr.write("\n".join(tail) +
                                 f"\nrun.py: build failed; see {log_path}\n")
                return False
    return True


def run_once(workload, args):
    """Run one workload; returns (exit status, parsed result or None)."""
    run_dir = BUILD.relative_to(ROOT) / "ladder-run"
    cmd = [str(BUILD / "bench_ladder"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--run-dir", str(run_dir)]
    # A session of its own, so a timeout takes the spawned daemons too.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(ROOT / run_dir / str(proc.pid), ignore_errors=True)
        sys.stderr.write(f"run.py: {workload} killed after "
                         f"{RUN_TIMEOUT_S} s\n")
        return 1, None
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--jsonl", help="append tagged results to this file")
    args = parser.parse_args()

    if not build():
        return 1
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        code, result = run_once(workload, args)
        if code != 0 or result is None:
            status = code or 1
        if result is not None and args.jsonl:
            with open(args.jsonl, "a") as out:
                out.write(json.dumps({"workload": workload,
                                      "seed": args.seed,
                                      "trace": args.trace, **result}) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
