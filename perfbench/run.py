#!/usr/bin/env python3
"""Build the simulator's benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds perfbench/main.exe with
dune into .bench_build, then runs it.  With --trace 0 it times the
workload's set-up in SETUP_REPEATS separate processes, half of them
before the measured process and half after it, so that they fall in
different minutes of the host's changing speed, and reports set-up time
as the median over all of them and the measured process; every other
metric comes from the measured process.  Each process times its
own set-up from its start, so the cost of spawning it is not counted.
With --trace 1 it runs the traced mode, which prints the per-layer
metrics.  The last line of standard output is the result as one JSON
object.  A failed build, or a failure of the benchmark itself, exits with
status 1 and prints no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")

# Extra processes that only build the world, so set-up time is a median.
SETUP_REPEATS = 4

# A run must end within 180 s; the first build gets 900 s on its own.
BUILD_TIMEOUT_S = 850
RUN_DEADLINE_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    cmd = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", "--cache", "disabled", "--display", "quiet",
        "./perfbench/main.exe",
    ]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if done.returncode != 0 or not os.path.isfile(EXE):
        die("build failed")


def run_exe(args, deadline):
    """Run main.exe once; return its stdout lines and parsed last line."""
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=OUT_DIR)
    cmd = [EXE] + args
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=env, text=True,
                              timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        die(f"{' '.join(args)}: timed out")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        die(f"{' '.join(args)}: exit status {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die(f"{' '.join(args)}: last line is not JSON")
    return lines[:-1], result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seconds < 1:
        die("--seconds must be at least 1")

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.time() + RUN_DEADLINE_S
    base = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]

    if a.trace:
        lines, result = run_exe(base, deadline)
    else:
        def setup_only():
            _, r = run_exe(base + ["--setup-only"], deadline)
            return r["metrics"]["setup_s"]["value"]

        setups = [setup_only() for _ in range(SETUP_REPEATS // 2)]
        lines, result = run_exe(base, deadline)
        setups.append(result["metrics"]["setup_s"]["value"])
        setups += [setup_only() for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        lines.append("setup_s samples " + " ".join(f"{s:.4f}" for s in setups))

    for line in lines:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
