#!/usr/bin/env python3
"""Serve benchmark: one run of one workload against `pooled_cli serve`.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mn-paper --seed 1 --seconds 24 --trace 0

Builds `pooled_cli` and `perfbench_harness` from this checkout's sources
into `.bench_build/` (Release, incremental after the first run), then
runs the harness. The harness starts `pooled_cli serve --listen` as a child
process, loads it over loopback TCP with closed-loop clients, checks every
answer against an in-process reference decode, and prints the result as
the last stdout line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

`--trace 0` prints the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer ledger. A `host` line before the result names the cores,
kernel tier, compiler and build type; `--save FILE` also writes the run
as a JSON record for `perfbench/compare.py`. `--smoke` shrinks every
workload to a tiny size (used by perfbench/test_perfbench.py).

Exit status: 0 when every answer checked out, 1 when an answer (or the
traced ledger) failed its check, 2 when the benchmark could not run.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("mn-paper", "small-mixed", "adaptive-rounds")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds the two targets incrementally."""
    for needed in ("CMakeLists.txt", "src", os.path.join("tools", "pooled_cli.cpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} next to perfbench/: run from a full checkout")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "pooled_cli", "perfbench_harness",
                  "-j", str(len(os.sched_getaffinity(0)))])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def run_harness(args):
    """Runs the harness in its own process group, so a timeout also reaps
    the server it started; returns (exit status, stdout lines)."""
    work_dir = os.path.join(BUILD, "run")
    os.makedirs(work_dir, exist_ok=True)
    command = [os.path.join(BUILD, "perfbench_harness"),
               "--cli", os.path.join(BUILD, "repo", "pooled_cli"),
               "--work-dir", work_dir,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    harness = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        out, _ = harness.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(harness.pid, signal.SIGKILL)
        harness.communicate()
        fail(f"run did not finish within {RUN_TIMEOUT_S} s")
    return harness.returncode, out.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    parser.add_argument("--save", help="also write the run as a JSON record here")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    status, lines = run_harness(args)
    if status not in (0, 1) or not lines:
        fail(f"harness exited with status {status}")
    host = next((json.loads(line[5:]) for line in lines if line.startswith("host ")), None)
    result = json.loads(lines[-1])
    if args.save:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "smoke": args.smoke, "host": host, "result": result}
        with open(args.save, "w") as handle:
            json.dump(record, handle, indent=1)
    print("\n".join(lines))
    sys.exit(status)


if __name__ == "__main__":
    main()
