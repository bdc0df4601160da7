#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload query_mix --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) and is
reused by later runs; each workload process keeps its temporary
database under the same directory and removes it when it ends.

An untraced run starts the crimson_e2e binary three times in a row on
the same seed (same inputs), each measuring a third of --seconds, and
reports every metric's median over the three processes; attempted and
failed are summed. On the test machine a single process's timings
shift together by up to 25% from one process to the next (where it
lands, not what it runs), so a median over processes is what keeps
the figures steady. A traced run is one process. The last line of
stdout is the run's JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PROCESSES = 3


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "crimson_e2e"],
        check=True, stdout=sys.stderr)


def run_process(binary, args, seconds, build_dir):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--work-dir", build_dir]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if out.returncode not in (0, 1) or not lines:
        return None, out.returncode or 2
    return json.loads(lines[-1]), out.returncode


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "crimson_e2e")
    n = 1 if args.trace else PROCESSES
    results = []
    for _ in range(n):
        result, code = run_process(binary, args, args.seconds / n, build_dir)
        if result is None:
            return code
        results.append(result)
    merged = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {"value": statistics.median(r["metrics"][name]["value"]
                                              for r in results),
                   "unit": m["unit"]}
            for name, m in results[0]["metrics"].items()
        },
    }
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
