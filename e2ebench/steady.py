#!/usr/bin/env python3
"""Steadiness check: runs workloads repeatedly and reports the spread.

Run from the repository root:

    python3 e2ebench/steady.py [--runs 10] [--first-seed 1] [workload ...]

Each run gets its own seed (first-seed, first-seed+1, ...). For every
end-to-end metric of BENCHMARK.json the table shows the median, the
first and third quartile (statistics.quantiles, n=4), the spread
(q3 - q1) / median, and the metric's bound; "!" marks a spread above a
third of the bound, "!!" one above the bound. It also prints the failed share of operations per
workload. Add --json FILE to keep every run's values.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, seconds):
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--json")
    args = ap.parse_args()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    kept = {}
    for w in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(spec, w, seed, args.seconds)
            if not r["correct"]:
                raise SystemExit(f"{w} seed {seed}: incorrect output")
            results.append(r)
            print(f"  {w} seed {seed}: attempted {r['attempted']} "
                  f"failed {r['failed']}", file=sys.stderr)
        kept[w] = results
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{w}: {args.runs} runs, failed share {sorted(shares)}")
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "!!" if spread > m["bound"] else (
                "!" if spread > m["bound"] / 3 else "")
            print(f"  {m['name']:<20} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{spread:>8.3f} {m['bound']:>6} {flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(kept, f, indent=1)


if __name__ == "__main__":
    main()
