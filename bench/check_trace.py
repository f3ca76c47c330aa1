"""Checks that two traced runs with the same seed count exactly the same.

    python3 bench/check_trace.py [--seed N] [WORKLOAD ...]

Runs ``bench/run.py --trace 1`` twice per workload and compares every
per-layer metric whose unit is ``count``; exits 1 on any difference.
"""

import argparse
import json
import subprocess
import sys

import execute
import gen


def traced_counts(workload, seed):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "1"],
        cwd=execute.ROOT, check=True, capture_output=True, text=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run failed {result['failed']} jobs")
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("workloads", nargs="*", default=list(gen.JOB_BUILDERS))
    args = parser.parse_args()
    status = 0
    for workload in args.workloads:
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        diffs = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        print(f"{workload}: {len(first)} counts, {'equal' if not diffs else diffs}")
        status |= bool(diffs)
    return status


if __name__ == "__main__":
    sys.exit(main())
