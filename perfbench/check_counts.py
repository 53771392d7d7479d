#!/usr/bin/env python3
"""The benchmark's own test: count metrics repeat exactly at a fixed seed.

Usage (from the repository root):

    python3 perfbench/check_counts.py [--seed 0] [workload ...]

Makes two short traced runs per workload with the same seed and fails
(exit 1) unless every count metric (kernels.chain_steps, systems.lags,
systems.sde_substeps, dictionaries.values, studies.gram_flops,
studies.trials, variance.pm_rhs, ...) is identical in both, and both runs
are correct.  Later changes may then cite these counts as exact.
"""

import argparse
import json
import subprocess
import sys

from run import COUNT_METRICS, HERE
from workloads import DEFAULT_SEED, WORKLOADS


def traced_counts(workload, seed):
    out = subprocess.run(
        [sys.executable, f"{HERE}/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        check=True, capture_output=True, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload}: traced run not correct: {result}")
    return {k: result["metrics"][k]["value"] for k in COUNT_METRICS}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = p.parse_args()
    bad = 0
    for workload in args.workloads:
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        bad += bool(diff)
        print(f"{workload}: {'MISMATCH ' + str(diff) if diff else 'counts identical'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
