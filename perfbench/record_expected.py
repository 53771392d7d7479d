#!/usr/bin/env python3
"""Regenerate expected.json: the exact (non-random) outputs of each workload.

Usage (from the repository root): python3 perfbench/record_expected.py

Runs one op of every workload at DEFAULT_SEED and at DEFAULT_SEED + 1.
Values that agree at both seeds are stored for every seed; otherwise they
are stored for DEFAULT_SEED only.  Rerun only when a change is meant to
move these outputs, and say so where the change is described.
"""

import json
import os
import shutil
import sys
import tempfile

import run
from workloads import DEFAULT_SEED, WORKLOADS, Workload


def exact_values(name, seed, cli):
    workload = Workload(name, seed)
    work = tempfile.mkdtemp(dir=run.WORK_ROOT)
    try:
        runner = run.OpRunner(cli, workload, workload.write(work), None)
        _, problems = runner.run()
        if problems:
            sys.exit(f"{name} seed {seed}: {problems}")
        values = workload.exact_values(workload.outputs())
    finally:
        shutil.rmtree(work)
    return {k: v for k, v in values.items() if v == v}  # NaN is not a value


def main():
    for var in run.THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, run.SRC)
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    from koopman_cert import cli

    expected = {}
    for name in sorted(WORKLOADS):
        base = exact_values(name, DEFAULT_SEED, cli)
        other = exact_values(name, DEFAULT_SEED + 1, cli)
        expected[name] = {"seed": None if base == other else DEFAULT_SEED, "values": base}
    with open(run.EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
