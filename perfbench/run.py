#!/usr/bin/env python3
"""koopman-cert benchmark: closed-loop CLI workloads with one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload chain_study --seed 1 --seconds 20 --trace 0

This process is the client.  It writes the workload's configs, then calls
``koopman_cert.cli.main`` once per op and starts the next op only when the
previous one has finished.  Between ops it times fresh processes that set
up the workload.
Every op's outputs are checked, and must be byte-identical to the first
op's.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced ops and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
EXPECTED = os.path.join(HERE, "expected.json")

# BLAS threads are pinned (unless set by the caller) so that runs compare;
# the setting is recorded with every result.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 15  # fresh-process set-up probes, spread through the run
TAIL_BEYOND = 10  # samples beyond the reported tail percentile

# per workload: the span that must fire in every traced op, and the metrics
# whose share of traced op time the workload was chosen for, with threshold
DOMINANT = {
    "chain_study": ("kernels.chain_paths", ("kernels.chain_paths_s",), 0.5),
    "rotation_study": ("studies.gram", ("dictionaries.evaluate_s", "studies.gram_s"), 0.5),
    "variance_check": ("variance.pm", ("variance.pm_s",), 0.5),
    "ou_study": ("systems.sample", ("systems.sample_s",), 0.8),
    "bounds_grid": ("kernels.chain_paths", ("kernels.chain_paths_s", "systems.sample_s"), 0.5),
}


def _ratio(a, b):
    return a / b if b else 0.0


# Per-layer metrics: name -> (unit, source that must be patched, value from
# (inclusive s, self s, counts) summed over n traced ops).
def _per_op_incl(span):
    return lambda inc, slf, cnt, n: inc[span] / n


def _per_op_count(key):
    # identical ops do identical work, so a per-op count is a whole number
    return lambda inc, slf, cnt, n: cnt[key] // n if cnt[key] % n == 0 else cnt[key] / n


LAYER_METRICS = {
    "kernels.chain_paths_s": ("s", "kernels.chain_paths", _per_op_incl("kernels.chain_paths")),
    "kernels.chain_steps": ("count", "kernels.chain_paths", _per_op_count("kernels.chain_steps")),
    "kernels.chain_steps_per_s": ("1/s", "kernels.chain_paths",
                                  lambda i, s, c, n: _ratio(c["kernels.chain_steps"],
                                                            i["kernels.chain_paths"])),
    "kernels.pair_counts_s": ("s", "kernels.pair_counts", _per_op_incl("kernels.pair_counts")),
    "systems.sample_s": ("s", "systems.sample", lambda i, s, c, n: s["systems.sample"] / n),
    "systems.lags": ("count", "systems.sample", _per_op_count("systems.lags")),
    "systems.useful_lag_frac": ("ratio", "systems.sample",
                                lambda i, s, c, n: _ratio(c["systems.useful_lags"],
                                                          c["systems.lags"])),
    "systems.sde_substeps": ("count", "systems.SdeSystem.step",
                             _per_op_count("systems.sde_substeps")),
    "dictionaries.evaluate_s": ("s", "dictionaries.evaluate",
                                _per_op_incl("dictionaries.evaluate")),
    "dictionaries.values": ("count", "dictionaries.evaluate",
                            _per_op_count("dictionaries.values")),
    "dictionaries.values_per_s": ("1/s", "dictionaries.evaluate",
                                  lambda i, s, c, n: _ratio(c["dictionaries.values"],
                                                            i["dictionaries.evaluate"])),
    "studies.gram_s": ("s", "studies.gram", _per_op_incl("studies.gram")),
    "studies.gram_flops": ("count", "studies.gram", _per_op_count("studies.gram_flops")),
    "studies.gram_gflops": ("GFLOP/s", "studies.gram",
                            lambda i, s, c, n: _ratio(c["studies.gram_flops"],
                                                      i["studies.gram"]) / 1e9),
    "studies.indicator_s": ("s", "studies.indicator", _per_op_incl("studies.indicator")),
    "studies.mc_s": ("s", "studies.mc", _per_op_incl("studies.mc")),
    "studies.trials": ("count", "studies.mc", _per_op_count("studies.trials")),
    "studies.singular_frac": ("ratio", "studies.mc",
                              lambda i, s, c, n: _ratio(c["studies.singular"],
                                                        c["studies.trials"])),
    "studies.parallel_eff": ("ratio", "studies.chunk",
                             lambda i, s, c, n: _ratio(i["studies.chunk"],
                                                       c["studies.mc_capacity_s"])),
    "studies.reference_model_s": ("s", "studies.reference_model",
                                  _per_op_incl("studies.reference_model")),
    "edmd.estimate_s": ("s", "edmd.estimate", _per_op_incl("edmd.estimate")),
    "variance.pm_s": ("s", "variance.pm", _per_op_incl("variance.pm")),
    "variance.pm_calls": ("count", "variance.pm", _per_op_count("variance.pm_calls")),
    "variance.pm_rhs": ("count", "variance.pm", _per_op_count("variance.pm_rhs")),
    "variance.family_s": ("s", "variance.family", _per_op_incl("variance.family")),
    "variance.exact_s": ("s", "variance.exact", _per_op_incl("variance.exact")),
    "variance.oracle_s": ("s", "variance.oracle", _per_op_incl("variance.oracle")),
    "spectral.certify_s": ("s", "spectral.certify", _per_op_incl("spectral.certify")),
    "spectral.measures": ("count", "spectral.measure", _per_op_count("spectral.measures")),
    "bounds.inputs_s": ("s", "bounds.inputs", _per_op_incl("bounds.inputs")),
    "bounds.evals": ("count", "bounds.eval", _per_op_count("bounds.evals")),
    "galerkin.reference_s": ("s", "galerkin.reference", _per_op_incl("galerkin.reference")),
    "studies.write_csv_s": ("s", "studies.write_csv", _per_op_incl("studies.write_csv")),
    "studies.csv_bytes": ("bytes", "studies.write_csv", _per_op_count("studies.csv_bytes")),
}
COUNT_METRICS = [k for k, (unit, *_) in LAYER_METRICS.items() if unit in ("count", "bytes")]


def parse_args(argv):
    from workloads import DEFAULT_SEED, WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(seed):
    import numpy as np

    from koopman_cert import kernels

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "backend": kernels.backend_name(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "seed": seed,
    }


def _git_commit():
    """HEAD of the checkout; None outside a git repository."""
    # the ceiling keeps git from taking a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class SetupProbe:
    """Times fresh processes that import the CLI and build every system and
    dictionary of the workload.  Probes are spread through the run, between
    ops, so that a burst of load on the machine cannot cover all of them."""

    def __init__(self, config_paths):
        self.argv = [sys.executable, os.path.join(HERE, "probe.py"), *config_paths]
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.times = []

    def run_due(self, start, seconds):
        """Runs the probes scheduled at or before now; probe k is due at
        start + k * seconds / SETUP_PROBES."""
        while (len(self.times) < SETUP_PROBES and
               time.perf_counter() >= start + len(self.times) * seconds / SETUP_PROBES):
            t0 = time.perf_counter()
            subprocess.run(self.argv, env=self.env, check=True)
            self.times.append(time.perf_counter() - t0)

    def value(self):
        # the 10th percentile, like op_s.p10: the set-up cost outside bursts
        return statistics.quantiles(self.times, n=10, method="inclusive")[0]


class OpRunner:
    """Runs one op (the workload's commands), checks it, and compares its
    output bytes with the first op's."""

    def __init__(self, cli, workload, commands, expected):
        self.cli = cli
        self.workload = workload
        self.commands = commands
        self.expected = expected
        self.reference = None

    def run(self):
        """Wall seconds of the commands, and the problems found."""
        for out in self.workload.out_dirs:
            for fname in os.listdir(out):
                os.remove(os.path.join(out, fname))
        problems = []
        t0 = time.perf_counter()
        for argv in self.commands:
            try:
                rc = self.cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a failed op is counted, never fatal
                traceback.print_exc()
                rc = "exception"
            if rc != 0:
                problems.append(f"{argv[0]} {os.path.basename(argv[2])}: exit {rc}")
        wall = time.perf_counter() - t0
        if not problems:
            problems = self._check()
        return wall, problems

    def _check(self):
        try:
            outputs = self.workload.outputs()
            problems = self.workload.check(outputs)
            problems += self._check_exact(self.workload.exact_values(outputs))
        except (OSError, LookupError, ValueError, TypeError, ArithmeticError) as exc:
            return [f"unreadable output: {exc!r}"]
        digest = self._digest()
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            problems.append("output bytes differ from the first op (determinism)")
        return problems

    def _check_exact(self, values):
        if self.expected is None:
            return []
        problems = []
        for label, want in self.expected.items():
            got = values.get(label)
            if got is None or not abs(got - want) <= 1e-9 * abs(want):
                problems.append(f"{label} = {got}, stored {want}")
        return problems

    def _digest(self):
        h = hashlib.sha256()
        for out in self.workload.out_dirs:
            for fname in sorted(os.listdir(out)):
                h.update(fname.encode())
                with open(os.path.join(out, fname), "rb") as fh:
                    h.update(fh.read())
        return h.hexdigest()


def expected_values(workload):
    """Stored exact outputs that apply to this workload at this seed."""
    with open(EXPECTED) as fh:
        entry = json.load(fh).get(workload.name)
    if entry is None or entry["seed"] not in (None, workload.seed):
        return None
    return entry["values"]


def tail(times):
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, pct)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_loop(runner, seconds, tracer=None, probe=None):
    """Closed loop: one warm-up op, then ops until `seconds` have passed.

    With a tracer, odd ops are traced and even ops are not.  With a set-up
    probe, due probes run between ops.  Returns the timed ops as (wall,
    traced, span totals or None, wall covered by the dominant spans or None),
    the attempted and the failed op counts.
    """
    ops = []
    attempted = failed = 0
    start = deadline = None
    _, dominant, _ = DOMINANT[runner.workload.name]
    dominant_spans = {LAYER_METRICS[name][1] for name in dominant}
    while True:
        traced = tracer is not None and attempted % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            wall, problems = runner.run()
        finally:
            if traced:
                tracer.uninstall()
        span = DOMINANT[runner.workload.name][0]
        if traced and span in tracer.measured and not tracer.fired(span):
            problems.append(f"dominant span {span} did not fire")
        if problems:
            failed += 1
            print(f"op {attempted} failed: " + "; ".join(problems[:5]), file=sys.stderr)
        if deadline is None:
            start = time.perf_counter()
            deadline = start + seconds
        elif traced:
            ops.append((wall, True, tracer.totals(), tracer.covered(dominant_spans)))
        else:
            ops.append((wall, False, None, None))
        attempted += 1
        if probe is not None:
            probe.run_due(start, seconds)
        enough = len(ops) >= (2 if tracer else 1)
        if enough and time.perf_counter() >= deadline:
            return ops, attempted, failed


def end_to_end(ops, workload, setup_s):
    walls = [w for w, _, _, _ in ops]
    # Other tenants of a shared machine slow every op in bursts that can
    # cover most of a run, which moves the median by up to 40% from run to
    # run.  The 10th percentile is the program's speed outside the bursts.
    p10 = statistics.quantiles(walls, n=10, method="inclusive")[0] if len(walls) > 1 else walls[0]
    pairs = workload.pairs_per_op()
    tail_s, tail_pct = tail(walls)
    metrics = {
        "op_s.p10": (p10, "s"),
        "pairs_per_s": (pairs / p10, "pairs/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"op_s.p50": f"{statistics.median(walls)} s",
             "op_s.tail": f"{tail_s} s at p{tail_pct:.1f} of {len(walls)} ops",
             "pairs per op": pairs}
    return metrics, notes


def per_layer(ops, workload, tracer):
    traced = [(w, t) for w, is_traced, t, _ in ops if is_traced]
    plain = [w for w, is_traced, _, _ in ops if not is_traced]
    inc, slf, cnt = Counter(), Counter(), Counter()
    for _, (i, s, c) in traced:
        inc.update(i)
        slf.update(s)
        cnt.update(c)
    n = len(traced)
    metrics, notes = {}, {}
    for name, (unit, source, fn) in LAYER_METRICS.items():
        if source in tracer.measured:
            metrics[name] = (fn(inc, slf, cnt, n), unit)
        else:
            metrics[name] = (None, unit)
            notes[name] = f"no target of {source} was found"
    traced_p50 = statistics.median(w for w, _ in traced)
    metrics["trace.op_s"] = (traced_p50, "s")
    metrics["trace.overhead_frac"] = (traced_p50 / statistics.median(plain) - 1.0, "ratio")
    # wall time during which any thread is in a dominant span, so that
    # spans running side by side in pool threads are not counted twice
    _, names, threshold = DOMINANT[workload.name]
    share = sum(c for _, is_traced, _, c in ops if is_traced) / sum(w for w, _ in traced)
    metrics["trace.dominant_share"] = (share, "ratio")
    notes["dominant share"] = f"{' + '.join(names)} cover {share:.3f} of op wall time " \
                              f"(chosen for >= {threshold})"
    if tracer.unmeasured:
        notes["unmeasured targets"] = sorted(tracer.unmeasured)
    return metrics, notes


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "koopman_cert", "cli.py")):
        print(f"perfbench: no koopman_cert sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    args = parse_args(argv)

    from workloads import Workload

    workload = Workload(args.workload, args.seed)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        commands = workload.write(work)
        from koopman_cert import cli

        env = environment(args.seed)
        runner = OpRunner(cli, workload, commands, expected_values(workload))
        tracer = probe = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        else:
            probe = SetupProbe(workload.config_paths)
        ops, attempted, failed = run_loop(runner, args.seconds, tracer, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer:
        metrics, notes = per_layer(ops, workload, tracer)
    else:
        metrics, notes = end_to_end(ops, workload, probe.value())
        notes["setup probes"] = f"{len(probe.times)}, median {statistics.median(probe.times)} s"
    notes["fail_frac"] = failed / attempted
    for name, (value, unit) in metrics.items():
        shown = f"unmeasured ({notes[name]})" if value is None else f"{value:.6g} {unit}"
        print(f"{name:28s} {shown}")
    for key, value in notes.items():
        print(f"# {key}: {value}")
    print("# env: " + json.dumps(env, sort_keys=True))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: ({"value": v, "unit": u} if v is not None else
                        {"value": None, "unit": u, "unmeasured": notes[k]})
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
