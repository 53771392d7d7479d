"""The benchmark tracer's patch targets stay alive.

`perfbench/tracer.py` times the package by replacing module and class
attributes by name, and records a name it cannot find as unmeasured.  A
rename in the package would silently take a layer out of the benchmark, so
the set of unresolved targets is pinned here, and every traced workload
must still end in a result whose metrics are all finite numbers.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    WORKLOADS = [w["name"] for w in json.load(_fh)["workloads"]]

# targets the program moved or removed before this check existed
UNRESOLVED = {
    "bounds.function_family",
    "spectral.function_family",
    "studies._branch_bound",
    "variance.ergodic_chunk",
    "variance.exact_gram",
    "variance.exact_gram_circle",
}


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _places(tracer):
    """(span name, "module.attr" label, whether it resolves) for every place
    of every target, resolved as `Tracer.install` does, patching nothing."""
    for name, places, _, _ in tracer.TARGETS:
        for spec, attr in places:
            owner = tracer._resolve(spec)
            yield (name, f"{spec.replace(':', '.')}.{attr}",
                   owner is not None and callable(vars(owner).get(attr)))


def test_tracer_targets_resolve():
    unresolved = {label for _, label, ok in _places(_tracer()) if not ok}
    assert unresolved == UNRESOLVED


def test_every_span_resolves_somewhere():
    """No per-layer metric can read unmeasured: each span has a live place."""
    places = list(_places(_tracer()))
    spans = {name for name, _, _ in places if name}
    assert spans == {name for name, _, ok in places if name and ok}


def _reject(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_workload_ends_in_a_result(workload):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seconds", "0.3", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1], parse_constant=_reject)
    assert result["correct"], out.stderr
    bad = {k: m["value"] for k, m in result["metrics"].items()
           if isinstance(m["value"], bool) or not isinstance(m["value"], (int, float))
           or not math.isfinite(m["value"])}
    assert bad == {}
