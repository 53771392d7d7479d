"""The benchmark tracer's patch targets stay alive.

`perfbench/tracer.py` times the package by replacing module and class
attributes by name, and records a name it cannot find as unmeasured.  A
rename in the package would silently take a layer out of the benchmark, so
the set of unresolved targets is pinned here.
"""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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


def test_tracer_targets_resolve():
    """Resolve every target as `Tracer.install` does, patching nothing."""
    tracer = _tracer()
    unresolved = set()
    for _, places, _, _ in tracer.TARGETS:
        for spec, attr in places:
            owner = tracer._resolve(spec)
            if owner is None or not callable(vars(owner).get(attr)):
                unresolved.add(f"{spec.replace(':', '.')}.{attr}")
    assert unresolved == UNRESOLVED
