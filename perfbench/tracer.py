"""Span tracer that times calls into koopman_cert from outside the package.

The tracer replaces module and class attributes with timing wrappers.  A
name bound by ``from module import f`` lives in the calling module, so each
target is patched where it is called (``studies.ergodic_chunk``, not
``systems.ergodic_chunk``).  A target that does not exist is recorded as
unmeasured instead of raising.  The program's source is never modified:
``uninstall`` restores every attribute.

Spans are kept in memory.  Each span records its name, start, end, thread
and parent.  Spans opened in pool threads, whose own stack is empty, attach
to the innermost open pool-root span (``studies.mc_trial_errors`` or the
variance oracle) that submitted them.
"""

import functools
import importlib
import os
import threading
import time
from collections import Counter, defaultdict

import numpy as np


class Span:
    __slots__ = ("sid", "parent", "name", "thread", "t0", "t1", "nested")

    def __init__(self, sid, parent, name, thread, nested):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.thread = thread
        self.nested = nested
        self.t0 = self.t1 = 0.0


def _arg(a, k, index, name, default=None):
    if name in k:
        return k[name]
    return a[index] if index < len(a) else default


def _rows(x):
    return int(np.atleast_2d(np.asarray(x)).shape[0])


# --- count functions: (args, kwargs, result, span seconds) -> increments ---

def _chain_paths(a, k, out, dt):
    B, m = np.shape(_arg(a, k, 2, "u"))
    return {"kernels.chain_steps": B * m, "systems.lags": B * m}


def _sde_step(a, k, out, dt):
    rows = _rows(_arg(a, k, 1, "x"))
    return {"systems.lags": rows, "systems.sde_substeps": rows * a[0].substeps}


def _map_step(a, k, out, dt):
    return {"systems.lags": _rows(_arg(a, k, 1, "x"))}


def _ergodic_chunk(a, k, out, dt):
    return {"systems.useful_lags": int(_arg(a, k, 1, "m")) * int(_arg(a, k, 4, "count"))}


def _iid_chunk(a, k, out, dt):
    return {"systems.useful_lags": int(_arg(a, k, 2, "m")) * int(_arg(a, k, 5, "count"))}


def _sample_ergodic(a, k, out, dt):
    return {"systems.useful_lags": int(_arg(a, k, 1, "m"))}


def _sample_iid(a, k, out, dt):
    return {"systems.useful_lags": int(_arg(a, k, 2, "m"))}


def _evaluate(a, k, out, dt):
    return {"dictionaries.values": int(np.size(out))}


def _gram_block(a, k, out, dt):
    B, m, N = np.shape(_arg(a, k, 0, "psi_x"))
    return {"studies.gram_flops": 4 * B * m * N * N}


def _mc_trial_errors(a, k, out, dt):
    threads = int(_arg(a, k, 8, "threads", 1))
    return {
        "studies.trials": int(_arg(a, k, 4, "n_trials")),
        "studies.singular": int(np.sum(~np.isfinite(out[2]))),
        "studies.mc_capacity_s": dt * threads,
    }


def _pm_apply(a, k, out, dt):
    U = np.asarray(_arg(a, k, 1, "U"))
    return {"variance.pm_calls": 1, "variance.pm_rhs": U.shape[1] if U.ndim == 2 else 1}


def _write_csv(a, k, out, dt):
    return {"studies.csv_bytes": os.path.getsize(_arg(a, k, 0, "path"))}


def _one(key):
    return lambda a, k, out, dt: {key: 1}


PKG = "koopman_cert"

# (span name or None for count-only, [(module[:Class], attribute)], count,
#  pool root)
TARGETS = [
    ("kernels.chain_paths", [("kernels", "chain_paths")], _chain_paths, False),
    ("kernels.pair_counts", [("kernels", "pair_counts")], None, False),
    (None, [("systems:SdeSystem", "step")], _sde_step, False),
    (None, [("systems:NoisyMapSystem", "step")], _map_step, False),
    ("systems.sample", [("studies", "ergodic_chunk"), ("variance", "ergodic_chunk")],
     _ergodic_chunk, False),
    ("systems.sample", [("studies", "iid_chunk")], _iid_chunk, False),
    ("systems.sample", [("systems", "sample_ergodic"), ("cli", "sample_ergodic")],
     _sample_ergodic, False),
    ("systems.sample", [("systems", "sample_iid"), ("cli", "sample_iid")],
     _sample_iid, False),
    ("dictionaries.evaluate", [("dictionaries:Dictionary", "evaluate")], _evaluate, False),
    ("studies.gram", [("studies", "_gram_errors_block")], _gram_block, False),
    ("studies.indicator", [("studies", "_indicator_errors")], None, False),
    ("studies.mc", [("studies", "mc_trial_errors")], _mc_trial_errors, True),
    ("studies.chunk", [("studies", "_chunk_trial_errors")], None, False),
    ("studies.reference_model", [("studies", "reference_model")], None, False),
    ("studies.write_csv", [("studies", "write_csv")], _write_csv, False),
    ("edmd.estimate", [("edmd", "edmd_estimate"), ("cli", "edmd_estimate")], None, False),
    ("variance.pm", [("variance", "pm_apply_vectors")], _pm_apply, False),
    ("variance.family", [("variance", "function_family"), ("bounds", "function_family"),
                         ("spectral", "function_family")], None, False),
    ("variance.exact", [("studies", "exact_variance")], None, False),
    ("variance.oracle", [("studies", "montecarlo_variance_oracle")], None, True),
    ("spectral.certify", [("bounds", "certify_family")], None, False),
    ("spectral.measure", [("spectral", "spectral_measure")], _one("spectral.measures"), False),
    ("bounds.inputs", [("bounds", "bound_inputs_from_exact")], None, False),
    ("bounds.eval", [("studies", "_branch_bound"), ("bounds", "estimator_error_bounds")],
     _one("bounds.evals"), False),
    ("galerkin.reference", [("variance", "exact_gram"), ("variance", "exact_gram_circle"),
                            ("variance", "quadrature_gram_circle"),
                            ("studies", "galerkin_matrix"), ("cli", "galerkin_matrix")],
     None, False),
]


def _resolve(spec):
    mod_name, _, cls_name = spec.partition(":")
    try:
        owner = importlib.import_module(f"{PKG}.{mod_name}")
    except ImportError:
        return None
    return getattr(owner, cls_name, None) if cls_name else owner


class Tracer:
    """Installs timing wrappers; collects spans and counts until reset."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.measured = set()  # span names and "module.attr" labels patched
        self.unmeasured = {}  # "module.attr" -> reason
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pool_roots = []
        self._patches = []
        self._next_sid = 0

    # -- patching ----------------------------------------------------------

    def install(self):
        for name, places, count, pool_root in TARGETS:
            for spec, attr in places:
                owner = _resolve(spec)
                orig = vars(owner).get(attr) if owner is not None else None
                label = f"{spec.replace(':', '.')}.{attr}"
                if not callable(orig):
                    self.unmeasured[label] = "target not found"
                    continue
                setattr(owner, attr, self._wrap(orig, name, count, pool_root))
                self._patches.append((owner, attr, orig))
                self.measured.add(label)
                if name:
                    self.measured.add(name)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _wrap(self, orig, name, count, pool_root):
        if name is None:
            def wrapper(*a, **k):
                out = orig(*a, **k)
                self._add(count(a, k, out, None))
                return out
        else:
            # a sampler that stepped neither the chain kernel nor a system
            # used a closed form (the rotation): its lags are its pairs
            sampler = name == "systems.sample"

            def wrapper(*a, **k):
                lags0 = self._thread_lags() if sampler else 0
                span = self._open(name, pool_root)
                try:
                    out = orig(*a, **k)
                finally:
                    self._close(span, pool_root)
                if count:
                    inc = count(a, k, out, span.t1 - span.t0)
                    if sampler and self._thread_lags() == lags0:
                        inc["systems.lags"] = inc["systems.useful_lags"]
                    self._add(inc)
                return out
        return functools.update_wrapper(wrapper, orig)

    # -- spans and counts --------------------------------------------------

    def reset(self):
        with self._lock:
            self.spans = []
            self.counts = Counter()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _thread_lags(self):
        return getattr(self._local, "lags", 0)

    def _add(self, inc):
        lags = inc.get("systems.lags")
        if lags:
            self._local.lags = self._thread_lags() + lags
        with self._lock:
            self.counts.update(inc)

    def _open(self, name, pool_root):
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        elif self._pool_roots and threading.current_thread() is not threading.main_thread():
            parent = self._pool_roots[-1].sid
        else:
            parent = None
        nested = any(s.name == name for s in stack)
        with self._lock:
            span = Span(self._next_sid, parent, name, threading.get_ident(), nested)
            self._next_sid += 1
            self.spans.append(span)
            if pool_root:
                self._pool_roots.append(span)
        stack.append(span)
        span.t0 = time.perf_counter()
        return span

    def _close(self, span, pool_root):
        span.t1 = time.perf_counter()
        self._stack().pop()
        if pool_root:
            with self._lock:
                self._pool_roots.remove(span)

    def fired(self, name):
        return any(s.name == name for s in self.spans)

    def covered(self, names):
        """Wall seconds during which any thread is in a span named in names."""
        total, end = 0.0, float("-inf")
        for s in sorted((s for s in self.spans if s.name in names), key=lambda s: s.t0):
            if s.t1 > end:
                total += s.t1 - max(s.t0, end)
                end = s.t1
        return total

    # -- aggregation -------------------------------------------------------

    def totals(self):
        """Inclusive and self seconds per span name, plus the counts."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        inclusive = Counter()
        self_time = Counter()
        for s in self.spans:
            dur = s.t1 - s.t0
            if not s.nested:
                inclusive[s.name] += dur
            self_time[s.name] += dur - _covered(s, children.get(s.sid, ()))
        return inclusive, self_time, Counter(self.counts)


def _covered(span, kids):
    """Length of the part of span's interval that its children cover."""
    total = 0.0
    end = span.t0
    for k in sorted(kids, key=lambda c: c.t0):
        lo, hi = max(k.t0, end), min(k.t1, span.t1)
        if hi > lo:
            total += hi - lo
            end = hi
    return total
