"""Chain kernels against a naive reference."""

import tracemalloc

import numpy as np
import pytest

from koopman_cert import kernels


def _random_inputs(seed, B=64, m=40, n=5, zero_frac=0.0):
    g = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(seed)))
    P = g.random((n, n)) + 0.01
    if zero_frac:
        P[g.random((n, n)) < zero_frac] = 0.0
        P[:, 0] += P.sum(axis=1) == 0.0
    P /= P.sum(axis=1, keepdims=True)
    cdf = np.cumsum(P, axis=1)
    cdf[:, -1] = np.maximum(cdf[:, -1], 1.0)
    x0 = g.integers(0, n, size=B)
    u = g.random((B, m))
    return cdf, x0.astype(np.int64), u, n


def _naive_paths(cdf, x0, u):
    """One searchsorted per step per trajectory: the first j with u < cdf[cur, j]."""
    B, m = u.shape
    paths = np.empty((B, m + 1), dtype=np.int64)
    for b in range(B):
        cur = paths[b, 0] = x0[b]
        for k in range(m):
            cur = paths[b, k + 1] = np.searchsorted(cdf[cur], u[b, k], side="right")
    return paths


# (B, m, n, zero_frac): each case selects a distinct branch or edge of the kernel
CASES = {
    "zero_probabilities": (40, 60, 6, 0.5),  # repeated thresholds within rows
    "one_state": (7, 9, 1, 0.0),
    "no_steps": (5, 0, 4, 0.0),
    "no_trajectories": (0, 5, 3, 0.0),
    "two_states": (30, 50, 2, 0.0),
    "few_thresholds": (20, 40, 5, 0.0),  # 20 thresholds: ranked by comparisons
    "many_thresholds": (20, 40, 9, 0.0),  # 72 thresholds: ranked by searchsorted
    "fifty_states": (30, 64, 50, 0.0),
    "single_long_path": (1, 3000, 3, 0.0),
    "iid_shape": (3000, 1, 2, 0.0),
    "several_time_slices": (100, 700, 2, 0.0),
    "table_too_large": (5, 40, 70, 0.0),  # 70 * 4831 entries: binary search
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_chain_paths_matches_naive(case):
    B, m, n, zero_frac = CASES[case]
    seed = sorted(CASES).index(case)
    cdf, x0, u, n = _random_inputs(seed, B=B, m=m, n=n, zero_frac=zero_frac)
    paths = kernels.chain_paths(cdf, x0, u)
    assert np.array_equal(paths, _naive_paths(cdf, x0, u))
    assert np.array_equal(paths[:, 0], x0)
    assert paths.size == 0 or (paths.min() >= 0 and paths.max() < n)


@pytest.mark.parametrize("n", [3, 40])
def test_uniforms_equal_to_thresholds(n):
    """A uniform equal to cdf[i, j] moves past column j (u < cdf is strict)."""
    cdf, x0, _, n = _random_inputs(12, B=50, m=30, n=n, zero_frac=0.3)
    ties = np.append(np.unique(cdf[:, :-1]), 0.0)
    u = np.random.default_rng(n).choice(ties[ties < 1.0], size=(50, 30))
    assert np.array_equal(kernels.chain_paths(cdf, x0, u), _naive_paths(cdf, x0, u))


@pytest.mark.parametrize("B, m", [(120, 7), (20, 30), (50, 50)])
def test_chain_paths_slices_on_both_axes(monkeypatch, B, m):
    cdf, x0, u, n = _random_inputs(5, B=B, m=m, n=3)
    monkeypatch.setattr(kernels, "_SLICE_CELLS", 50)
    assert np.array_equal(kernels.chain_paths(cdf, x0, u), _naive_paths(cdf, x0, u))


@pytest.mark.parametrize("n", [1, 2, 6, 12])
def test_binary_search_matches_table(monkeypatch, n):
    cdf, x0, u, n = _random_inputs(8, B=30, m=25, n=n, zero_frac=0.3)
    table = kernels.chain_paths(cdf, x0, u)
    monkeypatch.setattr(kernels, "_TABLE_ENTRIES", 0)
    assert np.array_equal(kernels.chain_paths(cdf, x0, u), table)
    assert np.array_equal(table, _naive_paths(cdf, x0, u))


@pytest.mark.parametrize(
    "shape, table_entries",
    [((2, 200, 10_000), None), ((2, 2_000_000, 1), None), ((2, 2_000_000, 1), 0)],
    ids=["ergodic", "iid", "iid_binary_search"],
)
def test_chain_paths_memory_bounded(monkeypatch, shape, table_entries):
    """Above its output, the kernel allocates at most its slice budget."""
    if table_entries is not None:
        monkeypatch.setattr(kernels, "_TABLE_ENTRIES", table_entries)
    n, B, m = shape
    cdf, x0, _, n = _random_inputs(9, B=1, m=1, n=n)
    x0 = np.zeros(B, dtype=np.int64)
    u = np.random.default_rng(0).random((B, m))
    kernels.chain_paths(cdf, x0[:4], u[:4])  # first-call allocations
    tracemalloc.start()
    try:
        paths = kernels.chain_paths(cdf, x0, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - paths.nbytes <= 48 * kernels._SLICE_CELLS


def test_pair_counts_matches_naive():
    cdf, x0, u, n = _random_inputs(7, B=8, m=25)
    paths = kernels.chain_paths(cdf, x0, u)
    # an ergodic block (consecutive states) and an i.i.d. block (free pairs)
    iid = np.random.Generator(np.random.Philox(8)).integers(0, n, size=(2,) + u.shape)
    for xs, ys in [(paths[:, :-1], paths[:, 1:]), (iid[0], iid[1])]:
        counts = kernels.pair_counts(xs, ys, n)
        # each trial contributes exactly m pairs
        assert np.all(counts.sum(axis=(1, 2)) == u.shape[1])
        for b in range(xs.shape[0]):
            naive = np.zeros((n, n), dtype=np.int64)
            for x, y in zip(xs[b], ys[b]):
                naive[x, y] += 1
            assert np.array_equal(counts[b], naive)


def test_searchsorted_convention_matches_numpy():
    cdf, x0, u, n = _random_inputs(11, B=16, m=1)
    nxt = kernels.chain_paths(cdf, x0, u)[:, 1]
    expected = np.array(
        [np.searchsorted(cdf[x0[i]], u[i, 0], side="right") for i in range(len(x0))]
    )
    assert np.array_equal(nxt, expected)


def test_backend_name_reported():
    assert kernels.backend_name() == "python"
