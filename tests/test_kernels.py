"""Chain kernels against a naive reference."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _check_counting(cdf, x0, u, n):
    """Counting mode adds the naive paths' transition counts into `counts`
    and returns their last states."""
    naive = _naive_paths(cdf, x0, u)
    counts = np.ones((len(x0), n, n), dtype=np.int64)
    last = kernels.chain_paths(kernels.chain_tables(cdf), x0, u, counts=counts)
    assert np.array_equal(counts - 1, kernels.pair_counts(naive[:, :-1], naive[:, 1:], n))
    assert np.array_equal(last, naive[:, -1])


def _steps_per_gather(cdf):
    return kernels.chain_tables(cdf).k


# (B, m, n, zero_frac): each case selects a distinct branch or edge of the kernel
CASES = {
    "zero_probabilities": (40, 60, 6, 0.5),  # repeated thresholds within rows
    "one_state": (7, 9, 1, 0.0),
    "no_steps": (5, 0, 4, 0.0),
    "no_trajectories": (0, 5, 3, 0.0),
    "two_states": (30, 50, 2, 0.0),
    "few_thresholds": (20, 40, 5, 0.0),  # 20 thresholds: 32 buckets, 2 steps deep
    "many_thresholds": (20, 40, 9, 0.0),  # 72 thresholds: 128 buckets
    "fifty_states": (30, 64, 50, 0.0),
    "single_long_path": (1, 3000, 3, 0.0),
    "iid_shape": (3000, 1, 2, 0.0),
    "several_time_slices": (100, 700, 2, 0.0),
    "table_too_large": (5, 40, 70, 0.0),  # 70 * 4831 entries: binary search
    "fewer_steps_than_k": (10, 5, 2, 0.0),  # 2 states count 7 steps a gather
    "steps_not_multiple_of_k": (12, 26, 3, 0.0),  # 3 a gather, 2 one-step tails
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_chain_paths_matches_naive(case):
    B, m, n, zero_frac = CASES[case]
    seed = sorted(CASES).index(case)
    cdf, x0, u, n = _random_inputs(seed, B=B, m=m, n=n, zero_frac=zero_frac)
    paths = kernels.chain_paths(kernels.chain_tables(cdf), x0, u)
    assert np.array_equal(paths, _naive_paths(cdf, x0, u))
    assert np.array_equal(paths[:, 0], x0)
    assert paths.size == 0 or (paths.min() >= 0 and paths.max() < n)
    _check_counting(cdf, x0, u, n)


def test_cases_reach_both_counting_paths():
    k = {case: _steps_per_gather(_random_inputs(0, B=1, m=1, n=n, zero_frac=z)[0])
         for case, (_, _, n, z) in CASES.items()}
    assert k["fewer_steps_than_k"] == 7 and CASES["fewer_steps_than_k"][1] < 7
    assert k["steps_not_multiple_of_k"] == 3
    assert k["fifty_states"] == k["table_too_large"] == 1


# tied thresholds (equal cdf values across or within rows) and zero ones
TIED = {
    "two_equal_rows": [[0.5, 0.5], [0.5, 0.5]],
    "two_zero_thresholds": [[0.0, 1.0], [1.0, 0.0]],
    "three_ties_and_zeros": [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]],
    "four_uniform_rows": [[0.25] * 4] * 4,
    "four_sparse": [[0.0, 0.0, 0.0, 1.0], [0.5, 0.0, 0.5, 0.0], [0.0, 0.25, 0.0, 0.75],
                    [0.25, 0.25, 0.25, 0.25]],
}


@pytest.mark.parametrize("case", sorted(TIED))
def test_counting_with_tied_and_zero_thresholds(case):
    cdf = np.cumsum(TIED[case], axis=1)
    cdf[:, -1] = 1.0
    n = len(cdf)
    assert _steps_per_gather(cdf) > 1
    g = np.random.default_rng(sorted(TIED).index(case))
    x0 = g.integers(0, n, size=25)
    # half the uniforms sit on a threshold
    u = g.random((25, 61))
    ties = np.unique(cdf[:, :-1])
    on = g.random(u.shape) < 0.5
    u[on] = g.choice(ties[ties < 1.0], size=on.sum())
    assert np.array_equal(kernels.chain_paths(kernels.chain_tables(cdf), x0, u),
                          _naive_paths(cdf, x0, u))
    _check_counting(cdf, x0, u, n)


@pytest.mark.parametrize("case", ["zero_probabilities", "two_states", "one_state",
                                  "steps_not_multiple_of_k"])
def test_counting_without_jump_tables(monkeypatch, case):
    """A jump budget of 0 leaves every chain on paths and `pair_counts`."""
    B, m, n, zero_frac = CASES[case]
    cdf, x0, u, n = _random_inputs(4, B=B, m=m, n=n, zero_frac=zero_frac)
    monkeypatch.setattr(kernels, "_JUMP_ENTRIES", 0)
    assert kernels.chain_tables(cdf).jump is None
    _check_counting(cdf, x0, u, n)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 4), data=st.data())
def test_counting_matches_naive_on_small_chains(n, data):
    """Small integer weights tie many thresholds; some uniforms sit on one."""
    weights = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n * n,
                                          max_size=n * n)), dtype=float).reshape(n, n)
    weights[:, 0] += weights.sum(axis=1) == 0
    cdf = np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1)
    cdf[:, -1] = np.maximum(cdf[:, -1], 1.0)
    B, m = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 40))
    g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x0 = g.integers(0, n, size=B)
    u = g.random((B, m))
    ties = np.unique(cdf[:, :-1])
    ties = ties[ties < 1.0]
    if len(ties):
        on = g.random(u.shape) < 0.3
        u[on] = g.choice(ties, size=on.sum())
    _check_counting(cdf, x0, u, n)


@pytest.mark.parametrize("n", [3, 40])
def test_uniforms_equal_to_thresholds(n):
    """A uniform equal to cdf[i, j] moves past column j (u < cdf is strict)."""
    cdf, x0, _, n = _random_inputs(12, B=50, m=30, n=n, zero_frac=0.3)
    ties = np.append(np.unique(cdf[:, :-1]), 0.0)
    u = np.random.default_rng(n).choice(ties[ties < 1.0], size=(50, 30))
    assert np.array_equal(kernels.chain_paths(kernels.chain_tables(cdf), x0, u),
                          _naive_paths(cdf, x0, u))


@pytest.mark.parametrize("B, m", [(120, 7), (20, 30), (50, 50), (5, 40)])
def test_chain_paths_slices_on_both_axes(monkeypatch, B, m):
    # 5 rows step 10 steps a slice, 9 when counted 3 a gather: four slices
    # of whole codes, then one of a code and a one-step tail
    cdf, x0, u, n = _random_inputs(5, B=B, m=m, n=3)
    monkeypatch.setattr(kernels, "_SLICE_CELLS", 50)
    assert np.array_equal(kernels.chain_paths(kernels.chain_tables(cdf), x0, u),
                          _naive_paths(cdf, x0, u))
    _check_counting(cdf, x0, u, n)


@pytest.mark.parametrize("n", [1, 2, 6, 12])
def test_binary_search_matches_table(monkeypatch, n):
    cdf, x0, u, n = _random_inputs(8, B=30, m=25, n=n, zero_frac=0.3)
    table = kernels.chain_paths(kernels.chain_tables(cdf), x0, u)
    monkeypatch.setattr(kernels, "_TABLE_ENTRIES", 0)
    assert np.array_equal(kernels.chain_paths(kernels.chain_tables(cdf), x0, u), table)
    assert np.array_equal(table, _naive_paths(cdf, x0, u))


@pytest.mark.parametrize(
    "shape, table_entries, counting",
    [((2, 200, 10_000), None, False), ((2, 2_000_000, 1), None, False),
     ((2, 2_000_000, 1), 0, False), ((2, 200, 10_000), None, True)],
    ids=["ergodic", "iid", "iid_binary_search", "ergodic_counting"],
)
def test_chain_paths_memory_bounded(monkeypatch, shape, table_entries, counting):
    """Above its output (or `counts`), the kernel allocates at most its
    slice budget, tables included."""
    if table_entries is not None:
        monkeypatch.setattr(kernels, "_TABLE_ENTRIES", table_entries)
    n, B, m = shape
    cdf, x0, _, n = _random_inputs(9, B=1, m=1, n=n)
    tables = kernels.chain_tables(cdf)
    x0 = np.zeros(B, dtype=np.int64)
    # counting draws as `FiniteMarkovSystem._slices` does: m // k codes of k
    # steps, then the steps left (1,428 codes and 4 steps for m = 10,000)
    codes = m // tables.k if counting else 0
    u = np.random.default_rng(0).random((B, codes + m - codes * tables.k))
    counts = np.zeros((B, n, n), dtype=np.int64) if counting else None
    kernels.chain_paths(tables, x0[:4], u[:4], codes=codes)  # first-call allocations
    tracemalloc.start()
    try:
        out = kernels.chain_paths(kernels.chain_tables(cdf), x0, u, counts=counts, codes=codes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 48 * kernels._SLICE_CELLS
    if counting:
        assert out.shape == (B,) and counts.sum() == B * m
        assert tables.k == 7 and codes == 1428
        assert len(tables.jump) + tables.moves.size <= kernels._JUMP_ENTRIES


def _naive_code_paths(cdf, x0, u, codes):
    """The code draws as step uniforms, stepped one at a time: code uniform v
    names i = floor(N v), or alias[i] where N v - i is not below accept[i];
    its ranks r_j = code // w**j % w each step as the uniform q[r_j - 1],
    the lowest of rank r_j (0 for rank 0)."""
    tables = kernels.chain_tables(cdf)
    N, w, k = len(tables.accept), tables.w, tables.k
    v = u[:, :codes] * N
    i = v.astype(np.int64)
    code = np.where(v - i < tables.accept[i], i, tables.alias[i])
    ranks = code[:, :, None] // w ** np.arange(k) % w
    lowest = np.concatenate([[0.0], tables.q])
    steps = np.concatenate([lowest[ranks].reshape(len(u), codes * k), u[:, codes:]], axis=1)
    # the first j with v < cdf[i, j] is the count of j with cdf[i, j] <= v
    paths = np.empty((len(u), steps.shape[1] + 1), dtype=np.int64)
    paths[:, 0] = x0
    for t, v in enumerate(steps.T):
        paths[:, t + 1] = (cdf[paths[:, t]] <= v[:, None]).sum(axis=1)
    return paths


def _check_codes(cdf, x0, u, codes):
    """Paths and counting mode step the codes as `_naive_code_paths` does."""
    tables = kernels.chain_tables(cdf)
    naive = _naive_code_paths(cdf, x0, u, codes)
    paths = kernels.chain_paths(tables, x0, u, codes=codes)
    assert np.array_equal(paths, naive)
    n = tables.n
    counts = np.ones((len(x0), n, n), dtype=np.int64)
    last = kernels.chain_paths(tables, x0, u, counts=counts, codes=codes)
    assert np.array_equal(counts - 1, kernels.pair_counts(naive[:, :-1], naive[:, 1:], n))
    assert np.array_equal(last, naive[:, -1])


def _product_law(tables):
    """prod_j p[r_j] over the ranks r_j of each code, p[r] the measure of
    the uniforms of rank r: q[r] - q[r-1] within [0, 1]."""
    w, k = tables.w, tables.k
    p = np.diff(np.clip(np.concatenate([[0.0], tables.q, [1.0]]), 0.0, 1.0))
    ranks = np.arange(w**k)[:, None] // w ** np.arange(k) % w
    return np.prod(p[ranks], axis=1)


def _check_alias(tables):
    """The alias table's implied law is the codes' product law, and a code
    of no mass is never drawn: accept 0, and no entry's alias."""
    law = _product_law(tables)
    accept, alias = tables.accept, tables.alias
    N = len(law)
    assert np.all((accept >= 0.0) & (accept <= 1.0))
    implied = (accept + np.bincount(alias, weights=1.0 - accept, minlength=N)) / N
    assert np.all(np.abs(implied - law) <= 1e-12 * law)
    zero = law == 0.0
    assert np.all(accept[zero] == 0.0)
    assert not np.isin(alias, np.flatnonzero(zero)).any()


def _chain_cdf(P):
    cdf = np.cumsum(np.asarray(P, dtype=float), axis=1)
    cdf[:, -1] = np.maximum(cdf[:, -1], 1.0)
    return cdf


@pytest.mark.parametrize("case", sorted(c for c in CASES if CASES[c][2] <= 5))
def test_code_draws_match_naive(case):
    B, m, n, zero_frac = CASES[case]
    cdf, x0, u, n = _random_inputs(sorted(CASES).index(case), B=B, m=m, n=n,
                                   zero_frac=zero_frac)
    tables = kernels.chain_tables(cdf)
    if tables.jump is None:
        with pytest.raises(ValueError, match="jump tables"):
            kernels.chain_paths(tables, x0, u, codes=1)
        return
    # every draw a code, none, and codes with a few steps left
    for codes in {m, 0, max(m - 3, 0)}:
        _check_codes(cdf, x0, u, codes)
        assert kernels.chain_paths(tables, x0, u, codes=codes).shape == (
            B, codes * tables.k + m - codes + 1)


@pytest.mark.parametrize("case", sorted(TIED))
def test_code_draws_with_tied_and_zero_thresholds(case):
    cdf = _chain_cdf(TIED[case])
    cdf[:, -1] = 1.0
    tables = kernels.chain_tables(cdf)
    _check_alias(tables)
    g = np.random.default_rng(sorted(TIED).index(case))
    _check_codes(cdf, g.integers(0, len(cdf), size=25), g.random((25, 40)), 37)


@pytest.mark.parametrize("B, c", [(120, 3), (20, 30), (5, 40)])
def test_code_draws_slice_on_both_axes(monkeypatch, B, c):
    # 50 cells hold 16 codes of 3 steps: slices of whole rows and of codes
    cdf, x0, u, n = _random_inputs(5, B=B, m=c, n=3)
    monkeypatch.setattr(kernels, "_SLICE_CELLS", 50)
    assert kernels.chain_tables(cdf).k == 3
    _check_codes(cdf, x0, u, c - 1)


# k for n states and w ranks, w = 1..n(n-1)+1.  k sets how many uniforms a
# row draws, so it is part of every chain's stream.  Without
# `_jump_entries`' `+ w` term, (7, 13) alone would move, from k = 1 to 2.
PINNED_K = {
    1: [16],
    2: [16, 10, 7],
    3: [16, 10, 6, 5, 4, 4, 3],
    4: [16, 9, 5, 4, 4, 3, 3, 3, 3, 2, 2, 2, 2],
    5: [16, 8, 5, 4, 3, 3, 3] + [2] * 14,
    6: [16, 7, 5, 4, 3, 3] + [2] * 10 + [1] * 15,
    7: [16, 7, 4, 3, 3] + [2] * 7 + [1] * 31,
}


def _cdf_of_ranks(n, w):
    """An n-state cdf whose inner entries take w - 1 distinct values."""
    q = list(np.arange(1, w) / w)
    inner = np.sort(np.reshape(sorted(q + q[-1:] * (n * (n - 1) - len(q))), (n, n - 1)), axis=1)
    return np.concatenate([inner, np.ones((n, 1))], axis=1)


def test_k_is_pinned():
    assert PINNED_K[7][13 - 1] == 1
    for n, ks in PINNED_K.items():
        assert len(ks) == n * (n - 1) + 1
        for w, k in enumerate(ks, start=1):
            # the budget rule, at every (n, w)
            fits = [j for j in range(2, kernels._MAX_JUMP + 1)
                    if kernels._jump_entries(n, w, j) <= kernels._JUMP_ENTRIES]
            assert max(fits, default=1) == k
            # a chain of two states or more has a threshold, so w >= 2
            if n == 1 or w > 1:
                tables = kernels.chain_tables(_cdf_of_ranks(n, w))
                assert (tables.w, tables.k) == (w, k)
                assert (tables.jump is None) == (k == 1)


def test_jump_budget_holds_every_table():
    # a 5-state chain of 21 distinct thresholds still steps 2 a gather
    for n, k in [(1, 16), (2, 7), (3, 3), (4, 2), (5, 2)]:
        cdf = _random_inputs(n, B=1, m=1, n=n)[0]
        tables = kernels.chain_tables(cdf)
        assert tables.k == k and tables.w == n * (n - 1) + 1
        entries = len(tables.jump) + tables.moves.size
        entries += tables.path.size + tables.accept.size + tables.alias.size
        assert entries <= kernels._JUMP_ENTRIES
        _check_alias(tables)


@pytest.mark.parametrize("seed", range(40))
def test_alias_law_on_random_chains(seed):
    """1 to 5 states, with rows that put a threshold at 0 (a zero first
    entry), at 1 (trailing zeros) and ties across rows."""
    g = np.random.default_rng(seed)
    n = seed % 5 + 1
    P = g.random((n, n)) * (g.random((n, n)) < 0.8)
    P[:, -1] += P.sum(axis=1) == 0
    if n > 1 and seed % 3 == 0:
        P[1] = P[0]
    P /= P.sum(axis=1, keepdims=True)
    _check_alias(kernels.chain_tables(_chain_cdf(P)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 4), data=st.data())
def test_code_draws_on_small_chains(n, data):
    """Small integer weights tie many thresholds and put some at 0 and 1."""
    weights = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n * n,
                                          max_size=n * n)), dtype=float).reshape(n, n)
    weights[:, 0] += weights.sum(axis=1) == 0
    cdf = _chain_cdf(weights / weights.sum(axis=1, keepdims=True))
    tables = kernels.chain_tables(cdf)
    _check_alias(tables)
    B, c = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 12))
    g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    u = g.random((B, c + data.draw(st.integers(0, tables.k - 1))))
    _check_codes(cdf, g.integers(0, n, size=B), u, c)


def test_pair_counts_matches_naive():
    cdf, x0, u, n = _random_inputs(7, B=8, m=25)
    paths = kernels.chain_paths(kernels.chain_tables(cdf), x0, u)
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


def test_pair_counts_adds_into_out():
    cdf, x0, u, n = _random_inputs(9, B=5, m=40)
    paths = kernels.chain_paths(kernels.chain_tables(cdf), x0, u)
    out = kernels.pair_counts(paths[:, :-1], paths[:, 1:], n)
    first = kernels.pair_counts(paths[:, :21], paths[:, 1:22], n)
    total = kernels.pair_counts(paths[:, 21:-1], paths[:, 22:], n, out=first)
    assert total is first
    assert np.array_equal(total, out)


def _tables_of_thresholds(q):
    """The tables of a chain whose inner cdf entries are the sorted q, laid
    row by row over the fewest states that hold them (the last repeated)."""
    q = np.sort(np.asarray(q, dtype=float))
    n = 2
    while n * (n - 1) < len(q):
        n += 1
    inner = np.append(q, np.full(n * (n - 1) - len(q), q[-1])).reshape(n, n - 1)
    return kernels.chain_tables(np.concatenate([inner, np.ones((n, 1))], axis=1))


def _ranks_of(tables, v):
    v = np.asarray(v, dtype=float)
    out, idx = np.empty(v.shape, dtype=np.int64), np.empty(v.shape, dtype=np.int64)
    kernels._ranks(tables, v, out, idx, np.empty(v.shape), np.empty(v.shape, dtype=bool))
    return out


def _probes(tables):
    """0, each threshold in [0, 1), its float neighbours in [0, 1), each
    bucket edge, and 1000 uniforms."""
    q = tables.q
    G = len(tables.base) - 1
    v = np.concatenate([[0.0], q, np.nextafter(q, -1.0), np.nextafter(q, 2.0),
                        np.arange(G) / G, np.random.default_rng(len(q)).random(1000)])
    return v[(v >= 0.0) & (v < 1.0)]


def _check_ranks(thresholds):
    tables = _tables_of_thresholds(thresholds)
    q = np.unique(thresholds)
    assert np.array_equal(tables.q, q)
    # the bucket index: G + 1 offsets, G the least power of two above K, and
    # q padded by c infinities, c the fullest bucket's count
    K, G = len(q), len(tables.base) - 1
    assert G == 1 << K.bit_length()
    assert np.array_equal(tables.base, [np.sum(q < g / G) for g in range(G + 1)])
    c = len(tables.padded) - K
    assert c == np.diff(tables.base).max() and np.all(tables.padded[K:] == np.inf)
    v = _probes(tables)
    assert np.array_equal(_ranks_of(tables, v), np.searchsorted(q, v, "right"))
    # a time-major (span, rows) slice, as `_steps` passes it
    v = v[: len(v) // 4 * 4].reshape(4, -1)
    assert np.array_equal(_ranks_of(tables, v), np.searchsorted(q, v, "right"))
    return tables


# thresholds that each stress one part of the bucket index
RANK_THRESHOLDS = {
    # 33 thresholds, 64 buckets: each threshold on a bucket edge g / G
    "on_bucket_edges": np.arange(1, 34) / 64,
    # cdf round-off: thresholds at 1 and just past it, never reached
    "at_and_past_one": np.r_[np.linspace(0.1, 0.9, 30), 1.0, np.nextafter(1.0, 2.0),
                             1.0 + 1e-12],
    # 2,000 thresholds in one bucket of 4,096, and 50 spread out
    "crowded_bucket": np.r_[0.5 + np.linspace(0.0, 1.0, 2000, endpoint=False) / 8192,
                            np.linspace(0.01, 0.99, 50)],
    "zero_threshold": np.r_[0.0, 0.0, 0.25, 0.75],
    "one_threshold": [0.3],
    "K_33": np.random.default_rng(33).random(33),
    "K_2450": np.random.default_rng(2450).random(2450),
    "K_39800": np.random.default_rng(39800).random(39800),
}


@pytest.mark.parametrize("case", sorted(RANK_THRESHOLDS))
def test_ranks_match_searchsorted(case):
    tables = _check_ranks(RANK_THRESHOLDS[case])
    if case == "crowded_bucket":
        # the search is as deep as the crowd: log2(2001) rounded up
        assert len(tables.padded) - len(tables.q) >= 2000
        assert (len(tables.padded) - len(tables.q)).bit_length() == 11
    if case == "K_39800":
        assert tables.step is None  # 200 states step by binary search


def test_ranks_of_a_one_state_chain():
    """No thresholds: one bucket, no padding, every uniform of rank 0."""
    tables = kernels.chain_tables(np.ones((1, 1)))
    assert len(tables.q) == 0 and len(tables.padded) == 0 and list(tables.base) == [0, 0]
    assert np.array_equal(_ranks_of(tables, [0.0, 0.5, np.nextafter(1.0, 0.0)]), [0, 0, 0])


def _threshold_lists():
    """Thresholds from uniform floats, bucket edges k / 2**j and their
    neighbours, clusters and ties, with some at or past 1."""
    unit = st.floats(0.0, 1.0)
    edge = st.builds(lambda k, j: k / 2**j, st.integers(0, 64), st.integers(0, 8))
    near = st.builds(lambda x, up: np.nextafter(x, 2.0 if up else -1.0), edge, st.booleans())
    past = st.sampled_from([1.0, float(np.nextafter(1.0, 2.0)), 1.0 + 1e-13])
    cluster = st.builds(lambda c, k: [c + i * 2.0**-40 for i in range(k)],
                        st.floats(0.0, 0.99), st.integers(1, 60))
    single = st.one_of(unit, edge, near, past).map(lambda x: [x])
    return st.lists(st.one_of(single, cluster), min_size=1, max_size=40).map(
        lambda parts: np.clip(np.concatenate(parts), 0.0, None))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(q=_threshold_lists(), v=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
def test_ranks_match_searchsorted_on_drawn_thresholds(q, v):
    tables = _check_ranks(q)
    v = np.asarray(v, dtype=float)
    assert np.array_equal(_ranks_of(tables, v), np.searchsorted(tables.q, v, "right"))


def test_pair_counts_rejects_a_strided_out():
    xs = np.zeros((2, 3), dtype=np.int64)
    out = np.zeros((2, 2, 4), dtype=np.int64)[:, :, :2]
    with pytest.raises(ValueError, match="C-contiguous"):
        kernels.pair_counts(xs, xs, 2, out=out)


def test_searchsorted_convention_matches_numpy():
    cdf, x0, u, n = _random_inputs(11, B=16, m=1)
    nxt = kernels.chain_paths(kernels.chain_tables(cdf), x0, u)[:, 1]
    expected = np.array(
        [np.searchsorted(cdf[x0[i]], u[i, 0], side="right") for i in range(len(x0))]
    )
    assert np.array_equal(nxt, expected)


def test_backend_name_reported():
    assert kernels.backend_name() == "python"
