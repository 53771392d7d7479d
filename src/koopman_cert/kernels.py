"""The hot kernels: batched finite-chain stepping and transition counts.

Every Monte-Carlo run steps its chains through `chain_paths` and counts
their transitions with `pair_counts`; callers use both as module
attributes.  Both are pure numpy.
"""

import numpy as np


# Chains are stepped in slices of at most _SLICE_CELLS (trajectory, step)
# cells.  A cell costs at most 48 bytes of buffers (rank, next state, a bool,
# the flat index, and searchsorted's result and copy of the uniforms), so
# the memory above the output array stays under 48 * _SLICE_CELLS bytes plus
# the successor table, whatever B and m are.  Small slices also stay in cache.
_SLICE_CELLS = 1 << 15

# The successor table has n * (K + 1) entries for K distinct thresholds, up
# to n**3; past this many entries the same step function is binary-searched.
_TABLE_ENTRIES = 1 << 18

# Up to this many distinct thresholds, ranking a uniform by one comparison
# per threshold is faster than a binary search.
_FEW_THRESHOLDS = 32


def chain_paths(cdf, x0, u):
    """Step a batch of finite-chain trajectories.

    Parameters
    ----------
    cdf : (n, n) float64
        Row-wise cumulative transition probabilities: rows non-decreasing
        (a cumsum of non-negative entries) and cdf[i, -1] >= 1.
    x0 : (B,) int64
        Initial states.
    u : (B, m) float64
        Uniform draws in [0, 1), one per step per trajectory.

    Returns
    -------
    (B, m+1) int64 array of states; column 0 equals x0.  The successor of
    state i under the uniform v is the first j with v < cdf[i, j].
    """
    cdf = np.ascontiguousarray(cdf, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.int64)
    u = np.asarray(u, dtype=np.float64)
    B, m = u.shape
    n = cdf.shape[0]
    paths = np.empty((B, m + 1), dtype=np.int64)
    paths[:, 0] = x0
    if B == 0 or m == 0:
        return paths
    # Rows are non-decreasing, so the successor of i under v is
    # #{j < n-1 : cdf[i, j] <= v}, which depends on v only through its rank
    # r = #{q <= v} among the distinct inner thresholds q.  With w = len(q)
    # + 1, a table indexed by i * w + r names every successor.  It holds the
    # successor times w, so a step is one add and one gather.
    inner = cdf[:, :-1]
    q, where = np.unique(inner, return_inverse=True)
    w = len(q) + 1
    # cdf[i, j] <= v from rank edges[i, j] on: row i of the table is j on
    # ranks [edges[i, j-1], edges[i, j])
    edges = where.reshape(inner.shape) + 1
    if n * w <= _TABLE_ENTRIES:
        bounds = np.concatenate(
            [np.zeros((n, 1), np.int64), edges, np.full((n, 1), w, np.int64)], axis=1
        )
        table = np.repeat(np.tile(np.arange(0, n * w, w, dtype=np.int64), n),
                          np.diff(bounds, axis=1).ravel())
    else:
        table = None
        keys = (edges + np.arange(n, dtype=np.int64)[:, None] * w).ravel()

    rows = min(B, _SLICE_CELLS)
    span = min(m, _SLICE_CELLS // rows)
    rank = np.empty((span, rows), dtype=np.int64)
    nxt = np.empty((span, rows), dtype=np.int64)
    hit = np.empty((span, rows), dtype=bool)
    idx = np.empty(rows, dtype=np.int64)
    for lo in range(0, B, rows):
        hi = min(lo + rows, B)
        cur = x0[lo:hi] * w
        ix = idx[: hi - lo]
        for t0 in range(0, m, span):
            t1 = min(t0 + span, m)
            # time-major slice: row t holds step t0 + t of every trajectory
            r = rank[: t1 - t0, : hi - lo]
            nx = nxt[: t1 - t0, : hi - lo]
            _ranks(q, u[lo:hi, t0:t1].T, r, hit[: t1 - t0, : hi - lo])
            if table is not None:
                for rt, cur_next in zip(r, nx):
                    np.add(cur, rt, out=ix)
                    cur = table.take(ix, out=cur_next, mode="clip")
            else:
                for rt, cur_next in zip(r, nx):
                    np.add(cur, rt, out=ix)
                    cur = _search(keys, ix, w, n, out=cur_next)
            np.floor_divide(nx, w, out=r)
            paths[lo:hi, t0 + 1 : t1 + 1] = r.T
    return paths


def _search(keys, idx, w, n, out):
    """out[...] = table[idx] without the table: keys holds, row by row, the
    sorted flat indices i * w + edges[i, j] at which the successor steps up."""
    np.floor_divide(idx, w, out=out)
    out *= 1 - n
    out += keys.searchsorted(idx, side="right")
    out *= w
    return out


def _ranks(q, v, out, hit):
    """out[...] = #{r : q[r] <= v}, the rank of each v among sorted q."""
    if len(q) > _FEW_THRESHOLDS:
        out[...] = np.searchsorted(q, v, side="right")
        return
    out[...] = 0
    for threshold in q:
        np.greater_equal(v, threshold, out=hit)
        out += hit


def pair_counts(xs, ys, n_states):
    """Per-trial transition counts of a block of pairs.

    Parameters
    ----------
    xs, ys : (B, m) integer states; a trajectory block `paths` (B, m+1)
        passes `paths[:, :-1], paths[:, 1:]`
    n_states : int

    Returns
    -------
    (B, n, n) int64; entry [b, i, j] counts pairs xs[b, k] = i, ys[b, k] = j.
    """
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    B, m = xs.shape
    n = int(n_states)
    counts = np.empty((B, n, n), dtype=np.int64)
    # chunk over trials to bound the size of the flattened index array
    rows = max(1, int(2**22) // max(m, 1))
    for lo in range(0, B, rows):
        hi = min(lo + rows, B)
        flat = xs[lo:hi] * n + ys[lo:hi]
        flat += np.arange(hi - lo, dtype=np.int64)[:, None] * (n * n)
        counts[lo:hi] = np.bincount(
            flat.ravel(), minlength=(hi - lo) * n * n
        ).reshape(hi - lo, n, n)
    return counts


def backend_name():
    """Name of the kernel implementation, recorded with benchmark results."""
    return "python"
