"""The hot kernels: batched finite-chain stepping and transition counts.

Every Monte-Carlo run steps its chains through `chain_paths`, on the step
tables `chain_tables` builds once per chain.  In paths mode it returns the
states.  In counting mode (`counts=`) it adds each trajectory's transition
counts into an array and returns only the last states: a chain whose rank
alphabet is small (see `_JUMP_ENTRIES`) is then stepped k steps per gather
through k-step jump tables, which also hold the k steps' counts, so no path
is formed; any other chain is stepped one step per gather and its paths are
counted with `pair_counts`.  Callers use the functions as module
attributes.  All are pure numpy.
"""

from typing import NamedTuple

import numpy as np


# Chains are stepped in slices of at most _SLICE_CELLS (trajectory, step)
# cells.  A cell costs at most 48 bytes of buffers (rank, next state, a bool,
# the flat index, and searchsorted's result and copy of the uniforms), so
# the memory above the output array stays under 48 * _SLICE_CELLS bytes plus
# the step tables, whatever B and m are.  Small slices also stay in cache.
# Counting mode holds no states: a cell costs a one-byte rank, a bool and,
# per k steps, an 8-byte code and the code's n^2 uint8 counts, under 48
# bytes for every chain that has jump tables, plus the (rows, n^2) int64 sum
# of a slice's counts, no larger than those rows of `counts`.
_SLICE_CELLS = 1 << 15

# The successor table has n * (K + 1) entries for K distinct thresholds, up
# to n**3; past this many entries the same step function is binary-searched.
_TABLE_ENTRIES = 1 << 18

# The jump tables of k steps and of one step hold n * w**k and n * w states
# for w = K + 1 ranks, each with its n^2 counts; k is the largest that keeps
# all n * (n^2 + 1) * (w**k + w) entries within this budget (k = 7 for two
# states).  A chain whose budget allows only k = 1 has no jump tables.
_JUMP_ENTRIES = 1 << 16

# A one-state chain has one rank, so its tables fit the budget at any k.
_MAX_JUMP = 16

# Up to this many distinct thresholds, ranking a uniform by one comparison
# per threshold is faster than a binary search.
_FEW_THRESHOLDS = 32


class ChainTables(NamedTuple):
    """The step function of a chain, as `chain_tables` builds it."""

    n: int
    q: np.ndarray  # the distinct inner thresholds, sorted
    step: np.ndarray  # successor * w by i * w + rank, or None: search `keys`
    keys: np.ndarray
    jumps: tuple  # ((k, jump, moves), (1, jump, moves)), or () for none

    @property
    def w(self):
        return len(self.q) + 1


def chain_tables(cdf):
    """The step tables of a chain with row-wise cumulative transition
    probabilities `cdf` (rows non-decreasing, cdf[i, -1] >= 1).

    The successor of state i under the uniform v is the first j with v <
    cdf[i, j], #{j < n-1 : cdf[i, j] <= v}, which depends on v only through
    its rank r = #{q <= v} among the distinct inner thresholds q.  With w =
    len(q) + 1 ranks, `step[i * w + r]` is that successor times w, so a step
    is one add and one gather.  k steps of ranks r_0..r_{k-1} form one code
    c = sum_j r_j w**j; each (k, jump, moves) of `jumps` holds, at i * w**k
    + c, the state after those k steps times w**k (`jump`) and their n^2
    transition counts (`moves`, uint8).
    """
    cdf = np.ascontiguousarray(cdf, dtype=np.float64)
    n = cdf.shape[0]
    inner = cdf[:, :-1]
    q, where = np.unique(inner, return_inverse=True)
    w = len(q) + 1
    # cdf[i, j] <= v from rank edges[i, j] on: row i of the table is j on
    # ranks [edges[i, j-1], edges[i, j])
    edges = where.reshape(inner.shape) + 1
    if n * w > _TABLE_ENTRIES:
        keys = (edges + np.arange(n, dtype=np.int64)[:, None] * w).ravel()
        return ChainTables(n, q, None, keys, ())
    bounds = np.concatenate(
        [np.zeros((n, 1), np.int64), edges, np.full((n, 1), w, np.int64)], axis=1
    )
    succ = np.repeat(np.tile(np.arange(n, dtype=np.int64), n), np.diff(bounds, axis=1).ravel())
    step = succ * w
    k = 1
    while k < _MAX_JUMP and n * (n * n + 1) * (w ** (k + 1) + w) <= _JUMP_ENTRIES:
        k += 1
    return ChainTables(n, q, step, None, _jumps(succ.reshape(n, w), step, k) if k > 1 else ())


def _jumps(succ, step, k):
    """The (k, jump, moves) tables of k steps and of one step, from the (n,
    w) successors and the one-step table.  A code c = r_0 + w c' takes state
    i by rank r_0 to succ[i, r_0], and the k-1 steps of code c' from there."""
    n, w = succ.shape
    one = np.zeros((n, w, n * n), np.uint8)
    one[np.arange(n)[:, None], np.arange(w), np.arange(n)[:, None] * n + succ] = 1
    state, moves = succ, one
    for _ in range(k - 1):
        # [i, r_0, c'] -> [i, c', r_0], whose flat index is i * w**k + c
        state = state[succ].transpose(0, 2, 1).reshape(n, -1)
        moves = (moves[succ] + one[:, :, None]).transpose(0, 2, 1, 3).reshape(n, -1, n * n)
    return ((k, state.ravel() * w**k, moves.reshape(-1, n * n)),
            (1, step, one.reshape(-1, n * n)))


def chain_paths(tables, x0, u, counts=None):
    """Step a batch of finite-chain trajectories.

    Parameters
    ----------
    tables : ChainTables
        The chain's step tables (see `chain_tables`).
    x0 : (B,) int64
        Initial states.
    u : (B, m) float64
        Uniform draws in [0, 1), one per step per trajectory.
    counts : (B, n, n) C-contiguous int64, optional
        Counting mode: add the transition counts of each trajectory into
        `counts` instead of returning its states.

    Returns
    -------
    (B, m+1) int64 array of states, whose column 0 equals x0; in counting
    mode the (B,) last states.  The successor of state i under the uniform
    v is the first j with v < cdf[i, j].
    """
    x0 = np.asarray(x0, dtype=np.int64)
    u = np.asarray(u, dtype=np.float64)
    if counts is None:
        return _paths(tables, x0, u)
    if not tables.jumps:
        paths = _paths(tables, x0, u)
        pair_counts(paths[:, :-1], paths[:, 1:], tables.n, out=counts)
        return paths[:, -1].copy()
    return _count(tables, x0, u, counts)


def _paths(tables, x0, u):
    """The (B, m+1) states, one add and one gather (or search) per step."""
    B, m = u.shape
    n, q, w, table, keys = tables.n, tables.q, tables.w, tables.step, tables.keys
    paths = np.empty((B, m + 1), dtype=np.int64)
    paths[:, 0] = x0
    if B == 0 or m == 0:
        return paths
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


def _count(tables, x0, u, counts):
    """Counting mode on the jump tables: each time slice's ranks are folded
    into codes of k steps, each stepped by one add and one gather, and the
    slice's last m mod k steps by the one-step table; the counts are the
    visited entries' `moves`, summed."""
    B, m = u.shape
    last = x0.copy()
    if B == 0 or m == 0:
        return last
    if not counts.flags.c_contiguous:
        raise ValueError("counts must be C-contiguous: it is added into in place")
    flat = counts.reshape(B, -1)
    q, w = tables.q, tables.w
    k = tables.jumps[0][0]
    rows = min(B, _SLICE_CELLS)
    span = min(m, _SLICE_CELLS // rows)
    if k <= span < m:
        # slices of whole codes leave one-step codes only at the end
        span -= span % k
    # trajectory-major ranks, read along the rows of u; w**2 fits the
    # budget, so a rank fits a byte
    rank = np.empty((rows, span), dtype=np.uint8)
    hit = np.empty((rows, span), dtype=bool)
    for lo in range(0, B, rows):
        hi = min(lo + rows, B)
        x = last[lo:hi]
        for t0 in range(0, m, span):
            t1 = min(t0 + span, m)
            r = rank[: hi - lo, : t1 - t0]
            _ranks(q, u[lo:hi, t0:t1], r, hit[: hi - lo, : t1 - t0])
            t = 0
            for steps, jump, moves in tables.jumps:
                blocks = (t1 - t0 - t) // steps
                if blocks == 0:
                    continue
                codes = _fold(r[:, t : t + blocks * steps], steps, w)
                scale = w**steps
                cur = x * scale
                for c in codes:
                    np.add(cur, c, out=c)
                    jump.take(c, out=cur, mode="clip")
                np.floor_divide(cur, scale, out=x)
                flat[lo:hi] += moves.take(codes, axis=0).sum(axis=0, dtype=np.int64)
                t += blocks * steps
    return last


def _fold(r, k, w):
    """The (blocks, rows) codes sum_j r[:, b k + j] w**j of the (rows, blocks
    * k) ranks r, by Horner's rule."""
    r = r.reshape(r.shape[0], -1, k)
    code = r[:, :, k - 1].T.astype(np.int64, order="C")
    for j in range(k - 2, -1, -1):
        code *= w
        code += r[:, :, j].T
    return code


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


def pair_counts(xs, ys, n_states, out=None):
    """Per-trial transition counts of a block of pairs.

    Parameters
    ----------
    xs, ys : (B, m) integer states; a trajectory block `paths` (B, m+1)
        passes `paths[:, :-1], paths[:, 1:]`
    n_states : int
    out : (B, n, n) int64, optional
        Counts to add these into, so that time slices of one block tally
        in place.

    Returns
    -------
    (B, n, n) int64; entry [b, i, j] counts pairs xs[b, k] = i, ys[b, k] = j,
    plus out[b, i, j] when `out` is given (and is then `out`).
    """
    xs = np.asarray(xs, dtype=np.int64)
    B, n = len(xs), int(n_states)
    flat = xs * n + np.asarray(ys, dtype=np.int64)
    flat += np.arange(B, dtype=np.int64)[:, None] * (n * n)
    counts = np.bincount(flat.ravel(), minlength=B * n * n).reshape(B, n, n)
    if out is None:
        return counts
    out += counts
    return out


def backend_name():
    """Name of the kernel implementation, recorded with benchmark results."""
    return "python"
