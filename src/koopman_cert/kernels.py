"""The hot kernels: batched finite-chain stepping and transition counts.

Every Monte-Carlo run steps its chains through `chain_paths`, on the step
tables `chain_tables` builds once per chain, over uniform draws.  A chain
whose rank alphabet is small (see `_JUMP_ENTRIES`) has k-step jump tables:
one uniform then draws a whole code of k steps from an alias table of the
codes' law (Walker's method), stepped by one add and one gather.  Every
other draw, past a row's codes or of a chain without jump tables, is one
step, stepped by its rank among the chain's distinct thresholds, which a
bucket index (a guide table: Chen & Asau, 1974; Devroye, 1986, III.2.4)
and a short fixed-step search find (`_ranks`).  In paths mode `chain_paths`
returns the states, which the jump tables hold for each code.  In counting
mode (`counts=`) it adds each trajectory's transition counts into an array
and returns only the last states: the jump tables hold each code's counts,
so codes form no path, and `pair_counts` counts the paths of the single
steps, which the caller bounds (see `_SLICE_CELLS`).  Callers use the
functions as module attributes.  All are pure numpy.
"""

from typing import NamedTuple

import numpy as np


# Chains are stepped in slices of at most _SLICE_CELLS (trajectory, step)
# cells, a code of k steps counting k.  A step costs at most 41 bytes of
# buffers (its rank, then flat index, its next state, a bool, `_ranks`' copy
# of its uniform and gathered threshold, and `_search`'s result), and a code
# 33 bytes (its scaled uniform, accept, truncation and entry, and a bool)
# and its k uint8 states or n^2 counts: at most 58 bytes, under 30 a step.
# So above the output array the memory stays under 48 * _SLICE_CELLS bytes
# plus the tables, whatever B and m are, and small slices stay in cache.
# Counting mode adds a slice's (rows, n^2) uint32 code counts, no larger than
# those rows of `counts`, and the (B, d - codes + 1) paths of the single
# steps with `pair_counts`' flat indices of their size, which
# `FiniteMarkovSystem._slices` bounds: at most k - 1 steps a row with jump
# tables, one time slice without.
_SLICE_CELLS = 1 << 15

# The successor table has n * (K + 1) entries for K distinct thresholds, up
# to n**3; past this many entries the same step function is binary-searched.
# Every chain also keeps a bucket index of G + 1 int64 offsets, G <= 2K + 1,
# and its K thresholds padded by c <= K infinities (`_bucket_index`): at most
# 4 (K + 1) entries, within the successor table's n (K + 1) from 4 states on
# (52 KB against its 980 KB at 50 states; 0.84 MB at 200 states, which
# search 0.32 MB of keys instead).
_TABLE_ENTRIES = 1 << 18

# The k-step jump tables hold, for w = K + 1 ranks, n * w**k entries of a
# state and its n^2 counts, plus the k states of each entry and an alias
# pair per code; k is the largest that keeps them (`_jump_entries`) within
# this budget: 7 for two states, 2 for five.  A chain whose budget allows
# only k = 1 has no jump tables.
_JUMP_ENTRIES = 1 << 16

# A one-state chain has one rank, so its tables fit the budget at any k.
_MAX_JUMP = 16


class ChainTables(NamedTuple):
    """The step function of a chain, as `chain_tables` builds it."""

    n: int
    q: np.ndarray  # the K distinct inner thresholds, sorted: padded[:K]
    padded: np.ndarray  # q, then c infinities: c is the fullest bucket's count
    base: np.ndarray  # (G + 1,) bucket offsets #{q < g / G} (see `_ranks`)
    step: np.ndarray  # successor * w by i * w + rank, or None: search `keys`
    keys: np.ndarray
    k: int = 1  # steps per code: 1 for a chain without jump tables
    jump: np.ndarray = None  # (n * w**k,) the state k steps on, times w**k
    moves: np.ndarray = None  # (n * w**k, n^2) uint8: the counts of each jump
    path: np.ndarray = None  # (n * w**k, k) uint8: the states of each jump
    accept: np.ndarray = None  # (w**k,) alias table of the codes' law
    alias: np.ndarray = None

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
    c = sum_j r_j w**j.  The jump tables hold, at i * w**k + c, the states
    of those k steps from i (`path`), the last one times w**k (`jump`) and
    their n^2 transition counts (`moves`, uint8).  A rank does not depend on
    the state and has the law p = diff([0, q, 1]), so a code has the product
    law prod_j p[r_j], which `accept` and `alias` draw (see `_alias`).
    Every chain's uniforms are ranked through its bucket index (`padded`
    and `base`, see `_bucket_index`).
    """
    cdf = np.ascontiguousarray(cdf, dtype=np.float64)
    n = cdf.shape[0]
    inner = cdf[:, :-1]
    q, where = np.unique(inner, return_inverse=True)
    w = len(q) + 1
    padded, base = _bucket_index(q)
    q = padded[: w - 1]
    # cdf[i, j] <= v from rank edges[i, j] on: row i of the table is j on
    # ranks [edges[i, j-1], edges[i, j])
    edges = where.reshape(inner.shape) + 1
    if n * w > _TABLE_ENTRIES:
        keys = (edges + np.arange(n, dtype=np.int64)[:, None] * w).ravel()
        return ChainTables(n, q, padded, base, None, keys)
    bounds = np.concatenate(
        [np.zeros((n, 1), np.int64), edges, np.full((n, 1), w, np.int64)], axis=1
    )
    succ = np.repeat(np.tile(np.arange(n, dtype=np.int64), n), np.diff(bounds, axis=1).ravel())
    k = 1
    while k < _MAX_JUMP and _jump_entries(n, w, k + 1) <= _JUMP_ENTRIES:
        k += 1
    if k > 1:
        path, moves = _jump_tables(succ.reshape(n, w), k)
    succ *= w  # in place: the step table is the successors times w
    if k == 1:
        return ChainTables(n, q, padded, base, succ, None)
    # a uniform's rank has the law p whatever the state (a threshold past 1,
    # from round-off, is never reached)
    p = np.diff(np.clip(np.concatenate([[0.0], q, [1.0]]), 0.0, 1.0))
    law = p
    for _ in range(k - 1):
        law = np.multiply.outer(p, law).ravel()
    return ChainTables(n, q, padded, base, succ, None, k, path[-1] * w**k, moves,
                       np.ascontiguousarray(path.T, dtype=np.uint8), *_alias(law))


def _bucket_index(q):
    """(padded, base): the K sorted thresholds q followed by c infinities,
    and the offsets base[g] = #{q < g / G}, g = 0..G, of the G buckets [g /
    G, (g + 1) / G) of [0, 1), for G the least power of two above K; c is
    the most thresholds any bucket holds.  G is a power of two, so g / G is
    exact, and so is the bucket floor(v G) of a uniform v."""
    K = len(q)
    G = 1 << K.bit_length()
    base = q.searchsorted(np.arange(G + 1) / G, side="left")
    c = int(np.diff(base).max())
    return np.concatenate([q, np.full(c, np.inf)]), base


def _jump_entries(n, w, k):
    """The entries that set k: n^2 counts and a state per (state, code), k
    states per (state, code) and an alias pair per code.  The `+ w` term
    counted a one-step table, which no chain builds any more; it is kept so
    that no chain's k, and so no chain's draws, move."""
    return n * (n * n + 1) * (w**k + w) + (n * k + 2) * w**k


def _jump_tables(succ, k):
    """The (k, n * w**k) states and (n * w**k, n^2) uint8 transition counts
    of the k steps of each code c from each state i, at i * w**k + c, from
    the (n, w) successors: step j of code c takes rank c // w**j % w."""
    n, w = succ.shape
    N = w**k
    succ = succ.ravel()
    path = np.empty((k, n * N), dtype=np.int64)
    moves = np.zeros(n * N * n * n, dtype=np.uint8)
    base = np.arange(n * N) * (n * n)
    cur = np.repeat(np.arange(n), N)
    code = np.tile(np.arange(N), n)
    for j in range(k):
        nxt = succ.take(cur * w + code % w)
        moves[base + cur * n + nxt] += 1
        path[j] = cur = nxt
        code //= w
    return path, moves.reshape(n * N, n * n)


def _alias(law):
    """Walker's alias table (accept, alias) of the probability vector `law`
    of N entries: for i uniform on 0..N-1 and f uniform on [0, 1), i if f <
    accept[i], else alias[i], has the law `law`.

    Built in one sweep: with s = N law, each entry below 1 (a small) is
    topped up by the large (s >= 1) whose surplus s - 1, laid end to end
    in order, holds the point where the smalls' deficits 1 - s, laid end
    to end, reach it.  A large whose surplus runs out tops up the rest of
    the small that passes it, and is topped up by the next large in turn.
    So only larges are aliases and a zero entry is a small with accept 0.
    The largest entry comes last, so the round-off of sum(s) = N lands
    where it is smallest relative to the entry, and the running sums are
    split into exact multiples of 2**-20 and small remainders, so their
    differences keep the precision of the entries (within 1e-13 relative).
    """
    N = len(law)
    s = law * (N / law.sum())
    top = np.argmax(s)
    small = s < 1.0
    small[top] = False
    S, L = np.flatnonzero(small), np.flatnonzero(~small)
    L = np.append(L[L != top], top)
    Dh, Dl = _running_sums(1.0 - s[S])
    Eh, El = _running_sums(s[L] - 1.0)
    D, E = Dh + Dl, Eh + El
    accept, alias = np.ones(N), np.arange(N)
    accept[S] = s[S]
    before = np.concatenate([[0.0], D[:-1]])
    alias[S] = L[np.minimum(E.searchsorted(before, "left"), len(L) - 1)]
    # large j runs out within the first small whose deficits pass E[j]
    i = D.searchsorted(E[:-1], "right")
    j = np.flatnonzero(i < len(D))
    i = i[j]
    accept[L[j]] = np.clip(1.0 - ((Dh[i] - Eh[j]) + (Dl[i] - El[j])), 0.0, 1.0)
    alias[L[j]] = L[j + 1]
    return accept, alias


def _running_sums(x):
    """cumsum(x) as (hi, lo): the exact running sums of x rounded to
    multiples of 2**-20 (exact while below 2**32), and of the remainders."""
    hi = np.round(x * 2.0**20) / 2.0**20
    return np.cumsum(hi), np.cumsum(x - hi)


def chain_paths(tables, x0, u, counts=None, codes=0):
    """Step a batch of finite-chain trajectories.

    Parameters
    ----------
    tables : ChainTables
        The chain's step tables (see `chain_tables`).
    x0 : (B,) int64
        Initial states.
    u : (B, d) float64
        Uniform draws in [0, 1): the first `codes` of each row each draw
        one code of k steps, and the rest each draw one step.
    counts : (B, n, n) C-contiguous int64, optional
        Counting mode: add the transition counts of each trajectory into
        `counts` instead of returning its states.
    codes : int
        How many draws of each row are codes; 0 for a chain without jump
        tables.

    Returns
    -------
    (B, m+1) int64 array of states, m = codes * k + d - codes steps, whose
    column 0 equals x0; in counting mode the (B,) last states.  Under a
    step's uniform v the successor of state i is the first j with v <
    cdf[i, j]; a code's uniform v draws the code floor(N v) for N = w**k,
    or its alias where the fraction N v - floor(N v) is not below its
    accept, and its k states are the jump tables'.
    """
    x0 = np.asarray(x0, dtype=np.int64)
    u = np.asarray(u, dtype=np.float64)
    if codes and tables.jump is None:
        raise ValueError("only a chain with jump tables steps codes")
    head, tail = codes * tables.k, u.shape[1] - codes
    if counts is None:
        paths = np.empty((len(x0), head + tail + 1), dtype=np.int64)
        paths[:, 0] = x0
        if codes:
            _walk(tables, x0.copy(), u[:, :codes], paths=paths)
        _steps(tables, u[:, codes:], paths[:, head:])
        return paths
    if not counts.flags.c_contiguous:
        raise ValueError("counts must be C-contiguous: it is added into in place")
    last = x0.copy()
    _walk(tables, last, u[:, :codes], counts=counts)
    if not tail:
        return last
    paths = np.empty((len(x0), tail + 1), dtype=np.int64)
    paths[:, 0] = last
    _steps(tables, u[:, codes:], paths)
    pair_counts(paths[:, :-1], paths[:, 1:], tables.n, out=counts)
    return paths[:, -1].copy()


def _walk(tables, x, u, paths=None, counts=None):
    """Step the states x in place over the (B, c) code draws u: each draws
    a code of k steps (`_draw`), which costs one add and one gather through
    `tables.jump`.  The visited entries i * w**k + code then give, per time
    slice, each code's k states (into paths[:, 1:]) or their counts."""
    B, c = u.shape
    if B == 0 or c == 0:
        return
    k, jump, N = tables.k, tables.jump, len(tables.accept)
    cells = max(1, _SLICE_CELLS // k)
    rows = min(B, cells)
    span = min(c, cells // rows)
    code = np.empty((span, rows), dtype=np.int64)
    # `_draw`'s accepts, scaled uniforms and their truncations
    scratch = (np.empty((span, rows), dtype=bool), np.empty((span, rows)),
               np.empty((span, rows)), np.empty((span, rows), dtype=np.int64))
    flat = None if counts is None else counts.reshape(B, -1)
    for lo in range(0, B, rows):
        hi = min(lo + rows, B)
        cur = x[lo:hi] * N
        for t0 in range(0, c, span):
            t1 = min(t0 + span, c)
            # time-major slice: row t holds draw t0 + t of every trajectory
            sl = np.s_[: t1 - t0, : hi - lo]
            ct = code[sl]
            _draw(tables, u[lo:hi, t0:t1].T, ct, *(a[sl] for a in scratch))
            for cc in ct:
                np.add(cur, cc, out=cc)
                jump.take(cc, out=cur, mode="clip")
            if flat is None:
                states = tables.path.take(ct.T, axis=0)
                paths[lo:hi, 1 + t0 * k : 1 + t1 * k] = states.reshape(hi - lo, -1)
            else:
                flat[lo:hi] += tables.moves.take(ct, axis=0).sum(axis=0, dtype=np.uint32)
        np.floor_divide(cur, N, out=x[lo:hi])


def _draw(tables, u, out, hit, v, cut, idx):
    """out[...] = the codes the uniforms u draw from the alias table: i =
    floor(N u), kept where N u - i < accept[i], else alias[i]."""
    accept = tables.accept
    np.multiply(u, len(accept), out=v)
    np.copyto(idx, v, casting="unsafe")
    v -= idx
    np.less(v, accept.take(idx, out=cut, mode="clip"), out=hit)
    tables.alias.take(idx, out=out, mode="clip")
    np.copyto(out, idx, where=hit)


def _steps(tables, u, paths):
    """Fill paths[:, 1:] from paths[:, 0], one add and one gather (or
    search) per step by the rank of its uniform in u."""
    B, m = u.shape
    n, w, table, keys = tables.n, tables.w, tables.step, tables.keys
    if B == 0 or m == 0:
        return
    rows = min(B, _SLICE_CELLS)
    span = min(m, _SLICE_CELLS // rows)
    rank = np.empty((span, rows), dtype=np.int64)
    nxt = np.empty((span, rows), dtype=np.int64)
    # `_ranks`' copy of the uniforms, its gathered thresholds and verdicts
    scratch = (np.empty((span, rows)), np.empty((span, rows)),
               np.empty((span, rows), dtype=bool))
    for lo in range(0, B, rows):
        hi = min(lo + rows, B)
        for t0 in range(0, m, span):
            t1 = min(t0 + span, m)
            # time-major slice: row t holds step t0 + t of every trajectory
            sl = np.s_[: t1 - t0, : hi - lo]
            r, nx = rank[sl], nxt[sl]
            v, found, hit = (a[sl] for a in scratch)
            np.copyto(v, u[lo:hi, t0:t1].T)
            _ranks(tables, v, r, nx, found, hit)
            # each rank row, once added to the states, is the flat index
            cur = np.multiply(paths[lo:hi, t0], w, out=nx[0])
            if table is not None:
                for rt, cur_next in zip(r, nx):
                    np.add(cur, rt, out=rt)
                    cur = table.take(rt, out=cur_next, mode="clip")
            else:
                for rt, cur_next in zip(r, nx):
                    np.add(cur, rt, out=rt)
                    cur = _search(keys, rt, w, n, out=cur_next)
            np.floor_divide(nx, w, out=r)
            paths[lo:hi, t0 + 1 : t1 + 1] = r.T


def _search(keys, idx, w, n, out):
    """out[...] = table[idx] without the table: keys holds, row by row, the
    sorted flat indices i * w + edges[i, j] at which the successor steps up."""
    np.floor_divide(idx, w, out=out)
    out *= 1 - n
    out += keys.searchsorted(idx, side="right")
    out *= w
    return out


def _ranks(tables, v, out, idx, found, hit):
    """out[...] = #{r : q[r] <= v}, the rank of each uniform v in [0, 1)
    among the sorted thresholds q, equal to searchsorted(q, v, "right");
    idx, found and hit are scratch arrays of v's shape.

    The thresholds below v's bucket g = floor(v G) (`_bucket_index`) are
    all below v and number base[g]; those past it are all above v.  So the
    rank is base[g] plus the count of bucket g's thresholds that v reaches,
    which a branch-free search of fixed depth c.bit_length() finds, for c
    the most thresholds a bucket holds.  Each step of s, for s halving from
    a power of two, probes padded[out + s - 1] (a gather through the view
    padded[s - 1:]) and adds s where v reaches it.  The probes read at most
    c entries past base[g]: the bucket's own, larger thresholds or the
    padding's infinities.  When thresholds crowd one bucket, the depth is at
    most log2(K + 1)."""
    K, padded, base = len(tables.q), tables.padded, tables.base
    np.multiply(v, len(base) - 1, out=idx, casting="unsafe")
    base.take(idx, out=out, mode="clip")
    s = 1 << (len(padded) - K).bit_length() >> 1
    while s:
        padded[s - 1 :].take(out, out=found, mode="clip")
        np.less_equal(found, v, out=hit)
        if s > 1:
            np.add(out, s, out=out, where=hit)
        else:
            out += hit
        s >>= 1


def pair_counts(xs, ys, n_states, out=None):
    """Per-trial transition counts of a block of pairs.

    Parameters
    ----------
    xs, ys : (B, m) integer states; a trajectory block `paths` (B, m+1)
        passes `paths[:, :-1], paths[:, 1:]`
    n_states : int
    out : (B, n, n) C-contiguous int64, optional
        Counts to add these into, in place, so that time slices of one
        block tally with no (B, n, n) temporary.

    Returns
    -------
    (B, n, n) int64, `out` if given; entry [b, i, j] counts pairs xs[b, k]
    = i, ys[b, k] = j, plus out[b, i, j] when `out` is given.
    """
    xs = np.asarray(xs, dtype=np.int64)
    B, n = len(xs), int(n_states)
    flat = xs * n + np.asarray(ys, dtype=np.int64)
    flat += np.arange(B, dtype=np.int64)[:, None] * (n * n)
    if out is None:
        out = np.zeros((B, n, n), dtype=np.int64)
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous: it is added into in place")
    np.add.at(out.reshape(-1), flat.ravel(), 1)
    return out


def backend_name():
    """Name of the kernel implementation, recorded with benchmark results."""
    return "python"
