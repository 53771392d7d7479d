"""Dynamical-system abstractions and sample-pair generation.

Four system classes are provided: finite Markov chains (the exactly
computable reference class), circle rotations by an irrational angle, noisy
iterated maps, and Euler-Maruyama discretizations of SDEs.  A noisy map or
SDE whose lag is exactly a Gaussian AR(1) step carries that law
(`GaussianAR1`) and is sampled from it directly; one without a law is
stepped from its `x0` through a fixed burn-in of `_BURN_IN` lags.  Every
class implements one protocol (`System`), sampled a time slice at a time,
and every i.i.d. pair set starts from the system's own `initial_law`.
`ergodic_chunk` and `iid_chunk` run it on explicit seeds, and
`sample_ergodic` and `sample_iid` return one trajectory or pair set.
"""

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels, rng
from .dictionaries import DictionaryKind, fourier
from .errors import ConfigError, DomainError, NonErgodicChain, NumericalError, UnsupportedSystem


class Regime(enum.Enum):
    ERGODIC = "ergodic"
    IID = "iid"


@dataclass
class SamplePairs:
    """m sample pairs (xs[k], ys[k]) plus the regime and seed they came from."""

    xs: np.ndarray
    ys: np.ndarray
    regime: Regime
    seed: int

    @property
    def m(self):
        return len(self.xs)


def _check_square_stochastic(P, tol=1e-12):
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ConfigError(f"transition matrix must be square, got {P.shape}")
    if not np.all(np.isfinite(P)):
        raise ConfigError("transition matrix has non-finite entries")
    if np.any(P < 0):
        raise ConfigError("transition matrix has negative entries")
    rows = P.sum(axis=1)
    if np.max(np.abs(rows - 1.0)) > tol:
        raise ConfigError("transition matrix rows must sum to 1 within 1e-12")
    return P


def _bfs_levels(support):
    """Breadth-first distance from state 0 along edges i -> j with
    support[i, j]; -1 for states that cannot be reached."""
    levels = np.full(support.shape[0], -1, dtype=np.int64)
    levels[0] = 0
    frontier = np.zeros(support.shape[0], dtype=bool)
    frontier[0] = True
    depth = 0
    while frontier.any():
        depth += 1
        frontier = support[frontier].any(axis=0) & (levels < 0)
        levels[frontier] = depth
    return levels


def _period(support, levels):
    """Period of an irreducible chain: the gcd of levels[i] + 1 - levels[j]
    over its edges i -> j, with levels from a breadth-first search."""
    i, j = np.nonzero(support)
    return int(np.gcd.reduce(levels[i] + 1 - levels[j]))


class System:
    """The protocol of a system class, with its defaults.  A chunk of count
    trials is sampled one time slice of at most `span` lags at a time:
    `ergodic_slices(m, gen, count, span)` yields the (count, s+1, ...)
    stationary states of each slice of s lags, from the last state of the
    slice before, and `iid_slices` the (count, s, ...) xs and ys of each
    slice of count sets of m pairs: one `initial_law` draw of count * s,
    then `successor(xs, gen)`, y ~ rho(x, .) for each x.  Every lag draws
    for the whole chunk, so ergodic states do not depend on span, and
    `ergodic_block`, their one slice, is (count, m+1, ...) states."""

    def initial_law(self):
        """The i.i.d. start law as a sampler (gen, m) -> m states."""
        raise UnsupportedSystem("i.i.d. sampling needs an initial-measure sampler; "
                                f"{type(self).__name__} has none")

    def koopman_space(self, dictionary):
        """The finite space on which K acts exactly, as the keyword arguments
        of `variance.KoopmanMatrixRep`: K, weights, one, psi (the dictionary
        in the space's coordinates) and optionally nodes and eigs."""
        raise UnsupportedSystem(f"no exact representation for {type(self).__name__}")

    def iid_slices(self, m, gen, count, span):
        law = self.initial_law()
        # one slice, of no pairs, where m = 0
        for t in range(0, max(m, 1), span):
            s = min(span, m - t)
            xs = law(gen, count * s)
            shape = (count, s) + xs.shape[1:]
            yield xs.reshape(shape), self.successor(xs, gen).reshape(shape)

    def ergodic_block(self, m, gen, count):
        return next(self.ergodic_slices(m, gen, count, max(m, 1)))


# A block holds at most _BLOCK_CELLS cells (`block_rows`), so memory stays
# bounded whatever m is: a chain chunk's (rows, n, n) counts, a rotation's
# (rows, d, d) phase sums, a states chunk's (count, span, N) dictionary
# values.  A chain block is stepped in time slices of _STEP_CELLS (trial,
# step) cells, or of n^2 steps where that is longer (counting a slice
# touches all rows * n^2 counts), cut to whole codes of k steps.  Each
# chain slice draws its own uniforms and each i.i.d. slice its own xs: see
# `rng` for the output contract.
_BLOCK_CELLS = 4_000_000
_STEP_CELLS = 1 << 18


def block_rows(count, cells):
    """How many of `count` rows of `cells` cells each one block holds:
    _BLOCK_CELLS // cells, and at least 1 and at most count."""
    return max(1, min(_BLOCK_CELLS // cells, count))


class FiniteMarkovSystem(System):
    """Finite-state Markov chain given by a row-stochastic transition matrix.

    The invariant distribution is computed (never user-supplied) and is only
    defined when the chain is ergodic (irreducible and aperiodic).  Functions
    on the chain are their values on the states.
    """

    def __init__(self, transition):
        P = _check_square_stochastic(transition).copy()
        P.setflags(write=False)
        self.transition = P
        self.n_states = P.shape[0]
        support = P > 0.0
        levels = _bfs_levels(support)
        self._irreducible = bool(
            np.all(levels >= 0) and np.all(_bfs_levels(support.T) >= 0)
        )
        self.is_ergodic = self._irreducible and _period(support, levels) == 1
        self._pi = self._solve_invariant() if self._irreducible else None
        # row-wise cdf for the sampling kernels; force the last column to
        # dominate every uniform in [0, 1)
        cdf = np.cumsum(P, axis=1)
        cdf[:, -1] = np.maximum(cdf[:, -1], 1.0)
        cdf.setflags(write=False)
        self._cdf = cdf

    def _solve_invariant(self):
        # solve pi (P - I) = 0 with the normalization sum(pi) = 1 by
        # replacing the last equation
        n = self.n_states
        A = self.transition.T - np.eye(n)
        A[-1, :] = 1.0
        b = np.zeros(n)
        b[-1] = 1.0
        pi = np.linalg.solve(A, b)
        pi = np.maximum(pi, 0.0)
        pi /= pi.sum()
        pi.setflags(write=False)
        return pi

    @property
    def pi(self):
        if not self.is_ergodic:
            raise NonErgodicChain(
                "invariant distribution requires an irreducible aperiodic chain"
            )
        return self._pi

    def initial_law(self):
        return categorical_sampler(self.pi)

    @functools.cached_property
    def _tables(self):
        """The chain's `kernels.ChainTables`, built on first sampling: not
        in __init__, so that building a system stays cheap."""
        return kernels.chain_tables(self._cdf)

    def _slices(self, m, gen, count):
        """Yield (lo, t, x, u, codes) for each block of trials lo.. and each
        time slice t..t+s of the block in turn: x holds the block's states
        at step t, and the caller steps it in place over u, the draws the
        slice takes from `gen` in one (rows, codes + s - codes * k) array:
        for a chain with k-step jump tables, s // k code uniforms, then one
        uniform for each of the s mod k steps left; for any other chain (k =
        1, no codes), one uniform per step.  The chunk's starts are drawn
        first, and a slice spans a multiple of k steps, so only a row's last
        slice has steps left.  `ergodic_block` and `ergodic_counts` both
        step these draws, so both see one stream."""
        if not self.is_ergodic:
            raise NonErgodicChain("ergodic sampling requires an ergodic chain")
        n, k = self.n_states, self._tables.k
        x0 = self.initial_law()(gen, count)
        rows = block_rows(count, n * n)
        span = max(1, _STEP_CELLS // rows, n * n)
        span = max(k, span - span % k)
        for lo in range(0, count, rows):
            x = x0[lo : lo + rows]
            # one slice, of no steps, where m = 0
            for t in range(0, max(m, 1), span):
                s = min(span, m - t)
                codes = s // k if k > 1 else 0
                yield lo, t, x, gen.random((len(x), codes + s - codes * k)), codes

    def ergodic_block(self, m, gen, count):
        """The (count, m+1) paths, stepped over the draws of `_slices`."""
        out = np.empty((count, m + 1), dtype=np.int64)
        for lo, t, x, u, codes in self._slices(m, gen, count):
            paths = kernels.chain_paths(self._tables, x, u, codes=codes)
            out[lo : lo + len(x), t : t + paths.shape[1]] = paths
            x[:] = paths[:, -1]
        return out

    def ergodic_counts(self, m, gen, count):
        """Yield the (rows, n, n) int64 transition counts of the trajectories
        `ergodic_block(m, gen, count)` returns, bit for bit, block by block,
        each tallied one time slice at a time by `kernels.chain_paths` in
        counting mode: its codes through the chain's k-step jump tables,
        with no paths formed, and its single steps by `kernels.pair_counts`
        on their paths, which `_slices` bounds (at most k - 1 steps a row
        for a chain with jump tables, one time slice for any other).  `gen`
        ends where `ergodic_block` leaves it."""
        counts = None
        for _, t, x, u, codes in self._slices(m, gen, count):
            if t == 0:
                if counts is not None:
                    yield counts
                counts = np.zeros((len(x), self.n_states, self.n_states), dtype=np.int64)
            x[:] = kernels.chain_paths(self._tables, x, u, counts=counts, codes=codes)
        yield counts

    def successor(self, xs, gen):
        return kernels.chain_paths(self._tables, xs, gen.random((len(xs), 1)))[:, 1]

    def iid_counts(self, m, gen, count):
        """Yield the (rows, n, n) int64 transition counts of count sets of m
        i.i.d. pairs x ~ pi, y ~ P(x, .), in the blocks of `ergodic_counts`:
        one Multinomial(m, pi_i P_ij) draw per trial."""
        n = self.n_states
        law = (self.pi[:, None] * self.transition).ravel()
        rows = block_rows(count, n * n)
        for lo in range(0, count, rows):
            size = min(rows, count - lo)
            yield gen.multinomial(m, law / law.sum(), size=size).reshape(size, n, n)

    def koopman_space(self, dictionary):
        pi, states = self.pi, np.arange(self.n_states)
        if not np.all(pi > 0.0):
            raise NumericalError("a state's invariant mass is 0 at float precision, so "
                                 "the pi-weighted geometry is undefined")
        return {"K": self.transition.copy(), "weights": pi, "one": np.ones(self.n_states),
                "psi": dictionary.evaluate(states)}


@dataclass(frozen=True)
class QuadraticIrrational:
    """(a + b*sqrt(d)) / c with integer a, b, c, d; irrational by construction."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.c == 0:
            raise ConfigError("quadratic irrational needs c != 0")
        if self.b == 0:
            raise ConfigError("quadratic irrational needs b != 0")
        if self.d <= 0 or math.isqrt(self.d) ** 2 == self.d:
            raise ConfigError("d must be a positive non-square integer")

    def value(self):
        return (self.a + self.b * math.sqrt(self.d)) / self.c


class CircleRotationSystem(System):
    """Rotation t -> (t + t0) mod 1 on the circle, t0 in revolutions.

    Arc length is the ergodic invariant measure when t0 is irrational.  t0
    should be given as a QuadraticIrrational; a plain float is accepted for
    unit tests with rational angles.  Functions are real Fourier
    coefficients (constant, then sqrt2-normalized cos/sin pairs).
    """

    def __init__(self, t0):
        if isinstance(t0, QuadraticIrrational):
            self.t0_exact = t0
            t0 = t0.value()
        else:
            self.t0_exact = None
        t0 = float(t0) % 1.0
        if not 0.0 <= t0 < 1.0:
            raise ConfigError("t0 must reduce to [0, 1)")
        self.t0 = t0

    @classmethod
    def from_quadratic(cls, a, b, c, d):
        return cls(QuadraticIrrational(a, b, c, d))

    def initial_law(self):
        return lambda gen, m: gen.random(m)

    def ergodic_slices(self, m, gen, count, span):
        x0 = self.initial_law()(gen, count)[:, None]
        for t in range(0, max(m, 1), span):
            yield np.mod(x0 + self.t0 * np.arange(t, min(t + span, m) + 1), 1.0)

    def successor(self, xs, gen):
        return np.mod(xs + self.t0, 1.0)

    def koopman_space(self, dictionary):
        """The Fourier space truncated at twice the dictionary's maximal
        frequency R, which carries the products of dictionary elements; a
        function of degree <= R is determined by its values at the 2R+1 nodes
        a / (2R+1).  The eigenpairs of K0 are enumerated analytically."""
        if dictionary.kind is not DictionaryKind.FOURIER:
            raise UnsupportedSystem("circle representations require a Fourier dictionary")
        R = 2 * dictionary.metadata["max_freq"]
        d = 2 * R + 1
        nodes = np.arange(d) / d
        E = fourier(R).evaluate(nodes).T
        K = np.zeros((d, d))
        K[0, 0] = 1.0
        ts = np.empty(2 * R)
        V = np.zeros((d - 1, 2 * R), dtype=complex)
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        for k in range(1, R + 1):
            ang = 2.0 * np.pi * k * self.t0
            c, s = np.cos(ang), np.sin(ang)
            i = 2 * k - 1
            # K maps coefficient pairs by the transposed rotation block
            K[i : i + 2, i : i + 2] = [[c, s], [-s, c]]
            # reduced coords drop the constant: block k sits at 2k-2, 2k-1
            ts[i - 1], ts[i] = wrap_angle(k * self.t0), wrap_angle(-k * self.t0)
            V[i - 1, i - 1 : i + 1] = inv_sqrt2
            V[i, i - 1 : i + 1] = [1j * inv_sqrt2, -1j * inv_sqrt2]
        return {"K": K, "weights": np.ones(d), "one": np.eye(1, d)[0],
                "psi": np.eye(dictionary.size, d), "nodes": (nodes, E, E / d),
                "eigs": (ts, V)}


def wrap_angle(t):
    """Map revolutions to the principal interval [-1/2, 1/2)."""
    return (np.asarray(t) + 0.5) % 1.0 - 0.5


@dataclass(frozen=True)
class GaussianAR1:
    """The Gaussian AR(1) law x' = rho x + sqrt(v (1 - rho^2)) xi, xi ~ N(0, 1),
    in each coordinate: |rho| < 1 and stationary law N(0, v)."""

    rho: float
    v: float


def gaussian_ar1(rho, v):
    """GaussianAR1(rho, v), or None unless |rho| < 1 and 0 < v < inf."""
    if abs(rho) < 1.0 and 0.0 < v < math.inf:
        return GaussianAR1(float(rho), float(v))
    return None


class SteppedSystem(System):
    """A system advanced by its own `step(x, gen)`, y ~ rho(x, .) for a
    batch of states: a noisy map or an SDE.  `law` is the GaussianAR1 one
    step follows exactly, or None; without one there is no i.i.d. start law
    or exact space, and trajectories start after a burn-in from `x0`."""

    law = None

    def initial_law(self):
        if self.law is None:
            return super().initial_law()
        sd, dim = math.sqrt(self.law.v), self.state_dim
        return lambda gen, m: sd * gen.standard_normal((m, dim))

    def successor(self, xs, gen):
        """One lag: with a law, one Gaussian AR(1) step; without, `step`."""
        law = self.law
        if law is None:
            return self.step(xs, gen)
        return law.rho * xs + math.sqrt(law.v * (1.0 - law.rho**2)) * gen.standard_normal(xs.shape)

    def ergodic_slices(self, m, gen, count, span):
        """From x_0 ~ N(0, v) with a law, else from x0 after `_BURN_IN` lags."""
        if self.law is None:
            lag = _BURN_IN
            x = self._lags(np.tile(np.atleast_2d(self.x0), (count, 1)), gen, lag, 0)[:, -1]
        else:
            lag, x = 0, self.initial_law()(gen, count)
        for t in range(0, max(m, 1), span):
            block = self._lags(x, gen, min(span, m - t), lag + t)
            x = block[:, -1]
            yield block

    def _lags(self, x, gen, steps, lag):
        """(count, steps+1, state_dim): x, at lag `lag`, and `steps` lags on.
        Without a law, raise DomainError at the first lag (counted from x0,
        burn-in included) with a non-finite state, before stepping it.  A
        lag that overflows does so silently: that check reports it."""
        out = np.empty((len(x), steps + 1, self.state_dim))
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(steps + 1):
                if k:
                    x = self.successor(x, gen)
                if self.law is None and not np.isfinite(x).all():
                    raise DomainError(f"non-finite state at lag {lag + k}; "
                                      f"lags 1..{_BURN_IN} are the burn-in")
                out[:, k] = x
        return out

    def koopman_space(self, dictionary):
        """For a 1-d law and a monomial(d) dictionary: the polynomials of
        degree <= 2d (products of dictionary elements close at the doubled
        degree) in the Hermite basis orthonormal in N(0, v), on which K acts
        by Mehler's formula K h_k = rho^k h_k."""
        law = self.law
        if law is None or self.state_dim != 1:
            return super().koopman_space(dictionary)
        if dictionary.kind is not DictionaryKind.MONOMIAL:
            raise UnsupportedSystem("Gaussian AR(1) representations require a "
                                    "monomial dictionary")
        R = 2 * dictionary.metadata["degree"]
        K = np.diag(law.rho ** np.arange(R + 1))
        nodes = hermite_nodes(R, law.v)
        points, _, back = nodes
        return {"K": K, "weights": np.ones(R + 1), "one": np.eye(1, R + 1)[0],
                "psi": dictionary.evaluate(points) @ back, "nodes": nodes}


def hermite_nodes(R, v):
    """(points, E, back) for polynomials of degree <= R in the basis h_k(x) =
    He_k(x / sqrt v) / sqrt(k!), orthonormal in N(0, v).

    The R + 1 Gauss-Hermite nodes z_j and weights w_j come from the Jacobi
    matrix of the recurrence z h_k = sqrt(k+1) h_{k+1} + sqrt(k) h_{k-1}
    (Golub-Welsch): its eigenvalues, and the squared first components of
    its eigenvectors.  E[j, k] = h_k at node j and back = diag(w) E, which
    recovers the coefficients of any polynomial of degree <= R (the rule is
    exact up to degree 2R + 1).
    """
    off = np.sqrt(np.arange(1.0, R + 1))
    z, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    h = [np.zeros(R + 1), np.ones(R + 1)]
    for k in range(R):
        h.append((z * h[-1] - math.sqrt(k) * h[-2]) / off[k])
    E = np.stack(h[1:], axis=1)
    return math.sqrt(v) * z, E, vecs[0, :, None] ** 2 * E


class NoisyMapSystem(SteppedSystem):
    """x_{n+1} = T(x_n) + eps_n with i.i.d. noise from a seeded sampler.

    map_fn maps (m, d) state arrays to (m, d) arrays; noise_sampler takes
    (generator, shape) and returns increments of that shape.  With zero
    noise the trajectory equals the deterministic orbit bit for bit.
    """

    def __init__(self, map_fn, noise_sampler, state_dim, x0=None):
        self.map_fn = map_fn
        self.noise_sampler = noise_sampler
        self.state_dim = int(state_dim)
        if self.state_dim < 1:
            raise ConfigError("state_dim must be positive")
        self.x0 = (
            np.zeros(self.state_dim) if x0 is None else np.asarray(x0, dtype=np.float64)
        )

    def step(self, x, gen):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        nxt = np.asarray(self.map_fn(x), dtype=np.float64)
        nxt = nxt + self.noise_sampler(gen, nxt.shape)
        return nxt


class SdeSystem(SteppedSystem):
    """Euler-Maruyama discretization of dY = f(Y) dt + sigma(Y) dW.

    One Koopman-lag sample advances by exactly lag / integrator_dt
    Euler-Maruyama substeps.
    """

    def __init__(self, drift, diffusion, state_dim, lag, integrator_dt=None):
        self.drift = drift
        self.diffusion = diffusion
        self.state_dim = int(state_dim)
        self.lag = float(lag)
        if self.lag <= 0:
            raise ConfigError("lag must be positive")
        self.integrator_dt = self.lag / 100.0 if integrator_dt is None else float(integrator_dt)
        if self.integrator_dt <= 0:
            raise ConfigError("integrator_dt must be positive")
        ratio = self.lag / self.integrator_dt
        self.substeps = int(round(ratio))
        if abs(ratio - self.substeps) > 1e-9 or self.substeps < 1:
            raise ConfigError("lag must be a positive integer multiple of integrator_dt")
        self.x0 = np.zeros(self.state_dim)

    def step(self, x, gen):
        """Advance a batch of states by one Koopman lag."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        dt = self.integrator_dt
        sq = math.sqrt(dt)
        for _ in range(self.substeps):
            dw = gen.standard_normal(x.shape) * sq
            x = x + np.asarray(self.drift(x)) * dt + np.asarray(self.diffusion(x)) * dw
        return x


def sample_ergodic(sys, m, seed=0):
    """One stationary trajectory of length m+1: ys[k] = xs[k+1].

    Trial 0 of `ergodic_chunk(sys, m, seed, 0, 1)`, so its pairs are those
    of the Monte-Carlo engine's first trajectory in stream (seed, 0).
    """
    m = _check_m(m)
    traj = ergodic_chunk(sys, m, seed, 0, 1)[0]
    return SamplePairs(traj[:m], traj[1:], Regime.ERGODIC, seed)


def sample_iid(sys, m, seed=0):
    """m independent pairs: x_k ~ `sys.initial_law()`, y_k ~ rho(x_k, .).

    Trial 0 of `iid_chunk(sys, m, seed, 1, 1)`.
    """
    m = _check_m(m)
    xs, ys = iid_chunk(sys, m, seed, 1, 1)
    return SamplePairs(xs[0], ys[0], Regime.IID, seed)


def _check_m(m):
    m = int(m)
    if m < 1:
        raise ConfigError("m must be >= 1")
    return m


def categorical_sampler(weights):
    """Start-law sampler drawing state indices from the given probability vector."""
    weights = np.asarray(weights, dtype=np.float64)
    cdf = np.cumsum(weights)
    cdf[-1] = max(cdf[-1], 1.0)

    def sampler(gen, m):
        return np.minimum(
            np.searchsorted(cdf, gen.random(m), side="right"), len(weights) - 1
        ).astype(np.int64)

    return sampler


def ergodic_chunk(sys, m, seed, chunk_index, count, span=None):
    """`count` independent stationary trajectories on stream (seed,
    chunk_index): the iterator of `sys.ergodic_slices` of `span` lags, or
    without a span their one slice, `sys.ergodic_block`.

    States are (count, m+1) for chains and the circle, and (count, m+1,
    state_dim) for noisy maps and SDEs.  The block is a pure function of
    (seed, chunk_index); Monte-Carlo drivers may therefore evaluate chunks in
    any order or in parallel.
    """
    gen = rng.stream(seed, chunk_index)
    return sys.ergodic_slices(m, gen, count, span) if span else sys.ergodic_block(m, gen, count)


# burn-in lags of a stepped system without a law, the same at every m; on
# double-well (sigma 1, lag 0.5) trial MSEs at 100 and 1000 lags agree
_BURN_IN = 100


def iid_chunk(sys, m, seed, chunk_index, count, span=None):
    """`count` independent i.i.d. pair sets on stream (seed, chunk_index):
    the iterator of `sys.iid_slices` of `span` pairs, or without a span
    their one slice, whose xs and ys are (count, m, ...)."""
    slices = sys.iid_slices(m, rng.stream(seed, chunk_index), count, span or max(m, 1))
    return slices if span else next(slices)
