"""Dynamical-system abstractions and sample-pair generation.

Four system classes are provided: finite Markov chains (the exactly
computable reference class), circle rotations by an irrational angle, noisy
iterated maps, and Euler-Maruyama discretizations of SDEs.  A noisy map or
SDE whose lag is exactly a Gaussian AR(1) step carries that law
(`GaussianAR1`) and is sampled from it directly.  There is one
batched sampler per regime, always on explicit seeds: `ergodic_chunk` draws
stationary trajectories (ergodic regime) and `iid_chunk` independent pairs
(i.i.d. regime).  `sample_ergodic` and `sample_iid` return a single
trajectory or pair set: the block's one-trial case.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import kernels, rng
from .errors import ConfigError, DomainError, NonErgodicChain


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


class FiniteMarkovSystem:
    """Finite-state Markov chain given by a row-stochastic transition matrix.

    The invariant distribution is computed (never user-supplied) and is only
    defined when the chain is ergodic (irreducible and aperiodic).
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


class CircleRotationSystem:
    """Rotation t -> (t + t0) mod 1 on the circle, t0 in revolutions.

    Arc length is the ergodic invariant measure when t0 is irrational.  t0
    should be given as a QuadraticIrrational; a plain float is accepted for
    unit tests with rational angles.
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

    def orbit(self, x0, n):
        """States x0, T(x0), ..., T^n(x0)."""
        return np.mod(float(x0) + self.t0 * np.arange(n + 1), 1.0)


def golden_rotation():
    """Rotation by (sqrt(5) - 1) / 2, the canonical irrational test angle."""
    return CircleRotationSystem.from_quadratic(-1, 1, 2, 5)


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


class NoisyMapSystem:
    """x_{n+1} = T(x_n) + eps_n with i.i.d. noise from a seeded sampler.

    map_fn maps (m, d) state arrays to (m, d) arrays; noise_sampler takes
    (generator, shape) and returns increments of that shape.  With zero
    noise the trajectory equals the deterministic orbit bit for bit.  `law`
    is the GaussianAR1 one step follows exactly, or None.
    """

    law = None

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


class SdeSystem:
    """Euler-Maruyama discretization of dY = f(Y) dt + sigma(Y) dW.

    One Koopman-lag sample advances by exactly lag / integrator_dt
    Euler-Maruyama substeps.  `law` is the GaussianAR1 one lag follows
    exactly, or None.
    """

    law = None

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


def sample_iid(sys, mu0_sampler, m, seed=0):
    """m independent pairs: x_k ~ mu0, y_k ~ rho(x_k, .).

    Trial 0 of `iid_chunk(sys, mu0_sampler, m, seed, 1, 1)`.
    """
    m = _check_m(m)
    xs, ys = iid_chunk(sys, mu0_sampler, m, seed, 1, 1)
    return SamplePairs(xs[0], ys[0], Regime.IID, seed)


def _check_m(m):
    m = int(m)
    if m < 1:
        raise ConfigError("m must be >= 1")
    return m


def categorical_sampler(weights):
    """mu0 sampler drawing state indices from the given probability vector,
    which it keeps as its `weights`."""
    weights = np.asarray(weights, dtype=np.float64)
    cdf = np.cumsum(weights)
    cdf[-1] = max(cdf[-1], 1.0)

    def sampler(gen, m):
        return np.minimum(
            np.searchsorted(cdf, gen.random(m), side="right"), len(weights) - 1
        ).astype(np.int64)

    # the law itself, for samplers of sufficient statistics
    sampler.weights = weights
    return sampler


def _step(sys, xs, gen):
    """Draw y ~ rho(x, .) for each x in a batch of continuous states; ys
    have the shape of xs, and (m,) scalar states step as (m, 1)."""
    xs = np.asarray(xs, dtype=np.float64)
    if isinstance(sys, CircleRotationSystem):
        return np.mod(xs + sys.t0, 1.0)
    if isinstance(sys, (NoisyMapSystem, SdeSystem)):
        return sys.step(xs.reshape(len(xs), -1), gen).reshape(xs.shape)
    raise ConfigError(f"unknown system type {type(sys).__name__}")


def ergodic_chunk(sys, m, seed, chunk_index, count):
    """One block of `count` independent stationary trajectories.

    States are (count, m+1) for chains and the circle, and (count, m+1,
    state_dim) for noisy maps and SDEs.  Chains start from their invariant
    distribution and the circle from arc length.  A noisy map or SDE with a
    Gaussian AR(1) law starts from N(0, v) and steps by that law; any other
    starts at x0 and burns in 10 m lags, and a non-finite state raises
    DomainError naming its lag.  The block is a pure function of (seed,
    chunk_index); Monte-Carlo drivers may therefore evaluate chunks in any
    order or in parallel.
    """
    gen = rng.stream(seed, chunk_index)
    if isinstance(sys, FiniteMarkovSystem):
        if not sys.is_ergodic:
            raise NonErgodicChain("ergodic sampling requires an ergodic chain")
        pi_cdf = np.cumsum(sys.pi)
        x0 = np.minimum(
            np.searchsorted(pi_cdf, gen.random(count), side="right"),
            sys.n_states - 1,
        ).astype(np.int64)
        u = gen.random((count, m))
        return kernels.chain_paths(sys._cdf, x0, u)
    if isinstance(sys, CircleRotationSystem):
        x0 = gen.random(count)
        steps = sys.t0 * np.arange(m + 1)
        return np.mod(x0[:, None] + steps[None, :], 1.0)
    if isinstance(sys, (NoisyMapSystem, SdeSystem)):
        if sys.law is not None:
            return _ar1_block(sys.law, m, gen, count, sys.state_dim)
        traj = _stepped_block(sys, m, gen, count)
        if not np.all(np.isfinite(traj)):
            # the block is a pure function of its stream: replay it, checking
            # every lag, to name the first non-finite one
            _stepped_block(sys, m, rng.stream(seed, chunk_index), count, check=True)
        return traj
    raise ConfigError(f"no batched ergodic sampler for {type(sys).__name__}")


def _ar1_block(law, m, gen, count, dim):
    """(count, m+1, dim) stationary states of a Gaussian AR(1) law: x_0 ~
    N(0, v), then one (count, dim) Gaussian block per lag."""
    traj = np.empty((count, m + 1, dim))
    traj[:, 0] = math.sqrt(law.v) * gen.standard_normal((count, dim))
    sd = math.sqrt(law.v * (1.0 - law.rho**2))
    for k in range(1, m + 1):
        traj[:, k] = law.rho * traj[:, k - 1] + sd * gen.standard_normal((count, dim))
    return traj


def _stepped_block(sys, m, gen, count, check=False):
    """(count, m+1, state_dim) states from x0 after a burn-in of 10 m lags.

    With check, raise DomainError at the first lag (counted from x0, burn-in
    included) at which a state has a non-finite coordinate.
    """
    burn = 10 * m
    x = np.tile(np.atleast_2d(sys.x0), (count, 1))
    traj = np.empty((count, m + 1, sys.state_dim))
    for lag in range(burn + m + 1):
        if lag:
            x = sys.step(x, gen)
        if check and not np.all(np.isfinite(x)):
            raise DomainError(f"non-finite state at lag {lag}; lags 1..{burn} are "
                              "the burn-in")
        if lag >= burn:
            traj[:, lag - burn] = x
    return traj


def iid_chunk(sys, mu0_sampler, m, seed, chunk_index, count):
    """One block of `count` independent i.i.d. pair sets: (xs, ys), (count, m)."""
    gen = rng.stream(seed, chunk_index)
    if isinstance(sys, FiniteMarkovSystem):
        xs = mu0_sampler(gen, count * m).reshape(count, m)
        u = gen.random((count * m, 1))
        ys = kernels.chain_paths(sys._cdf, xs.ravel(), u)[:, 1].reshape(count, m)
    else:
        xs = np.stack([mu0_sampler(gen, m) for _ in range(count)])
        ys = np.stack([_step(sys, row, gen) for row in xs])
    return xs, ys
