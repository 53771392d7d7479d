import enum
import itertools

import numpy as np
import pytest

from koopman_cert import dictionaries, galerkin, systems, variance
from koopman_cert.errors import ConfigError


@pytest.fixture
def two_state_chain():
    return systems.FiniteMarkovSystem(np.array([[0.7, 0.3], [0.3, 0.7]]))


@pytest.fixture
def indicator2():
    return dictionaries.indicator(2)


def random_ergodic_chain(n, seed):
    """Strictly positive rows: irreducible and aperiodic by construction."""
    g = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(seed)))
    A = g.random((n, n)) + 0.05
    return systems.FiniteMarkovSystem(A / A.sum(axis=1, keepdims=True))


@pytest.fixture
def five_state_chain():
    return random_ergodic_chain(5, 123)


@pytest.fixture
def monomial3():
    return dictionaries.monomial(2, scale=0.25)


def golden_rotation():
    """Rotation by (sqrt(5) - 1) / 2, the canonical irrational test angle."""
    return systems.CircleRotationSystem.from_quadratic(-1, 1, 2, 5)


@pytest.fixture
def golden():
    return golden_rotation()


class IndependenceLevel(enum.Enum):
    DEPENDENT = "dependent"
    INDEPENDENT = "independent"
    STRONGLY_INDEPENDENT = "strongly_independent"


def check_mu_linear_independence(dictionary, sys):
    """Classify the dictionary against the system's exact invariant measure.

    Dependent when the exact mass matrix is numerically singular
    (`galerkin.is_singular`).  Strong independence additionally requires
    every nonzero combination to be nonzero almost everywhere; on a finite
    chain with N >= 2 this always fails (a combination orthogonal to one
    column vanishes on that state), while real trigonometric polynomials
    vanish on finite, hence null, sets.
    """
    if isinstance(sys, systems.FiniteMarkovSystem):
        vals = dictionary.evaluate(np.arange(sys.n_states))
        C = (vals * sys.pi) @ vals.T
        if galerkin.is_singular(C):
            return IndependenceLevel.DEPENDENT
        if dictionary.size == 1:
            if np.all(np.abs(vals[0]) > 0):
                return IndependenceLevel.STRONGLY_INDEPENDENT
            return IndependenceLevel.INDEPENDENT
        return IndependenceLevel.INDEPENDENT

    if isinstance(sys, systems.CircleRotationSystem):
        C = galerkin.quadrature_gram_circle(sys, dictionary).C
        if galerkin.is_singular(C):
            return IndependenceLevel.DEPENDENT
        if dictionary.kind in (dictionaries.DictionaryKind.FOURIER,
                               dictionaries.DictionaryKind.RANDOM_FOURIER):
            # nonzero trig polynomials have finitely many zeros on the circle
            return IndependenceLevel.STRONGLY_INDEPENDENT
        return IndependenceLevel.INDEPENDENT

    raise ConfigError("independence check needs an exactly computable measure")


def weighted_inner(rep, f, g):
    """Inner product of the rep's weighted space; conjugate-linear in g."""
    val = np.sum(rep.weights * np.asarray(f) * np.conj(np.asarray(g)))
    if np.iscomplexobj(f) or np.iscomplexobj(g):
        return complex(val)
    return float(val)


def pm_operator_norms(rep, m):
    """(||p_m(K0)||, ||K0 p_m(K0)||) as largest singular values."""
    P = variance.pm_apply_vectors(rep.M, np.eye(rep.dim - 1), m)
    return float(np.linalg.norm(P, 2)), float(np.linalg.norm(rep.M @ P, 2))


def ergodic_average_sq_norm(rep, f_natural, m):
    """|| (1/m) sum_{k<m} K0^k Q f ||^2 in the weighted norm."""
    u = rep.to_reduced(np.asarray(f_natural, dtype=np.float64))
    v = variance.mean_power_apply(rep.M, u[:, None], m)
    return float(np.sum(v * v))


def projector(rep):
    """Q = I - 1 <., 1>_w, the projector onto the rep's mean-zero functions."""
    return np.eye(rep.dim) - np.outer(rep.one, rep.weights * rep.one)


def arc_mass(meas, gamma):
    """Mass of the closed arc {e^{2 pi i t} : |t| <= gamma}."""
    gamma = float(gamma)
    if not 0.0 < gamma <= 0.5:
        raise ConfigError("gamma must lie in (0, 1/2]")
    return float(sum(w for t, w in meas.atoms if abs(t) <= gamma))


def weighted_l2_check(meas, alpha):
    """(S, S / total mass) with S = sum_n w_n |t_n|^{-alpha}; a finite S gives
    mu_f(S_gamma) <= S gamma^alpha.  An atom at t = 0 makes S infinite."""
    S = 0.0
    for t, w in meas.atoms:
        if w == 0.0:
            continue
        if t == 0.0:
            return float("inf"), float("inf")
        S += w * abs(t) ** (-float(alpha))
    total = meas.total_mass
    return S, S / total if total > 0 else 0.0


def ergodic_invertibility_condition(sys, dictionary, max_states=12):
    """Check the trajectory-invertibility hypothesis on a finite chain.

    For every subspace spanned by at most N-1 dictionary columns, states
    mapping into the subspace must carry zero transition mass back into its
    preimage.  Sufficient for a.s. invertibility of the empirical mass matrix
    along ergodic trajectories of length >= N+1.
    """
    n = sys.n_states
    if n > max_states:
        raise ConfigError(f"subspace enumeration limited to {max_states} states")
    vals = dictionary.evaluate(np.arange(n))  # (N, n)
    N = dictionary.size
    P = sys.transition
    seen = set()
    for size in range(1, N):
        for subset in itertools.combinations(range(n), size):
            basis = vals[:, subset]
            rank = np.linalg.matrix_rank(basis)
            if rank >= N:
                continue
            # preimage of span(basis): states whose column stays in the span
            pre = []
            for x in range(n):
                aug = np.column_stack([basis, vals[:, x]])
                if np.linalg.matrix_rank(aug) == rank:
                    pre.append(x)
            key = tuple(pre)
            if key in seen or not pre:
                continue
            seen.add(key)
            mass = P[np.ix_(pre, pre)].sum(axis=1)
            if np.any(mass > 0):
                return False
    return True
