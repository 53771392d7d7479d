import enum

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


@pytest.fixture
def golden():
    return systems.golden_rotation()


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
