"""Observable dictionaries: evaluation and phi = sum psi_j^2."""

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import rng
from .errors import ConfigError, DomainError, NumericalError


class DictionaryKind(enum.Enum):
    INDICATOR = "indicator"
    FOURIER = "fourier"
    MONOMIAL = "monomial"
    RANDOM_FOURIER = "rff"


@dataclass
class Dictionary:
    """Ordered list of N observables with vectorized evaluation."""

    size: int
    kind: DictionaryKind
    _eval: Callable[[np.ndarray], np.ndarray]
    metadata: dict = field(default_factory=dict)

    def evaluate(self, states):
        """Psi(states) as an (N, m) matrix; column k is Psi(states[k]).

        Scalar states may come as (m,) or (m, 1).  Values that overflow do
        so silently, and raise NumericalError: no Gram of them is finite."""
        states = np.asarray(states)
        if states.ndim == 2 and states.shape[1] == 1:
            states = states[:, 0]
        if np.issubdtype(states.dtype, np.floating) and not np.all(np.isfinite(states)):
            raise DomainError("states contain non-finite coordinates")
        with np.errstate(over="ignore", invalid="ignore"):
            out = self._eval(np.atleast_1d(states))
        if not np.isfinite(out).all():
            raise NumericalError(f"{self.kind.value} dictionary values overflow")
        return out


@dataclass
class PhiFunction:
    """phi(x) = sum_j psi_j(x)^2 = ||Psi(x)||_2^2, with optional sup bound."""

    evaluate: Callable[[np.ndarray], np.ndarray]
    sup_bound: Optional[float] = None


def phi_function(dictionary):
    def _phi(states):
        vals = dictionary.evaluate(states)
        return np.sum(vals * vals, axis=0)

    return PhiFunction(_phi, dictionary.metadata.get("sup_phi"))


def indicator(n_states):
    """One indicator per state of a finite chain: Psi(i) = e_i."""
    n = int(n_states)
    if n < 1:
        raise ConfigError("n_states must be positive")

    def _eval(states):
        states = np.asarray(states, dtype=np.int64)
        if np.any(states < 0) or np.any(states >= n):
            raise DomainError("state index out of range")
        out = np.zeros((n, len(states)))
        out[states, np.arange(len(states))] = 1.0
        return out

    return Dictionary(n, DictionaryKind.INDICATOR, _eval, {"sup_phi": 1.0})


def fourier(max_freq):
    """Real Fourier basis on the circle: {1, sqrt2 cos(2 pi k t), sqrt2 sin(2 pi k t)}.

    Orthonormal in L2 of arc length; N = 2 * max_freq + 1.
    """
    F = int(max_freq)
    if F < 0:
        raise ConfigError("max_freq must be >= 0")
    N = 2 * F + 1
    sqrt2 = np.sqrt(2.0)

    def _eval(states):
        t = np.asarray(states, dtype=np.float64)
        out = np.empty((N, len(t)))
        out[0] = 1.0
        for k in range(1, F + 1):
            ang = 2.0 * np.pi * k * t
            out[2 * k - 1] = sqrt2 * np.cos(ang)
            out[2 * k] = sqrt2 * np.sin(ang)
        return out

    return Dictionary(
        N, DictionaryKind.FOURIER, _eval, {"max_freq": F, "sup_phi": float(N)}
    )


def monomial(degree, scale=1.0):
    """Monomials (scale * x)^k, k = 0..degree, on scalar numeric states."""
    deg = int(degree)
    if deg < 0:
        raise ConfigError("degree must be >= 0")
    s = float(scale)

    def _eval(states):
        x = np.asarray(states, dtype=np.float64)
        if x.ndim != 1:
            raise DomainError("monomial dictionary needs scalar states")
        x = x * s
        return np.vstack([x**k for k in range(deg + 1)])

    return Dictionary(
        deg + 1, DictionaryKind.MONOMIAL, _eval, {"degree": deg, "scale": s}
    )


def random_fourier(n_features, bandwidth, seed, dim=1):
    """cos/sin pairs of random plane waves, frequencies ~ N(0, bandwidth^-2).

    n_features must be even (one cos and one sin per drawn frequency).  The
    frequencies are stored in metadata for reproducibility.
    """
    N = int(n_features)
    if N < 2 or N % 2 != 0:
        raise ConfigError("n_features must be a positive even integer")
    if bandwidth <= 0:
        raise ConfigError("bandwidth must be positive")
    n_freq = N // 2
    omega = rng.stream(seed, 0).standard_normal((n_freq, int(dim))) / float(bandwidth)

    def _eval(states):
        x = np.asarray(states, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        proj = omega @ x.T
        return np.vstack([np.cos(proj), np.sin(proj)])

    meta = {
        "n_features": N,
        "bandwidth": float(bandwidth),
        "seed": int(seed),
        "frequencies": omega,
        "sup_phi": float(n_freq),
    }
    return Dictionary(N, DictionaryKind.RANDOM_FOURIER, _eval, meta)
