"""Gram pairs, the one empirical Gram estimator (`gram_block`), the
singularity gate, and the Galerkin matrix K_V = C^{-1} C_+.

The exact pair of a finite chain or a Fourier circle is built once with its
representation (`variance.build_rep`); this module adds quadrature pairs for
other circle observables.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalError, SingularMass

SINGULAR_RTOL = 1e-12
QUADRATURE_NODES = 2**16


@dataclass
class Provenance:
    kind: str  # "exact" | "empirical"
    m: Optional[int] = None
    seed: Optional[int] = None


@dataclass
class GramPair:
    """Mass matrix C = (<psi_i, psi_j>) and stiffness C_+ = (<psi_i, K psi_j>)."""

    C: np.ndarray
    Cplus: np.ndarray
    provenance: Provenance

    def to_json_dict(self):
        return {
            "C": self.C.tolist(),
            "Cplus": self.Cplus.tolist(),
            "provenance": {
                "kind": self.provenance.kind,
                "m": self.provenance.m,
                "seed": self.provenance.seed,
            },
        }


@dataclass
class KoopmanGalerkinMatrix:
    KV: np.ndarray
    source: GramPair


def is_singular(C):
    """The singularity gate: s_min <= SINGULAR_RTOL * s_max.

    C is one symmetric matrix or a stack of them (the result is then a
    boolean array); every caller passes a mass matrix.  The singular values
    of a symmetric matrix are the moduli of its eigenvalues, so they come
    from one batched `eigvalsh`, which reads the lower triangle.  A zero
    matrix is singular; a non-finite entry anywhere in the stack raises
    NumericalError, since it has no verdict.
    """
    C = np.asarray(C)
    if not np.isfinite(C).all():
        raise NumericalError("mass matrix has non-finite entries")
    s = np.abs(np.linalg.eigvalsh(C))
    return s.min(axis=-1) <= SINGULAR_RTOL * s.max(axis=-1)


def gram_block(psi_x, psi_y, m):
    """C_hat = psi_x^T psi_x / m and C_hat_plus = psi_x^T psi_y / m, batched.

    psi_x and psi_y are (B, m, N) dictionary values at the pairs' first and
    second states; the result is two (B, N, N) stacks, each from one batched
    matmul.  C_hat is symmetrised.
    """
    xt = np.swapaxes(psi_x, 1, 2)
    C = (xt @ psi_x) / m
    return 0.5 * (C + np.swapaxes(C, 1, 2)), (xt @ psi_y) / m


def quadrature_gram_circle(sys, dictionary, nodes=QUADRATURE_NODES):
    """Quadrature C and C_+ for arbitrary circle observables (tol ~1e-10):
    the empirical Gram pair of the equispaced node pairs (t, t + t0)."""
    t = np.arange(nodes) / nodes
    C, Cplus = gram_block(dictionary.evaluate(t).T[None],
                          dictionary.evaluate(np.mod(t + sys.t0, 1.0)).T[None], nodes)
    return GramPair(C[0], Cplus[0], Provenance("exact"))


def galerkin_matrix(gram: GramPair) -> KoopmanGalerkinMatrix:
    """Solve C X = C_+ by LU factorization; never forms C^{-1} explicitly."""
    if is_singular(gram.C):
        raise SingularMass("mass matrix is numerically singular")
    KV = np.linalg.solve(gram.C, gram.Cplus)
    resid = np.linalg.norm(gram.C @ KV - gram.Cplus)
    if resid > 1e-9 * max(np.linalg.norm(gram.Cplus), 1e-300):
        raise NumericalError("Galerkin solve residual exceeds 1e-9 relative")
    return KoopmanGalerkinMatrix(KV, gram)


def inv_fro_norm(C):
    """||C^{-1}||_F via explicit inverse of the small N x N mass matrix."""
    if is_singular(C):
        raise SingularMass("mass matrix is numerically singular")
    return float(np.linalg.norm(np.linalg.inv(C)))
