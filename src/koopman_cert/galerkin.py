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
WEYL_MARGIN = 1e-9  # 1000 SINGULAR_RTOL; see `is_singular`
_SUBNORMAL_ROOT = float(np.sqrt(np.finfo(float).smallest_subnormal))
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


def weyl_radius(ref):
    """The distance from the symmetric matrix ref within which `is_singular`
    clears a trial by Weyl's inequality: one N x N `eigvalsh` of ref, which
    a `studies.Reference` computes once for all the stacks scored against
    it."""
    s = np.abs(np.linalg.eigvalsh(ref))
    # the Weyl test solved for dist, less the underflow charge
    return ((s.min() - WEYL_MARGIN * s.max()) / (1.0 + WEYL_MARGIN)
            - len(ref) * _SUBNORMAL_ROOT)


def is_singular(C, dist=None, radius=None):
    """The singularity gate: s_min <= SINGULAR_RTOL * s_max.

    C is one symmetric matrix or a stack of them (the result is then a
    boolean array); every caller passes a mass matrix.  The singular values
    of a symmetric matrix are the moduli of its eigenvalues, so they come
    from one batched `eigvalsh`, which reads the lower triangle.  A zero
    matrix is singular; a non-finite entry anywhere in the stack raises
    NumericalError, since it has no verdict.

    A stack near a known symmetric matrix ref, with dist[b] = ||C[b] -
    ref||_F and radius = `weyl_radius(ref)`, is pre-gated by Weyl's
    inequality: each eigenvalue of C[b] lies within ||C[b] - ref||_2 <=
    dist[b] of the matching eigenvalue of ref, so s_min(C[b]) >= s_min(ref)
    - dist[b] and s_max(C[b]) <= s_max(ref) + dist[b].  A trial with
    s_min(ref) - dist[b] > WEYL_MARGIN (s_max(ref) + dist[b]) is regular,
    which `weyl_radius` solves for dist from one N x N `eigvalsh` of ref;
    only the other trials reach the batched `eigvalsh`.  A non-finite trial
    has an inf or NaN dist, fails the test, and still raises.  The verdicts
    are those of the batched `eigvalsh` alone: it is backward stable, so the
    computed eigenvalues of ref and C[b] and the computed dist are each off
    by about N^2 u at most, relative to the matrices' norms (u the unit
    round-off).
    A cleared trial's computed s_min / s_max is then above WEYL_MARGIN -
    O(N^2 u), which the factor 1000 between WEYL_MARGIN and SINGULAR_RTOL
    keeps above SINGULAR_RTOL for any N below a few thousand.  Squares that
    underflow are off by at most the smallest subnormal each, so dist is
    charged N sqrt(smallest subnormal) more; without that, a singular trial
    near a reference of scale 1e-160 would be cleared.
    """
    C = np.asarray(C)
    if radius is None:
        if not np.isfinite(C).all():
            raise NumericalError("mass matrix has non-finite entries")
        s = np.abs(np.linalg.eigvalsh(C))
        return s.min(axis=-1) <= SINGULAR_RTOL * s.max(axis=-1)
    clear = dist < radius
    if not clear.any():
        return is_singular(C)
    verdict = np.zeros(len(C), dtype=bool)
    if not clear.all():
        verdict[~clear] = is_singular(C[~clear])
    return verdict


@np.errstate(over="ignore", invalid="ignore")
def gram_block(psi_x, psi_y, m):
    """C_hat = psi_x^T psi_x / m and C_hat_plus = psi_x^T psi_y / m, batched.

    psi_x and psi_y are (B, m, N) dictionary values at the pairs' first and
    second states; the result is two (B, N, N) stacks, each from one batched
    matmul.  C_hat is symmetrised.  Sums that overflow are left to the
    singularity gate, which rejects them, without numpy's warnings.
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
