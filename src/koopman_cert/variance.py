"""Exact variance representations for the empirical Gram estimators.

Under ergodic sampling the mean-square errors of C_hat and C_hat_plus admit
closed finite-dimensional expressions built from the operator K restricted
to mean-zero functions (K0), the polynomial

    p_m(z) = 2 * sum_{k=1}^{m-1} (1 - k/m) z^{k-1},

and, in the unitary case, the Fejer kernel.  Everything here is evaluated
exactly on a finite matrix representation.  Both p_m(K0) and the ergodic
average (1/m) sum_{k<m} K0^k come from the power sums S_k = sum_{j<k} K0^j:
p_m(K0) = (2/m) sum_{k=1}^{m-1} S_k, and the average is S_m / m.  One
doubling recurrence on d x d blocks gives S_m and sum_{k<m} S_k in
O(d^3 log m) operations (`_power_sums`).

Only p_m(K0) depends on m.  The variances are sums over the N^2 product
functions psi_i psi_j and psi_i K psi_j of inner products against p_m(K0);
the sums are linear, so each equals one trace of p_m(K0) against a
(d-1) x (d-1) cross-Gram of the product family.  `build_rep` builds
everything else once per (system, dictionary) on the system's
`koopman_space`: the three cross-Grams of the product family, the exact
Gram pair C, C_+, and the constants E_0, E_+.  The product family itself is
built only when read.
It is the package's one exact reference for finite chains, Fourier circles
and monomials on a 1-d Gaussian AR(1) system (Hermite polynomials).  The
Monte-Carlo oracle that checks these values lives in `studies`.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NotUnitary, NumericalError, SingularMass, UnsupportedSystem
from .galerkin import GramPair, Provenance, is_singular, quadrature_gram_circle
from .systems import Regime, wrap_angle

GAP_THRESHOLD = 1e-10
UNITARY_TOL = 1e-8


# ---------------------------------------------------------------------------
# the polynomial p_m
# ---------------------------------------------------------------------------

def pm_polynomial(m, z):
    """p_m(z) = 2 sum_{k=1}^{m-1} (1 - k/m) z^{k-1}; p_m(1) = m - 1."""
    m = int(m)
    z = complex(z)
    if m <= 1:
        return 0.0 + 0.0j
    if abs(1.0 - z) < 1e-6:
        # closed form is ill-conditioned near z = 1: sum directly
        k = np.arange(1, m)
        return complex(2.0 * np.sum((1.0 - k / m) * z ** (k - 1)))
    geo = (1.0 - z**m) / (1.0 - z)
    return 2.0 / (1.0 - z) * (1.0 - geo / m)


def _power_sums(M, m):
    """(S_m, sum_{k=1}^{m-1} S_k) with S_k = sum_{j<k} M^j, for m >= 1.

    Walks the bits of m with (A, S, R) = (M^n, S_n, sum_{k<n} S_k) from
    n = 1: doubling n uses S_{2n} = S_n + M^n S_n and
    sum_{k<2n} S_k = R + n S_n + M^n R, and a one bit adds S_{n+1} =
    S_n + M^n.  This is the top block row of T^m for T = [[M, I, 0],
    [0, I, I], [0, 0, I]] (Van Loan 1978) without its constant blocks: the
    cost is O(d^3 log m) for any M, with or without a spectral gap.
    """
    A, S, R = M, np.eye(M.shape[0]), np.zeros_like(M)
    n = 1
    for bit in bin(int(m))[3:]:
        R = R + n * S + A @ R
        S = S + A @ S
        A = A @ A
        n *= 2
        if bit == "1":
            R = R + S
            S = S + A
            A = A @ M
            n += 1
    return S, R


def pm_apply_vectors(M, U, m):
    """Columns of p_m(M) @ U for the reduced mean-zero operator M.

    p_m(M) = (2/m) sum_{k=1}^{m-1} S_k with S_k = sum_{j<k} M^j
    (`_power_sums`).
    """
    m = int(m)
    U = np.asarray(U, dtype=np.float64)
    if m <= 1 or U.size == 0:
        return np.zeros_like(U)
    _, cum = _power_sums(M, m)
    return (2.0 / m) * (cum @ U)


def mean_power_apply(M, U, m):
    """(1/m) sum_{k=0}^{m-1} M^k U (the ergodic average of the orbit of U)."""
    U = np.asarray(U, dtype=np.float64)
    S, _ = _power_sums(M, m)
    return (S @ U) / m


# ---------------------------------------------------------------------------
# Fejer kernel
# ---------------------------------------------------------------------------

def fejer_kernel(m, t):
    """F_m(t) = sum_{|k| <= m-1} (1 - |k|/m) e^{ikt}, t in radians.

    Evaluated via F_m(t) = (1/m) (sin(mt/2) / sin(t/2))^2, which equals the
    sum definition; note this is (1/m) (1-cos(mt)) / (1-cos t) *without* an
    outer square on the ratio - squaring the cosine ratio is a tempting
    transcription slip that does not match the sum.  F_m(0) = m, the
    removable singularity; t is first wrapped to [-pi, pi], where the ratio
    is accurate at every other t, however small.
    """
    m = int(m)
    t = np.asarray(t, dtype=np.float64)
    t = t - 2.0 * np.pi * np.round(t / (2.0 * np.pi))
    s = np.sin(t / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sin(m * t / 2.0) / s
        vals = np.where(s == 0.0, float(m), ratio * ratio / m)
    if vals.ndim == 0:
        return float(vals)
    return vals


# ---------------------------------------------------------------------------
# finite matrix representation
# ---------------------------------------------------------------------------

class KoopmanMatrixRep:
    """K, its weighted adjoint, and the mean-zero compression K0 on a
    computable function space, with the exact quantities of one dictionary.

    The space is the system's `koopman_space`: functions are coefficient
    vectors in its natural coordinates, with the dictionary as the rows of
    `psi`.  `nodes` is None where coefficients are values on finitely many
    states; otherwise (points, E, back) maps coefficients to values at
    quadrature nodes (values = coefficients @ E.T) and back (coefficients =
    values @ back), exactly for the rep's products.  `eigs` are closed-form
    eigenpairs, or None.  `M` is K0 expressed in an orthonormal basis of the
    mean-zero subspace, so Euclidean geometry on reduced coordinates equals
    the weighted L2 geometry.

    Construction also builds, once and eagerly (the Monte-Carlo pools share
    the rep across threads): `phi` = sum_i psi_i^2; the three (dim-1) x
    (dim-1) cross-Grams of the product family in reduced coordinates,
    `W_plus` = U Us^T, `W_zero` = V V^T and `W_g` = U U^T for the reduced
    g_ij, psi_ij and gs_ij stacks U, V and Us (dim-1, N^2); `gram`, the
    exact GramPair with C symmetrised; and `E_plus`, `E_zero`.  Overflow is
    silent, but a Gram pair that is not finite raises the gate's error.
    `family`, the product family itself (`function_family`, N^2 functions
    on dim coordinates), is built on first read: the spectral certificate
    reads it, and no variance does.  So is `reference`, the gram's
    `studies.exact_reference`, which every trial a command scores against
    the rep shares.
    """

    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, system, dictionary, K, weights, one, psi, nodes=None, eigs=None):
        self.system = system
        self.dictionary = dictionary
        self.K = K
        # the adjoint of K in the weights' inner product
        self.Kstar = (weights[None, :] * K.T) / weights[:, None]
        self.weights = weights
        self.one = one
        self.psi = psi
        self.nodes = nodes
        self.eigs = eigs
        self.dim = K.shape[0]
        sqrtw = np.sqrt(weights)
        self.sqrtw = sqrtw
        # unit vector of the scaled constant function; ||1||_w = 1
        e = sqrtw * one
        e = e / np.linalg.norm(e)
        self.B = _complement_basis(e)
        G = (sqrtw[:, None] * K) / sqrtw[None, :]
        self.M = self.B.T @ G @ self.B
        self.unitary = bool(np.linalg.norm(G.T @ G - np.eye(self.dim)) <= UNITARY_TOL)

        self.phi = sum_of_squares(self)
        self.W_plus, self.W_zero, self.W_g = cross_grams(self)
        w = self.psi * weights
        C = w @ self.psi.T
        self.gram = GramPair(0.5 * (C + C.T), w @ (K @ self.psi.T), Provenance("exact"))
        if not np.isfinite([self.gram.C, self.gram.Cplus]).all():
            raise NumericalError("mass matrix has non-finite entries")
        self.E_plus, self.E_zero = variance_constants(self)

    @functools.cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def family(self):
        return function_family(self)

    @functools.cached_property
    def reference(self):
        from .studies import exact_reference  # studies imports this module

        return exact_reference(self.gram)

    # -- geometry ---------------------------------------------------------
    def norm_sq(self, f):
        return float(np.sum(self.weights * np.abs(np.asarray(f)) ** 2))

    def project_zero(self, f):
        """Remove the component along the constant function."""
        f = np.asarray(f)
        coeff = np.sum(self.weights * f * self.one)
        return f - coeff * self.one

    def to_reduced(self, X):
        """Natural (d, ...) -> orthonormal mean-zero coordinates (d-1, ...).

        Constant components are annihilated, so to_reduced(f) equals
        to_reduced(Qf).
        """
        X = np.asarray(X)
        return self.B.T @ (self.sqrtw[:, None] * X if X.ndim == 2 else self.sqrtw * X)

    # -- operators --------------------------------------------------------
    def spectral_gap(self):
        """Distance of 1 from the spectrum of the reduced operator."""
        lam = np.linalg.eigvals(self.M)
        return float(np.min(np.abs(1.0 - lam))) if lam.size else np.inf

    def resolvent_norms(self):
        """(||(I-K0)^{-1}||, ||K0 (I-K0)^{-1}||) in the weighted operator norm."""
        from .errors import NoSpectralGap

        if self.spectral_gap() <= GAP_THRESHOLD:
            raise NoSpectralGap("eigenvalue 1 is not isolated in the representation")
        R = np.linalg.inv(np.eye(self.dim - 1) - self.M)
        return (
            float(np.linalg.norm(R, 2)),
            float(np.linalg.norm(self.M @ R, 2)),
        )

    def eigen_system(self):
        """Unitary eigen-decomposition of the mean-zero compression.

        Returns (ts, V): angles in revolutions within [-1/2, 1/2) and an
        orthonormal complex eigenvector matrix in reduced coordinates: the
        space's closed-form `eigs` where it has them (the circle), else a
        numerical eigensolver.
        """
        if not self.unitary:
            raise NotUnitary("eigen-system on the unit circle requires a unitary K")
        if self.eigs is not None:
            return self.eigs
        lam, V = np.linalg.eig(self.M)
        V = V / np.linalg.norm(V, axis=0)
        if np.linalg.norm(V.conj().T @ V - np.eye(V.shape[1])) > 1e-8:
            V = _orthonormalize_clusters(lam, V)
        ts = wrap_angle(np.angle(lam) / (2.0 * np.pi))
        return ts, V


def _complement_basis(e):
    """Deterministic orthonormal basis of the complement of a unit vector.

    Columns 1..d-1 of the Householder reflection sending e to -sign(e0) e0.
    When e is already the first standard basis vector this is exactly the
    remaining standard basis, which keeps the circle's reduced coordinates
    aligned with its Fourier blocks.
    """
    e = np.asarray(e, dtype=np.float64)
    d = len(e)
    sign = 1.0 if e[0] >= 0 else -1.0
    v = e.copy()
    v[0] += sign
    H = np.eye(d) - 2.0 * np.outer(v, v) / (v @ v)
    return H[:, 1:]


def _orthonormalize_clusters(lam, V, tol=1e-9):
    """Re-orthonormalize eigenvectors within near-degenerate eigenvalue groups."""
    order = np.argsort(np.angle(lam))
    lam_s = lam[order]
    V = V[:, order].astype(complex)
    start = 0
    for i in range(1, len(lam_s) + 1):
        if i == len(lam_s) or abs(lam_s[i] - lam_s[start]) > tol:
            block = V[:, start:i]
            q, _ = np.linalg.qr(block)
            V[:, start:i] = q
            start = i
    return V


def build_rep(sys, dictionary):
    """The exact representation of (sys, dictionary) on the system's
    `koopman_space`, which carries 1, all psi_i, and all of their products."""
    return KoopmanMatrixRep(sys, dictionary, **sys.koopman_space(dictionary))


def _values(rep):
    """psi, K psi and K* psi as (N, n) values on the rep's n points, and the
    map from values back to natural coordinates (None where coordinates are
    values, as on a chain)."""
    psis = rep.psi
    kpsis = (rep.K @ psis.T).T
    kstar_psis = (rep.Kstar @ psis.T).T
    if rep.nodes is None:
        return psis, kpsis, kstar_psis, None
    _, E, back = rep.nodes
    return psis @ E.T, kpsis @ E.T, kstar_psis @ E.T, back


def sum_of_squares(rep):
    """phi = sum_i psi_i^2 in natural coordinates: the diagonal of
    `function_family`'s psi_ij, summed."""
    v, _, _, back = _values(rep)
    squares = v * v
    return (squares if back is None else squares @ back).sum(axis=0)


def function_family(rep):
    """psi_ij = psi_i psi_j, g_ij = psi_i K psi_j, gs[i,j] = psi_j K* psi_i,
    and phi = sum_j psi_j^2 (`rep.phi`), all in natural coordinates.

    Products are pointwise on values.  Chain coordinates are values; other
    reps map coefficients to values at their nodes and back (`rep.nodes`),
    which is exact because the products stay in the rep's space.
    """
    v, kv, ksv, back = _values(rep)
    psi_ij = v[:, None, :] * v[None, :, :]
    g_ij = v[:, None, :] * kv[None, :, :]
    gs_ij = ksv[:, None, :] * v[None, :, :]
    if back is not None:
        psi_ij, g_ij, gs_ij = psi_ij @ back, g_ij @ back, gs_ij @ back
    return {"psi": rep.psi, "psi_ij": psi_ij, "g_ij": g_ij, "gs_ij": gs_ij, "phi": rep.phi}


def cross_grams(rep):
    """(W_plus, W_zero, W_g) = (U Us^T, V V^T, U U^T) for the family's g_ij,
    psi_ij and gs_ij in reduced coordinates, as columns of U, V and Us.

    Each sum over the N^2 pairs ij factors on values into a Hadamard product
    of N-term Grams, for example sum_ij psi_ij(x) psi_ij(y) =
    (sum_i psi_i(x) psi_i(y))^2, so no N^2 stack is read.  Nodes map the
    values' Gram G to natural coordinates as back^T G back.
    """
    v, kv, ksv, back = _values(rep)
    P = v.T @ v
    grams = ((v.T @ ksv) * (kv.T @ v), P * P, P * (kv.T @ kv))
    if back is not None:
        grams = (back.T @ G @ back for G in grams)
    scale = rep.sqrtw[:, None] * rep.sqrtw[None, :]
    return tuple(rep.B.T @ (scale * G) @ rep.B for G in grams)


@dataclass
class VarianceReport:
    """sigma^2 constants and the per-sample variances they induce."""

    m: int
    sigma2_plus: float
    sigma2_zero: float
    E_plus: float
    E_zero: float
    var_Cplus: float
    var_C: float


def variance_constants(rep):
    """E_plus = <K phi, phi> - ||C_+||_F^2 and E_zero = ||phi||^2 - ||C||_F^2."""
    C, Cplus = rep.gram.C, rep.gram.Cplus
    phi = rep.phi
    E_plus = float(np.sum(rep.weights * (rep.K @ phi) * phi) - np.sum(Cplus * Cplus))
    E_zero = float(np.sum(rep.weights * phi * phi) - np.sum(C * C))
    return E_plus, E_zero


def exact_variance(rep, m, regime=Regime.ERGODIC) -> VarianceReport:
    """Exact E||C - C_hat||_F^2 = sigma2_zero / m and the C_+ analogue.

    Under ergodic sampling
    sigma2_plus = E_plus + sum_ij <p_m(K0) Q g_ij, Q g*_ji> and
    sigma2_zero = E_zero + sum_ij <K0 p_m(K0) Q psi_ij, Q psi_ij>,
    evaluated as the traces tr(p_m(K0) W_plus) and tr(K0 p_m(K0) W_zero)
    against the rep's cross-Grams.  Under i.i.d. sampling from the
    invariant law the m summands are independent, so sigma2 = E: the
    p_m = 0 case.
    """
    m = int(m)
    if regime is Regime.IID:
        return VarianceReport(m, rep.E_plus, rep.E_zero, rep.E_plus, rep.E_zero,
                              rep.E_plus / m, rep.E_zero / m)
    PW_plus, PW_zero = pm_apply_vectors(rep.M, np.stack([rep.W_plus, rep.W_zero]), m)
    sigma2_plus = rep.E_plus + float(np.trace(PW_plus))
    sigma2_zero = rep.E_zero + float(np.sum(rep.M.T * PW_zero))
    return VarianceReport(
        m, sigma2_plus, sigma2_zero, rep.E_plus, rep.E_zero,
        sigma2_plus / m, sigma2_zero / m,
    )


def fejer_variance(rep, m) -> VarianceReport:
    """Unitary-case variances by ergodic averages:

    E||C_+ - C_hat_plus||^2 = sum_ij ||(1/m) sum_{k<m} K0^k Q g_ij||^2, and
    the analogous psi_ij expression for C, each the trace of A W A^T for
    the average A = (1/m) sum_{k<m} K0^k and the rep's cross-Gram W.  The
    spectral form, which integrates the Fejer kernel against each
    function's spectral measure, is the same value; acceptance criterion 2
    checks that they agree.
    """
    if not rep.unitary:
        raise NotUnitary("Fejer variance requires a unitary representation")
    m = int(m)
    A = mean_power_apply(rep.M, np.eye(rep.dim - 1), m)
    var_plus, var_zero = (float(np.sum((A @ W) * A)) for W in (rep.W_g, rep.W_zero))
    return VarianceReport(
        m, m * var_plus, m * var_zero, rep.E_plus, rep.E_zero, var_plus, var_zero
    )


def exact_reference_gram(sys, dictionary):
    """Exact GramPair: the rep's pair where `build_rep` has one, quadrature
    for other dictionaries on a rotation, UnsupportedSystem otherwise."""
    try:
        gram = build_rep(sys, dictionary).gram
    except UnsupportedSystem:
        # a rotation (the one system with an angle t0) has arc-length quadrature
        if getattr(sys, "t0", None) is None:
            raise
        gram = quadrature_gram_circle(sys, dictionary)
    if is_singular(gram.C):
        raise SingularMass("exact mass matrix is numerically singular")
    return gram
