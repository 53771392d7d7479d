"""Exact variance representations for the empirical Gram estimators.

Under ergodic sampling the mean-square errors of C_hat and C_hat_plus admit
closed finite-dimensional expressions built from the operator K restricted
to mean-zero functions (K0), the polynomial

    p_m(z) = 2 * sum_{k=1}^{m-1} (1 - k/m) z^{k-1},

and, in the unitary case, the Fejer kernel.  Everything here is evaluated
exactly on a finite matrix representation.  Both p_m(K0) and the ergodic
average (1/m) sum_{k<m} K0^k come from one matrix power: for

    T = [[K0, I, 0], [0, I, I], [0, 0, I]],

the top block row of T^m is [K0^m, S_m, sum_{k=1}^{m-1} S_k] with
S_k = sum_{j<k} K0^j, so p_m(K0) = (2/m) sum_{k=1}^{m-1} S_k.

Only p_m(K0) depends on m.  `build_rep` builds everything else once per
(system, dictionary) on the system's `koopman_space`: the product family
psi_i psi_j and psi_i K psi_j with its reduced mean-zero stacks, the exact
Gram pair C, C_+, and the constants E_0, E_+.
It is the package's one exact reference for finite chains, Fourier circles
and monomials on a 1-d Gaussian AR(1) system (Hermite polynomials).  The
Monte-Carlo oracle that checks these values lives in `studies`.
"""

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
    """(S_m, sum_{k=1}^{m-1} S_k) with S_k = sum_{j<k} M^j.

    Both are blocks of one matrix power: for T = [[M, I, 0], [0, I, I],
    [0, 0, I]], the top block row of T^m is [M^m, S_m, sum_{k<m} S_k]
    (Van Loan 1978).  The cost is O(d^3 log m) for any M, with or without
    a spectral gap.
    """
    d = M.shape[0]
    I = np.eye(d)
    Z = np.zeros((d, d))
    T = np.block([[M, I, Z], [Z, I, I], [Z, Z, I]])
    top = np.linalg.matrix_power(T, int(m))[:d]
    return top[:, d : 2 * d], top[:, 2 * d :]


def pm_apply_vectors(M, U, m):
    """Columns of p_m(M) @ U for the reduced mean-zero operator M.

    p_m(M) = (2/m) sum_{k=1}^{m-1} S_k with S_k = sum_{j<k} M^j, which is
    the (0, 2) block of T^m for the block matrix T of `_power_sums`.
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


def spectral_gap_of(M):
    """Distance of 1 from the spectrum of the reduced operator."""
    lam = np.linalg.eigvals(M)
    if lam.size == 0:
        return np.inf
    return float(np.min(np.abs(1.0 - lam)))


# ---------------------------------------------------------------------------
# Fejer kernel
# ---------------------------------------------------------------------------

def fejer_kernel(m, t):
    """F_m(t) = sum_{|k| <= m-1} (1 - |k|/m) e^{ikt}, t in radians.

    Evaluated via F_m(t) = (1/m) (sin(mt/2) / sin(t/2))^2, which equals the
    sum definition; note this is (1/m) (1-cos(mt)) / (1-cos t) *without* an
    outer square on the ratio - squaring the cosine ratio is a tempting
    transcription slip that does not match the sum.  F_m(0) = m.
    """
    m = int(m)
    t = np.asarray(t, dtype=np.float64)
    s = np.sin(t / 2.0)
    small = np.abs(s) < 1e-9
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sin(m * t / 2.0) / s
        vals = ratio * ratio / m
    # quadratic Taylor expansion around the removable singularity
    vals = np.where(small, m * (1.0 - (m * m - 1.0) * t * t / 12.0), vals)
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
    the rep across threads): `family`, the dictionary's product family
    (`function_family`); `reduced`, the family's g_ij, psi_ij and gs_ij
    stacks in reduced coordinates, one (3, dim-1, N^2) array; `gram`, the
    exact GramPair with C symmetrised; and `E_plus`, `E_zero`.
    """

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

        self.family = function_family(self)
        N2 = self.psi.shape[0] ** 2
        self.reduced = np.stack([self.to_reduced(self.family[key].reshape(N2, self.dim).T)
                                 for key in ("g_ij", "psi_ij", "gs_ij")])
        w = self.psi * weights
        C = w @ self.psi.T
        self.gram = GramPair(0.5 * (C + C.T), w @ (K @ self.psi.T), Provenance("exact"))
        self.E_plus, self.E_zero = variance_constants(self)

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
        return spectral_gap_of(self.M)

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


def function_family(rep):
    """psi_ij = psi_i psi_j, g_ij = psi_i K psi_j, gs[i,j] = psi_j K* psi_i,
    and phi = sum_j psi_j^2, all in natural coordinates.

    Products are pointwise on values.  Chain coordinates are values; other
    reps map coefficients to values at their nodes and back (`rep.nodes`),
    which is exact because the products stay in the rep's space.
    """
    psis = rep.psi
    N = psis.shape[0]
    kpsis = (rep.K @ psis.T).T
    kstar_psis = (rep.Kstar @ psis.T).T
    if rep.nodes is None:
        psi_ij = psis[:, None, :] * psis[None, :, :]
        g_ij = psis[:, None, :] * kpsis[None, :, :]
        gs_ij = kstar_psis[:, None, :] * psis[None, :, :]
    else:
        _, E, back = rep.nodes
        v, kv, ksv = psis @ E.T, kpsis @ E.T, kstar_psis @ E.T
        psi_ij = (v[:, None, :] * v[None, :, :]) @ back
        g_ij = (v[:, None, :] * kv[None, :, :]) @ back
        gs_ij = (ksv[:, None, :] * v[None, :, :]) @ back
    phi = psi_ij.reshape(N * N, rep.dim)[:: N + 1].sum(axis=0)
    return {"psi": psis, "psi_ij": psi_ij, "g_ij": g_ij, "gs_ij": gs_ij, "phi": phi}


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
    phi = rep.family["phi"]
    E_plus = float(np.sum(rep.weights * (rep.K @ phi) * phi) - np.sum(Cplus * Cplus))
    E_zero = float(np.sum(rep.weights * phi * phi) - np.sum(C * C))
    return E_plus, E_zero


def exact_variance(rep, m, regime=Regime.ERGODIC) -> VarianceReport:
    """Exact E||C - C_hat||_F^2 = sigma2_zero / m and the C_+ analogue.

    Under ergodic sampling
    sigma2_plus = E_plus + sum_ij <p_m(K0) Q g_ij, Q g*_ji> and
    sigma2_zero = E_zero + sum_ij <K0 p_m(K0) Q psi_ij, Q psi_ij>.
    Under i.i.d. sampling from the invariant law the m summands are
    independent, so sigma2 = E: the p_m = 0 case.
    """
    m = int(m)
    if regime is Regime.IID:
        return VarianceReport(m, rep.E_plus, rep.E_zero, rep.E_plus, rep.E_zero,
                              rep.E_plus / m, rep.E_zero / m)
    U, V, Us = rep.reduced
    PU, PV = pm_apply_vectors(rep.M, rep.reduced[:2], m)
    sigma2_plus = rep.E_plus + float(np.sum(PU * Us))
    sigma2_zero = rep.E_zero + float(np.sum((rep.M @ PV) * V))
    return VarianceReport(
        m, sigma2_plus, sigma2_zero, rep.E_plus, rep.E_zero,
        sigma2_plus / m, sigma2_zero / m,
    )


def _family_fejer_forms(rep, vectors_reduced, m):
    """(ergodic-average form, spectral form) for a stack of reduced vectors."""
    V = vectors_reduced
    avg = mean_power_apply(rep.M, V, m)
    form_avg = float(np.sum(avg * avg))
    ts, E = rep.eigen_system()
    proj = E.conj().T @ V  # (n_eigs, n_funcs)
    weights = np.abs(proj) ** 2
    form_spec = float(
        np.sum(fejer_kernel(m, 2.0 * np.pi * ts)[:, None] * weights) / m
    )
    return form_avg, form_spec


def fejer_variance(rep, m, rtol=1e-9) -> VarianceReport:
    """Unitary-case variances via ergodic averages, cross-checked spectrally.

    E||C_+ - C_hat_plus||^2 = sum_ij ||(1/m) sum_{k<m} K0^k Q g_ij||^2 and
    the analogous psi_ij expression for C; the spectral evaluation
    integrates the Fejer kernel against each function's spectral measure.
    """
    if not rep.unitary:
        raise NotUnitary("Fejer variance requires a unitary representation")
    m = int(m)
    U, V, _ = rep.reduced
    var_plus, var_plus_spec = _family_fejer_forms(rep, U, m)
    var_zero, var_zero_spec = _family_fejer_forms(rep, V, m)
    for a, b in ((var_plus, var_plus_spec), (var_zero, var_zero_spec)):
        scale = max(abs(a), abs(b), 1e-300)
        if abs(a - b) > rtol * scale:
            raise NumericalError(
                f"Fejer forms disagree: ergodic-average {a} vs spectral {b}"
            )
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
