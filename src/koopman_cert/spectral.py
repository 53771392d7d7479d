"""Discrete spectral measures of unitary Koopman representations.

A function f decomposes over the eigenbasis of the unitary mean-zero
compression; its spectral measure places weight |<f, f_n>|^2 at the angle
t_n (in revolutions, wrapped to [-1/2, 1/2)) of the eigenvalue e^{2 pi i
t_n}.  Arc masses near t = 0 control how fast ergodic averages decay, which
the thin-measure certificates quantify.
"""

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import ConfigError, DegenerateTheta, NotMeanZero

ATOM_WEIGHT_TOL = 1e-24
MEAN_ZERO_TOL = 1e-10


@dataclass
class SpectralMeasure:
    """Atoms (t_n, w_n) sorted by |t_n| ascending; total_mass = ||f||^2."""

    atoms: List[Tuple[float, float]]
    total_mass: float


def spectral_measure(rep, f, weight_tol=ATOM_WEIGHT_TOL) -> SpectralMeasure:
    """Spectral measure of f (natural coordinates, real or complex).

    f must be mean-zero within 1e-10.  Weights below weight_tol (relative
    to the total) are dropped; atoms at coinciding angles are merged.
    """
    f = np.asarray(f)
    ts, V = rep.eigen_system()  # raises NotUnitary when not applicable
    u = rep.to_reduced(f.real.astype(np.float64))
    if np.iscomplexobj(f):
        u = u.astype(complex) + 1j * rep.to_reduced(f.imag.astype(np.float64))
    # ||(I - Q) f|| = |<f, 1>| since the constant function has unit norm
    mean_coeff = np.sum(rep.weights * f * rep.one)
    if abs(mean_coeff) > MEAN_ZERO_TOL:
        raise NotMeanZero("f has a nonzero constant component")
    weights = np.abs(V.conj().T @ u) ** 2
    total = float(np.sum(weights))
    cut = weight_tol * max(total, 1e-300)
    merged = {}
    for t, w in zip(ts, weights):
        if w <= cut:
            continue
        key = round(float(t), 12)
        merged[key] = merged.get(key, 0.0) + float(w)
    atoms = sorted(merged.items(), key=lambda kv: (abs(kv[0]), kv[0]))
    return SpectralMeasure([(t, w) for t, w in atoms], total)


@dataclass
class ThinMeasureCertificate:
    """kappa such that mu_f(S_gamma) <= kappa mu_f(S_theta) gamma^alpha on (0, theta]."""

    alpha: float
    theta: float
    kappa: float
    exact: bool  # mu_f(S_theta) = 0: arbitrarily fast arc decay near 1


def certify_thin_measure(meas: SpectralMeasure, alpha, theta) -> ThinMeasureCertificate:
    """Smallest kappa certifying the arc-decay condition for a discrete measure.

    For discrete measures the supremum of mu(S_gamma) / gamma^alpha over
    (0, theta] is attained at atom radii, so it is evaluated exactly there.
    """
    alpha = float(alpha)
    theta = float(theta)
    if not 0.0 < alpha < 2.0:
        raise ConfigError("alpha must lie in (0, 2)")
    if not 0.0 < theta < 0.5:
        raise ConfigError("theta must lie in (0, 1/2)")
    mass_theta = float(sum(w for t, w in meas.atoms if abs(t) <= theta))
    if mass_theta == 0.0:
        if any(abs(t) < theta and w > 0 for t, w in meas.atoms):
            raise DegenerateTheta("zero arc mass but atoms inside the arc")
        return ThinMeasureCertificate(alpha, theta, 0.0, True)

    def ratio(gamma):
        mass = sum(w for t, w in meas.atoms if abs(t) <= gamma)
        return mass / (mass_theta * gamma**alpha)

    radii = [abs(t) for t, w in meas.atoms if abs(t) <= theta and w > 0]
    kappa = 0.0
    for r in radii:
        if r == 0.0:
            return ThinMeasureCertificate(alpha, theta, float("inf"), False)
        kappa = max(kappa, ratio(r))
    return ThinMeasureCertificate(alpha, theta, kappa, False)


def certify_family(rep, alpha, theta) -> ThinMeasureCertificate:
    """Certify every product function the variance formulas touch, Q psi_ij and Q g_ij.

    Functions with zero mean-zero component are trivially certified and
    skipped.  kappa is the worst case over the family; exact requires every
    member to have zero arc mass within theta.
    """
    fam = rep.family
    N = fam["psi"].shape[0]
    kappa = 0.0
    exact = True
    for stack in (fam["psi_ij"], fam["g_ij"]):
        for i in range(N):
            for j in range(N):
                f = rep.project_zero(stack[i, j])
                if rep.norm_sq(f) <= 1e-28:
                    continue
                meas = spectral_measure(rep, f)
                cert = certify_thin_measure(meas, alpha, theta)
                kappa = max(kappa, cert.kappa)
                exact = exact and cert.exact
    if exact:
        kappa = 0.0
    return ThinMeasureCertificate(float(alpha), float(theta), kappa, exact)
