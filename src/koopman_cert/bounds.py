"""Concentration bounds on the EDMD estimation errors.

Five branches are implemented, each a computable function of exact
system/dictionary constants:

  ergodic_linear      a / (m eps^2), requires an isolated eigenvalue 1
  ergodic_superlinear C(alpha,kappa,theta) M / (m^alpha eps^2), unitary case
  ergodic_kappa_zero  M / ((1 - cos 2 pi theta) m^2 eps^2), zero arc mass
  iid_markov          sigma^2/(m eps^2) [(L b^-2 + a^2) ||phi||^2 - 2]
  iid_hoeffding       two exponential terms, needs ||phi||_inf

Per-matrix bounds (for C and C_+ separately) are combined into a bound on
K_V - K_hat by splitting the threshold with tau = 2 ||C^{-1}||_F ||C_+||_F
+ eps.  Angles are kept in revolutions: every printed 1 - cos(theta)
becomes 1 - cos(2 pi theta); a helper exposes the ratio between the two
conventions so the choice stays visible.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import (  # noqa: F401  (bounds.BRANCHES stays importable)
    BRANCH_ERGODIC_KAPPA_ZERO,
    BRANCH_ERGODIC_LINEAR,
    BRANCH_ERGODIC_SUPERLINEAR,
    BRANCH_IID_HOEFFDING,
    BRANCH_IID_MARKOV,
    BRANCHES,
)
from .dictionaries import phi_function
from .errors import (
    ConfigError,
    MissingCertificate,
    MissingSupBound,
    NoSpectralGap,
    NumericalError,
)
from .galerkin import inv_fro_norm
from .spectral import ThinMeasureCertificate, certify_family


# the constant L of the i.i.d. branches: every i.i.d. pair set starts from
# its system's `initial_law` (`System.iid_slices`), the invariant law, so L = 1
L_IID = 1.0


@dataclass
class BoundInputs:
    """Exact constants every bound is built from."""

    norm_Cinv: float
    norm_Cplus: float
    E_plus: float
    E_zero: float
    norm_phi_L2: float
    sup_phi: Optional[float] = None
    resolvent_plus: Optional[float] = None  # ||(I - K0)^{-1}||
    resolvent_zero: Optional[float] = None  # ||K0 (I - K0)^{-1}||
    thin: Optional[ThinMeasureCertificate] = None
    M_const: float = field(init=False)

    def __post_init__(self):
        self.M_const = m_constant(
            self.norm_Cinv, self.norm_Cplus, self.E_zero, self.E_plus
        )


def m_constant(norm_Cinv, norm_Cplus, E_zero, E_plus):
    """M = 8 (1 + ||C^-1||_F^2 ||C_+||_F^2)^2 / ||C_+||_F^2 * max(E_0, E_+)."""
    ab2 = norm_Cinv**2 * norm_Cplus**2
    return 8.0 * (1.0 + ab2) ** 2 / norm_Cplus**2 * max(E_zero, E_plus)


def bound_inputs_from_exact(rep, thin_params=None) -> BoundInputs:
    """Assemble BoundInputs from an exact representation (`variance.build_rep`).

    thin_params, when given, is the (alpha, theta) of `certify_family`.
    The singularity gate runs on C before anything is computed from it.
    """
    norm_Cinv = inv_fro_norm(rep.gram.C)
    phi = phi_function(rep.dictionary)
    norm_phi = math.sqrt(float(np.sum(rep.weights * rep.phi ** 2)))
    sup_phi = phi.sup_bound
    if sup_phi is None and rep.nodes is None:
        # values on finitely many states: the sup is a max
        sup_phi = float(np.max(phi.evaluate(np.arange(rep.dim))))
    try:
        r_plus, r_zero = rep.resolvent_norms()
    except NoSpectralGap:
        r_plus = r_zero = None
    thin = None if thin_params is None else certify_family(rep, *thin_params)
    return BoundInputs(
        norm_Cinv=norm_Cinv,
        norm_Cplus=float(np.linalg.norm(rep.gram.Cplus)),
        E_plus=rep.E_plus,
        E_zero=rep.E_zero,
        norm_phi_L2=norm_phi,
        sup_phi=sup_phi,
        resolvent_plus=r_plus,
        resolvent_zero=r_zero,
        thin=thin,
    )


@dataclass
class BoundReport:
    """A probability bound at (m, epsilon), re-evaluable at shifted thresholds.

    family describes how p depends on (m, delta):
      {"kind": "power", "A": A, "m_exp": a}        -> A / (m^a delta^2)
      {"kind": "hoeffding", "c1","r1","c2","r2"}   -> c1 e^{-r1 m d^2} + c2 e^{-r2 m d^2}
    Values above 1 are reported verbatim (vacuous), never clamped.
    """

    epsilon: float
    m: int
    p_bound: float
    branch: str
    constants_used: dict
    family: dict

    def at(self, m, delta):
        return evaluate_family(self.family, m, delta)

    def to_json_dict(self):
        return {
            "epsilon": self.epsilon,
            "m": self.m,
            "p_bound": self.p_bound,
            "branch": self.branch,
            "constants_used": self.constants_used,
        }


def evaluate_family(family, m, delta):
    m = float(m)
    delta = float(delta)
    if family["kind"] == "power":
        return family["A"] / (m ** family["m_exp"] * delta**2)
    if family["kind"] == "hoeffding":
        return family["c1"] * math.exp(-family["r1"] * m * delta**2) + family[
            "c2"
        ] * math.exp(-family["r2"] * m * delta**2)
    raise ConfigError(f"unknown bound family {family['kind']}")


def _power_report(A, m_exp, branch, m, epsilon, constants):
    fam = {"kind": "power", "A": float(A), "m_exp": float(m_exp)}
    return BoundReport(
        float(epsilon), int(m), evaluate_family(fam, m, epsilon), branch, constants, fam
    )


# ---------------------------------------------------------------------------
# composite bounds (on ||K_V - K_hat||_F)
# ---------------------------------------------------------------------------

def alpha_constant(inputs: BoundInputs, epsilon) -> float:
    """a = [1 + 4 ||(I-K0)^{-1}||] [2ab + eps]^2 [(b^-2 + a^2) ||phi||^2 - 2]."""
    if inputs.resolvent_plus is None:
        raise NoSpectralGap("alpha requires an isolated eigenvalue 1")
    if inputs.norm_Cplus <= 0:
        raise ConfigError("alpha requires C_+ != 0")
    a = inputs.norm_Cinv
    b = inputs.norm_Cplus
    phi2 = inputs.norm_phi_L2**2
    bracket = (b**-2 + a**2) * phi2 - 2.0
    if bracket < 0:
        raise NumericalError(
            "last factor of the linear-rate constant is negative; inputs are "
            "degenerate at floating-point resolution"
        )
    tau = 2.0 * a * b + float(epsilon)
    return (1.0 + 4.0 * inputs.resolvent_plus) * tau**2 * bracket


def ergodic_linear_bound(inputs: BoundInputs, m, epsilon) -> BoundReport:
    """P(||K_V - K_hat|| > eps) <= a / (m eps^2) for ergodic stochastic sampling."""
    A = alpha_constant(inputs, epsilon)
    return _power_report(
        A, 1.0, BRANCH_ERGODIC_LINEAR, m, epsilon, {"alpha_const": A}
    )


def c_alpha(alpha) -> float:
    """Piecewise constant of the superlinear ergodic bound; 3 at alpha = 1."""
    alpha = float(alpha)
    if not 0.0 < alpha < 2.0:
        raise ConfigError("alpha must lie in (0, 2)")
    if alpha < 1.0:
        return (4.0 - 3.0 * alpha) / (1.0 - alpha)
    if alpha == 1.0:
        return 3.0
    return 3.0 / ((alpha - 1.0) * (2.0 - alpha))


def one_minus_cos(theta_rev):
    """1 - cos of the arc half-angle; theta in revolutions -> radians."""
    return 1.0 - math.cos(2.0 * math.pi * float(theta_rev))


def c_alpha_kappa_theta(alpha, kappa, theta) -> float:
    """C(alpha, kappa, theta) = max{2 / (1 - cos 2 pi theta), kappa C(alpha)}."""
    return max(2.0 / one_minus_cos(theta), float(kappa) * c_alpha(alpha))


def superlinear_bound(inputs: BoundInputs, m, epsilon) -> BoundReport:
    """Unitary ergodic branch; the kappa = 0 certificate upgrades to m^-2."""
    if inputs.thin is None:
        raise MissingCertificate("superlinear bound requires a thin-measure certificate")
    cert = inputs.thin
    M = inputs.M_const
    if cert.exact or cert.kappa == 0.0:
        A = M / one_minus_cos(cert.theta)
        return _power_report(
            A,
            2.0,
            BRANCH_ERGODIC_KAPPA_ZERO,
            m,
            epsilon,
            {"M": M, "theta": cert.theta},
        )
    C = c_alpha_kappa_theta(cert.alpha, cert.kappa, cert.theta)
    return _power_report(
        C * M,
        cert.alpha,
        BRANCH_ERGODIC_SUPERLINEAR,
        m,
        epsilon,
        {"M": M, "C_alpha_kappa_theta": C, "alpha": cert.alpha, "kappa": cert.kappa,
         "theta": cert.theta},
    )


def iid_markov_bound(inputs: BoundInputs, m, epsilon) -> BoundReport:
    """Markov branch for i.i.d. sampling."""
    if inputs.norm_Cplus <= 0:
        raise ConfigError("i.i.d. bounds require C_+ != 0")
    a = inputs.norm_Cinv
    b = inputs.norm_Cplus
    phi2 = inputs.norm_phi_L2**2
    sigma = 2.0 * a * b + float(epsilon)
    bracket = (L_IID / b**2 + a**2) * phi2 - 2.0
    return _power_report(
        sigma**2 * bracket,
        1.0,
        BRANCH_IID_MARKOV,
        m,
        epsilon,
        {"sigma": sigma, "bracket": bracket, "L": L_IID},
    )


def iid_hoeffding_bound(inputs: BoundInputs, m, epsilon) -> BoundReport:
    """Hoeffding branch for i.i.d. sampling, with the Markov branch's sigma;
    requires ||phi||_inf."""
    sigma = iid_markov_bound(inputs, m, epsilon).constants_used["sigma"]
    if inputs.sup_phi is None:
        raise MissingSupBound("Hoeffding branch requires ||phi||_inf")
    tau = sigma * inputs.sup_phi
    fam = {
        "kind": "hoeffding",
        "c1": 2.0,
        "r1": inputs.norm_Cplus**2 / (2.0 * tau**2 * (1.0 + L_IID) ** 2),
        "c2": 2.0,
        "r2": 1.0 / (8.0 * tau**2 * inputs.norm_Cinv**2),
    }
    return BoundReport(
        float(epsilon),
        int(m),
        evaluate_family(fam, m, epsilon),
        BRANCH_IID_HOEFFDING,
        {"tau": tau, "sigma": sigma, "L": L_IID},
        fam,
    )


def branch_bound(inputs: BoundInputs, branch, m, epsilon) -> BoundReport:
    """The composite bound of a named branch at (m, epsilon)."""
    if branch == BRANCH_ERGODIC_LINEAR:
        return ergodic_linear_bound(inputs, m, epsilon)
    if branch in (BRANCH_ERGODIC_SUPERLINEAR, BRANCH_ERGODIC_KAPPA_ZERO):
        return superlinear_bound(inputs, m, epsilon)
    if branch == BRANCH_IID_MARKOV:
        return iid_markov_bound(inputs, m, epsilon)
    if branch == BRANCH_IID_HOEFFDING:
        return iid_hoeffding_bound(inputs, m, epsilon)
    raise ConfigError(f"unknown branch {branch}")


# ---------------------------------------------------------------------------
# per-matrix bounds and their combination
# ---------------------------------------------------------------------------

def estimator_error_bounds(inputs: BoundInputs, m, epsilon, branch):
    """(bound for C, bound for C_+) before combination, per regime branch."""
    if branch == BRANCH_IID_MARKOV:
        rc = _power_report(inputs.E_zero, 1.0, branch, m, epsilon, {"E_zero": inputs.E_zero})
        rp = _power_report(inputs.E_plus, 1.0, branch, m, epsilon, {"E_plus": inputs.E_plus})
        return rc, rp
    if branch == BRANCH_IID_HOEFFDING:
        if inputs.sup_phi is None:
            raise MissingSupBound("Hoeffding branch requires ||phi||_inf")
        S = inputs.sup_phi
        fam_c = {"kind": "hoeffding", "c1": 2.0, "r1": 1.0 / (8.0 * S**2), "c2": 0.0, "r2": 1.0}
        fam_p = {
            "kind": "hoeffding",
            "c1": 2.0,
            "r1": 1.0 / (2.0 * (1.0 + L_IID) ** 2 * S**2),
            "c2": 0.0,
            "r2": 1.0,
        }
        rc = BoundReport(float(epsilon), int(m), evaluate_family(fam_c, m, epsilon),
                         branch, {"sup_phi": S}, fam_c)
        rp = BoundReport(float(epsilon), int(m), evaluate_family(fam_p, m, epsilon),
                         branch, {"sup_phi": S, "L": L_IID}, fam_p)
        return rc, rp
    if branch == BRANCH_ERGODIC_LINEAR:
        if inputs.resolvent_plus is None or inputs.resolvent_zero is None:
            raise NoSpectralGap("linear ergodic branch requires an isolated eigenvalue 1")
        Ac = (1.0 + 4.0 * inputs.resolvent_zero) * inputs.E_zero
        Ap = (1.0 + 4.0 * inputs.resolvent_plus) * inputs.E_plus
        rc = _power_report(Ac, 1.0, branch, m, epsilon, {"A": Ac})
        rp = _power_report(Ap, 1.0, branch, m, epsilon, {"A": Ap})
        return rc, rp
    if branch in (BRANCH_ERGODIC_SUPERLINEAR, BRANCH_ERGODIC_KAPPA_ZERO):
        if inputs.thin is None:
            raise MissingCertificate("superlinear branches require a certificate")
        cert = inputs.thin
        if cert.exact or cert.kappa == 0.0:
            scale = 2.0 / one_minus_cos(cert.theta)
            rc = _power_report(scale * inputs.E_zero, 2.0, BRANCH_ERGODIC_KAPPA_ZERO,
                               m, epsilon, {"theta": cert.theta})
            rp = _power_report(scale * inputs.E_plus, 2.0, BRANCH_ERGODIC_KAPPA_ZERO,
                               m, epsilon, {"theta": cert.theta})
            return rc, rp
        C = c_alpha_kappa_theta(cert.alpha, cert.kappa, cert.theta)
        rc = _power_report(C * inputs.E_zero, cert.alpha, BRANCH_ERGODIC_SUPERLINEAR,
                           m, epsilon, {"C": C})
        rp = _power_report(C * inputs.E_plus, cert.alpha, BRANCH_ERGODIC_SUPERLINEAR,
                           m, epsilon, {"C": C})
        return rc, rp
    raise ConfigError(f"unknown branch {branch}")


def split_threshold(inputs: BoundInputs, epsilon):
    """(tau, delta_plus, delta_zero) with tau = 2ab + eps, delta_plus = (eps/tau) b
    and delta_zero = (eps/tau) / a, for a = ||C^{-1}||_F and b = ||C_+||_F."""
    eps = float(epsilon)
    a = inputs.norm_Cinv
    b = inputs.norm_Cplus
    tau = 2.0 * a * b + eps
    return tau, eps / tau * b, eps / tau / a


def combine_bounds(bound_C: BoundReport, bound_Cplus: BoundReport,
                   inputs: BoundInputs, epsilon) -> BoundReport:
    """Threshold-splitting combination of per-matrix bounds.

    P(||C^{-1}C_+ - C_hat^{-1}C_hat_plus|| > eps)
      <= P(||C_+ - C_hat_plus|| > (eps/tau) ||C_+||)
       + P(||C - C_hat|| > (eps/tau) / ||C^{-1}||),   tau = 2ab + eps.
    """
    if inputs.norm_Cplus <= 0:
        raise ConfigError("combination requires C_+ != 0")
    m = bound_C.m
    if bound_Cplus.m != m:
        raise ConfigError("per-matrix bounds must share the sample count")
    tau, delta_plus, delta_zero = split_threshold(inputs, epsilon)
    p = bound_Cplus.at(m, delta_plus) + bound_C.at(m, delta_zero)
    return BoundReport(
        float(epsilon),
        int(m),
        p,
        f"combined({bound_C.branch},{bound_Cplus.branch})",
        {"tau": tau, "delta_plus": delta_plus, "delta_zero": delta_zero},
        {"kind": "combined"},
    )
