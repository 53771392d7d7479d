"""Convergence-rate studies, variance cross-checks, and bound-validity grids.

All studies are driven by a JSON-serializable config, run on derived
per-chunk seeds (deterministic for a fixed config, regardless of thread
count), and emit schema-versioned CSV tables plus log-log rate fits.
"""

import csv
import math
import sys as _sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import bounds as bounds_mod
from . import rng
from .errors import ConfigError, InsufficientPoints, UnsupportedSystem
from .galerkin import galerkin_matrix, gram_block, is_singular
from .systems import (
    CircleRotationSystem,
    FiniteMarkovSystem,
    Regime,
    ergodic_chunk,
    iid_chunk,
)
from .variance import build_rep, exact_reference_gram, exact_variance

CSV_SCHEMAS = {
    "convergence": "koopman-cert/convergence-v1",
    "variance": "koopman-cert/variance-v1",
    "bounds": "koopman-cert/bounds-v1",
}


# ---------------------------------------------------------------------------
# Monte-Carlo error engine
# ---------------------------------------------------------------------------

def _psi_on_states(dictionary, states):
    """(B, k, N) dictionary values on a (B, k) or (B, k, state_dim) block of
    continuous states."""
    B, k = states.shape[:2]
    flat = dictionary.evaluate(states.reshape(B * k, *states.shape[2:]))
    return flat.T.reshape(B, k, -1)


# cap on feature-block floats per slice (keeps peak memory ~tens of MB)
_SLICE_BUDGET = 4_000_000

# orbit steps per block of a rotation's phase sums
_PHASE_BLOCK = 1 << 16


def _gram_errors_block(Chat, Cphat, ref):
    """Per-trial Frobenius errors (err_C, err_Cplus, err_K) of (B, N, N)
    Gram stacks against ref = (C, C_plus, K_V); err_K is NaN where
    `galerkin.is_singular(C_hat)`."""
    C, Cplus, KV = ref
    err_C = np.sqrt(np.sum((Chat - C) ** 2, axis=(1, 2)))
    err_Cp = np.sqrt(np.sum((Cphat - Cplus) ** 2, axis=(1, 2)))
    good = ~is_singular(Chat)
    err_K = np.full(len(Chat), np.nan)
    if np.any(good):
        Khat = np.linalg.solve(Chat[good], Cphat[good])
        err_K[good] = np.sqrt(np.sum((Khat - KV) ** 2, axis=(1, 2)))
    return err_C, err_Cp, err_K


def _indicator_errors(counts, ref, m):
    """Closed-form indicator estimates from (B, n, n) transition counts."""
    C, Cplus, KV = ref
    counts = counts.astype(np.float64)
    visits = counts.sum(axis=2)
    Cp_hat = counts / m
    err_Cp = np.sqrt(np.sum((Cp_hat - Cplus) ** 2, axis=(1, 2)))
    diag_err = visits / m - np.diag(C)
    err_C = np.sqrt(np.sum(diag_err**2, axis=1))
    good = np.all(visits > 0, axis=1)
    err_K = np.full(len(visits), np.nan)
    if np.any(good):
        Khat = counts[good] / visits[good][:, :, None]
        err_K[good] = np.sqrt(np.sum((Khat - KV) ** 2, axis=(1, 2)))
    return err_C, err_Cp, err_K


def count_grams(table, counts, m):
    """C_hat = Psi^T diag(visits) Psi / m (symmetrised) and C_hat_plus =
    Psi^T counts Psi / m from (B, n, n) transition counts, with Psi the
    (n, N) dictionary table and visits the counts' row sums."""
    counts = counts.astype(np.float64)
    C = (table.T * counts.sum(axis=2)[:, None, :]) @ table / m
    return 0.5 * (C + np.swapaxes(C, 1, 2)), table.T @ counts @ table / m


def iid_chain_counts(sys, weights, m, gen, count):
    """(count, n, n) transition counts of m i.i.d. pairs x ~ weights,
    y ~ P(x, .): one Multinomial(m, weights_i P_ij) draw per trial."""
    law = (np.asarray(weights, dtype=np.float64)[:, None] * sys.transition).ravel()
    n = sys.n_states
    return gen.multinomial(m, law / law.sum(), size=count).reshape(count, n, n)


def _chain_count_slices(sys, m, seed, chunk, count, regime, mu0_sampler):
    """The chunk's (rows, n, n) transition counts, a slice of trials at a
    time: i.i.d. counts drawn from their multinomial law, ergodic counts
    tallied as the chunk's trajectories are stepped (`ergodic_counts`)."""
    rows = max(1, _SLICE_BUDGET // sys.n_states**2)
    gen = rng.stream(seed, chunk)
    if regime is Regime.IID:
        for lo in range(0, count, rows):
            yield iid_chain_counts(sys, mu0_sampler.weights, m, gen, min(rows, count - lo))
    else:
        yield from sys.ergodic_counts(m, gen, count, rows)


def _fourier_modes(dictionary, F):
    """(N, 2F+1) complex A with psi = A e, e_q = e^{2 pi i q x} for q =
    -F..F, for a dictionary of trigonometric polynomials of degree <= F:
    the discrete Fourier transform of its values at the nodes a / (2F+1)."""
    x = np.arange(2 * F + 1) / (2 * F + 1)
    waves = np.exp(-2j * np.pi * np.outer(x, np.arange(-F, F + 1)))
    return dictionary.evaluate(x) @ waves / (2 * F + 1)


def rotation_phase_means(t0, m, Q):
    """G(q) = (1/m) sum_{k<m} e^{2 pi i q (k t0 mod 1)} for q = 0..Q, summed
    in blocks of at most _PHASE_BLOCK steps (memory stays bounded in m)."""
    q = np.arange(Q + 1)
    G = np.zeros(Q + 1, dtype=complex)
    for lo in range(0, m, _PHASE_BLOCK):
        steps = np.mod(np.arange(lo, min(lo + _PHASE_BLOCK, m)) * t0, 1.0)
        G += np.exp(2j * np.pi * steps[:, None] * q).sum(axis=0)
    return G / m


def phase_grams(dictionary, t0, G, x0):
    """C_hat and C_hat_plus of a fourier(F) dictionary, psi = A e, on the
    rotation orbits x0 + k t0, k <= m, from the phase means G = G(0..2F) of
    `rotation_phase_means`: with D(q) = e^{2 pi i q x0} G(q) and H[a, b] =
    D(a + b), C_hat = Re(A H A^T) (symmetrised) and C_hat_plus =
    Re(A H diag(e^{2 pi i b t0}) A^T)."""
    F = (len(G) - 1) // 2
    D = np.exp(2j * np.pi * np.outer(x0, np.arange(2 * F + 1))) * G
    # D(-q) = conj(D(q)); columns run over q = -2F..2F
    D = np.concatenate([np.conj(D[:, :0:-1]), D], axis=1)
    i = np.arange(2 * F + 1)
    H = D[:, i[:, None] + i[None, :]]
    A = _fourier_modes(dictionary, F)
    shift = np.exp(2j * np.pi * (i - F) * t0)
    C = (A @ H @ A.T).real
    return 0.5 * (C + np.swapaxes(C, 1, 2)), (A @ (H * shift) @ A.T).real


def _chunk_trial_errors(sys, dictionary, ref, m, seed, chunk, count, regime,
                        mu0_sampler=None):
    """Per-trial Frobenius errors (err_C, err_Cplus, err_K) for one chunk.

    err_K is NaN for trials whose empirical mass matrix is numerically
    singular.  Where a trial's estimates depend on it only through a small
    statistic, that statistic is sampled.  Chains use transition counts:
    i.i.d. trials draw them from their multinomial law, ergodic trials
    tally them on their trajectories, and indicator dictionaries take the
    counts' closed form.  Ergodic rotations with a Fourier dictionary use
    phase sums.  Every other case streams feature blocks into `gram_block`
    under a fixed memory budget.
    """
    from .dictionaries import DictionaryKind

    parts = []
    if isinstance(sys, FiniteMarkovSystem):
        indicator = (dictionary.kind is DictionaryKind.INDICATOR
                     and dictionary.size == sys.n_states)
        table = dictionary.evaluate(np.arange(sys.n_states)).T
        for counts in _chain_count_slices(sys, m, seed, chunk, count, regime, mu0_sampler):
            parts.append(_indicator_errors(counts, ref, m) if indicator else
                         _gram_errors_block(*count_grams(table, counts, m), ref))
    elif (regime is Regime.ERGODIC and isinstance(sys, CircleRotationSystem)
          and dictionary.kind is DictionaryKind.FOURIER):
        # the x0 that `ergodic_chunk` draws first on this stream
        x0 = rng.stream(seed, chunk).random(count)
        F = dictionary.metadata["max_freq"]
        G = rotation_phase_means(sys.t0, m, 2 * F)
        rows = max(1, _SLICE_BUDGET // (2 * F + 1) ** 2)
        for lo in range(0, count, rows):
            grams = phase_grams(dictionary, sys.t0, G, x0[lo : lo + rows])
            parts.append(_gram_errors_block(*grams, ref))
    elif regime is Regime.ERGODIC:
        paths = ergodic_chunk(sys, m, seed, chunk, count)
        rows = max(1, _SLICE_BUDGET // ((m + 1) * dictionary.size))
        for lo in range(0, count, rows):
            psi = _psi_on_states(dictionary, paths[lo : lo + rows])
            parts.append(_gram_errors_block(*gram_block(psi[:, :m], psi[:, 1:], m), ref))
    else:
        xs, ys = iid_chunk(sys, mu0_sampler, m, seed, chunk, count)
        rows = max(1, _SLICE_BUDGET // (2 * m * dictionary.size))
        for lo in range(0, count, rows):
            psi_x = _psi_on_states(dictionary, xs[lo : lo + rows])
            psi_y = _psi_on_states(dictionary, ys[lo : lo + rows])
            parts.append(_gram_errors_block(*gram_block(psi_x, psi_y, m), ref))
    return tuple(np.concatenate([p[i] for p in parts]) for i in range(3))


def mc_trial_errors(sys, dictionary, ref, m, n_trials, seed, regime,
                    mu0_sampler=None, threads=1):
    """Stacked per-trial errors over n_trials independent estimates."""
    chunks = list(rng.trial_chunks(n_trials))

    def work(spec):
        c, _, count = spec
        return _chunk_trial_errors(
            sys, dictionary, ref, m, seed, c, count, regime, mu0_sampler
        )

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            out = list(pool.map(work, chunks))
    else:
        out = [work(s) for s in chunks]
    err_C = np.concatenate([o[0] for o in out])
    err_Cp = np.concatenate([o[1] for o in out])
    err_K = np.concatenate([o[2] for o in out])
    return err_C, err_Cp, err_K


def exact_reference(gram):
    """(C, C_plus, K_V) of an exact GramPair."""
    return gram.C, gram.Cplus, galerkin_matrix(gram).KV


@dataclass
class OracleResult:
    m: int
    n_trials: int
    var_C_hat: float
    var_Cplus_hat: float
    stderr_C: float
    stderr_Cplus: float


def _mean_stderr(x):
    mean = float(np.mean(x))
    if len(x) < 2:
        return mean, float("inf")
    return mean, float(np.std(x, ddof=1) / np.sqrt(len(x)))


def montecarlo_variance_oracle(rep, m, n_trials, seed, threads=1,
                               regime=Regime.ERGODIC) -> OracleResult:
    """Sample mean of ||C - C_hat||_F^2 (and the C_+ analogue) over
    independent trials of the rep's system, with standard errors: stationary
    trajectories, or i.i.d. pairs from the invariant law."""
    mu0 = rep.system.initial_law() if regime is Regime.IID else None
    err_C, err_Cp, _ = mc_trial_errors(
        rep.system, rep.dictionary, exact_reference(rep.gram), int(m), int(n_trials),
        seed, regime, mu0, threads,
    )
    vc, sc = _mean_stderr(err_C**2)
    vp, sp = _mean_stderr(err_Cp**2)
    return OracleResult(int(m), int(n_trials), vc, vp, sc, sp)


def reference_model(sys, dictionary, m_ref, seed):
    """Surrogate reference learned from one long trajectory of length m_ref.

    Used when no exact Gram matrices exist; comparisons against it should
    stay at m <= m_ref / 10 to limit reference contamination.
    """
    from .edmd import edmd_estimate
    from .systems import sample_ergodic

    pairs = sample_ergodic(sys, int(m_ref), seed=seed)
    est = edmd_estimate(dictionary, pairs)
    return est.gram.C, est.gram.Cplus, est.Khat


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------

def _is_int(v):
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_real(v):
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


def check_seed(seed):
    """A seed is an integer >= 0, as SeedSequence needs."""
    if not _is_int(seed) or seed < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")


def check_threads(threads):
    """A thread count is an integer >= 1."""
    if not _is_int(threads) or threads < 1:
        raise ConfigError(f"threads must be an integer >= 1, got {threads!r}")


def _check_sampling(m_grid, seed, n_trials, min_trials):
    """Checks every sampling config shares: a non-empty, strictly increasing
    grid of integers >= 1, an integer seed >= 0, integer n_trials >= min_trials."""
    if not isinstance(m_grid, (list, tuple)) or not m_grid or not all(
        _is_int(m) and m >= 1 for m in m_grid
    ):
        raise ConfigError(
            f"m_grid must be a non-empty list of integers >= 1, got {m_grid!r}"
        )
    if any(b <= a for a, b in zip(m_grid, m_grid[1:])):
        raise ConfigError("m_grid must be strictly increasing")
    check_seed(seed)
    if not _is_int(n_trials) or n_trials < min_trials:
        raise ConfigError(f"n_trials must be an integer >= {min_trials}, got {n_trials!r}")


def _config_from_dict(cls, d, name):
    extra = set(d) - set(cls.__dataclass_fields__)
    if extra:
        raise ConfigError(f"unknown {name} config keys: {sorted(extra)}")
    if "system" not in d or "dictionary" not in d:
        raise ConfigError(f"{name} config needs 'system' and 'dictionary'")
    return cls(**d)


@dataclass
class StudyConfig:
    system: dict
    dictionary: dict
    regime: str = "ergodic"
    m_grid: List[int] = field(default_factory=lambda: [100, 1000, 10000])
    n_trials: int = 50
    seed: int = 0
    error_quantiles: List[float] = field(default_factory=lambda: [0.9])
    tail_epsilon: Optional[float] = None
    tail_branch: Optional[str] = None
    threads: int = 1

    def __post_init__(self):
        # 30 trials at least, so the standard errors mean something
        _check_sampling(self.m_grid, self.seed, self.n_trials, 30)
        check_threads(self.threads)
        if self.regime not in ("ergodic", "iid"):
            raise ConfigError("regime must be 'ergodic' or 'iid'")

    @classmethod
    def from_dict(cls, d):
        return _config_from_dict(cls, d, "study")


@dataclass
class BoundsConfig:
    """Config of the `bounds` command, checked as StudyConfig is."""

    system: dict
    dictionary: dict
    branch: str = bounds_mod.BRANCH_ERGODIC_LINEAR
    thin: Optional[dict] = None
    m_grid: List[int] = field(default_factory=lambda: [1000, 10000])
    epsilons: List[float] = field(default_factory=lambda: [1.0])
    n_trials: int = 1000
    seed: int = 0

    def __post_init__(self):
        _check_sampling(self.m_grid, self.seed, self.n_trials, 1)
        eps = self.epsilons
        if not (isinstance(eps, (list, tuple)) and eps
                and all(_is_real(e) and math.isfinite(e) and e > 0 for e in eps)):
            raise ConfigError(f"epsilons must be a non-empty list of numbers > 0, got {eps!r}")
        thin = self.thin
        if thin and not (isinstance(thin, dict) and _is_real(thin.get("alpha"))
                         and _is_real(thin.get("theta"))):
            raise ConfigError(f"thin needs numbers alpha and theta, got {thin!r}")

    @property
    def thin_params(self):
        return (self.thin["alpha"], self.thin["theta"]) if self.thin else None

    @classmethod
    def from_dict(cls, d):
        return _config_from_dict(cls, d, "bounds")


@dataclass
class RateFit:
    slope: float
    intercept: float
    r2: float
    slope_stderr: float
    n_points: int

    def to_json_dict(self):
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r2": self.r2,
            "slope_stderr": self.slope_stderr,
            "n_points": self.n_points,
        }


def fit_rate(m_values, rmse_values) -> RateFit:
    """OLS of log(rmse) on log(m); slope is the empirical convergence rate."""
    m_values = np.asarray(m_values, dtype=float)
    rmse_values = np.asarray(rmse_values, dtype=float)
    mask = np.isfinite(rmse_values) & (rmse_values > 0)
    x = np.log(m_values[mask])
    y = np.log(rmse_values[mask])
    n = len(x)
    if n < 4:
        raise InsufficientPoints("rate fits need at least 4 grid points")
    xbar, ybar = x.mean(), y.mean()
    sxx = np.sum((x - xbar) ** 2)
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    intercept = float(ybar - slope * xbar)
    resid = y - (intercept + slope * x)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - ybar) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    stderr = math.sqrt(ss_res / (n - 2) / sxx) if n > 2 else float("inf")
    return RateFit(slope, intercept, min(max(r2, 0.0), 1.0), stderr, n)


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------

def run_convergence_study(cfg: StudyConfig, sys=None, dictionary=None):
    """RMSE of the three estimation errors per m, with rate fits.

    Returns (rows, fits) where fits maps 'C', 'Cplus', 'K' to RateFit.
    Theoretical RMSE predictions sqrt(sigma^2_m / m) ride along when an
    exact representation exists.
    """
    from .config import dictionary_from_config, system_from_config

    sys = system_from_config(cfg.system) if sys is None else sys
    dictionary = dictionary_from_config(cfg.dictionary, system=sys) if dictionary is None else dictionary
    regime = Regime(cfg.regime)
    # before any reference is built: a system without an i.i.d. law fails fast
    mu0 = sys.initial_law() if regime is Regime.IID else None
    try:
        rep = build_rep(sys, dictionary)
    except UnsupportedSystem:
        rep = None
    try:
        ref = exact_reference(rep.gram if rep else exact_reference_gram(sys, dictionary))
    except UnsupportedSystem:
        # reference-model mode: the largest grid entry stays a factor 10
        # below the surrogate's sample size
        m_ref = 10 * max(cfg.m_grid)
        ref = reference_model(sys, dictionary, m_ref,
                              seed=_derived_seed(cfg.seed, len(cfg.m_grid)))
        print(f"note: no exact reference for {_system_name(cfg.system)}; errors are "
              f"measured against a reference model learned from {m_ref} lags",
              file=_sys.stderr)

    tail_report = None  # without exact constants the tail column stays NaN
    if cfg.tail_epsilon is not None and cfg.tail_branch is not None and rep is not None:
        inputs = bounds_mod.bound_inputs_from_exact(
            rep,
            thin_params=(1.5, 0.2)
            if cfg.tail_branch
            in (bounds_mod.BRANCH_ERGODIC_SUPERLINEAR,
                bounds_mod.BRANCH_ERGODIC_KAPPA_ZERO)
            else None,
        )

        def tail_p(m):
            return _branch_bound(inputs, cfg.tail_branch, m, cfg.tail_epsilon).p_bound

        tail_report = tail_p

    rows = []
    for mi, m in enumerate(cfg.m_grid):
        err_C, err_Cp, err_K = mc_trial_errors(
            sys, dictionary, ref, int(m), cfg.n_trials,
            _derived_seed(cfg.seed, mi), regime, mu0, cfg.threads,
        )
        good = np.isfinite(err_K)
        row = {
            "m": int(m),
            "n_trials": cfg.n_trials,
            "n_singular": int(np.sum(~good)),
            "rmse_C": float(np.sqrt(np.mean(err_C**2))),
            "rmse_Cplus": float(np.sqrt(np.mean(err_Cp**2))),
            "rmse_K": float(np.sqrt(np.mean(err_K[good] ** 2))) if good.any() else float("nan"),
        }
        for q in cfg.error_quantiles:
            tag = f"q{int(round(q * 100))}"
            row[f"{tag}_C"] = float(np.quantile(err_C, q))
            row[f"{tag}_Cplus"] = float(np.quantile(err_Cp, q))
            row[f"{tag}_K"] = float(np.quantile(err_K[good], q)) if good.any() else float("nan")
        if rep is not None:
            vr = exact_variance(rep, int(m), regime)
            row["pred_rmse_C"] = math.sqrt(max(vr.var_C, 0.0))
            row["pred_rmse_Cplus"] = math.sqrt(max(vr.var_Cplus, 0.0))
        else:
            row["pred_rmse_C"] = float("nan")
            row["pred_rmse_Cplus"] = float("nan")
        if cfg.tail_epsilon is not None:
            row["tail_eps"] = float(cfg.tail_epsilon)
            exceed = np.where(good, err_K > cfg.tail_epsilon, True)
            row["tail_frac_K"] = float(np.mean(exceed))
            row["tail_p_bound"] = tail_report(int(m)) if tail_report else float("nan")
        rows.append(row)

    fits = {}
    for key, col in (("C", "rmse_C"), ("Cplus", "rmse_Cplus"), ("K", "rmse_K")):
        try:
            fits[key] = fit_rate([r["m"] for r in rows], [r[col] for r in rows])
        except InsufficientPoints:
            fits[key] = None
    return rows, fits


def _system_name(cfg):
    """The config's system type, with its SDE model or map name."""
    spec = cfg.get("map")
    detail = cfg.get("model") or (spec.get("name") if isinstance(spec, dict) else None)
    return " ".join(str(v) for v in (cfg.get("type"), detail) if v)


def _derived_seed(seed, index):
    # distinct m-grid entries must not share trial streams
    return (int(seed) << 16) + int(index)


def run_variance_check(cfg: StudyConfig, sys=None, dictionary=None):
    """Exact variances vs the Monte-Carlo oracle in the config's regime,
    flagged at 3 stderr."""
    from .config import dictionary_from_config, system_from_config

    sys = system_from_config(cfg.system) if sys is None else sys
    dictionary = dictionary_from_config(cfg.dictionary, system=sys) if dictionary is None else dictionary
    rep = build_rep(sys, dictionary)
    regime = Regime(cfg.regime)
    trace_C = float(np.trace(rep.gram.C))
    rows = []
    for mi, m in enumerate(cfg.m_grid):
        vr = exact_variance(rep, int(m), regime)
        oracle = montecarlo_variance_oracle(
            rep, int(m), cfg.n_trials, _derived_seed(cfg.seed, mi), cfg.threads, regime,
        )

        # degenerate trials (constant error) have zero stderr, so the
        # oracle's own round-off must be allowed for
        def _within(exact, mc, stderr):
            slack = _roundoff_slack(int(m), cfg.n_trials, dictionary.size, trace_C, mc)
            return abs(exact - mc) <= 3.0 * stderr + slack

        within_c = _within(vr.var_C, oracle.var_C_hat, oracle.stderr_C)
        within_p = _within(vr.var_Cplus, oracle.var_Cplus_hat, oracle.stderr_Cplus)
        rows.append(
            {
                "m": int(m),
                "n_trials": cfg.n_trials,
                "var_C_exact": vr.var_C,
                "var_C_mc": oracle.var_C_hat,
                "stderr_C": oracle.stderr_C,
                "within_3sigma_C": within_c,
                "var_Cplus_exact": vr.var_Cplus,
                "var_Cplus_mc": oracle.var_Cplus_hat,
                "stderr_Cplus": oracle.stderr_Cplus,
                "within_3sigma_Cplus": within_p,
            }
        )
    return rows


def _roundoff_slack(m, n_trials, size, trace_C, mc):
    """Bound on the floating-point error of the oracle's mean of ||C - C_hat||^2.

    With unit round-off u and gamma(k) = k u / (1 - k u) (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2002, ch. 3): each C_hat entry
    sums m products and divides by m, so ||fl(C_hat) - C_hat||_F <= delta =
    gamma(m + 2) tr(C_hat) (Cauchy-Schwarz on the sum of |psi| |psi|^T),
    with tr(C_hat) taken at its mean tr(C); the C_plus analogue obeys the
    same bound.  A trial's squared error then moves by at most
    2 ||C - C_hat|| delta + delta^2, whose trial mean is at most
    2 sqrt(mc) delta + delta^2.  Squaring and summing the size^2 entries,
    the sqrt and re-square, and the mean over trials add a relative
    gamma(size^2 + 3) + gamma(n_trials).
    """
    u = float(np.finfo(np.float64).eps) / 2

    def gamma(k):
        return k * u / (1.0 - k * u)

    delta = gamma(m + 2) * trace_C
    return (2.0 * math.sqrt(max(mc, 0.0)) * delta + delta**2
            + (gamma(size**2 + 3) + gamma(n_trials)) * abs(mc))


def _branch_bound(inputs, branch, m, epsilon):
    if branch == bounds_mod.BRANCH_ERGODIC_LINEAR:
        return bounds_mod.ergodic_linear_bound(inputs, m, epsilon)
    if branch in (bounds_mod.BRANCH_ERGODIC_SUPERLINEAR, bounds_mod.BRANCH_ERGODIC_KAPPA_ZERO):
        return bounds_mod.superlinear_bound(inputs, m, epsilon)
    if branch == bounds_mod.BRANCH_IID_MARKOV:
        return bounds_mod.iid_markov_bound(inputs, m, epsilon)
    if branch == bounds_mod.BRANCH_IID_HOEFFDING:
        return bounds_mod.iid_hoeffding_bound(inputs, m, epsilon)
    raise ConfigError(f"unknown branch {branch}")


def run_bound_validity(rep, inputs, branch, m_values, epsilons, n_trials, seed,
                       threads=1):
    """Empirical exceedance frequencies against a branch's p_bound.

    `inputs` are the rep's BoundInputs (`bounds.bound_inputs_from_exact`).
    The composite bound is checked on ||K_V - K_hat||_F (singular trials
    count as exceedances); per-matrix bounds are checked alongside on
    ||C - C_hat||_F and ||C_+ - C_hat_plus||_F at their shifted thresholds.
    """
    regime = (
        Regime.IID
        if branch in (bounds_mod.BRANCH_IID_MARKOV, bounds_mod.BRANCH_IID_HOEFFDING)
        else Regime.ERGODIC
    )
    ref = exact_reference(rep.gram)
    mu0 = rep.system.initial_law() if regime is Regime.IID else None
    # every bound first: a branch that cannot be built fails before sampling
    reports = [[(_branch_bound(inputs, branch, int(m), float(eps)),
                 bounds_mod.estimator_error_bounds(inputs, int(m), float(eps), branch),
                 bounds_mod.split_threshold(inputs, eps)) for eps in epsilons]
               for m in m_values]
    rows = []
    for gi, m in enumerate(m_values):
        err_C, err_Cp, err_K = mc_trial_errors(
            rep.system, rep.dictionary, ref, int(m), n_trials,
            _derived_seed(seed, gi), regime, mu0, threads,
        )
        exceed_base = ~np.isfinite(err_K)
        for eps, (report, (rc, rp), (_, delta_p, delta_c)) in zip(epsilons, reports[gi]):
            frac_K = float(np.mean(np.where(exceed_base, True, err_K > float(eps))))
            frac_C = float(np.mean(err_C > delta_c))
            frac_Cp = float(np.mean(err_Cp > delta_p))

            def _ok(frac, p):
                if p > 0.5:
                    return True
                stderr = math.sqrt(max(frac * (1.0 - frac), 0.0) / n_trials)
                return frac <= p + 3.0 * stderr

            rows.append(
                {
                    "branch": report.branch,
                    "m": int(m),
                    "epsilon": float(eps),
                    "p_bound": report.p_bound,
                    "p_empirical": frac_K,
                    "stderr": math.sqrt(max(frac_K * (1 - frac_K), 0.0) / n_trials),
                    "n_trials": int(n_trials),
                    "ok": _ok(frac_K, report.p_bound),
                    "p_bound_C": rc.at(int(m), delta_c),
                    "p_empirical_C": frac_C,
                    "ok_C": _ok(frac_C, rc.at(int(m), delta_c)),
                    "p_bound_Cplus": rp.at(int(m), delta_p),
                    "p_empirical_Cplus": frac_Cp,
                    "ok_Cplus": _ok(frac_Cp, rp.at(int(m), delta_p)),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def write_csv(path, rows, schema):
    """Schema-tagged CSV; float cells use repr for byte-stable round-trips."""
    if not rows:
        raise ConfigError("no rows to write")
    fields = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {CSV_SCHEMAS[schema]}\n")
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_cell(row[k]) for k in fields])


def _cell(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, np.floating):
        return repr(float(v))
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, np.integer):
        return int(v)
    return v
