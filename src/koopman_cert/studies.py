"""Convergence-rate studies, variance cross-checks, and bound-validity grids.

All studies are driven by a JSON-serializable config, run on derived
per-chunk seeds (deterministic for a fixed config, regardless of thread
count), and emit schema-versioned CSV tables plus log-log rate fits.
"""

import csv
import functools
import math
import sys as _sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from . import rng
from .config import StudyConfig, dictionary_from_config, quantile_tag, system_from_config
from .dictionaries import DictionaryKind
from .edmd import solve_khat
from .errors import ConfigError, InsufficientPoints, UnsupportedSystem
from .galerkin import galerkin_matrix, gram_block, is_singular, weyl_radius
from .systems import (
    CircleRotationSystem,
    FiniteMarkovSystem,
    Regime,
    block_rows,
    ergodic_chunk,
    iid_chunk,
    wrap_angle,
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


class Reference(tuple):
    """The (C, C_plus, K_V) a command scores its trials against.  It unpacks
    as that triple, and holds C's `galerkin.weyl_radius`, computed on first
    use and then read by every block the command scores."""

    def __new__(cls, C, Cplus, KV):
        return super().__new__(cls, (C, Cplus, KV))

    @functools.cached_property
    def radius(self):
        return weyl_radius(self[0])


def _gram_errors_block(Chat, Cphat, ref):
    """Per-trial Frobenius errors (err_C, err_Cplus, err_K) of (B, N, N)
    Gram stacks against the `Reference` ref = (C, C_plus, K_V); err_K is
    NaN where `galerkin.is_singular(C_hat)`.  err_C is each trial's distance
    from C, so the gate clears the trials near a well-conditioned C by
    Weyl's inequality and factorises only the others."""
    C, Cplus, KV = ref
    err_C = np.sqrt(np.sum((Chat - C) ** 2, axis=(1, 2)))
    err_Cp = np.sqrt(np.sum((Cphat - Cplus) ** 2, axis=(1, 2)))
    good = ~is_singular(Chat, err_C, ref.radius)
    err_K = np.full(len(Chat), np.nan)
    if np.any(good):
        Khat = np.linalg.solve(Chat[good], Cphat[good])
        err_K[good] = np.sqrt(np.sum((Khat - KV) ** 2, axis=(1, 2)))
    return err_C, err_Cp, err_K


def _indicator_errors(counts, ref, m):
    """Closed-form indicator estimates from (B, n, n) transition counts,
    each error's squares formed in place in one (B, n, n) buffer."""
    C, Cplus, KV = ref
    visits = counts.sum(axis=2)
    diag_err = visits / m - np.diag(C)
    err_C = np.sqrt(np.sum(diag_err**2, axis=1))
    sq = np.divide(counts, m)
    sq -= Cplus
    sq *= sq
    err_Cp = np.sqrt(sq.sum(axis=(1, 2)))
    good = np.all(visits > 0, axis=1)
    err_K = np.full(len(visits), np.nan)
    if np.any(good):
        # rows with an unvisited state keep their C_plus squares, unread
        np.divide(counts, visits[:, :, None], out=sq, where=good[:, None, None])
        sq -= KV
        sq *= sq
        err_K[good] = np.sqrt(sq.sum(axis=(1, 2)))[good]
    return err_C, err_Cp, err_K


def count_grams(table, counts, m):
    """C_hat = Psi^T diag(visits) Psi / m (symmetrised) and C_hat_plus =
    Psi^T counts Psi / m from (B, n, n) transition counts, with Psi the
    (n, N) dictionary table and visits the counts' row sums."""
    counts = counts.astype(np.float64)
    C = (table.T * counts.sum(axis=2)[:, None, :]) @ table / m
    return 0.5 * (C + np.swapaxes(C, 1, 2)), table.T @ counts @ table / m


def _chain_count_slices(sys, m, seed, chunk, count, regime):
    """The chunk's (rows, n, n) transition counts, a block of trials at a
    time: `iid_counts` or `ergodic_counts`."""
    sample = sys.iid_counts if regime is Regime.IID else sys.ergodic_counts
    return sample(m, rng.stream(seed, chunk), count)


def _fourier_modes(dictionary, F):
    """(N, 2F+1) complex A with psi = A e, e_q = e^{2 pi i q x} for q =
    -F..F, for a dictionary of trigonometric polynomials of degree <= F:
    the discrete Fourier transform of its values at the nodes a / (2F+1)."""
    x = np.arange(2 * F + 1) / (2 * F + 1)
    waves = np.exp(-2j * np.pi * np.outer(x, np.arange(-F, F + 1)))
    return dictionary.evaluate(x) @ waves / (2 * F + 1)


def rotation_phase_means(t0, m, Q):
    """G(q) = (1/m) sum_{k<m} e^{2 pi i q (k t0 mod 1)}, q = 0..Q, by the
    Dirichlet kernel: with theta = wrap_angle(q t0), G(q) = e^{pi i (m-1)
    theta} sin(pi m theta) / (m sin(pi theta)), or 1 where sin(pi theta) = 0."""
    theta = wrap_angle(np.arange(Q + 1) * t0)
    s = np.sin(np.pi * theta)
    ratio = np.divide(np.sin(np.pi * m * theta), m * s, out=np.ones(Q + 1), where=s != 0)
    return np.exp(1j * np.pi * (m - 1) * theta) * ratio


def _phase_modes(dictionary, F, t0):
    """The (2 (2F+1), 2 N^2) real mode matrix of `phase_grams`.

    With A the `_fourier_modes`, M_c = sum_{a+b=c} A_a A_b^T, c = 0..4F
    (columns a, b of A), and M+_c the same sum with A_b scaled by e^{2 pi i
    (b-F) t0}.  D(-q) = conj(D(q)) folds mode c = 2F - q into mode 2F + q:
    row q = 0..2F holds P_q = M_{2F+q} + conj(M_{2F-q}) (P_0 = M_{2F}),
    flattened, beside the same for M+.  The real matrix stacks Re P over
    -Im P, so that [Re D, Im D] @ it = Re(D P)."""
    A = _fourier_modes(dictionary, F)
    K, N = 2 * F + 1, len(A)
    shift = np.exp(2j * np.pi * (np.arange(K) - F) * t0)
    right = np.stack([A.T, A.T * shift[:, None]], axis=1)  # (K, 2, N): A_b, A_b e^{..}
    M = np.zeros((2 * K - 1, 2, N, N), dtype=complex)
    for a in range(K):
        M[a : a + K] += A[:, a, None] * right[:, :, None, :]
    P = M[2 * F :].copy()
    P[1:] += np.conj(M[: 2 * F][::-1])
    P = P.reshape(K, 2 * N * N)
    return np.concatenate([P.real, -P.imag])


def phase_grams(dictionary, t0, G, x0, modes=None):
    """C_hat and C_hat_plus of a fourier(F) dictionary, psi = A e, on the
    rotation orbits x0 + k t0, k <= m, from the phase means G = G(0..2F) of
    `rotation_phase_means`: with D(q) = e^{2 pi i q x0} G(q), C_hat = Re
    sum_{a,b} D(a + b - 2F) A_a A_b^T (symmetrised), and C_hat_plus the same
    with A_b scaled by e^{2 pi i (b-F) t0}.  The sum over a + b = c is the
    mode matrix of `_phase_modes` (built here unless passed as modes), so a
    block is one real matmul."""
    F = (len(G) - 1) // 2
    if modes is None:
        modes = _phase_modes(dictionary, F, t0)
    D = np.exp(2j * np.pi * np.outer(x0, np.arange(2 * F + 1))) * G
    N = dictionary.size
    out = (np.concatenate([D.real, D.imag], axis=1) @ modes).reshape(len(x0), 2, N, N)
    C = out[:, 0]
    return 0.5 * (C + np.swapaxes(C, 1, 2)), out[:, 1]


def _gram_path(sys, dictionary, regime, m):
    """How `_trial_grams` forms Gram pairs, and the L of `_roundoff_slack` on that path."""
    if isinstance(sys, FiniteMarkovSystem):
        return "counts", sys.n_states + 1
    if (regime is Regime.ERGODIC and isinstance(sys, CircleRotationSystem)
            and dictionary.kind is DictionaryKind.FOURIER):
        return "phases", 8 * dictionary.size
    return "states", m


def _trial_grams(sys, dictionary, m, seed, chunk, count, regime, modes=None):
    """The chunk's (C_hat, C_hat_plus) stacks, a block of trials at a time.

    Where a trial's estimates depend on it only through a small statistic,
    that statistic is sampled: chains use transition counts (i.i.d. trials
    draw them from their multinomial law, ergodic trials tally them on
    their trajectories), and ergodic rotations with a Fourier dictionary
    use phase sums.  Every other case streams sampled states (stationary
    trajectories, or i.i.d. pair sets from the system's `initial_law`) one
    time slice of the whole chunk at a time: each slice's dictionary values
    are evaluated once and its `gram_block` added into the chunk's sums.
    modes, if given, are the phase path's `engine_modes`.
    """
    path, _ = _gram_path(sys, dictionary, regime, m)
    if path == "counts":
        table = dictionary.evaluate(np.arange(sys.n_states)).T
        for counts in _chain_count_slices(sys, m, seed, chunk, count, regime):
            yield count_grams(table, counts, m)
    elif path == "phases":
        # the x0 that `ergodic_chunk` draws first on this stream
        x0 = sys.initial_law()(rng.stream(seed, chunk), count)
        F = dictionary.metadata["max_freq"]
        G = rotation_phase_means(sys.t0, m, 2 * F)
        rows = block_rows(count, (2 * F + 1) ** 2)
        for lo in range(0, count, rows):
            yield phase_grams(dictionary, sys.t0, G, x0[lo : lo + rows], modes)
    else:
        ergodic = regime is Regime.ERGODIC
        sample = ergodic_chunk if ergodic else iid_chunk
        sums = None
        for states in sample(sys, m, seed, chunk, count, block_rows(m, count * dictionary.size)):
            if ergodic:
                psi = _psi_on_states(dictionary, states)
                grams = gram_block(psi[:, :-1], psi[:, 1:], m)
            else:
                grams = gram_block(*(_psi_on_states(dictionary, b) for b in states), m)
            sums = grams if sums is None else (sums[0] + grams[0], sums[1] + grams[1])
        yield sums


def _chunk_trial_errors(sys, dictionary, ref, m, seed, chunk, count, regime, modes=None):
    """Per-trial Frobenius errors (err_C, err_Cplus, err_K) for one chunk:
    `_trial_grams` scored against ref, or for an indicator dictionary on a
    chain the counts' closed form.  err_K is NaN for trials whose empirical
    mass matrix is numerically singular."""
    if (isinstance(sys, FiniteMarkovSystem) and dictionary.kind is DictionaryKind.INDICATOR
            and dictionary.size == sys.n_states):
        parts = [_indicator_errors(counts, ref, m) for counts
                 in _chain_count_slices(sys, m, seed, chunk, count, regime)]
    else:
        parts = [_gram_errors_block(*grams, ref) for grams
                 in _trial_grams(sys, dictionary, m, seed, chunk, count, regime, modes)]
    return tuple(np.concatenate(col) for col in zip(*parts))


@functools.cache
def _pool(threads):
    """The one executor of each thread count, started on first use and kept
    for the life of the process, so every call reuses its threads and the
    malloc arenas that cache their temporaries."""
    return ThreadPoolExecutor(max_workers=threads)


def _map_chunks(work, n_trials, threads):
    """[work(chunk, count)] over the trial chunks of n_trials, in chunk
    order, on `threads` threads."""
    chunks = [(c, count) for c, _, count in rng.trial_chunks(n_trials)]
    if threads > 1:
        return list(_pool(threads).map(lambda spec: work(*spec), chunks))
    return [work(*spec) for spec in chunks]


def engine_modes(sys, dictionary, regime):
    """The m-independent `_phase_modes` of the engine's phase path, or None
    on other paths: a command builds them once for all its grid points."""
    if _gram_path(sys, dictionary, regime, 1)[0] != "phases":
        return None
    return _phase_modes(dictionary, dictionary.metadata["max_freq"], sys.t0)


def mc_trial_errors(sys, dictionary, ref, m, n_trials, seed, regime, threads=1,
                    modes=None):
    """Stacked per-trial errors over n_trials independent estimates; i.i.d.
    trials start from the system's `initial_law`.  modes are the command's
    `engine_modes`, built per block if not given."""
    out = _map_chunks(
        lambda c, count: _chunk_trial_errors(sys, dictionary, ref, m, seed, c, count,
                                             regime, modes),
        n_trials, threads)
    return tuple(np.concatenate(col) for col in zip(*out))


def exact_reference(gram):
    """The `Reference` (C, C_plus, K_V) of an exact GramPair."""
    return Reference(gram.C, gram.Cplus, galerkin_matrix(gram).KV)


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
                               regime=Regime.ERGODIC, modes=None) -> OracleResult:
    """Sample mean of ||C - C_hat||_F^2 (and the C_+ analogue) over
    independent trials of the rep's system, with standard errors: stationary
    trajectories, or i.i.d. pairs from the invariant law, scored against
    `rep.reference`."""
    err_C, err_Cp, _ = mc_trial_errors(
        rep.system, rep.dictionary, rep.reference, int(m), int(n_trials),
        seed, regime, threads=threads, modes=modes,
    )
    vc, sc = _mean_stderr(err_C**2)
    vp, sp = _mean_stderr(err_Cp**2)
    return OracleResult(int(m), int(n_trials), vc, vp, sc, sp)


def reference_model(sys, dictionary, m, n_trials, seed, threads=1):
    """A reference (C, C_plus, K) where no exact Gram pair exists, and the
    Frobenius standard errors (se_C, se_Cplus) of its C and C_plus.

    C and C_plus are the means of the Gram pairs of n_trials engine trials
    of m stationary lags on stream `seed`, and K solves them behind the
    singularity gate.  The standard errors come from the trials' spread:
    sqrt(sum_i ||G_i - mean||^2 / (n (n - 1))) for each matrix.
    """
    def work(c, count):
        # the sums of the chunk's C_hat, C_hat_plus and of their squared norms
        out = [0.0] * 4
        for grams in _trial_grams(sys, dictionary, m, seed, c, count, Regime.ERGODIC):
            for i, G in enumerate(grams):
                out[i] = out[i] + G.sum(axis=0)
                out[2 + i] += float(np.sum(G**2))
        return out

    n = n_trials
    sums = [sum(col) for col in zip(*_map_chunks(work, n, threads))]
    means = [s / n for s in sums[:2]]
    se = tuple(math.sqrt(max(q - n * np.sum(mean**2), 0.0) / (n * (n - 1)))
               for q, mean in zip(sums[2:], means))
    return Reference(*means, solve_khat(*means)), se


@dataclass
class RateFit:
    slope: float
    intercept: float
    r2: float
    slope_stderr: float
    n_points: int


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

def run_convergence_study(cfg: StudyConfig):
    """RMSE of the three estimation errors per m, with rate fits.

    Returns (rows, fits) where fits maps 'C', 'Cplus', 'K' to RateFit.
    Theoretical RMSE predictions sqrt(sigma^2_m / m) ride along when an
    exact representation exists.
    """
    sys = system_from_config(cfg.system)
    dictionary = dictionary_from_config(cfg.dictionary, system=sys)
    regime = Regime(cfg.regime)
    if regime is Regime.IID:
        # before any reference is built: a system without an i.i.d. law fails fast
        sys.initial_law()
    try:
        rep = build_rep(sys, dictionary)
    except UnsupportedSystem:
        rep = None
    try:
        ref = rep.reference if rep else exact_reference(exact_reference_gram(sys, dictionary))
    except UnsupportedSystem:
        # reference-model mode: one more grid point of trials at the largest
        # m, on the stream index after the grid's
        m_ref = max(cfg.m_grid)
        ref, (se_C, se_Cp) = reference_model(
            sys, dictionary, m_ref, cfg.n_trials,
            _derived_seed(cfg.seed, len(cfg.m_grid)), threads=cfg.threads)
        print(f"note: no exact reference for {_system_name(cfg.system)}; errors are "
              f"measured against a reference model, the mean of {cfg.n_trials} trials "
              f"of {m_ref} lags (standard error {se_C:.3g} in C, {se_Cp:.3g} in C_plus)",
              file=_sys.stderr)

    tail_p = {}  # without exact constants the tail column stays NaN
    if cfg.tail_epsilon is not None and cfg.tail_branch is not None and rep is not None:
        inputs = bounds_mod.bound_inputs_from_exact(
            rep,
            thin_params=(1.5, 0.2)
            if cfg.tail_branch
            in (bounds_mod.BRANCH_ERGODIC_SUPERLINEAR,
                bounds_mod.BRANCH_ERGODIC_KAPPA_ZERO)
            else None,
        )
        # every bound first: a branch that cannot be built fails before sampling
        tail_p = {m: bounds_mod.branch_bound(inputs, cfg.tail_branch, m, cfg.tail_epsilon).p_bound
                  for m in cfg.m_grid}

    modes = engine_modes(sys, dictionary, regime)
    errors = [mc_trial_errors(sys, dictionary, ref, m, cfg.n_trials, _derived_seed(cfg.seed, mi),
                              regime, threads=cfg.threads, modes=modes)
              for mi, m in enumerate(cfg.m_grid)]
    rows = []
    for m, (err_C, err_Cp, err_K), quantiles in zip(
            cfg.m_grid, errors, _quantile_columns(errors, cfg.error_quantiles)):
        good = np.isfinite(err_K)
        row = {
            "m": int(m),
            "n_trials": cfg.n_trials,
            "n_singular": int(np.sum(~good)),
            "rmse_C": float(np.sqrt(np.mean(err_C**2))),
            "rmse_Cplus": float(np.sqrt(np.mean(err_Cp**2))),
            "rmse_K": float(np.sqrt(np.mean(err_K[good] ** 2))) if good.any() else float("nan"),
            **quantiles,
        }
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
            row["tail_p_bound"] = tail_p.get(m, float("nan"))
        rows.append(row)

    fits = {}
    for key, col in (("C", "rmse_C"), ("Cplus", "rmse_Cplus"), ("K", "rmse_K")):
        try:
            fits[key] = fit_rate([r["m"] for r in rows], [r[col] for r in rows])
        except InsufficientPoints:
            fits[key] = None
    return rows, fits


def _quantile_columns(errors, quantiles):
    """The `q<percent>_C`, `_Cplus` and `_K` columns of each grid point's
    (err_C, err_Cp, err_K), all taken by one `np.quantile` over the stacked
    rows, the same values as one call per row.  The K errors of a point with
    singular (NaN) trials are the exception: they are taken over its regular
    trials alone, by one call of their own, or read NaN when every trial is
    singular."""
    regular = [np.isfinite(err_K).all() for _, _, err_K in errors]
    stack = [e for errs, ok in zip(errors, regular) for e in (errs if ok else errs[:2])]
    values = iter(np.quantile(np.stack(stack), quantiles, axis=1).T.tolist())
    columns = []
    for (_, _, err_K), ok in zip(errors, regular):
        by_C, by_Cp = next(values), next(values)
        if ok:
            by_K = next(values)
        else:
            good = np.isfinite(err_K)
            by_K = (np.quantile(err_K[good], quantiles).tolist() if good.any()
                    else [float("nan")] * len(quantiles))
        cols = {}
        for q, c, cp, k in zip(quantiles, by_C, by_Cp, by_K):
            tag = quantile_tag(q)
            cols.update({f"{tag}_C": c, f"{tag}_Cplus": cp, f"{tag}_K": k})
        columns.append(cols)
    return columns


def _system_name(cfg):
    """The config's system type, with its SDE model or map name."""
    spec = cfg.get("map")
    detail = cfg.get("model") or (spec.get("name") if isinstance(spec, dict) else None)
    return " ".join(str(v) for v in (cfg.get("type"), detail) if v)


def _derived_seed(seed, index):
    # distinct m-grid entries must not share trial streams
    return (int(seed) << 16) + int(index)


def run_variance_check(cfg: StudyConfig):
    """Exact variances vs the Monte-Carlo oracle in the config's regime,
    flagged at 3 stderr."""
    sys = system_from_config(cfg.system)
    dictionary = dictionary_from_config(cfg.dictionary, system=sys)
    rep = build_rep(sys, dictionary)
    rep.reference  # solved behind the singularity gate, before any variance
    regime = Regime(cfg.regime)
    modes = engine_modes(sys, dictionary, regime)
    rows = []
    for mi, m in enumerate(cfg.m_grid):
        vr = exact_variance(rep, int(m), regime)
        oracle = montecarlo_variance_oracle(
            rep, int(m), cfg.n_trials, _derived_seed(cfg.seed, mi), cfg.threads, regime,
            modes,
        )

        # degenerate trials (constant error) have zero stderr, so the
        # round-off of both sides must be allowed for
        def _within(exact, mc, stderr):
            slack = _roundoff_slack(rep, regime, int(m), cfg.n_trials, mc)
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


def _roundoff_slack(rep, regime, m, n_trials, mc):
    """Bound on the floating-point gap between the rep's exact variance at m
    and the oracle's mean mc of ||C - C_hat||^2 (or the C_plus analogue).

    With u the unit round-off and gamma(k) = k u / (1 - k u) (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, ch. 3): a C_hat
    entry is a float sum of L terms (`_gram_path`), divided and symmetrised,
    so ||fl(C_hat) - C_hat||_F <= delta = gamma(L + 2) tr(C) (Cauchy-Schwarz
    on the sum of |psi| |psi|^T, tr(C_hat) at its mean), and so is C_plus.
    L is m for sampled states; n_states + 1 for exact integer counts, which
    weigh each product; 8 size for phases (`phase_grams`), which chain at
    most 5 size sums: each product of two Fourier modes (DFTs of size terms
    each) is summed into the mode matrix (at most size terms) and the matmul
    sums 2 size terms of the Dirichlet means against it.  The products'
    moduli sum to at most 2 tr(C), and the means' error does not grow with
    m.  A trial's squared error moves by at most
    2 ||C - C_hat|| delta + delta^2, the mean by 2 sqrt(mc) delta + delta^2;
    the size^2 squares, the sqrt and the mean over trials add a relative
    gamma(size^2 + 3) + gamma(n_trials).  The exact sigma^2 = E + S is
    charged an error of gamma(dim (size^2 + 1)) times the magnitude of its
    terms, taken as |E| + |S| <= 2 |E| + sigma^2 (E the larger of E_zero
    and E_plus, sigma^2 at m mc; p_m(K0)'s own error, unbounded here,
    measures far below).  dim (size^2 + 1) is the chain of S summed as N^2
    inner products of length dim - 1.  `variance` sums S as a trace against
    a cross-Gram, a chain of size + 2 n + 2 dim + dim (dim - 1) (an N-term
    Gram on n values, the map back from n nodes, n = 0 on a chain, the
    reduction to mean-zero coordinates, and the product and sum of
    (dim - 1) x (dim - 1) matrices).  That is within the charge whenever
    size^2 >= dim + 3, as for every indicator dictionary and every Fourier
    dictionary on a circle, but not for a few monomials on a many-state
    chain.  This term dominates on a rotation, where sigma^2 cancels down
    to O(1/m).
    """
    u = float(np.finfo(np.float64).eps) / 2

    def gamma(k):
        return k * u / (1.0 - k * u)

    size = rep.dictionary.size
    _, L = _gram_path(rep.system, rep.dictionary, regime, m)
    delta = gamma(L + 2) * float(np.trace(rep.gram.C))
    E = max(abs(rep.E_zero), abs(rep.E_plus))
    return (2.0 * math.sqrt(max(mc, 0.0)) * delta + delta**2
            + (gamma(size**2 + 3) + gamma(n_trials)) * abs(mc)
            + gamma(rep.dim * (size**2 + 1)) * (2.0 * E / m + abs(mc)))


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
    ref = rep.reference
    # every bound first: a branch that cannot be built fails before sampling
    reports = [[(bounds_mod.branch_bound(inputs, branch, int(m), float(eps)),
                 bounds_mod.estimator_error_bounds(inputs, int(m), float(eps), branch),
                 bounds_mod.split_threshold(inputs, eps)) for eps in epsilons]
               for m in m_values]
    modes = engine_modes(rep.system, rep.dictionary, regime)
    rows = []
    for gi, m in enumerate(m_values):
        err_C, err_Cp, err_K = mc_trial_errors(
            rep.system, rep.dictionary, ref, int(m), n_trials,
            _derived_seed(seed, gi), regime, threads=threads, modes=modes,
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
