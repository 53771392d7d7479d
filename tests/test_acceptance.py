"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is fixed
here; nothing is calibrated at run time.
"""

import time

import numpy as np
import pytest

from koopman_cert import (
    bounds, dictionaries, edmd, galerkin, kernels, spectral, studies, systems, variance,
)

from conftest import arc_mass, golden_rotation

SEED = 20240

TWO_STATE = np.array([[0.7, 0.3], [0.3, 0.7]])


def make_two_state():
    return systems.FiniteMarkovSystem(TWO_STATE)


def make_five_state():
    g = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(123)))
    A = g.random((5, 5)) + 0.05
    return systems.FiniteMarkovSystem(A / A.sum(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# shared study runs (used by criteria 3 and 7)
# ---------------------------------------------------------------------------

CHAIN_GRID = [100, 215, 464, 1000, 2154, 4642, 10000, 21544, 46416, 100000]
CIRCLE_GRID = [100, 316, 1000, 3162, 10000, 31623, 100000]


@pytest.fixture(scope="module")
def chain_ergodic_study():
    cfg = studies.StudyConfig(
        system={"type": "finite_chain", "transition": TWO_STATE.tolist()},
        dictionary={"kind": "indicator", "n_states": 2},
        regime="ergodic", m_grid=CHAIN_GRID, n_trials=50, seed=SEED,
    )
    start = time.time()
    rows, fits = studies.run_convergence_study(cfg)
    return rows, fits, time.time() - start


@pytest.fixture(scope="module")
def chain_iid_study():
    cfg = studies.StudyConfig(
        system={"type": "finite_chain", "transition": TWO_STATE.tolist()},
        dictionary={"kind": "indicator", "n_states": 2},
        regime="iid", m_grid=CHAIN_GRID, n_trials=50, seed=SEED + 1,
        tail_epsilon=1.0, tail_branch=bounds.BRANCH_IID_HOEFFDING,
    )
    start = time.time()
    rows, fits = studies.run_convergence_study(cfg)
    return rows, fits, time.time() - start


@pytest.fixture(scope="module")
def circle_study():
    cfg = studies.StudyConfig(
        system={"type": "circle_rotation",
                "t0": {"form": "quadratic", "a": -1, "b": 1, "c": 2, "d": 5}},
        dictionary={"kind": "fourier", "max_freq": 1},
        regime="ergodic", m_grid=CIRCLE_GRID, n_trials=50, seed=SEED + 2,
    )
    start = time.time()
    rows, fits = studies.run_convergence_study(cfg)
    return rows, fits, time.time() - start


# ---------------------------------------------------------------------------
# 1. exact variance vs brute force
# ---------------------------------------------------------------------------

def test_criterion_1_exact_variance_vs_montecarlo():
    start = time.time()
    n_trials = 10**5
    cases = [
        ("two-state/indicator", make_two_state(), dictionaries.indicator(2)),
        ("five-state/monomial", make_five_state(), dictionaries.monomial(2, scale=0.25)),
    ]
    for label, sys, d in cases:
        rep = variance.build_rep(sys, d)
        for mi, m in enumerate([1, 2, 5, 10, 50, 200]):
            vr = variance.exact_variance(rep, m)
            oracle = studies.montecarlo_variance_oracle(
                rep, m, n_trials, seed=SEED + 100 + mi
            )
            for exact, mc, se, tag in [
                (vr.var_C, oracle.var_C_hat, oracle.stderr_C, "C"),
                (vr.var_Cplus, oracle.var_Cplus_hat, oracle.stderr_Cplus, "C+"),
            ]:
                slack = 1e-12 * max(abs(exact), abs(mc), 1e-300)
                assert abs(exact - mc) <= 3.0 * se + slack, (
                    f"{label} m={m} {tag}: exact {exact} vs mc {mc} (se {se})"
                )
    elapsed = time.time() - start
    assert elapsed < 300.0, f"criterion 1 exceeded 5 minutes ({elapsed:.0f}s)"
    print(f"\nACCEPTANCE 1 PASS: exact variance matches 1e5-trial oracle within "
          f"3 stderr on both chains, m in {{1,2,5,10,50,200}} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. Fejer equivalence
# ---------------------------------------------------------------------------

def test_criterion_2_fejer_three_forms_agree():
    gold = golden_rotation()
    worst = 0.0
    for F in [1, 2, 4]:
        d = dictionaries.fourier(F)
        rep = variance.build_rep(gold, d)
        fam = rep.family
        N = d.size
        ts, E = rep.eigen_system()
        for m in [10, 100, 1000]:
            for stack in (fam["psi_ij"], fam["g_ij"]):
                U = rep.to_reduced(stack.reshape(N * N, rep.dim).T)
                avg = variance.mean_power_apply(rep.M, U, m)
                form_a = float(np.sum(avg * avg))
                W = np.abs(E.conj().T @ U) ** 2
                ts_col = ts[:, None]
                form_b = float(np.sum(variance.fejer_kernel(m, 2 * np.pi * ts_col) * W) / m)
                c = np.exp(2j * np.pi * ts_col)
                geo = np.abs(1 - c**m) ** 2 / (m**2 * np.abs(1 - c) ** 2)
                form_c = float(np.sum(geo * W))
                scale = max(form_a, form_b, form_c)
                spread = max(abs(form_a - form_b), abs(form_a - form_c),
                             abs(form_b - form_c))
                worst = max(worst, spread / scale)
                assert spread <= 1e-9 * scale, (F, m, form_a, form_b, form_c)
            # the general polynomial route agrees as well
            a = variance.exact_variance(rep, m)
            b = variance.fejer_variance(rep, m)
            assert abs(a.var_C - b.var_C) <= 1e-9 * max(a.var_C, 1e-30)
            assert abs(a.var_Cplus - b.var_Cplus) <= 1e-9 * max(a.var_Cplus, 1e-30)
    print(f"\nACCEPTANCE 2 PASS: ergodic-average, spectral-Fejer and geometric "
          f"forms agree to {worst:.2e} rel (<= 1e-9) for F in {{1,2,4}}, "
          f"m in {{10,100,1000}}")


# ---------------------------------------------------------------------------
# 3. rate reproduction
# ---------------------------------------------------------------------------

def test_criterion_3_convergence_rates(chain_ergodic_study, chain_iid_study,
                                       circle_study):
    rows_e, fits_e, t_e = chain_ergodic_study
    rows_i, fits_i, t_i = chain_iid_study
    rows_c, fits_c, t_c = circle_study

    assert abs(fits_e["C"].slope + 0.5) <= 0.07, fits_e["C"]
    assert abs(fits_i["C"].slope + 0.5) <= 0.07, fits_i["C"]
    assert fits_c["C"].slope <= -0.9, fits_c["C"]
    # exponential tail bound validity on the i.i.d. study
    for r in rows_i:
        if r["tail_p_bound"] <= 0.5:
            se = np.sqrt(max(r["tail_frac_K"] * (1 - r["tail_frac_K"]), 0.0) / r["n_trials"])
            assert r["tail_frac_K"] <= r["tail_p_bound"] + 3 * se, r
    elapsed = t_e + t_i + t_c
    assert elapsed < 600.0, f"criterion 3 exceeded 10 minutes ({elapsed:.0f}s)"
    print(f"\nACCEPTANCE 3 PASS: slopes ergodic {fits_e['C'].slope:+.3f}, "
          f"iid {fits_i['C'].slope:+.3f} (pm 0.07 of -0.5), circle "
          f"{fits_c['C'].slope:+.3f} (<= -0.9); Hoeffding tail valid "
          f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 4. bound validity on (m, eps) grids
# ---------------------------------------------------------------------------

def test_criterion_4_bound_validity_all_branches():
    start = time.time()
    n_trials = 10**4
    chain = make_two_state()
    ind = dictionaries.indicator(2)
    gold = golden_rotation()
    four = dictionaries.fourier(1)
    grids = [
        (chain, ind, bounds.BRANCH_ERGODIC_LINEAR, [2000, 8000], [1.0, 2.0], None),
        (gold, four, bounds.BRANCH_ERGODIC_SUPERLINEAR, [2500, 6000], [1.0, 1.9],
         (1.5, 0.45)),
        (gold, four, bounds.BRANCH_ERGODIC_KAPPA_ZERO, [100, 300], [1.0], (1.5, 0.2)),
        (chain, ind, bounds.BRANCH_IID_MARKOV, [1000, 4000], [1.0], None),
        (chain, ind, bounds.BRANCH_IID_HOEFFDING, [2500, 5000], [1.0], None),
    ]
    for bi, (sys, d, branch, ms, eps, thin) in enumerate(grids):
        rep = variance.build_rep(sys, d)
        rows = studies.run_bound_validity(
            rep, bounds.bound_inputs_from_exact(rep, thin_params=thin), branch, ms, eps,
            n_trials, SEED + 300 + bi,
        )
        informative = [r for r in rows if r["p_bound"] <= 0.5]
        assert informative, f"{branch}: no grid point with p_bound <= 0.5"
        for r in rows:
            assert r["ok"], f"{branch}: composite bound violated at {r}"
            assert r["ok_C"] and r["ok_Cplus"], f"{branch}: per-matrix violated at {r}"

    # a tight Markov check with genuinely nonzero exceedance: the exact
    # second moment bounds P(err_C > delta) by sigma2/(m delta^2)
    rep = variance.build_rep(chain, ind)
    m = 50
    vr = variance.exact_variance(rep, m)
    ref = rep.reference
    err_C, _, _ = studies.mc_trial_errors(
        chain, ind, ref, m, n_trials, SEED + 400, systems.Regime.ERGODIC
    )
    delta = 1.45 * np.sqrt(vr.var_C)
    p_bound = vr.var_C / delta**2  # = 1/1.45^2 = 0.476 <= 0.5
    frac = float(np.mean(err_C > delta))
    se = np.sqrt(frac * (1 - frac) / n_trials)
    assert 0.0 < frac <= p_bound + 3 * se, (frac, p_bound)
    elapsed = time.time() - start
    print(f"\nACCEPTANCE 4 PASS: all five branches valid on their (m, eps) grids "
          f"at 1e4 trials/point; tight Markov check exceedance {frac:.3f} <= "
          f"{p_bound:.3f} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 5. composite-constant regressions
# ---------------------------------------------------------------------------

def test_criterion_5_composite_constant_regressions():
    chain_inputs = bounds.bound_inputs_from_exact(
        variance.build_rep(make_two_state(), dictionaries.indicator(2))
    )
    worst = 0.0
    for eps in [0.1, 0.5, 1.0, 1.9]:
        m = 4000
        R = chain_inputs.resolvent_plus
        a, b = chain_inputs.norm_Cinv, chain_inputs.norm_Cplus
        phi2 = chain_inputs.norm_phi_L2**2
        rp = bounds._power_report((1 + 4 * R) * (phi2 - b**2), 1.0, "x", m, eps, {})
        rc = bounds._power_report((1 + 4 * R) * (phi2 - 1 / a**2), 1.0, "x", m, eps, {})
        combined = bounds.combine_bounds(rc, rp, chain_inputs, eps)
        target = bounds.alpha_constant(chain_inputs, eps) / (m * eps**2)
        worst = max(worst, abs(combined.p_bound - target) / target)
        assert abs(combined.p_bound - target) <= 1e-12 * target

    gold_inputs = bounds.bound_inputs_from_exact(
        variance.build_rep(golden_rotation(), dictionaries.fourier(1)),
        thin_params=(1.5, 0.45),
    )
    cert = gold_inputs.thin
    C = bounds.c_alpha_kappa_theta(cert.alpha, cert.kappa, cert.theta)
    maxE = max(gold_inputs.E_zero, gold_inputs.E_plus)
    a, b = gold_inputs.norm_Cinv, gold_inputs.norm_Cplus
    for eps in [0.5, 1.0, 1.9]:
        m = 4000
        tau = 2 * a * b + eps
        A = C * maxE * 8.0 * (1.0 + a**2 * b**2) / tau**2
        rc = bounds._power_report(A, cert.alpha, "x", m, eps, {})
        rp = bounds._power_report(A, cert.alpha, "x", m, eps, {})
        combined = bounds.combine_bounds(rc, rp, gold_inputs, eps)
        target = bounds.superlinear_bound(gold_inputs, m, eps).p_bound
        worst = max(worst, abs(combined.p_bound - target) / target)
        assert abs(combined.p_bound - target) <= 1e-12 * target
    print(f"\nACCEPTANCE 5 PASS: combine_bounds reproduces the linear-rate "
          f"constant and the superlinear M-form to {worst:.2e} rel (<= 1e-12)")


# ---------------------------------------------------------------------------
# 6. structural invariants
# ---------------------------------------------------------------------------

def test_criterion_6_structural_invariants():
    chain = make_five_state()
    mono = dictionaries.monomial(2, scale=0.25)
    gold = golden_rotation()
    four = dictionaries.fourier(2)

    # K 1 = 1 fixed point (operator and Galerkin coordinate versions)
    K = chain.transition
    assert np.max(np.abs(K @ np.ones(5) - 1.0)) < 1e-12
    kv = galerkin.galerkin_matrix(variance.exact_reference_gram(chain, mono))
    e0 = np.zeros(3)
    e0[0] = 1.0
    assert np.max(np.abs(kv.KV @ e0 - e0)) < 1e-9

    # empirical mass matrices are symmetric PSD
    pairs = systems.sample_ergodic(chain, 200, seed=SEED)
    gram = edmd.empirical_gram(mono, pairs)
    assert np.allclose(gram.C, gram.C.T)
    assert np.min(np.linalg.eigvalsh(gram.C)) >= -1e-12

    # joint dictionary scaling leaves K_V and K_hat unchanged
    def scaled_eval(states):
        return 2.0 * mono.evaluate(states)

    mono2 = dictionaries.Dictionary(3, mono.kind, scaled_eval)
    kv2 = galerkin.galerkin_matrix(variance.exact_reference_gram(chain, mono2))
    assert np.max(np.abs(kv.KV - kv2.KV)) < 1e-12
    est1 = edmd.edmd_estimate(mono, pairs)
    est2 = edmd.edmd_estimate(mono2, pairs)
    assert np.max(np.abs(est1.Khat - est2.Khat)) < 1e-10

    # Parseval for spectral measures
    rep = variance.build_rep(gold, four)
    g = np.random.Generator(np.random.Philox(SEED))
    for _ in range(100):
        f = g.standard_normal(rep.dim)
        f[0] = 0.0
        meas = spectral.spectral_measure(rep, f)
        assert abs(meas.total_mass - rep.norm_sq(f)) < 1e-10

    # arc-mass monotonicity
    f = g.standard_normal(rep.dim)
    f[0] = 0.0
    meas = spectral.spectral_measure(rep, f)
    masses = [arc_mass(meas, gam) for gam in np.linspace(0.01, 0.5, 40)]
    assert all(x <= y + 1e-15 for x, y in zip(masses, masses[1:]))

    # p_m(1) = m - 1 and F_m(0) = m
    for m in [1, 2, 7, 50, 1311]:
        assert abs(variance.pm_polynomial(m, 1.0) - (m - 1)) < 1e-8
        assert abs(variance.fejer_kernel(m, 0.0) - m) < 1e-8

    # permutation invariance of i.i.d. estimates
    ip = systems.sample_iid(chain, 300, seed=SEED)
    perm = g.permutation(300)
    shuffled = systems.SamplePairs(ip.xs[perm], ip.ys[perm], ip.regime, ip.seed)
    ga = edmd.empirical_gram(mono, ip)
    gb = edmd.empirical_gram(mono, shuffled)
    assert np.max(np.abs(ga.C - gb.C)) < 1e-12
    assert np.max(np.abs(ga.Cplus - gb.Cplus)) < 1e-12

    print("\nACCEPTANCE 6 PASS: structural invariant suite (fixed point, PSD, "
          "scaling invariance, Parseval, arc monotonicity, p_m(1), F_m(0), "
          "permutation invariance) 100% green")


# ---------------------------------------------------------------------------
# 7. indicator EDMD recovers the transition matrix
# ---------------------------------------------------------------------------

def test_criterion_7_indicator_recovers_transition(chain_ergodic_study):
    chain = make_two_state()
    ind = dictionaries.indicator(2)
    for seed in range(50):
        pairs = systems.sample_ergodic(chain, 500, seed=seed)
        est = edmd.edmd_estimate(ind, pairs)
        counts = kernels.pair_counts(pairs.xs[None], pairs.ys[None], 2)[0]
        ratio = counts / counts.sum(axis=1)[:, None]
        assert np.max(np.abs(est.Khat - ratio)) < 1e-12

    rows, fits, _ = chain_ergodic_study
    assert abs(fits["K"].slope + 0.5) <= 0.07, fits["K"]
    assert rows[-1]["rmse_K"] < rows[0]["rmse_K"] / 10.0
    print(f"\nACCEPTANCE 7 PASS: K_hat equals the transition-count estimator to "
          f"1e-12 on 50 seeds; ||K_hat - P||_F slope {fits['K'].slope:+.3f} "
          f"(pm 0.07 of -0.5)")
