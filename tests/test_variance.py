import math

import numpy as np
import pytest

from koopman_cert import config, dictionaries, studies, systems, variance
from koopman_cert.errors import NotUnitary, UnsupportedSystem

from conftest import (ergodic_average_sq_norm, golden_rotation, pm_operator_norms, projector,
                      random_ergodic_chain, weighted_inner)


def fejer_kernel_sum(m, t):
    """O(m) reference evaluation: 1 + 2 sum_{k=1}^{m-1} (1 - k/m) cos(kt)."""
    k = np.arange(1, m)
    return float(1.0 + 2.0 * np.sum((1.0 - k / m) * np.cos(k * float(t))))


class TestPmPolynomial:
    @pytest.mark.parametrize("m", [1, 2, 3, 10, 137])
    def test_at_one_arithmetic_series(self, m):
        # 2 sum_{k=1}^{m-1} (1 - k/m) = m - 1
        assert abs(variance.pm_polynomial(m, 1.0) - (m - 1)) < 1e-9

    def test_empty_sum(self):
        for z in [0.0, 0.5, 1.0, -1.0, 0.3 + 0.4j]:
            assert variance.pm_polynomial(1, z) == 0.0

    def test_p2_at_zero(self):
        assert abs(variance.pm_polynomial(2, 0.0) - 1.0) < 1e-15

    @pytest.mark.parametrize("z", [0.4, -0.7, 0.99, 0.2 + 0.5j])
    def test_closed_form_matches_sum(self, z):
        for m in [2, 5, 33]:
            k = np.arange(1, m)
            direct = 2.0 * np.sum((1.0 - k / m) * np.asarray(z) ** (k - 1))
            assert abs(variance.pm_polynomial(m, z) - direct) < 1e-10

    def test_matrix_apply_matches_scalar(self, two_state_chain, indicator2):
        rep = variance.build_rep(two_state_chain, indicator2)
        u = np.array([[1.0]])
        for m in [2, 10, 200, 4096, 4097, 10**5]:
            got = variance.pm_apply_vectors(rep.M, u, m)[0, 0]
            want = variance.pm_polynomial(m, 0.4).real
            assert abs(got - want) < 1e-10

    def test_pm_apply_matrix_form(self, two_state_chain, indicator2):
        rep = variance.build_rep(two_state_chain, indicator2)
        for m in [1, 2, 17]:
            # lift p_m(K0) from the reduced coordinates to natural ones
            P = variance.pm_apply_vectors(rep.M, np.eye(rep.dim - 1), m)
            A = (rep.B @ P @ rep.B.T * rep.sqrtw[None, :]) / rep.sqrtw[:, None]
            # annihilates constants, acts as p_m(K0) on the mean-zero part
            assert np.max(np.abs(A @ np.ones(2))) < 1e-12
            f = np.array([1.0, -1.0])  # mean-zero eigenfunction, eigenvalue 0.4
            want = variance.pm_polynomial(m, 0.4).real * f
            assert np.max(np.abs(A @ f - want)) < 1e-10

    def test_large_m_closed_form_paths(self, two_state_chain, indicator2, five_state_chain, monomial3):
        m = 10**5
        rep2 = variance.build_rep(two_state_chain, indicator2)
        got = variance.pm_apply_vectors(rep2.M, np.eye(1), m)[0, 0]
        assert abs(got - variance.pm_polynomial(m, 0.4).real) < 1e-8
        # non-normal reduced operator, checked against its eigendecomposition
        rep5 = variance.build_rep(five_state_chain, monomial3)
        U = np.eye(rep5.M.shape[0])
        big = variance.pm_apply_vectors(rep5.M, U, m)
        lam, V = np.linalg.eig(rep5.M)
        diag = np.array([variance.pm_polynomial(m, z) for z in lam])
        expected = (V @ np.diag(diag) @ np.linalg.inv(V)).real
        assert np.max(np.abs(big - expected)) < 1e-6


class TestNoSpectralGap:
    @pytest.mark.parametrize("m", [4096, 4097, 10**5])
    def test_rational_rotation_exact_matches_fejer(self, m):
        # t0 = 1/4 with frequencies up to 4: K0 has the eigenvalue 1 exactly
        d = dictionaries.fourier(2)
        rep = variance.build_rep(systems.CircleRotationSystem(0.25), d)
        assert rep.spectral_gap() < 1e-12
        a = variance.exact_variance(rep, m)
        b = variance.fejer_variance(rep, m)
        assert abs(a.var_C - b.var_C) <= 1e-12 * abs(b.var_C)
        assert abs(a.var_Cplus - b.var_Cplus) <= 1e-12 * abs(b.var_Cplus)

    @pytest.mark.parametrize("m", [2, 4096, 4097, 10**5])
    def test_jordan_block(self, m):
        J = np.array([[1.0, 1.0], [0.0, 1.0]])
        k = np.arange(1, m)
        dp = 2.0 * np.sum((1.0 - k / m) * (k - 1))
        want = np.array([[m - 1.0, dp], [0.0, m - 1.0]])
        got = variance.pm_apply_vectors(J, np.eye(2), m)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestReversibleEigPath:
    def test_symmetric_reduced_operator_large_m(self):
        # reversible chain: the weighted symmetrization is exact, so p_m(M)
        # must agree with the scalar form on the orthogonal eigenbasis
        P = np.array([[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]])
        sys3 = systems.FiniteMarkovSystem(P)
        d = dictionaries.indicator(3)
        rep = variance.build_rep(sys3, d)
        assert np.max(np.abs(rep.M - rep.M.T)) < 1e-12
        m = 10**5
        lam, Q = np.linalg.eigh(rep.M)
        got = variance.pm_apply_vectors(rep.M, np.eye(2), m)
        want = Q @ np.diag([variance.pm_polynomial(m, z).real for z in lam]) @ Q.T
        assert np.max(np.abs(got - want)) < 1e-9

    def test_circle_variance_against_oracle(self, golden):
        d = dictionaries.fourier(2)
        rep = variance.build_rep(golden, d)
        for m in [7, 40]:
            vr = variance.exact_variance(rep, m)
            oracle = studies.montecarlo_variance_oracle(rep, m, 500, seed=3)
            assert abs(vr.var_C - oracle.var_C_hat) < 1e-10
            assert abs(vr.var_Cplus - oracle.var_Cplus_hat) < 1e-10


class TestBuildRep:
    def test_two_state_projector(self, two_state_chain, indicator2):
        rep = variance.build_rep(two_state_chain, indicator2)
        assert rep.dim == 2
        pi = two_state_chain.pi
        expected_Q = np.eye(2) - np.outer(np.ones(2), pi)
        Q = projector(rep)
        assert np.allclose(Q, expected_Q, atol=1e-14)
        assert np.allclose(Q @ Q, Q, atol=1e-12)
        assert np.max(np.abs(Q @ np.ones(2))) < 1e-14

    def test_q_self_adjoint_weighted(self, five_state_chain, monomial3):
        rep = variance.build_rep(five_state_chain, monomial3)
        Q = projector(rep)
        g = np.random.Generator(np.random.Philox(3))
        for _ in range(10):
            f, h = g.standard_normal((2, rep.dim))
            lhs = weighted_inner(rep, Q @ f, h)
            rhs = weighted_inner(rep, f, Q @ h)
            assert abs(lhs - rhs) < 1e-12

    def test_adjoint_identity_on_basis(self, five_state_chain, monomial3):
        rep = variance.build_rep(five_state_chain, monomial3)
        for i in range(rep.dim):
            for j in range(rep.dim):
                f = np.eye(rep.dim)[i]
                h = np.eye(rep.dim)[j]
                lhs = weighted_inner(rep, rep.K @ f, h)
                rhs = weighted_inner(rep, f, rep.Kstar @ h)
                assert abs(lhs - rhs) < 1e-12

    def test_contraction(self, five_state_chain, monomial3):
        rep = variance.build_rep(five_state_chain, monomial3)
        assert np.linalg.norm(rep.M, 2) <= 1.0 + 1e-12

    def test_circle_dimension(self, golden):
        rep = variance.build_rep(golden, dictionaries.fourier(1))
        # products of degree-1 trig polynomials need frequencies up to 2
        assert rep.dim == 5
        assert rep.unitary

    def test_circle_multiply_cos_squared(self, golden):
        rep = variance.build_rep(golden, dictionaries.fourier(1))
        sq = rep.family["psi_ij"][1, 1]  # psi_1 = sqrt2 cos(2 pi t), squared
        # 2 cos^2 = 1 + cos(4 pi t) = 1 + (1/sqrt2) * sqrt2 cos(4 pi t)
        expected = np.zeros(5)
        expected[0] = 1.0
        expected[3] = 1.0 / np.sqrt(2.0)
        assert np.allclose(sq, expected, atol=1e-14)

    def test_unsupported_systems(self):
        sde = systems.SdeSystem(lambda x: -x, lambda x: np.ones_like(x), 1, lag=0.1,
                                integrator_dt=0.01)
        with pytest.raises(UnsupportedSystem):
            variance.build_rep(sde, dictionaries.monomial(1))
        with pytest.raises(UnsupportedSystem):
            variance.build_rep(golden_rotation(), dictionaries.monomial(1))


OU = {"type": "sde", "model": "ornstein_uhlenbeck", "rate": 10.0, "lag": 0.1,
      "integrator_dt": 0.01}


class TestGaussianAR1Rep:
    """Hermite representation of a 1-d Gaussian AR(1) system (Mehler)."""

    @pytest.mark.parametrize("R, v", [(1, 1.0), (4, 0.05), (10, 3.0)])
    def test_hermite_nodes_orthonormal(self, R, v):
        points, E, back = systems.hermite_nodes(R, v)
        # back recovers coefficients from values: back.T E = I
        assert np.allclose(back.T @ E, np.eye(R + 1), atol=1e-10)
        # h_0 = 1 and h_1 = x / sqrt(v)
        assert np.allclose(E[:, 0], 1.0) and np.allclose(E[:, 1] * np.sqrt(v), points)

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_closed_form_grams(self, scale):
        sys = config.system_from_config(OU)
        rho, v = sys.law.rho, sys.law.v
        rep = variance.build_rep(sys, dictionaries.monomial(2, scale))
        assert rep.nodes is not None and rep.dim == 5
        # E[x^2] = v, E[x^4] = 3 v^2, E[x x'] = rho v, E[x^2 x'^2] = v^2 (1 + 2 rho^2)
        S = np.diag([1.0, scale, scale**2])
        C = S @ np.array([[1, 0, v], [0, v, 0], [v, 0, 3 * v * v]]) @ S
        Cp = S @ np.array([[1, 0, v], [0, rho * v, 0],
                           [v, 0, v * v * (1 + 2 * rho**2)]]) @ S
        assert np.allclose(rep.gram.C, C, atol=1e-15, rtol=1e-13)
        assert np.allclose(rep.gram.Cplus, Cp, atol=1e-15, rtol=1e-13)
        assert rep.gram.Cplus[1, 1] == pytest.approx(scale**2 * 0.018351496847368,
                                                     rel=1e-12)

    def test_matches_euler_maruyama(self):
        # same law, old stream: a plain Euler-Maruyama system (burn-in and
        # substeps, no law) against the exact variance of the Hermite rep
        ou = config.system_from_config(OU)
        em = systems.SdeSystem(ou.drift, ou.diffusion, 1, ou.lag, ou.integrator_dt)
        assert em.law is None
        rep = variance.build_rep(ou, dictionaries.monomial(2))
        m, n = 32, 3000
        err_C, err_Cp, _ = studies.mc_trial_errors(
            em, rep.dictionary, rep.reference, m, n, 21,
            systems.Regime.ERGODIC)
        vr = variance.exact_variance(rep, m)
        for errs, exact in ((err_C, vr.var_C), (err_Cp, vr.var_Cplus)):
            sq = errs**2
            se = sq.std(ddof=1) / np.sqrt(n)
            assert abs(sq.mean() - exact) <= 3 * se, (sq.mean(), exact, se)

    @pytest.mark.parametrize("cfg, dictionary", [
        (OU, dictionaries.random_fourier(4, 1.0, 0)),
        (dict(OU, state_dim=2), dictionaries.monomial(2)),
        (dict(OU, sigma=0.0), dictionaries.monomial(2)),
    ], ids=["rff", "two_dim", "no_noise"])
    def test_unsupported(self, cfg, dictionary):
        with pytest.raises(UnsupportedSystem):
            variance.build_rep(config.system_from_config(cfg), dictionary)


class TestExactVariance:
    def test_two_state_m1_by_hand(self, two_state_chain, indicator2):
        rep = variance.build_rep(two_state_chain, indicator2)
        vr = variance.exact_variance(rep, 1)
        # ||phi||^2 = 1, ||C||_F^2 = 0.5; <K phi, phi> = 1, ||C+||_F^2 = 0.29
        assert abs(vr.E_zero - 0.5) < 1e-14
        assert abs(vr.E_plus - 0.71) < 1e-14
        assert abs(vr.sigma2_zero - vr.E_zero) < 1e-14  # p_1 == 0
        assert abs(vr.sigma2_plus - vr.E_plus) < 1e-14

    def test_two_state_m2_by_hand(self, two_state_chain, indicator2):
        # direct expectation over the 2-step chain gives 0.35 and 0.455
        rep = variance.build_rep(two_state_chain, indicator2)
        vr = variance.exact_variance(rep, 2)
        assert abs(vr.var_C - 0.35) < 1e-12
        assert abs(vr.var_Cplus - 0.455) < 1e-12

    def test_constant_dictionary_zero_variance(self, five_state_chain):
        d = dictionaries.monomial(0)
        rep = variance.build_rep(five_state_chain, d)
        for m in [1, 2, 10, 100]:
            vr = variance.exact_variance(rep, m)
            assert abs(vr.sigma2_plus) < 1e-14
            assert abs(vr.sigma2_zero) < 1e-14

    def test_nonnegative_constants(self, five_state_chain, monomial3):
        rep = variance.build_rep(five_state_chain, monomial3)
        vr = variance.exact_variance(rep, 10)
        assert vr.E_plus >= 0 and vr.E_zero >= 0
        assert vr.var_C >= 0 and vr.var_Cplus >= 0

    @pytest.mark.parametrize("m", [1, 2, 5, 10, 50])
    def test_sig2_operator_norm_bounds(self, five_state_chain, monomial3, m):
        rep = variance.build_rep(five_state_chain, monomial3)
        vr = variance.exact_variance(rep, m)
        pm_norm, kpm_norm = pm_operator_norms(rep, m)
        assert vr.sigma2_plus <= (1.0 + pm_norm) * vr.E_plus + 1e-10
        assert vr.sigma2_zero <= (1.0 + kpm_norm) * vr.E_zero + 1e-10

    def test_sig2_resolvent_bounds_all_m(self, five_state_chain, monomial3):
        rep = variance.build_rep(five_state_chain, monomial3)
        r_plus, r_zero = rep.resolvent_norms()
        for m in [1, 2, 5, 10, 50, 200, 1000]:
            vr = variance.exact_variance(rep, m)
            assert vr.sigma2_plus <= (1.0 + 4.0 * r_plus) * vr.E_plus + 1e-10
            assert vr.sigma2_zero <= (1.0 + 4.0 * r_zero) * vr.E_zero + 1e-10

    @pytest.mark.parametrize("m", [1, 2, 5, 10, 50, 200])
    def test_oracle_agreement_two_state(self, two_state_chain, indicator2, m):
        rep = variance.build_rep(two_state_chain, indicator2)
        vr = variance.exact_variance(rep, m)
        oracle = studies.montecarlo_variance_oracle(rep, m, 20000, seed=101 + m)
        for exact, mc, se in [
            (vr.var_C, oracle.var_C_hat, oracle.stderr_C),
            (vr.var_Cplus, oracle.var_Cplus_hat, oracle.stderr_Cplus),
        ]:
            assert abs(exact - mc) <= 3.5 * se + 1e-12 * max(exact, 1.0)


EPS = float(np.finfo(np.float64).eps)


def naive_sums(rep, m):
    """The variance sums over the N^2 product functions, one right-hand side
    per function: sum_ij <p_m(K0) U_ij, Us_ij> and sum_ij <K0 p_m(K0) V_ij,
    V_ij> for the reduced g_ij, psi_ij and gs_ij stacks U, V and Us, and, for
    the average A = (1/m) sum_{k<m} K0^k, sum_ij ||A U_ij||^2 and
    sum_ij ||A V_ij||^2."""
    N2 = rep.psi.shape[0] ** 2
    U, V, Us = (rep.to_reduced(rep.family[key].reshape(N2, rep.dim).T)
                for key in ("g_ij", "psi_ij", "gs_ij"))
    PU, PV = variance.pm_apply_vectors(rep.M, U, m), variance.pm_apply_vectors(rep.M, V, m)
    AU, AV = variance.mean_power_apply(rep.M, U, m), variance.mean_power_apply(rep.M, V, m)
    return (float(np.sum(PU * Us)), float(np.sum((rep.M @ PV) * V)),
            float(np.sum(AU * AU)), float(np.sum(AV * AV)))


def cross_gram_cases():
    five = random_ergodic_chain(5, 123)
    return {
        "chain2": (random_ergodic_chain(2, 1), dictionaries.indicator(2)),
        "chain3": (random_ergodic_chain(3, 2), dictionaries.indicator(3)),
        "chain5": (five, dictionaries.indicator(5)),
        "chain5_monomial": (five, dictionaries.monomial(2, scale=0.25)),
        "chain50": (random_ergodic_chain(50, 3), dictionaries.indicator(50)),
        "ou_monomial2": (config.system_from_config(OU), dictionaries.monomial(2)),
        "golden_fourier4": (golden_rotation(), dictionaries.fourier(4)),
    }


class TestCrossGrams:
    """The variances as traces against the rep's cross-Grams equal the sums
    over the product family that define them."""

    @pytest.mark.parametrize("case", sorted(cross_gram_cases()))
    def test_traces_match_family_sums(self, case):
        rep = variance.build_rep(*cross_gram_cases()[case])
        for m in [1, 2, 3, 10, 64, 1000]:
            plus, zero, avg_plus, avg_zero = naive_sums(rep, m)
            vr = variance.exact_variance(rep, m)
            # 1e-12 of the sum, plus the two roundings of adding E to it
            for sigma2, E, want in ((vr.sigma2_plus, vr.E_plus, plus),
                                    (vr.sigma2_zero, vr.E_zero, zero)):
                assert abs(sigma2 - (E + want)) <= 1e-12 * abs(want) + EPS * abs(sigma2)
            if rep.unitary:
                fj = variance.fejer_variance(rep, m)
                assert abs(fj.var_Cplus - avg_plus) <= 1e-12 * avg_plus
                assert abs(fj.var_C - avg_zero) <= 1e-12 * avg_zero

    def test_grams_match_family_stacks(self):
        for case, (sys, dictionary) in cross_gram_cases().items():
            rep = variance.build_rep(sys, dictionary)
            N2 = rep.psi.shape[0] ** 2
            U, V, Us = (rep.to_reduced(rep.family[key].reshape(N2, rep.dim).T)
                        for key in ("g_ij", "psi_ij", "gs_ij"))
            for got, want in ((rep.W_plus, U @ Us.T), (rep.W_zero, V @ V.T), (rep.W_g, U @ U.T)):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), case


class TestPowerSums:
    @pytest.mark.parametrize("m", [*range(1, 10), 16, 17, 64])
    def test_explicit_sums_non_normal(self, m):
        g = np.random.Generator(np.random.Philox(7))
        # upper triangular plus noise: far from normal, spectral radius below 1
        M = 0.3 * g.standard_normal((6, 6)) + np.triu(np.full((6, 6), 0.5), 1)
        assert np.linalg.norm(M @ M.T - M.T @ M) > 1.0
        powers = [np.linalg.matrix_power(M, j) for j in range(m)]
        sums = [sum(powers[:k], np.zeros((6, 6))) for k in range(m + 1)]
        S, R = variance._power_sums(M, m)
        want_S, want_R = sums[m], sum(sums[1:m], np.zeros((6, 6)))
        assert np.max(np.abs(S - want_S)) <= 1e-13 * np.max(np.abs(want_S))
        assert np.max(np.abs(R - want_R)) <= 1e-13 * max(np.max(np.abs(want_R)), 1.0)


class TestLargeMPrecision:
    """`var_C` of the golden rotation with `fourier(4)` against 40-digit values.

    The literals were computed once with mpmath at 60 and 90 digits (they
    agree) through the Fejer sum on exactly reduced phases:
    var_C = sum_{0 < |q| <= 8} w_q sin^2(pi frac(m q t0)) / (m^2 sin^2(pi frac(q t0))),
    with t0 the float golden angle taken exactly (`fractions.Fraction`),
    frac reduced in integers, and w_q = sum_ij |c_q(psi_i psi_j)|^2 from the
    dictionary's exact complex Fourier coefficients.  sigma^2 = E + S cancels
    E = O(1) down to O(1/m), so the float value loses precision like m; the
    tolerances are twice the errors of the block-matrix power evaluation
    this module had before its d x d doubling recurrence (9.4e-9, 7.1e-7
    and 8.4e-4).
    """

    @pytest.mark.parametrize("m, want, rtol", [
        (10**6, 1.010892817069057344995436409416990542375e-11, 2 * 9.4e-9),
        (10**9, 1.341070726086103741112903431356745718450e-16, 2 * 7.1e-7),
        (10**12, 1.937163184799406905623223291239674695092e-22, 2 * 8.4e-4),
    ])
    def test_golden_fourier4_var_C(self, golden, m, want, rtol):
        rep = variance.build_rep(golden, dictionaries.fourier(4))
        got = variance.exact_variance(rep, m).var_C
        assert abs(got - want) <= rtol * want


class TestFejerKernel:
    @pytest.mark.parametrize("m", [1, 2, 7, 64])
    def test_at_zero(self, m):
        assert abs(variance.fejer_kernel(m, 0.0) - m) < 1e-9

    def test_f1_identically_one(self):
        for t in np.linspace(-3, 3, 21):
            assert abs(variance.fejer_kernel(1, t) - 1.0) < 1e-12

    @pytest.mark.parametrize("m", [2, 5, 16])
    def test_closed_form_matches_sum(self, m):
        for t in [0.1, 0.5, 1.7, 3.0, -2.2]:
            assert abs(variance.fejer_kernel(m, t) - fejer_kernel_sum(m, t)) < 1e-9

    def test_squared_ratio_variant_disagrees(self):
        # the cosine-ratio form enters linearly; an extra square is a known trap
        m, t = 8, 1.3
        good = (1.0 / m) * (1.0 - np.cos(m * t)) / (1.0 - np.cos(t))
        bad = (1.0 / m) * ((1.0 - np.cos(m * t)) / (1.0 - np.cos(t))) ** 2
        assert abs(fejer_kernel_sum(m, t) - good) < 1e-9
        assert abs(fejer_kernel_sum(m, t) - bad) > 1e-3

    def test_nonnegative(self):
        for m in [3, 9]:
            ts = np.linspace(-np.pi, np.pi, 101)
            assert np.all(variance.fejer_kernel(m, ts) >= -1e-12)

    @pytest.mark.parametrize("m, t, value", [(10**10, 1e-9, 3.678e8), (10**12, 1.5e-9, 9.869e5)])
    def test_small_angle_at_large_m(self, m, t, value):
        # |sin(t/2)| < 1e-9, but m t is not small: a Taylor expansion in t
        # about 0 is far off here (it gave -7.3e10 and -1.9e17)
        ratio = math.sin(m * t / 2) / math.sin(t / 2)
        assert variance.fejer_kernel(m, t) == pytest.approx(ratio**2 / m, rel=1e-12)
        assert variance.fejer_kernel(m, t) == pytest.approx(value, rel=1e-3)

    @pytest.mark.parametrize("m", [10**4, 10**6])
    def test_periodic_near_two_pi(self, m):
        # m t / 2 rounds before the sine near t = 2 pi k, where sin(t/2) is
        # small too; unwrapped, F_m(2 pi) read 1573 at m = 1e4 and 3.3e6 at 1e6
        for k in (1, -3):
            for t in (0.0, 1e-9, -2e-7):
                got = variance.fejer_kernel(m, 2 * np.pi * k + t)
                assert got == pytest.approx(variance.fejer_kernel(m, t), rel=1e-6)
        assert variance.fejer_kernel(m, 2 * np.pi) == m


class TestFejerVariance:
    def test_matches_pm_route(self, golden):
        for F in [1, 2]:
            d = dictionaries.fourier(F)
            rep = variance.build_rep(golden, d)
            for m in [2, 10, 100]:
                a = variance.exact_variance(rep, m)
                b = variance.fejer_variance(rep, m)
                assert abs(a.var_C - b.var_C) <= 1e-9 * max(abs(a.var_C), 1e-30)
                assert abs(a.var_Cplus - b.var_Cplus) <= 1e-9 * max(abs(a.var_Cplus), 1e-30)

    def test_single_mode_geometric_sum(self, golden):
        d = dictionaries.fourier(1)
        rep = variance.build_rep(golden, d)
        f = np.zeros(5)
        f[1] = 1.0  # first cosine mode, norm 1
        for m in [3, 10, 100]:
            avg = ergodic_average_sq_norm(rep, f, m)
            c = np.exp(2j * np.pi * golden.t0)
            analytic = abs(1 - c**m) ** 2 / (m**2 * abs(1 - c) ** 2)
            assert abs(avg - analytic) < 1e-12
            # and the Fejer-kernel value agrees: F_m(2 pi t0) / m
            spectral = variance.fejer_kernel(m, 2 * np.pi * golden.t0) / m
            assert abs(avg - spectral) < 1e-12

    def test_requires_unitary(self, two_state_chain, indicator2):
        rep = variance.build_rep(two_state_chain, indicator2)
        with pytest.raises(NotUnitary):
            variance.fejer_variance(rep, 10)


class TestOracle:
    def test_single_trial_stderr_infinite(self, two_state_chain, indicator2):
        oracle = studies.montecarlo_variance_oracle(
            variance.build_rep(two_state_chain, indicator2), 5, 1, seed=0
        )
        assert oracle.stderr_C == float("inf")
        assert oracle.stderr_Cplus == float("inf")

    def test_deterministic_rotation_oracle_exact(self, golden):
        d = dictionaries.fourier(1)
        rep = variance.build_rep(golden, d)
        vr = variance.exact_variance(rep, 25)
        oracle = studies.montecarlo_variance_oracle(rep, 25, 200, seed=1)
        # squared error is constant in the initial point for Fourier features
        assert oracle.stderr_C < 1e-15
        assert abs(oracle.var_C_hat - vr.var_C) < 1e-12

    def test_threads_do_not_change_result(self, five_state_chain, monomial3):
        rep = variance.build_rep(five_state_chain, monomial3)
        a = studies.montecarlo_variance_oracle(rep, 20, 3000, seed=5, threads=1)
        b = studies.montecarlo_variance_oracle(rep, 20, 3000, seed=5, threads=4)
        assert a.var_C_hat == b.var_C_hat
        assert a.var_Cplus_hat == b.var_Cplus_hat


class TestIidExactIdentity:
    def test_cross_terms_vanish(self, two_state_chain, indicator2):
        # E || C_+ - C_hat_plus ||_F^2 == E_plus / m exactly under i.i.d. pairs
        from koopman_cert.systems import iid_chunk

        rep = variance.build_rep(two_state_chain, indicator2)
        vr = variance.exact_variance(rep, 1)
        gram = variance.exact_reference_gram(two_state_chain, indicator2)
        m = 7
        n_trials, chunk = 40000, 0
        errs_p, errs_c = [], []
        table = np.eye(2)
        xs, ys = iid_chunk(two_state_chain, m, 99, chunk, n_trials)
        px, py = table[xs], table[ys]
        Cph = np.einsum("bki,bkj->bij", px, py) / m
        Ch = np.einsum("bki,bkj->bij", px, px) / m
        errs_p = np.sum((Cph - gram.Cplus) ** 2, axis=(1, 2))
        errs_c = np.sum((Ch - gram.C) ** 2, axis=(1, 2))
        for err, target in [(errs_p, vr.E_plus / m), (errs_c, vr.E_zero / m)]:
            se = np.std(err, ddof=1) / np.sqrt(n_trials)
            assert abs(np.mean(err) - target) <= 3.5 * se
