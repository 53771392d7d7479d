import math

import numpy as np
import pytest

from koopman_cert import bounds, dictionaries, variance
from koopman_cert.errors import (
    MissingCertificate,
    MissingSupBound,
    NoSpectralGap,
    NumericalError,
)


@pytest.fixture
def chain_inputs(two_state_chain, indicator2):
    return bounds.bound_inputs_from_exact(variance.build_rep(two_state_chain, indicator2))


@pytest.fixture
def golden_inputs(golden):
    return bounds.bound_inputs_from_exact(
        variance.build_rep(golden, dictionaries.fourier(1)), thin_params=(1.5, 0.45)
    )


class TestAlphaConstant:
    def test_two_state_plugin_arithmetic(self, chain_inputs):
        # every factor evaluated independently with explicit numbers
        eps = 0.1
        expected = (
            (1.0 + 4.0 / 0.6)
            * (2.0 * math.sqrt(8.0) * math.sqrt(0.29) + eps) ** 2
            * ((1.0 / 0.29 + 8.0) * 1.0 - 2.0)
        )
        got = bounds.alpha_constant(chain_inputs, eps)
        assert abs(got - expected) <= 1e-12 * expected
        # frozen regression value
        assert abs(got - 717.0706686097974) < 1e-9

    def test_continuity_in_epsilon(self, chain_inputs):
        a0 = bounds.alpha_constant(chain_inputs, 1e-12)
        R = chain_inputs.resolvent_plus
        a, b = chain_inputs.norm_Cinv, chain_inputs.norm_Cplus
        limit = (1 + 4 * R) * 4 * a**2 * b**2 * ((1 / b**2 + a**2) - 2.0)
        assert abs(a0 - limit) < 1e-6

    def test_joint_scaling_invariance_of_product(self, two_state_chain):
        # doubling the dictionary scales ||C^-1||_F by 1/4 and ||C+||_F by 4
        base = dictionaries.indicator(2)

        def doubled(states):
            return 2.0 * base.evaluate(states)

        d2 = dictionaries.Dictionary(2, base.kind, doubled)
        i1 = bounds.bound_inputs_from_exact(variance.build_rep(two_state_chain, base))
        i2 = bounds.bound_inputs_from_exact(variance.build_rep(two_state_chain, d2))
        assert abs(i2.norm_Cinv - i1.norm_Cinv / 4.0) < 1e-12
        assert abs(i2.norm_Cplus - i1.norm_Cplus * 4.0) < 1e-12
        prod1 = i1.norm_Cinv * i1.norm_Cplus
        prod2 = i2.norm_Cinv * i2.norm_Cplus
        assert abs(prod1 - prod2) < 1e-12

    def test_no_gap_raises(self, golden):
        inputs = bounds.bound_inputs_from_exact(variance.build_rep(golden, dictionaries.fourier(1)))
        inputs.resolvent_plus = None
        with pytest.raises(NoSpectralGap):
            bounds.alpha_constant(inputs, 0.1)


class TestErgodicLinearBound:
    def test_halves_when_m_doubles(self, chain_inputs):
        r1 = bounds.ergodic_linear_bound(chain_inputs, 1000, 0.5)
        r2 = bounds.ergodic_linear_bound(chain_inputs, 2000, 0.5)
        assert abs(r2.p_bound - r1.p_bound / 2.0) < 1e-12

    def test_m_required_formula(self, chain_inputs):
        # the samples that guarantee P(error > eps) <= delta are ceil(A / (delta eps^2))
        A = bounds.alpha_constant(chain_inputs, 0.1)
        m = math.ceil(A / (0.1 * 0.01))
        assert bounds.ergodic_linear_bound(chain_inputs, m, 0.1).p_bound <= 0.1
        assert bounds.ergodic_linear_bound(chain_inputs, m - 1, 0.1).p_bound > 0.1

    def test_vacuous_bounds_not_clamped(self, chain_inputs):
        r = bounds.ergodic_linear_bound(chain_inputs, 10, 0.1)
        assert r.p_bound > 1.0


class TestCAlpha:
    def test_value_at_one(self):
        assert bounds.c_alpha(1.0) == 3.0

    def test_piecewise_branches(self):
        assert abs(bounds.c_alpha(0.5) - (4 - 1.5) / 0.5) < 1e-12
        assert abs(bounds.c_alpha(1.5) - 3.0 / 0.25) < 1e-12

    def test_angle_convention_ratio_recorded(self):
        # revolutions -> radians convention; the raw-radian reading differs
        theta = 0.2
        ratio = bounds.one_minus_cos(theta) / (1 - math.cos(theta))
        assert abs(bounds.one_minus_cos(theta) - (1 - math.cos(2 * math.pi * 0.2))) < 1e-15
        assert ratio > 30.0  # the conventions differ by over an order of magnitude


class TestSuperlinearBound:
    def test_kappa_zero_scales_m_minus_two(self, golden):
        inputs = bounds.bound_inputs_from_exact(
            variance.build_rep(golden, dictionaries.fourier(1)), thin_params=(1.5, 0.2)
        )
        assert inputs.thin.exact
        r1 = bounds.superlinear_bound(inputs, 100, 1.0)
        r2 = bounds.superlinear_bound(inputs, 200, 1.0)
        assert r1.branch == bounds.BRANCH_ERGODIC_KAPPA_ZERO
        assert abs(r2.p_bound - r1.p_bound / 4.0) < 1e-12

    def test_missing_certificate(self, golden):
        inputs = bounds.bound_inputs_from_exact(variance.build_rep(golden, dictionaries.fourier(1)))
        with pytest.raises(MissingCertificate):
            bounds.superlinear_bound(inputs, 100, 1.0)

    def test_m_const_recomputable(self, golden_inputs):
        M = bounds.m_constant(
            golden_inputs.norm_Cinv,
            golden_inputs.norm_Cplus,
            golden_inputs.E_zero,
            golden_inputs.E_plus,
        )
        assert abs(M - golden_inputs.M_const) <= 1e-12 * M
        # N = 3 Fourier dictionary: M = 8 (1 + N^2)^2 (N - 1)
        assert abs(M - 1600.0) < 1e-9


class TestIidBounds:
    def test_log_hoeffding_affine_in_m(self, chain_inputs):
        eps = 1.0
        ms = np.array([20000, 24000, 28000, 32000])  # arithmetic spacing
        ps = [bounds.iid_hoeffding_bound(chain_inputs, int(m), eps).p_bound for m in ms]
        logs = np.log(ps)
        d1 = np.diff(logs)
        # equal decrements with negative slope once one exponential dominates
        assert np.all(d1 < 0)
        assert abs(d1[-1] - d1[0]) / abs(d1[-1]) < 0.05

    def test_two_state_regression_constants(self, chain_inputs):
        eps = 1.0
        mk = bounds.iid_markov_bound(chain_inputs, 1000, eps)
        hf = bounds.iid_hoeffding_bound(chain_inputs, 1000, eps)
        a, b = math.sqrt(8.0), math.sqrt(0.29)
        sigma = 2 * a * b + eps
        expected_mk = sigma**2 / (1000 * eps**2) * ((1.0 / 0.29 + 8.0) * 1.0 - 2.0)
        assert abs(mk.p_bound - expected_mk) <= 1e-12 * expected_mk
        tau = sigma * 1.0
        expected_hf = 2 * math.exp(-1000 * 0.29 / (2 * tau**2 * 4)) + 2 * math.exp(
            -1000 / (8 * tau**2 * 8)
        )
        assert abs(hf.p_bound - expected_hf) <= 1e-12 * expected_hf

    def test_markov_monotone_in_epsilon_grid(self, chain_inputs):
        ps = [bounds.iid_markov_bound(chain_inputs, 500, e).p_bound
              for e in np.linspace(0.2, 5.0, 25)]
        assert all(b <= a + 1e-12 for a, b in zip(ps, ps[1:]))

    def test_missing_sup_raises(self, chain_inputs):
        chain_inputs.sup_phi = None
        with pytest.raises(MissingSupBound):
            bounds.iid_hoeffding_bound(chain_inputs, 100, 1.0)


class TestEstimatorErrorBounds:
    def test_iid_markov_is_E_over_m_eps2(self, chain_inputs):
        rc, rp = bounds.estimator_error_bounds(chain_inputs, 100, 0.3,
                                               bounds.BRANCH_IID_MARKOV)
        assert abs(rp.p_bound - chain_inputs.E_plus / (100 * 0.09)) < 1e-12
        assert abs(rc.p_bound - chain_inputs.E_zero / (100 * 0.09)) < 1e-12
        # 0.71 / (100 * 0.09): frozen arithmetic for the two-state chain
        assert abs(rc.p_bound - 0.5 / 9.0) < 1e-12

    def test_constant_dictionary_zero_bound(self, five_state_chain):
        d = dictionaries.monomial(0)
        inputs = bounds.bound_inputs_from_exact(variance.build_rep(five_state_chain, d))
        rc, rp = bounds.estimator_error_bounds(inputs, 50, 0.5,
                                               bounds.BRANCH_IID_MARKOV)
        assert abs(rc.p_bound) < 1e-12
        assert abs(rp.p_bound) < 1e-12


class TestCombineBounds:
    def test_zero_bounds_combine_to_zero(self, chain_inputs):
        rc = bounds._power_report(0.0, 1.0, "x", 100, 0.5, {})
        rp = bounds._power_report(0.0, 1.0, "x", 100, 0.5, {})
        assert bounds.combine_bounds(rc, rp, chain_inputs, 0.5).p_bound == 0.0

    def test_reproduces_alpha_constant(self, chain_inputs):
        # loosened per-matrix constants compose to exactly alpha / (m eps^2)
        for eps in [0.1, 0.5, 1.0]:
            m = 5000
            R = chain_inputs.resolvent_plus
            a, b = chain_inputs.norm_Cinv, chain_inputs.norm_Cplus
            phi2 = chain_inputs.norm_phi_L2**2
            rp = bounds._power_report((1 + 4 * R) * (phi2 - b**2), 1.0, "x", m, eps, {})
            rc = bounds._power_report((1 + 4 * R) * (phi2 - 1 / a**2), 1.0, "x", m, eps, {})
            combined = bounds.combine_bounds(rc, rp, chain_inputs, eps)
            target = bounds.alpha_constant(chain_inputs, eps) / (m * eps**2)
            assert abs(combined.p_bound - target) <= 1e-12 * target

    def test_reproduces_superlinear_m_form(self, golden_inputs):
        for eps in [0.5, 1.0, 1.9]:
            m = 3000
            cert = golden_inputs.thin
            C = bounds.c_alpha_kappa_theta(cert.alpha, cert.kappa, cert.theta)
            maxE = max(golden_inputs.E_zero, golden_inputs.E_plus)
            a, b = golden_inputs.norm_Cinv, golden_inputs.norm_Cplus
            tau = 2 * a * b + eps
            slack = 8.0 * (1.0 + a**2 * b**2) / tau**2
            A = C * maxE * slack
            rc = bounds._power_report(A, cert.alpha, "x", m, eps, {})
            rp = bounds._power_report(A, cert.alpha, "x", m, eps, {})
            combined = bounds.combine_bounds(rc, rp, golden_inputs, eps)
            target = bounds.superlinear_bound(golden_inputs, m, eps).p_bound
            assert abs(combined.p_bound - target) <= 1e-12 * target

    def test_reproduces_hoeffding_theorem(self, chain_inputs):
        for eps in [0.5, 1.0]:
            m = 4000
            rc, rp = bounds.estimator_error_bounds(chain_inputs, m, eps,
                                                   bounds.BRANCH_IID_HOEFFDING)
            combined = bounds.combine_bounds(rc, rp, chain_inputs, eps)
            theorem = bounds.iid_hoeffding_bound(chain_inputs, m, eps).p_bound
            assert abs(combined.p_bound - theorem) <= 1e-12 * theorem

    def test_composite_dominated_by_theorem_form(self, golden_inputs):
        # actual per-matrix superlinear bounds compose below C M / m^a eps^2
        for eps in [0.5, 1.0, 1.9]:
            m = 500
            rc, rp = bounds.estimator_error_bounds(golden_inputs, m, eps,
                                                   bounds.BRANCH_ERGODIC_SUPERLINEAR)
            combined = bounds.combine_bounds(rc, rp, golden_inputs, eps)
            theorem = bounds.superlinear_bound(golden_inputs, m, eps).p_bound
            assert combined.p_bound <= theorem * (1 + 1e-12)


class TestMonotonicity:
    @pytest.mark.parametrize("branch", [
        bounds.BRANCH_ERGODIC_LINEAR,
        bounds.BRANCH_IID_MARKOV,
        bounds.BRANCH_IID_HOEFFDING,
    ])
    def test_p_bound_nonincreasing_in_m_and_eps(self, chain_inputs, branch):
        from koopman_cert.studies import _branch_bound

        for eps in [0.3, 0.6, 1.2]:
            ps = [_branch_bound(chain_inputs, branch, m, eps).p_bound
                  for m in [100, 400, 1600, 6400]]
            assert all(b <= a + 1e-12 for a, b in zip(ps, ps[1:]))
        for m in [100, 1000]:
            ps = [_branch_bound(chain_inputs, branch, m, e).p_bound
                  for e in [0.3, 0.6, 1.2, 2.4]]
            assert all(b <= a + 1e-12 for a, b in zip(ps, ps[1:]))

    @pytest.mark.parametrize("theta", [0.2, 0.45])
    def test_superlinear_monotone(self, golden, theta):
        from koopman_cert.studies import _branch_bound

        inputs = bounds.bound_inputs_from_exact(
            variance.build_rep(golden, dictionaries.fourier(1)), thin_params=(1.5, theta)
        )
        for eps in [0.5, 1.0]:
            ps = [_branch_bound(inputs, bounds.BRANCH_ERGODIC_SUPERLINEAR, m, eps).p_bound
                  for m in [50, 200, 800]]
            assert all(b <= a + 1e-12 for a, b in zip(ps, ps[1:]))


class TestHoeffdingCrossover:
    def test_hoeffding_beats_markov_above_finite_m(self, chain_inputs):
        eps = 1.0
        crossover = None
        for m in [100, 1000, 2000, 5000, 10000, 100000]:
            mk = bounds.iid_markov_bound(chain_inputs, m, eps)
            hf = bounds.iid_hoeffding_bound(chain_inputs, m, eps)
            if hf.p_bound <= min(mk.p_bound, 1.0):
                crossover = m
                break
        assert crossover is not None and crossover > 0
        # once crossed it stays crossed (exponential vs linear decay)
        for m in [crossover * 2, crossover * 10]:
            mk = bounds.iid_markov_bound(chain_inputs, m, eps)
            hf = bounds.iid_hoeffding_bound(chain_inputs, m, eps)
            assert hf.p_bound <= mk.p_bound

    def test_negative_bracket_raises(self, chain_inputs):
        chain_inputs.norm_phi_L2 = 1e-6  # degenerate on purpose
        with pytest.raises(NumericalError):
            bounds.alpha_constant(chain_inputs, 0.1)
