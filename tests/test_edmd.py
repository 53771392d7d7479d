import numpy as np
import pytest

from koopman_cert import dictionaries, edmd, galerkin, kernels, systems, variance
from koopman_cert.errors import DimensionMismatch, SingularEmpiricalMass

from conftest import ergodic_invertibility_condition


class TestEmpiricalGram:
    def test_single_pair_outer_product(self, two_state_chain, indicator2):
        pairs = systems.SamplePairs(
            np.array([0]), np.array([1]), systems.Regime.ERGODIC, 0
        )
        gram = edmd.empirical_gram(indicator2, pairs)
        assert np.allclose(gram.C, [[1.0, 0.0], [0.0, 0.0]])
        assert np.allclose(gram.Cplus, [[0.0, 1.0], [0.0, 0.0]])

    def test_duplicated_pairs_average_out(self, indicator2):
        once = systems.SamplePairs(np.array([0, 1]), np.array([1, 0]),
                                   systems.Regime.IID, 0)
        twice = systems.SamplePairs(np.array([0, 1, 0, 1]), np.array([1, 0, 1, 0]),
                                    systems.Regime.IID, 0)
        g1 = edmd.empirical_gram(indicator2, once)
        g2 = edmd.empirical_gram(indicator2, twice)
        assert np.allclose(g1.C, g2.C)
        assert np.allclose(g1.Cplus, g2.Cplus)

    def test_chat_psd(self, five_state_chain, monomial3):
        pairs = systems.sample_ergodic(five_state_chain, 100, seed=0)
        gram = edmd.empirical_gram(monomial3, pairs)
        assert np.allclose(gram.C, gram.C.T)
        assert np.min(np.linalg.eigvalsh(gram.C)) >= -1e-12

    def test_reproducible_from_seed(self, five_state_chain, monomial3):
        p1 = systems.sample_ergodic(five_state_chain, 64, seed=17)
        p2 = systems.sample_ergodic(five_state_chain, 64, seed=17)
        g1 = edmd.empirical_gram(monomial3, p1)
        g2 = edmd.empirical_gram(monomial3, p2)
        assert np.array_equal(g1.C, g2.C)
        assert g1.provenance.kind == "empirical"
        assert g1.provenance.m == 64 and g1.provenance.seed == 17


class TestEdmdEstimate:
    def test_indicator_equals_count_ratio(self, two_state_chain, indicator2):
        for seed in range(5):
            pairs = systems.sample_ergodic(two_state_chain, 500, seed=seed)
            est = edmd.edmd_estimate(indicator2, pairs)
            counts = kernels.pair_counts(pairs.xs[None], pairs.ys[None], 2)[0]
            ratio = counts / counts.sum(axis=1)[:, None]
            assert np.max(np.abs(est.Khat - ratio)) < 1e-12

    def test_circle_exact_recovery(self, golden):
        d = dictionaries.fourier(2)
        ref = galerkin.galerkin_matrix(variance.exact_reference_gram(golden, d))
        pairs = systems.sample_ergodic(golden, 3 * d.size, seed=1)
        est = edmd.edmd_estimate(d, pairs)
        # dictionary space is invariant under the rotation: no estimation error
        assert np.max(np.abs(est.Khat - ref.KV)) < 1e-8

    def test_undersampled_raises(self, golden):
        d = dictionaries.fourier(2)
        pairs = systems.sample_ergodic(golden, d.size - 1, seed=2)
        with pytest.raises(SingularEmpiricalMass):
            edmd.edmd_estimate(d, pairs)

    def test_stuck_trajectory_raises(self, indicator2):
        pairs = systems.SamplePairs(np.zeros(10, dtype=int), np.zeros(10, dtype=int),
                                    systems.Regime.ERGODIC, 0)
        with pytest.raises(SingularEmpiricalMass):
            edmd.edmd_estimate(indicator2, pairs)


class TestEstimationError:
    def test_exact_inputs_zero_error(self, two_state_chain, indicator2):
        gram = variance.exact_reference_gram(two_state_chain, indicator2)
        ref = galerkin.galerkin_matrix(gram)
        est = edmd.EdmdEstimate(gram, ref.KV, 10**6, systems.Regime.ERGODIC)
        errs = edmd.estimation_error(est, ref)
        assert errs == {"err_K": 0.0, "err_C": 0.0, "err_Cplus": 0.0}

    def test_triangle_chain(self, five_state_chain, monomial3):
        gram = variance.exact_reference_gram(five_state_chain, monomial3)
        ref = galerkin.galerkin_matrix(gram)
        for seed in range(10):
            pairs = systems.sample_ergodic(five_state_chain, 50, seed=seed)
            est = edmd.edmd_estimate(monomial3, pairs)
            errs = edmd.estimation_error(est, ref)
            assert errs["err_K"] >= 0
            chat_inv = np.linalg.inv(est.gram.C)
            bound = (
                np.linalg.norm(chat_inv) * errs["err_Cplus"]
                + np.linalg.norm(ref.KV) * np.linalg.norm(chat_inv) * errs["err_C"]
            )
            assert errs["err_K"] <= bound + 1e-9

    def test_scaling_invariance(self, five_state_chain):
        d1 = dictionaries.monomial(2, scale=0.25)
        ref1 = galerkin.galerkin_matrix(variance.exact_reference_gram(five_state_chain, d1))

        def doubled_eval(states):
            return 2.0 * d1.evaluate(states)

        d2 = dictionaries.Dictionary(3, d1.kind, doubled_eval)
        ref2 = galerkin.galerkin_matrix(variance.exact_reference_gram(five_state_chain, d2))
        pairs = systems.sample_ergodic(five_state_chain, 200, seed=3)
        e1 = edmd.estimation_error(edmd.edmd_estimate(d1, pairs), ref1)
        e2 = edmd.estimation_error(edmd.edmd_estimate(d2, pairs), ref2)
        assert abs(e1["err_K"] - e2["err_K"]) < 1e-10

    def test_dimension_mismatch(self, two_state_chain, indicator2, five_state_chain):
        ref5 = galerkin.galerkin_matrix(
            variance.exact_reference_gram(five_state_chain, dictionaries.indicator(5))
        )
        pairs = systems.sample_ergodic(two_state_chain, 50, seed=0)
        est = edmd.edmd_estimate(indicator2, pairs)
        with pytest.raises(DimensionMismatch):
            edmd.estimation_error(est, ref5)


class TestConsistency:
    def test_grams_converge_along_trajectory(self, two_state_chain, indicator2):
        from koopman_cert.variance import build_rep, exact_variance

        gram = variance.exact_reference_gram(two_state_chain, indicator2)
        rep = build_rep(two_state_chain, indicator2)
        m = 10**6
        pairs = systems.sample_ergodic(two_state_chain, m, seed=11)
        emp = edmd.empirical_gram(indicator2, pairs)
        err = np.linalg.norm(emp.C - gram.C)
        predicted_rms = np.sqrt(exact_variance(rep, m).var_C)
        assert err < 10 * predicted_rms


class TestInvertibilityDiagnostics:
    def test_self_loops_violate_condition(self, two_state_chain, indicator2):
        assert not ergodic_invertibility_condition(two_state_chain, indicator2)

    def test_no_self_loop_chain_satisfies_condition(self):
        P = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
        sys = systems.FiniteMarkovSystem(P)
        d = dictionaries.monomial(1)
        assert ergodic_invertibility_condition(sys, d)

    def test_condition_implies_invertibility(self):
        # alongside: every ergodic run of length >= N+1 gives invertible C_hat
        P = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
        sys = systems.FiniteMarkovSystem(P)
        d = dictionaries.monomial(1)
        for seed in range(1000):
            pairs = systems.sample_ergodic(sys, 3, seed=seed)
            est = edmd.edmd_estimate(d, pairs)  # must not raise
            assert est.Khat.shape == (2, 2)
