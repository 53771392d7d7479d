import numpy as np
import pytest

from koopman_cert import dictionaries
from koopman_cert.errors import DomainError

from conftest import IndependenceLevel, check_mu_linear_independence


class TestEvaluation:
    def test_indicator_identity(self):
        d = dictionaries.indicator(2)
        assert np.array_equal(d.evaluate([0, 1]), np.eye(2))

    def test_fourier_at_zero(self):
        d = dictionaries.fourier(1)
        v = d.evaluate([0.0])[:, 0]
        assert np.allclose(v, [1.0, np.sqrt(2), 0.0], atol=1e-15)

    def test_fourier_at_quarter(self):
        d = dictionaries.fourier(1)
        v = d.evaluate([0.25])[:, 0]
        # cos(pi/2) = 0, sin(pi/2) = 1
        assert np.allclose(v, [1.0, 0.0, np.sqrt(2)], atol=1e-15)

    def test_nan_state_rejected(self):
        d = dictionaries.fourier(1)
        with pytest.raises(DomainError):
            d.evaluate([0.1, np.nan])

    def test_batch_columns(self):
        d = dictionaries.monomial(2)
        out = d.evaluate([1.0, 2.0, 3.0])
        assert out.shape == (3, 3)
        assert np.allclose(out[:, 1], [1.0, 2.0, 4.0])

    @pytest.mark.parametrize(
        "d",
        [dictionaries.fourier(2), dictionaries.monomial(3),
         dictionaries.random_fourier(4, 1.0, 0)],
        ids=["fourier", "monomial", "rff"],
    )
    def test_scalar_states_as_column(self, d):
        # noisy-map and SDE samplers keep a state axis of length 1
        x = np.linspace(0.05, 0.95, 7)
        assert np.array_equal(d.evaluate(x[:, None]), d.evaluate(x))


class TestPhi:
    def test_phi_equals_norm_sq_on_random_states(self):
        d = dictionaries.random_fourier(10, 2.0, seed=7)
        phi = dictionaries.phi_function(d)
        g = np.random.Generator(np.random.Philox(0))
        xs = g.standard_normal(1000)
        vals = d.evaluate(xs)
        # same arithmetic as the norm of the feature columns
        assert np.array_equal(phi.evaluate(xs), np.sum(vals * vals, axis=0))

    def test_sup_bounds(self):
        assert dictionaries.phi_function(dictionaries.indicator(4)).sup_bound == 1.0
        assert dictionaries.phi_function(dictionaries.fourier(3)).sup_bound == 7.0
        assert dictionaries.phi_function(dictionaries.random_fourier(8, 1.0, 0)).sup_bound == 4.0


class TestOrthonormality:
    def test_fourier_exact_mass_is_identity(self, golden):
        from koopman_cert.galerkin import quadrature_gram_circle

        d = dictionaries.fourier(4)
        C = quadrature_gram_circle(golden, d).C
        assert np.max(np.abs(C - np.eye(d.size))) < 1e-10

    def test_indicator_mass_is_diag_pi(self, five_state_chain):
        from koopman_cert.variance import exact_reference_gram

        d = dictionaries.indicator(5)
        gram = exact_reference_gram(five_state_chain, d)
        assert np.allclose(gram.C, np.diag(five_state_chain.pi), atol=1e-14)


class TestIndependence:
    def test_indicator_independent_not_strong(self, five_state_chain):
        d = dictionaries.indicator(5)
        level = check_mu_linear_independence(d, five_state_chain)
        assert level is IndependenceLevel.INDEPENDENT

    def test_duplicate_observable_dependent(self, two_state_chain):
        base = dictionaries.indicator(2)

        def dup_eval(states):
            v = base.evaluate(states)
            return np.vstack([v[0], v[0]])

        d = dictionaries.Dictionary(2, base.kind, dup_eval)
        level = check_mu_linear_independence(d, two_state_chain)
        assert level is IndependenceLevel.DEPENDENT

    def test_fourier_strongly_independent(self, golden):
        d = dictionaries.fourier(2)
        level = check_mu_linear_independence(d, golden)
        assert level is IndependenceLevel.STRONGLY_INDEPENDENT
        # zero-set scan: random combinations vanish on a negligible grid share
        g = np.random.Generator(np.random.Philox(5))
        grid = np.arange(20000) / 20000
        vals = d.evaluate(grid)
        for _ in range(20):
            lam = g.standard_normal(d.size)
            lam /= np.linalg.norm(lam)
            frac = np.mean(np.abs(lam @ vals) < 1e-12)
            assert frac < 1e-3

    def test_single_nonvanishing_observable_strong(self, two_state_chain):
        d = dictionaries.monomial(0)  # just the constant
        level = check_mu_linear_independence(d, two_state_chain)
        assert level is IndependenceLevel.STRONGLY_INDEPENDENT


class TestRandomFourier:
    def test_reproducible_frequencies(self):
        d1 = dictionaries.random_fourier(6, 1.5, seed=9)
        d2 = dictionaries.random_fourier(6, 1.5, seed=9)
        assert np.array_equal(d1.metadata["frequencies"], d2.metadata["frequencies"])
        xs = np.linspace(-1, 1, 17)
        assert np.array_equal(d1.evaluate(xs), d2.evaluate(xs))
