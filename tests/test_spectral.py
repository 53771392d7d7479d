import numpy as np
import pytest

from koopman_cert import dictionaries, spectral, variance
from koopman_cert.errors import ConfigError, NotMeanZero, NotUnitary

from conftest import arc_mass, ergodic_average_sq_norm, weighted_l2_check


@pytest.fixture
def golden_rep(golden):
    return variance.build_rep(golden, dictionaries.fourier(2))


class TestSpectralMeasure:
    def test_complex_single_mode_single_atom(self, golden, golden_rep):
        # z^1 as a complex coefficient vector: (c_1 + i s_1)/sqrt2
        f = np.zeros(golden_rep.dim, dtype=complex)
        f[1] = 1.0 / np.sqrt(2.0)
        f[2] = 1.0j / np.sqrt(2.0)
        meas = spectral.spectral_measure(golden_rep, f)
        assert len(meas.atoms) == 1
        t, w = meas.atoms[0]
        expected_t = ((golden.t0 + 0.5) % 1.0) - 0.5
        assert abs(t - expected_t) < 1e-12
        assert abs(w - 1.0) < 1e-12  # weight ||f||^2 = 1

    def test_real_mode_splits_into_conjugate_atoms(self, golden, golden_rep):
        f = np.zeros(golden_rep.dim)
        f[1] = 1.0
        meas = spectral.spectral_measure(golden_rep, f)
        assert len(meas.atoms) == 2
        ts = sorted(t for t, _ in meas.atoms)
        r = abs(variance.wrap_angle(golden.t0))
        assert np.allclose(ts, [-r, r], atol=1e-12)
        assert np.allclose([w for _, w in meas.atoms], 0.5, atol=1e-12)

    def test_zero_function_empty(self, golden_rep):
        meas = spectral.spectral_measure(golden_rep, np.zeros(golden_rep.dim))
        assert meas.atoms == []
        assert meas.total_mass == 0.0

    def test_two_modes_two_atoms(self, golden, golden_rep):
        f = np.zeros(golden_rep.dim, dtype=complex)
        f[1] = 1.0 / np.sqrt(2.0)
        f[2] = 1.0j / np.sqrt(2.0)  # z^1
        f[3] = 1.0 / np.sqrt(2.0)
        f[4] = 1.0j / np.sqrt(2.0)  # z^2
        meas = spectral.spectral_measure(golden_rep, f)
        assert len(meas.atoms) == 2
        radii = sorted(abs(t) for t, _ in meas.atoms)
        expect = sorted(
            [abs(variance.wrap_angle(golden.t0)), abs(variance.wrap_angle(2 * golden.t0))]
        )
        assert np.allclose(radii, expect, atol=1e-12)
        assert np.allclose([w for _, w in meas.atoms], 1.0, atol=1e-12)

    def test_mean_component_rejected(self, golden_rep):
        f = np.zeros(golden_rep.dim)
        f[0] = 0.5
        f[1] = 1.0
        with pytest.raises(NotMeanZero):
            spectral.spectral_measure(golden_rep, f)

    def test_chain_rep_not_unitary(self, two_state_chain, indicator2):
        rep = variance.build_rep(two_state_chain, indicator2)
        with pytest.raises(NotUnitary):
            spectral.spectral_measure(rep, np.array([0.5, -0.5]))

    def test_parseval_random_vectors(self, golden_rep):
        g = np.random.Generator(np.random.Philox(8))
        for _ in range(100):
            f = g.standard_normal(golden_rep.dim)
            f[0] = 0.0  # mean-zero
            meas = spectral.spectral_measure(golden_rep, f)
            qnorm = golden_rep.norm_sq(golden_rep.project_zero(f))
            assert abs(meas.total_mass - qnorm) < 1e-10

    def test_sorted_by_radius(self, golden_rep):
        g = np.random.Generator(np.random.Philox(9))
        f = g.standard_normal(golden_rep.dim)
        f[0] = 0.0
        meas = spectral.spectral_measure(golden_rep, f)
        radii = [abs(t) for t, _ in meas.atoms]
        assert radii == sorted(radii)


class TestArcMass:
    def _measure(self):
        return spectral.SpectralMeasure([(0.3, 2.0), (-0.45, 1.0)], 3.0)

    def test_whole_circle(self):
        assert arc_mass(self._measure(), 0.5) == 3.0

    def test_empty_arc(self):
        assert arc_mass(self._measure(), 0.2) == 0.0

    def test_monotone(self, golden_rep):
        g = np.random.Generator(np.random.Philox(10))
        f = g.standard_normal(golden_rep.dim)
        f[0] = 0.0
        meas = spectral.spectral_measure(golden_rep, f)
        gammas = np.linspace(0.01, 0.5, 50)
        masses = [arc_mass(meas, gam) for gam in gammas]
        assert all(a <= b + 1e-15 for a, b in zip(masses, masses[1:]))

    def test_gamma_range_checked(self):
        with pytest.raises(ConfigError):
            arc_mass(self._measure(), 0.0)
        with pytest.raises(ConfigError):
            arc_mass(self._measure(), 0.6)

    def test_thin_arc_for_golden_products(self, golden):
        # smallest wrapped |k t0| over represented k decides the cutoff
        radii = [abs(variance.wrap_angle(k * golden.t0)) for k in range(1, 5)]
        theta = 0.9 * min(radii)
        rep = variance.build_rep(golden, dictionaries.fourier(1))
        fam = rep.family
        f = rep.project_zero(fam["psi_ij"][1, 1])
        meas = spectral.spectral_measure(rep, f)
        assert arc_mass(meas, theta) == 0.0


class TestCertifyThinMeasure:
    def test_empty_measure_exact(self):
        meas = spectral.SpectralMeasure([], 0.0)
        cert = spectral.certify_thin_measure(meas, 1.5, 0.3)
        assert cert.exact and cert.kappa == 0.0

    def test_single_atom_formula(self):
        theta = 0.3
        w = 0.7
        meas = spectral.SpectralMeasure([(theta / 2, w)], w)
        for alpha in [0.5, 1.0, 1.5]:
            cert = spectral.certify_thin_measure(meas, alpha, theta)
            assert not cert.exact
            assert abs(cert.kappa - (theta / 2) ** (-alpha)) < 1e-12

    def test_atom_at_zero_infinite(self):
        meas = spectral.SpectralMeasure([(0.0, 1.0)], 1.0)
        cert = spectral.certify_thin_measure(meas, 1.5, 0.3)
        assert cert.kappa == float("inf")

    def test_trig_polynomials_exact_for_small_theta(self, golden):
        rep = variance.build_rep(golden, dictionaries.fourier(1))
        cert = spectral.certify_family(rep, alpha=1.5, theta=0.2)
        assert cert.exact and cert.kappa == 0.0

    def test_certificate_validates_decay(self, golden_rep):
        # certified kappa makes the arc inequality hold on a dense gamma grid
        g = np.random.Generator(np.random.Philox(12))
        f = g.standard_normal(golden_rep.dim)
        f[0] = 0.0
        meas = spectral.spectral_measure(golden_rep, f)
        theta, alpha = 0.45, 1.5
        cert = spectral.certify_thin_measure(meas, alpha, theta)
        mass_theta = arc_mass(meas, theta)
        for gam in np.linspace(1e-3, theta, 300):
            assert arc_mass(meas, gam) <= cert.kappa * mass_theta * gam**alpha + 1e-12


class TestWeightedL2:
    def test_single_atom(self):
        meas = spectral.SpectralMeasure([(0.25, 1.0)], 1.0)
        S, kappa_bound = weighted_l2_check(meas, 1.0)
        assert abs(S - 4.0) < 1e-12
        assert abs(kappa_bound - 4.0) < 1e-12

    def test_atom_at_zero_reports_infinity(self):
        meas = spectral.SpectralMeasure([(0.0, 0.5), (0.3, 0.5)], 1.0)
        S, _ = weighted_l2_check(meas, 1.5)
        assert S == float("inf")

    def test_dominates_exact_sup_when_theta_covers_atoms(self, golden_rep):
        # valid whenever S_theta carries the full mass; smaller theta can
        # invert the comparison (the normalizing arc mass shrinks)
        g = np.random.Generator(np.random.Philox(13))
        for _ in range(20):
            f = g.standard_normal(golden_rep.dim)
            f[0] = 0.0
            meas = spectral.spectral_measure(golden_rep, f)
            alpha = 1.5
            _, kappa_bound = weighted_l2_check(meas, alpha)
            theta = min(0.49, max(abs(t) for t, _ in meas.atoms) + 1e-6)
            cert = spectral.certify_thin_measure(meas, alpha, theta)
            assert kappa_bound >= cert.kappa - 1e-9


class TestMeanErgodicDecay:
    def test_exact_certificate_quadratic_decay(self, golden):
        # zero arc mass within theta forces the two-over-(1-cos) m^-2 envelope
        rep = variance.build_rep(golden, dictionaries.fourier(1))
        fam = rep.family
        theta = 0.2
        cert = spectral.certify_family(rep, alpha=1.5, theta=theta)
        assert cert.exact
        bound_const = 2.0 / (1.0 - np.cos(2.0 * np.pi * theta))
        for stack in (fam["psi_ij"], fam["g_ij"]):
            for i in range(stack.shape[0]):
                for j in range(stack.shape[1]):
                    f = rep.project_zero(stack[i, j])
                    nrm = rep.norm_sq(f)
                    if nrm < 1e-28:
                        continue
                    for m in [10, 100, 1000]:
                        avg = ergodic_average_sq_norm(rep, f, m)
                        assert avg <= bound_const * nrm / m**2 + 1e-15
