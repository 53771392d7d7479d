import numpy as np
import pytest

from koopman_cert import config, dictionaries, galerkin, rng, systems
from koopman_cert.errors import (ConfigError, DomainError, NonErgodicChain, NumericalError,
                                 UnsupportedSystem)

from conftest import golden_rotation


class TestInvariantMeasure:
    def test_reducible_identity_raises(self):
        sys = systems.FiniteMarkovSystem(np.eye(2))
        with pytest.raises(NonErgodicChain):
            sys.pi

    def test_two_state_symmetric(self):
        sys = systems.FiniteMarkovSystem(np.array([[0.7, 0.3], [0.3, 0.7]]))
        pi = sys.pi
        # eigenvector oracle: stationary left eigenvector of P for eigenvalue 1
        w, v = np.linalg.eig(sys.transition.T)
        vec = np.real(v[:, np.argmin(np.abs(w - 1))])
        vec /= vec.sum()
        assert np.allclose(pi, [0.5, 0.5], atol=1e-12)
        assert np.allclose(pi, vec, atol=1e-10)

    def test_periodic_chain_raises(self):
        sys = systems.FiniteMarkovSystem(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert not sys.is_ergodic
        with pytest.raises(NonErgodicChain):
            sys.pi

    def test_invariance_identity(self, five_state_chain):
        pi = five_state_chain.pi
        # integral of rho(x, {j}) d pi equals pi({j}) for every singleton
        assert np.max(np.abs(pi @ five_state_chain.transition - pi)) < 1e-10
        assert np.all(pi > 0)
        assert abs(pi.sum() - 1.0) < 1e-12

    def test_non_stochastic_rejected(self):
        with pytest.raises(ConfigError):
            systems.FiniteMarkovSystem(np.array([[0.5, 0.4], [0.3, 0.7]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ConfigError):
            systems.FiniteMarkovSystem(np.array([[bad, 1.0], [0.5, 0.5]]))


def _cycles_chain(n, edges):
    """Uniform transitions over the given directed edges."""
    A = np.zeros((n, n))
    for i, j in edges:
        A[i, j] = 1.0
    return systems.FiniteMarkovSystem(A / A.sum(axis=1, keepdims=True))


class TestConnectivityAndPeriod:
    def test_period_three_cycle(self):
        sys = _cycles_chain(3, [(0, 1), (1, 2), (2, 0)])
        assert sys._irreducible
        assert not sys.is_ergodic

    def test_two_and_three_cycles_sharing_a_state(self):
        # cycle lengths 2 and 3 through state 0: gcd 1, aperiodic
        sys = _cycles_chain(4, [(0, 1), (1, 0), (0, 2), (2, 3), (3, 0)])
        assert sys._irreducible
        assert sys.is_ergodic
        assert np.allclose(sys.pi @ sys.transition, sys.pi, atol=1e-12)

    def test_transient_state_reducible(self):
        # state 0 leaves for the closed class {1, 2} and never returns
        sys = _cycles_chain(3, [(0, 1), (1, 2), (2, 1), (2, 2)])
        assert not sys._irreducible
        assert not sys.is_ergodic

    def test_one_state_chain(self):
        sys = systems.FiniteMarkovSystem(np.array([[1.0]]))
        assert sys._irreducible
        assert sys.is_ergodic
        assert np.array_equal(sys.pi, [1.0])

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_networkx_on_sparse_supports(self, seed):
        nx = pytest.importorskip("networkx")
        g = np.random.default_rng(seed)
        n = int(g.integers(1, 9))
        support = g.random((n, n)) < g.uniform(0.1, 0.5)
        support[np.arange(n), g.integers(0, n, n)] = True  # no empty rows
        sys = systems.FiniteMarkovSystem(support / support.sum(axis=1, keepdims=True))
        graph = nx.DiGraph(list(zip(*np.nonzero(support))))
        graph.add_nodes_from(range(n))
        strongly = nx.is_strongly_connected(graph)
        assert sys._irreducible == strongly
        assert sys.is_ergodic == (strongly and nx.is_aperiodic(graph))


class TestKoopmanMatrix:
    def test_constant_fixed_point(self, five_state_chain):
        K = five_state_chain.transition
        one = np.ones(5)
        assert np.allclose(K @ one, one, atol=1e-12)

    def test_two_state_eigenvalues(self, two_state_chain):
        K = two_state_chain.transition
        lam = np.sort(np.linalg.eigvals(K).real)
        # 2x2 characteristic polynomial roots: 1 and 1 - p - q
        assert np.allclose(lam, [0.4, 1.0], atol=1e-12)

    def test_state_of_no_float_invariant_mass_fails_numerically(self):
        # irreducible, but solving for pi leaves state 1 a mass of exactly 0
        sys = systems.FiniteMarkovSystem([[1.0, 1.4e-45], [1.0, 0.0]])
        assert sys.pi[1] == 0.0
        with pytest.raises(NumericalError):
            sys.koopman_space(dictionaries.indicator(2))

    def test_doubly_stochastic_reversible_self_adjoint(self):
        P = np.array([[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]])
        sys = systems.FiniteMarkovSystem(P)
        # detailed-balance oracle
        pi = sys.pi
        flux = pi[:, None] * P
        assert np.allclose(flux, flux.T, atol=1e-12)
        assert np.max(np.abs(flux - flux.T)) <= 1e-10
        # pi-self-adjoint: <Kf, g>_pi = <f, Kg>_pi for basis functions
        for i in range(3):
            for j in range(3):
                f = np.eye(3)[i]
                g = np.eye(3)[j]
                lhs = np.sum(pi * (P @ f) * g)
                rhs = np.sum(pi * f * (P @ g))
                assert abs(lhs - rhs) < 1e-12


class TestErgodicSampling:
    def test_single_step(self, two_state_chain):
        pairs = systems.sample_ergodic(two_state_chain, 1, seed=0)
        assert pairs.m == 1
        assert pairs.regime is systems.Regime.ERGODIC

    def test_trajectory_stitches(self, five_state_chain):
        pairs = systems.sample_ergodic(five_state_chain, 50, seed=1)
        assert np.array_equal(pairs.ys[:-1], pairs.xs[1:])

    def test_reproducible_bit_for_bit(self, five_state_chain):
        a = systems.sample_ergodic(five_state_chain, 100, seed=42)
        b = systems.sample_ergodic(five_state_chain, 100, seed=42)
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
        c = systems.sample_ergodic(five_state_chain, 100, seed=43)
        assert not np.array_equal(a.xs, c.xs)

    def test_empirical_occupation_clt(self, two_state_chain):
        m = 10**6
        pairs = systems.sample_ergodic(two_state_chain, m, seed=2)
        frac0 = np.mean(pairs.xs == 0)
        # CLT band around the exact invariant mass of state 0
        assert abs(frac0 - 0.5) < 3 * 0.5 / 10**3

    def test_circle_rotation_increments(self, golden):
        pairs = systems.sample_ergodic(golden, 5, seed=3)
        inc = np.mod(pairs.ys - pairs.xs, 1.0)
        assert np.allclose(inc, golden.t0, atol=1e-12)

    def test_nonergodic_raises(self):
        sys = systems.FiniteMarkovSystem(np.eye(3))
        with pytest.raises(NonErgodicChain):
            systems.sample_ergodic(sys, 10, seed=0)


def _noisy_linear(A):
    A = np.asarray(A)
    return systems.NoisyMapSystem(lambda x: x @ A.T,
                                  lambda g, shape: 0.1 * g.standard_normal(shape), len(A))


OU = {"type": "sde", "model": "ornstein_uhlenbeck", "rate": 10.0, "lag": 0.1,
      "integrator_dt": 0.01}


# one system per class; the noisy maps and the SDE built here carry no
# law, so they have no i.i.d. start law
SAMPLED = {
    "chain": lambda: systems.FiniteMarkovSystem(
        [[0.5, 0.2, 0.3], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]]),
    "circle": golden_rotation,
    "noisy_map_1d": lambda: _noisy_linear([[0.6]]),
    "noisy_map_2d": lambda: _noisy_linear([[0.5, 0.1], [0.0, 0.4]]),
    "sde": lambda: systems.SdeSystem(lambda x: -x, lambda x: 0.5 * np.ones_like(x), 1,
                                     lag=0.1, integrator_dt=0.02),
    "ou_law": lambda: config.system_from_config(OU),
    "linear_law": lambda: config.system_from_config(_linear_1d(0.6, 0.1)),
}
LAWLESS = {"noisy_map_1d", "noisy_map_2d", "sde"}


class TestOneSamplerPerRegime:
    """sample_ergodic and sample_iid are trial 0 of the batched samplers."""

    @pytest.mark.parametrize("kind", sorted(SAMPLED))
    @pytest.mark.parametrize("m, seed", [(1, 0), (17, 5)])
    def test_ergodic_is_chunk_row_zero(self, kind, m, seed):
        sys = SAMPLED[kind]()
        pairs = systems.sample_ergodic(sys, m, seed=seed)
        block = systems.ergodic_chunk(sys, m, seed, 0, 1)
        assert block.shape[:2] == (1, m + 1)
        assert np.array_equal(pairs.xs, block[0, :m])
        assert np.array_equal(pairs.ys, block[0, 1:])
        assert pairs.regime is systems.Regime.ERGODIC and pairs.m == m

    @pytest.mark.parametrize("kind", sorted(SAMPLED))
    @pytest.mark.parametrize("m, seed", [(1, 0), (17, 5)])
    def test_iid_is_chunk_row_zero(self, kind, m, seed):
        # every pair set starts from the system's initial law, so a chunk's
        # xs are one initial_law draw of count * m on its stream, and a
        # system without one has no i.i.d. pairs
        sys = SAMPLED[kind]()
        if kind in LAWLESS:
            with pytest.raises(UnsupportedSystem):
                systems.iid_chunk(sys, m, seed, 1, 3)
            with pytest.raises(UnsupportedSystem):
                systems.sample_iid(sys, m, seed=seed)
            return
        pairs = systems.sample_iid(sys, m, seed=seed)
        xs, ys = systems.iid_chunk(sys, m, seed, 1, 1)
        assert np.array_equal(pairs.xs, xs[0]) and np.array_equal(pairs.ys, ys[0])
        assert pairs.regime is systems.Regime.IID and pairs.m == m
        xs, ys = systems.iid_chunk(sys, m, seed, 2, 3)
        law = sys.initial_law()(rng.stream(seed, 2), 3 * m)
        assert xs.shape == ys.shape == (3, m) + law.shape[1:]
        assert np.array_equal(xs, law.reshape(xs.shape))
        if kind == "circle":
            assert np.array_equal(ys, np.mod(xs + sys.t0, 1.0))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_noisy_map_chunk_keeps_state_axis(self, dim):
        sys = _noisy_linear(0.5 * np.eye(dim))
        block = systems.ergodic_chunk(sys, 6, 3, 0, 4)
        assert block.shape == (4, 7, dim)
        # trials draw from one stream but are distinct trajectories
        assert not np.array_equal(block[0], block[1])

    def test_m_must_be_positive(self, two_state_chain):
        with pytest.raises(ConfigError):
            systems.sample_ergodic(two_state_chain, 0)
        with pytest.raises(ConfigError):
            systems.sample_iid(two_state_chain, 0)


class TestIidSampling:
    def test_joint_law(self, two_state_chain):
        m = 10**5
        pairs = systems.sample_iid(two_state_chain, m, seed=4)
        P = two_state_chain.transition
        pi = two_state_chain.pi
        for i in range(2):
            for j in range(2):
                emp = np.mean((pairs.xs == i) & (pairs.ys == j))
                assert abs(emp - pi[i] * P[i, j]) < 0.01

    def test_permutation_invariance_of_grams(self, two_state_chain, indicator2):
        from koopman_cert.edmd import empirical_gram

        pairs = systems.sample_iid(two_state_chain, 200, seed=5)
        perm = np.random.Generator(np.random.Philox(1)).permutation(200)
        shuffled = systems.SamplePairs(
            pairs.xs[perm], pairs.ys[perm], pairs.regime, pairs.seed
        )
        g1 = empirical_gram(indicator2, pairs)
        g2 = empirical_gram(indicator2, shuffled)
        assert np.allclose(g1.C, g2.C, atol=1e-15)
        assert np.allclose(g1.Cplus, g2.Cplus, atol=1e-15)


class TestContraction:
    def test_mean_zero_operator_norm_at_most_one(self, five_state_chain):
        from koopman_cert.variance import build_rep
        from koopman_cert import dictionaries

        rep = build_rep(five_state_chain, dictionaries.indicator(5))
        # largest singular value of the weighted symmetrization
        s = np.linalg.svd(rep.M, compute_uv=False)
        assert s[0] <= 1.0 + 1e-12


class TestCirclePreservesMeasure:
    def test_mass_matrix_invariant_under_composition(self, golden):
        d = dictionaries.fourier(2)
        # exact C for the Fourier dictionary is the identity (orthonormality)
        gram = galerkin.quadrature_gram_circle(golden, d)
        assert np.allclose(gram.C, np.eye(d.size), atol=1e-10)
        # C computed after composing every observable with T stays the same

        class Composed:
            size = d.size
            kind = d.kind
            metadata = d.metadata

            @staticmethod
            def evaluate(states):
                return d.evaluate(np.mod(np.asarray(states) + golden.t0, 1.0))

        gram2 = galerkin.quadrature_gram_circle(golden, Composed())
        assert np.allclose(gram2.C, gram.C, atol=1e-10)


class TestNoisyMapAndSde:
    def test_zero_noise_equals_deterministic_orbit(self):
        # the logistic map, not the tent map: a float tent orbit reaches 0
        # within about 55 steps, inside the burn-in
        def logistic(x):
            return 3.9 * x * (1.0 - x)

        sysA = systems.NoisyMapSystem(logistic, lambda g, s: np.zeros(s), 1, x0=[0.2])
        a = systems.sample_ergodic(sysA, 20, seed=0)
        x = np.array([0.2])
        for _ in range(systems._BURN_IN):  # the sampler's burn-in
            x = logistic(x)
        expect = [x.copy()]
        for _ in range(20):
            x = logistic(x)
            expect.append(x.copy())
        expect = np.array(expect)
        assert np.array_equal(a.xs[:, 0], expect[:20, 0])
        assert np.array_equal(a.ys[:, 0], expect[1:, 0])

    @pytest.mark.parametrize("x0, m, lag", [(2.0**1000, 4, 24), (1.0, 1000, 1024)],
                             ids=["burn_in", "kept"])
    def test_first_non_finite_lag_named(self, x0, m, lag):
        # x -> 2x from x0 = 2^e first overflows at lag 1024 - e: inside the
        # burn-in of 100 lags from 2^1000, among the kept lags 100..1100
        # from 1 at m = 1000
        assert systems._BURN_IN == 100
        sys = systems.NoisyMapSystem(lambda x: 2.0 * x, lambda g, s: np.zeros(s), 1,
                                     x0=[x0])
        with np.errstate(over="ignore"):
            with pytest.raises(DomainError, match=rf"lag {lag};"):
                systems.ergodic_chunk(sys, m, 0, 0, 3)

    def test_non_finite_start_is_lag_zero(self):
        sys = systems.NoisyMapSystem(lambda x: x, lambda g, s: np.zeros(s), 1,
                                     x0=[np.nan])
        with pytest.raises(DomainError, match=r"lag 0;"):
            systems.sample_ergodic(sys, 4, seed=0)

    def test_sde_substep_count(self):
        calls = {"n": 0}

        def drift(x):
            calls["n"] += 1
            return -x

        sde = systems.SdeSystem(drift, lambda x: np.ones_like(x), 1, lag=0.5,
                                integrator_dt=0.1)
        assert sde.substeps == 5
        gen = np.random.Generator(np.random.Philox(0))
        sde.step(np.zeros((1, 1)), gen)
        assert calls["n"] == 5

    def test_sde_invalid_lag_ratio(self):
        with pytest.raises(ConfigError):
            systems.SdeSystem(lambda x: -x, lambda x: np.ones_like(x), 1,
                              lag=0.5, integrator_dt=0.3)


def _linear_1d(a, sigma):
    return {"type": "noisy_map", "map": {"name": "linear", "matrix": [[a]]},
            "noise_sigma": sigma}


class TestGaussianAR1:
    """OU under Euler-Maruyama and the 1-d linear noisy map are exactly
    Gaussian AR(1) chains, sampled from that law."""

    @pytest.mark.parametrize("cfg, rho, v", [
        (OU, 0.9**10, 0.01 / (1 - 0.81)),
        (dict(OU, sigma=0.5, state_dim=2), 0.9**10, 0.25 * 0.01 / (1 - 0.81)),
        (_linear_1d(0.6, 0.1), 0.6, 0.01 / (1 - 0.36)),
        (_linear_1d(-0.5, 1.0), -0.5, 1 / (1 - 0.25)),
    ], ids=["ou", "ou_2d", "linear", "linear_negative"])
    def test_config_attaches_law(self, cfg, rho, v):
        law = config.system_from_config(cfg).law
        assert law.rho == pytest.approx(rho, rel=1e-12)
        assert law.v == pytest.approx(v, rel=1e-12)

    @pytest.mark.parametrize("cfg", [
        {"type": "sde", "model": "double_well"},
        dict(OU, sigma=0.0),
        dict(OU, rate=200.0),  # a = 1 - rate dt = -1
        _linear_1d(1.0, 0.1),
        _linear_1d(0.5, 0.0),
        {"type": "noisy_map", "noise_sigma": 0.1,
         "map": {"name": "linear", "matrix": [[0.5, 0.0], [0.0, 0.5]]}},
        {"type": "noisy_map", "noise_sigma": 0.1, "map": {"name": "logistic"}},
    ], ids=["double_well", "ou_no_noise", "ou_a_minus_one", "linear_unit_root",
            "linear_no_noise", "linear_2d", "logistic"])
    def test_no_law(self, cfg):
        assert config.system_from_config(cfg).law is None

    @pytest.mark.parametrize("cfg", [OU, _linear_1d(-0.5, 1.0)], ids=["ou", "linear"])
    @pytest.mark.parametrize("k", [0, 4])
    def test_pair_moments(self, cfg, k):
        # (x_k, x_{k+1}) across independent trials: mean 0, variance v and
        # lag-1 covariance rho v, each within 3 standard errors
        sys = config.system_from_config(cfg)
        law = sys.law
        traj = systems.ergodic_chunk(sys, 5, 11, 0, 20000)
        assert traj.shape == (20000, 6, 1)
        x, y = traj[:, k, 0], traj[:, k + 1, 0]
        for sample, want in ((x, 0.0), (x * x, law.v), (x * y, law.rho * law.v)):
            se = sample.std(ddof=1) / np.sqrt(len(sample))
            assert abs(sample.mean() - want) <= 3 * se, (sample.mean(), want, se)

    def test_iid_pairs_from_the_law_in_one_block(self):
        # x ~ N(0, v) from the initial law, then y = rho x + sqrt(v (1 - rho^2)) xi
        sys = config.system_from_config(dict(OU, state_dim=2))
        law = sys.law
        xs, ys = systems.iid_chunk(sys, 3, 5, 2, 4)
        gen = rng.stream(5, 2)
        x = np.sqrt(law.v) * gen.standard_normal((12, 2))
        y = law.rho * x + np.sqrt(law.v * (1 - law.rho**2)) * gen.standard_normal((12, 2))
        assert np.array_equal(xs, x.reshape(4, 3, 2))
        assert np.array_equal(ys, y.reshape(4, 3, 2))

    def test_no_burn_in_and_one_block_per_lag(self):
        # x_0 ~ N(0, v), then one (count, state_dim) Gaussian block per lag
        sys = config.system_from_config(dict(OU, state_dim=2))
        law = sys.law
        traj = systems.ergodic_chunk(sys, 3, 5, 2, 4)
        gen = rng.stream(5, 2)
        x = np.sqrt(law.v) * gen.standard_normal((4, 2))
        expect = [x]
        for _ in range(3):
            x = law.rho * x + np.sqrt(law.v * (1 - law.rho**2)) * gen.standard_normal((4, 2))
            expect.append(x)
        assert np.array_equal(traj, np.stack(expect, axis=1))


class TestQuadraticIrrational:
    def test_golden_value(self):
        q = systems.QuadraticIrrational(-1, 1, 2, 5)
        assert abs(q.value() - (np.sqrt(5) - 1) / 2) < 1e-15

    def test_square_d_rejected(self):
        with pytest.raises(ConfigError):
            systems.QuadraticIrrational(0, 1, 1, 4)


class TestSystemProtocol:
    """A system without an i.i.d. start law or an exact space says so."""

    @pytest.mark.parametrize("cfg", [
        {"type": "sde", "model": "double_well"},
        {"type": "noisy_map", "noise_sigma": 0.1, "map": {"name": "logistic"}},
    ], ids=["double_well", "logistic"])
    def test_unsupported(self, cfg):
        sys = config.system_from_config(cfg)
        with pytest.raises(UnsupportedSystem):
            sys.initial_law()
        with pytest.raises(UnsupportedSystem):
            sys.koopman_space(dictionaries.monomial(2))
