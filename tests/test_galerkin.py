import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopman_cert import dictionaries, edmd, galerkin, studies, systems, variance
from koopman_cert.errors import NumericalError, SingularEmpiricalMass, SingularMass

from conftest import IndependenceLevel, check_mu_linear_independence


class TestExactGram:
    def test_two_state_indicator_by_hand(self, two_state_chain, indicator2):
        gram = variance.exact_reference_gram(two_state_chain, indicator2)
        # C[i][j] = pi(i) delta_ij, C+[i][j] = pi(i) P(i,j)
        assert np.allclose(gram.C, np.diag([0.5, 0.5]), atol=1e-15)
        assert np.allclose(gram.Cplus, [[0.35, 0.15], [0.15, 0.35]], atol=1e-15)

    def test_indicator_recovers_transition(self, two_state_chain, indicator2):
        gram = variance.exact_reference_gram(two_state_chain, indicator2)
        kv = galerkin.galerkin_matrix(gram)
        assert np.allclose(kv.KV, two_state_chain.transition, atol=1e-12)

    def test_constant_dictionary(self, five_state_chain):
        d = dictionaries.monomial(0)
        gram = variance.exact_reference_gram(five_state_chain, d)
        assert np.allclose(gram.C, [[1.0]], atol=1e-14)
        assert np.allclose(gram.Cplus, [[1.0]], atol=1e-14)
        assert np.allclose(galerkin.galerkin_matrix(gram).KV, [[1.0]], atol=1e-14)

    def test_singular_mass_raises(self, two_state_chain):
        base = dictionaries.indicator(2)

        def dup_eval(states):
            v = base.evaluate(states)
            return np.vstack([v[0], v[0]])

        d = dictionaries.Dictionary(2, base.kind, dup_eval)
        with pytest.raises(SingularMass):
            variance.exact_reference_gram(two_state_chain, d)


class TestCircleGram:
    def test_constants_only(self):
        circ = systems.CircleRotationSystem(0.25)
        gram = variance.exact_reference_gram(circ, dictionaries.fourier(0))
        assert np.allclose(gram.C, [[1.0]])
        assert np.allclose(gram.Cplus, [[1.0]])

    def test_quarter_rotation_block(self):
        circ = systems.CircleRotationSystem(0.25)
        gram = variance.exact_reference_gram(circ, dictionaries.fourier(1))
        assert np.allclose(gram.Cplus[1:, 1:], [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)

    def test_galerkin_matrix_orthogonal(self, golden):
        d = dictionaries.fourier(3)
        kv = galerkin.galerkin_matrix(variance.exact_reference_gram(golden, d))
        assert np.max(np.abs(kv.KV.T @ kv.KV - np.eye(d.size))) < 1e-12

    def test_analytic_matches_quadrature(self, golden):
        d = dictionaries.fourier(2)
        g1 = variance.exact_reference_gram(golden, d)
        g2 = galerkin.quadrature_gram_circle(golden, d)
        assert np.max(np.abs(g1.C - g2.C)) < 1e-10
        assert np.max(np.abs(g1.Cplus - g2.Cplus)) < 1e-10

    def test_eigenvalues_on_unit_circle(self, golden):
        F = 2
        kv = galerkin.galerkin_matrix(
            variance.exact_reference_gram(golden, dictionaries.fourier(F))
        )
        lam = np.linalg.eigvals(kv.KV)
        assert np.max(np.abs(np.abs(lam) - 1.0)) < 1e-10
        expected = {1.0 + 0j}
        for k in range(1, F + 1):
            expected.add(np.exp(2j * np.pi * k * golden.t0))
            expected.add(np.exp(-2j * np.pi * k * golden.t0))
        for ev in lam:
            assert min(abs(ev - e) for e in expected) < 1e-10


class TestGramBlock:
    @pytest.mark.parametrize("B, m, N", [(1, 1, 1), (1, 7, 3), (4, 1, 5), (3, 50, 4),
                                         (2, 2201, 9)])
    def test_matches_naive_loop(self, B, m, N):
        g = np.random.default_rng(B * 1000 + m)
        x, y = g.standard_normal((B, m, N)), g.standard_normal((B, m, N))
        C, Cplus = galerkin.gram_block(x, y, m)
        assert C.shape == Cplus.shape == (B, N, N)
        for b in range(B):
            naive_C, naive_Cp = x[b].T @ x[b] / m, x[b].T @ y[b] / m
            scale = max(np.max(np.abs(naive_C)), 1.0)
            assert np.max(np.abs(C[b] - naive_C)) <= 1e-14 * scale
            assert np.max(np.abs(Cplus[b] - naive_Cp)) <= 1e-14 * scale

    def test_chat_exactly_symmetric(self):
        # a strided block, as the Monte-Carlo engine passes it
        psi = np.random.default_rng(1).standard_normal((5, 301, 6))
        C, _ = galerkin.gram_block(psi[:, :300], psi[:, 1:], 300)
        assert np.array_equal(C, np.swapaxes(C, 1, 2))

    def test_empirical_gram_is_row_zero(self, five_state_chain, monomial3):
        pairs = systems.sample_ergodic(five_state_chain, 40, seed=2)
        C, Cplus = galerkin.gram_block(monomial3.evaluate(pairs.xs).T[None],
                                       monomial3.evaluate(pairs.ys).T[None], 40)
        gram = edmd.empirical_gram(monomial3, pairs)
        assert np.array_equal(gram.C, C[0]) and np.array_equal(gram.Cplus, Cplus[0])

    @pytest.mark.parametrize("dictionary", [dictionaries.fourier(3),
                                            dictionaries.random_fourier(6, 0.5, 2)],
                             ids=["fourier", "rff"])
    def test_quadrature_matches_direct_formula(self, golden, dictionary):
        nodes = galerkin.QUADRATURE_NODES
        t = np.arange(nodes) / nodes
        vals = dictionary.evaluate(t)
        kvals = dictionary.evaluate(np.mod(t + golden.t0, 1.0))
        C = vals @ vals.T / nodes
        gram = galerkin.quadrature_gram_circle(golden, dictionary)
        assert np.max(np.abs(gram.C - 0.5 * (C + C.T))) <= 1e-14
        assert np.max(np.abs(gram.Cplus - vals @ kvals.T / nodes)) <= 1e-14


class TestGalerkinMatrix:
    def test_identity_mass_returns_stiffness(self):
        C = np.eye(3)
        Cplus = np.arange(9.0).reshape(3, 3) / 10
        kv = galerkin.galerkin_matrix(galerkin.GramPair(C, Cplus, galerkin.Provenance("exact")))
        assert np.allclose(kv.KV, Cplus)

    def test_joint_scaling_invariance(self, five_state_chain, monomial3):
        gram = variance.exact_reference_gram(five_state_chain, monomial3)
        kv = galerkin.galerkin_matrix(gram)
        scaled = galerkin.GramPair(4.0 * gram.C, 4.0 * gram.Cplus, gram.provenance)
        kv2 = galerkin.galerkin_matrix(scaled)
        assert np.allclose(kv.KV, kv2.KV, atol=1e-12)

    def test_residual_contract(self, five_state_chain, monomial3):
        gram = variance.exact_reference_gram(five_state_chain, monomial3)
        kv = galerkin.galerkin_matrix(gram)
        resid = np.linalg.norm(gram.C @ kv.KV - gram.Cplus)
        assert resid <= 1e-9 * np.linalg.norm(gram.Cplus)

    def test_constant_coordinate_fixed(self, five_state_chain, monomial3):
        # the constant function is psi_0, so K_V e_0 = e_0
        kv = galerkin.galerkin_matrix(variance.exact_reference_gram(five_state_chain, monomial3))
        e = np.zeros(3)
        e[0] = 1.0
        assert np.max(np.abs(kv.KV @ e - e)) < 1e-9

    def test_reversible_chain_real_spectrum_in_unit_interval(self):
        P = np.array([[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]])
        sys = systems.FiniteMarkovSystem(P)
        kv = galerkin.galerkin_matrix(variance.exact_reference_gram(sys, dictionaries.indicator(3)))
        lam = np.linalg.eigvals(kv.KV)
        assert np.max(np.abs(lam.imag)) < 1e-12
        assert np.all(lam.real <= 1 + 1e-12) and np.all(lam.real >= -1 - 1e-12)


class TestSerialization:
    def test_gram_roundtrip(self, two_state_chain, indicator2):
        gram = variance.exact_reference_gram(two_state_chain, indicator2)
        blob = json.dumps(gram.to_json_dict())
        back = json.loads(blob)
        assert np.array_equal(np.asarray(back["C"]), gram.C)
        assert np.array_equal(np.asarray(back["Cplus"]), gram.Cplus)
        assert back["provenance"]["kind"] == "exact"


class TestSingularityGate:
    """The exact Galerkin solve, the EDMD solve, the batched Monte-Carlo block
    and the independence check share one gate, so they agree on every mass
    matrix."""

    @pytest.mark.parametrize(
        "diag, singular",
        [((1.0, 1e-11), False), ((1.0, 1e-13), True), ((0.0, 0.0), True)],
        ids=["ratio_1e-11", "ratio_1e-13", "zeros"],
    )
    def test_call_sites_agree(self, two_state_chain, diag, singular):
        C = np.diag(diag)
        assert bool(galerkin.is_singular(C)) is singular

        def raises(fn, exc):
            try:
                fn()
            except exc:
                return True
            return False

        gram = galerkin.GramPair(C, C, galerkin.Provenance("exact"))
        verdicts = {
            "galerkin_matrix": raises(lambda: galerkin.galerkin_matrix(gram), SingularMass),
            "solve_khat": raises(lambda: edmd.solve_khat(C, C), SingularEmpiricalMass),
        }
        # one trial of m = 1 whose C_hat is diag(diag)
        psi = np.diag(np.sqrt(diag))[None]
        grams = galerkin.gram_block(psi, psi, 1)
        _, _, err_K = studies._gram_errors_block(*grams, studies.Reference(C, C, np.eye(2)))
        verdicts["_gram_errors_block"] = bool(np.isnan(err_K[0]))
        # pi = (1/2, 1/2), so the exact mass matrix is diag(diag)
        table = np.diag(np.sqrt(2.0 * np.asarray(diag)))
        d = dictionaries.Dictionary(2, dictionaries.DictionaryKind.MONOMIAL,
                                    lambda states: table[:, states])
        level = check_mu_linear_independence(d, two_state_chain)
        verdicts["check_mu_linear_independence"] = (
            level is IndependenceLevel.DEPENDENT
        )
        assert verdicts == dict.fromkeys(verdicts, singular)

    def test_stack_of_matrices(self):
        stack = np.stack([np.diag([1.0, 1e-11]), np.diag([1.0, 1e-13]), np.zeros((2, 2))])
        assert galerkin.is_singular(stack).tolist() == [False, True, True]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_in_a_stack_raises(self, bad):
        # one bad trial among regular ones has no verdict, and must not pass
        stack = np.stack([np.eye(3)] * 4)
        stack[2, 1, 0] = stack[2, 0, 1] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            galerkin.is_singular(stack)
        with pytest.raises(NumericalError, match="non-finite"):
            galerkin.is_singular(stack[2])

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.floats(0.0, 16.0),
           st.integers(-100, 100))
    def test_agrees_with_the_svd_criterion(self, n, seed, cond, exponent):
        """On symmetric stacks (PSD Grams of every rank, matrices of a drawn
        condition number, indefinite ones) the verdict equals s_min <=
        SINGULAR_RTOL s_max from the singular values, wherever s_min / s_max
        lies outside [1e-13, 1e-11], where round-off may decide either way."""
        gen = np.random.default_rng(seed)
        mats = []
        for rank in range(n + 1):
            X = gen.standard_normal((n, rank))
            mats.append(X @ X.T)
        Q = np.linalg.qr(gen.standard_normal((n, n)))[0]
        mats.append((Q * np.logspace(-cond, 0, n)) @ Q.T)
        S = gen.standard_normal((n, n))
        mats.append(S + S.T)
        stack = np.stack(mats) * 10.0**exponent
        stack = 0.5 * (stack + np.swapaxes(stack, 1, 2))
        s = np.linalg.svd(stack, compute_uv=False)
        svd_verdict = s[:, -1] <= galerkin.SINGULAR_RTOL * s[:, 0]
        ratio = np.divide(s[:, -1], s[:, 0], out=np.zeros(len(s)), where=s[:, 0] > 0)
        decided = (ratio < 1e-13) | (ratio > 1e-11)
        verdict = galerkin.is_singular(stack)
        assert np.array_equal(verdict[decided], svd_verdict[decided])
        for C, v, ok in zip(stack, verdict, decided):
            assert not ok or bool(galerkin.is_singular(C)) is bool(v)


class TestWeylPreGate:
    """`is_singular(stack, dist, weyl_radius(ref))` clears the trials near a
    well-conditioned reference by Weyl's inequality, with the verdicts of
    `is_singular(stack)`."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.floats(0.0, 16.0),
           st.integers(-200, 200))
    def test_verdicts_equal_the_batched_gate(self, n, seed, cond, exponent):
        """Around a reference of drawn condition number: trials moved toward
        singularity along its weakest eigenvector, so that s_min / s_max
        spans 1e-16..1 and the distance is what Weyl's inequality charges;
        trials moved in a random symmetric direction by distances on both
        sides of the margin's radius; and unrelated matrices of condition
        1..1e16.  Scales of 1e+-200 make the distances' squares underflow
        or overflow."""
        gen = np.random.default_rng(seed)
        Q = np.linalg.qr(gen.standard_normal((n, n)))[0]
        lam = np.logspace(-cond, 0, n)
        ref = (Q * lam) @ Q.T
        mats = [ref - (1.0 - 10.0**-k) * lam[0] * np.outer(Q[:, 0], Q[:, 0])
                for k in range(17)]
        radius = (lam[0] - galerkin.WEYL_MARGIN) / (1.0 + galerkin.WEYL_MARGIN)
        S = gen.standard_normal((n, n))
        S = (S + S.T) / np.linalg.norm(S + S.T)
        mats += [ref + f * (radius if radius > 0 else lam[0]) * S
                 for f in (1e-3, 0.5, 0.999, 1.001, 2.0, 1e3)]
        mats += [(Q * np.logspace(-k, 0, n)) @ Q.T for k in range(17)]
        scale = 10.0**exponent
        ref = 0.5 * (ref + ref.T) * scale
        stack = np.stack(mats) * scale
        stack = 0.5 * (stack + np.swapaxes(stack, 1, 2))
        with np.errstate(over="ignore"):
            dist = np.sqrt(np.sum((stack - ref) ** 2, axis=(1, 2)))
        verdict = galerkin.is_singular(stack, dist, galerkin.weyl_radius(ref))
        assert np.array_equal(verdict, galerkin.is_singular(stack))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_trial_raises_among_cleared_ones(self, eigvalsh_stacks, bad):
        C = np.diag([2.0, 1.0, 0.5])
        Chat = np.stack([C + 1e-3 * k * np.eye(3) for k in range(4)])
        ref = studies.Reference(C, C, np.eye(3))
        _, _, err_K = studies._gram_errors_block(Chat, Chat, ref)
        assert np.isfinite(err_K).all() and eigvalsh_stacks == []  # every trial cleared
        Chat[2, 1, 0] = Chat[2, 0, 1] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            studies._gram_errors_block(Chat, Chat, ref)
