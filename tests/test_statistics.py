"""Sampled sufficient statistics against the streamed Gram sums they replace.

Ergodic rotations with a Fourier dictionary form C_hat and C_hat_plus from
phase sums, and i.i.d. chain trials from multinomial transition counts.
The streamed `gram_block` sum over sampled states stays the naive
reference for both; past the m a streamed sum reaches, the phase means
meet a doubling recurrence on exactly reduced phases, and the phase Grams
meet the triple products over the Hankel matrix of the phase means.  Ergodic chain
trials tally their transition counts one time slice at a time; the counts
of their whole paths are the naive reference.
"""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from koopman_cert import dictionaries, galerkin, kernels, rng, studies, systems, variance
from koopman_cert.errors import NonErgodicChain

from conftest import draw_codes, golden_rotation, random_ergodic_chain

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _close(a, b, scale):
    return np.max(np.abs(a - b)) <= 1e-12 * scale


ANGLES = {
    "golden": golden_rotation(),
    "sqrt2": systems.CircleRotationSystem.from_quadratic(0, 1, 1, 2),
    "zero": systems.CircleRotationSystem(0.0),
    "half": systems.CircleRotationSystem(0.5),
    "third": systems.CircleRotationSystem(1.0 / 3.0),
}


class TestPhaseSums:
    @pytest.mark.parametrize("angle", sorted(ANGLES))
    @pytest.mark.parametrize("m", [1, 7, 2201])
    @pytest.mark.parametrize("F", range(5))
    def test_match_streamed_gram(self, angle, m, F):
        sys_ = ANGLES[angle]
        d = dictionaries.fourier(F)
        seed, chunk, count = 11, 2, 6
        paths = systems.ergodic_chunk(sys_, m, seed, chunk, count)
        psi = d.evaluate(paths.ravel()).T.reshape(count, m + 1, d.size)
        C, Cp = galerkin.gram_block(psi[:, :m], psi[:, 1:], m)
        # the same x0 as the streamed block
        x0 = rng.stream(seed, chunk).random(count)
        assert np.array_equal(x0, paths[:, 0])
        G = studies.rotation_phase_means(sys_.t0, m, 2 * F)
        C2, Cp2 = studies.phase_grams(d, sys_.t0, G, x0)
        scale = max(np.max(np.abs(C)), np.max(np.abs(Cp)))
        assert _close(C, C2, scale) and _close(Cp, Cp2, scale)
        assert np.array_equal(C2, np.swapaxes(C2, 1, 2))

    @pytest.mark.parametrize("angle", ["golden", "sqrt2", "third"])
    @pytest.mark.parametrize("rows", [1, 7, 1024])
    @pytest.mark.parametrize("F", range(9))
    def test_match_triple_product(self, angle, rows, F):
        t0 = ANGLES[angle].t0
        d = dictionaries.fourier(F)
        x0 = np.random.default_rng(rows + F).random(rows)
        for m in (1, 2201):
            G = studies.rotation_phase_means(t0, m, 2 * F)
            C, Cp = triple_product_grams(d, t0, G, x0)
            C2, Cp2 = studies.phase_grams(d, t0, G, x0)
            scale = max(np.max(np.abs(C)), np.max(np.abs(Cp)))
            assert np.max(np.abs(C - C2)) <= 1e-14 * scale
            assert np.max(np.abs(Cp - Cp2)) <= 1e-14 * scale

    @pytest.mark.parametrize("angle", ["golden", "sqrt2"])
    @pytest.mark.parametrize("m", [7, 2201, 10**5, 10**7, 10**9])
    def test_match_doubling_recurrence(self, angle, m):
        t0 = ANGLES[angle].t0
        G = studies.rotation_phase_means(t0, m, 16)
        assert np.max(np.abs(G - doubling_phase_means(t0, m, 16))) <= 1e-13


def triple_product_grams(dictionary, t0, G, x0):
    """`phase_grams` as two batched triple products: with D(q) = e^{2 pi i q
    x0} G(q), q = -2F..2F, and the Hankel matrix H[a, b] = D(a + b - 2F),
    C_hat = Re(A H A^T) (symmetrised) and C_hat_plus = Re(A H diag(e^{2 pi i
    (b-F) t0}) A^T)."""
    F = (len(G) - 1) // 2
    D = np.exp(2j * np.pi * np.outer(x0, np.arange(2 * F + 1))) * G
    D = np.concatenate([np.conj(D[:, :0:-1]), D], axis=1)
    i = np.arange(2 * F + 1)
    H = D[:, i[:, None] + i[None, :]]
    A = studies._fourier_modes(dictionary, F)
    shift = np.exp(2j * np.pi * (i - F) * t0)
    C = (A @ H @ A.T).real
    return 0.5 * (C + np.swapaxes(C, 1, 2)), (A @ (H * shift) @ A.T).real


def doubling_phase_means(t0, m, Q):
    """(1/m) sum_{k<m} z^k with z = e^{2 pi i q t0}, q = 0..Q, along the bits
    of m: S_2k = S_k (1 + z^k) and S_k+1 = S_k + z^k.  Each z^k comes from
    the phase k q t0 reduced mod 1 in integers (t0 is a dyadic p / d), so
    the error stays near u log2(m)."""
    p, d = float(t0).as_integer_ratio()

    def power(k):
        return np.exp(2j * np.pi * np.array([k * q * p % d / d for q in range(Q + 1)]))

    S, k = np.zeros(Q + 1, dtype=complex), 0
    for bit in bin(m)[2:]:
        S, k = S * (1 + power(k)), 2 * k
        if bit == "1":
            S, k = S + power(k), k + 1
    return S / m


CHAIN_DICTS = {
    "indicator": lambda n: dictionaries.indicator(n),
    "monomial2": lambda n: dictionaries.monomial(2, scale=0.5),
    "rff": lambda n: dictionaries.random_fourier(6, 2.0, 3),
}


class TestChainCounts:
    @pytest.mark.parametrize("regime", ["iid", "ergodic"])
    @pytest.mark.parametrize("kind", sorted(CHAIN_DICTS))
    def test_count_grams_match_streamed_gram(self, kind, regime):
        sys_ = random_ergodic_chain(4, 5)
        d = CHAIN_DICTS[kind](sys_.n_states)
        m, count = 300, 8
        if regime == "iid":
            xs, ys = systems.iid_chunk(sys_, m, 17, 0, count)
        else:
            paths = systems.ergodic_chunk(sys_, m, 17, 0, count)
            xs, ys = paths[:, :-1], paths[:, 1:]
        table = d.evaluate(np.arange(sys_.n_states)).T
        C, Cp = galerkin.gram_block(table[xs], table[ys], m)
        counts = kernels.pair_counts(xs, ys, sys_.n_states)
        C2, Cp2 = studies.count_grams(table, counts, m)
        scale = max(np.max(np.abs(C)), np.max(np.abs(Cp)))
        assert _close(C, C2, scale) and _close(Cp, Cp2, scale)

    def test_indicator_closed_form_matches_streamed_errors(self):
        sys_ = random_ergodic_chain(4, 5)
        d = dictionaries.indicator(4)
        rep = variance.build_rep(sys_, d)
        ref = studies.exact_reference(rep.gram)
        m, count = 50, 40
        xs, ys = systems.iid_chunk(sys_, m, 2, 0, count)
        streamed = studies._gram_errors_block(*galerkin.gram_block(np.eye(4)[xs],
                                                                   np.eye(4)[ys], m), ref)
        closed = studies._indicator_errors(kernels.pair_counts(xs, ys, 4), ref, m)
        for a, b in zip(streamed, closed):
            assert np.array_equal(np.isnan(a), np.isnan(b))
            ok = ~np.isnan(a)
            assert np.max(np.abs(a[ok] - b[ok])) <= 1e-12

    def test_counts_follow_the_multinomial_law(self, monkeypatch):
        # blocks of 7 trials leave a short last block, and join to one
        # whole multinomial draw on the same stream
        monkeypatch.setattr(systems, "_BLOCK_CELLS", 7 * 4)
        sys_ = systems.FiniteMarkovSystem([[0.7, 0.3], [0.4, 0.6]])
        m, trials = 40, 20000
        blocks = list(sys_.iid_counts(m, rng.stream(4, 0), trials))
        assert [len(b) for b in blocks] == [min(7, trials - lo) for lo in range(0, trials, 7)]
        counts = np.concatenate(blocks)
        assert counts.shape == (trials, 2, 2)
        assert np.all(counts.sum(axis=(1, 2)) == m)
        p = (sys_.pi[:, None] * sys_.transition).ravel()
        whole = rng.stream(4, 0).multinomial(m, p / p.sum(), size=trials)
        assert np.array_equal(counts.reshape(trials, -1), whole)
        x = counts.reshape(trials, -1).astype(np.float64)
        mean_se = x.std(axis=0, ddof=1) / np.sqrt(trials)
        assert np.all(np.abs(x.mean(axis=0) - m * p) <= 3.0 * mean_se)
        cov = m * (np.diag(p) - np.outer(p, p))
        dev = x - x.mean(axis=0)
        prods = dev[:, :, None] * dev[:, None, :]
        cov_se = prods.std(axis=0, ddof=1) / np.sqrt(trials)
        sample_cov = prods.sum(axis=0) / (trials - 1)
        assert np.all(np.abs(sample_cov - cov) <= 3.0 * cov_se)

    def test_slices_of_trials_draw_one_stream(self, monkeypatch):
        sys_ = random_ergodic_chain(3, 8)
        d = dictionaries.monomial(2)
        rep = variance.build_rep(sys_, d)
        ref = studies.exact_reference(rep.gram)
        whole = studies.mc_trial_errors(sys_, d, ref, 30, 100, 6, systems.Regime.IID)
        monkeypatch.setattr(systems, "_BLOCK_CELLS", 7 * 9)
        sliced = studies.mc_trial_errors(sys_, d, ref, 30, 100, 6, systems.Regime.IID)
        for a, b in zip(whole, sliced):
            assert a.tobytes() == b.tobytes()


def _path_counts(sys_, m, gen, count):
    """The naive reference: the transition counts of the whole paths."""
    paths = sys_.ergodic_block(m, gen, count)
    return kernels.pair_counts(paths[:, :-1], paths[:, 1:], sys_.n_states)


def _same_state(a, b):
    return repr(a.bit_generator.state) == repr(b.bit_generator.state)


def _all_counts(sys_, m, gen, count, rows):
    """ergodic_counts' blocks, checked to be at most `rows` trials, joined."""
    blocks = list(sys_.ergodic_counts(m, gen, count))
    assert [len(b) for b in blocks] == [min(rows, count - lo) for lo in range(0, count, rows)]
    return np.concatenate(blocks)


class TestErgodicCounts:
    # a step budget past every path, so each block draws its paths in one
    # slice, or 64-cell slices, which draw a few steps per row at a time
    @pytest.mark.parametrize("step_cells", [10**9, 64], ids=["one_draw", "per_row"])
    @pytest.mark.parametrize("count, m", [(4, 0), (1, 1), (1, 301), (9, 1), (9, 701), (40, 155),
                                          (3, 10001)])
    @pytest.mark.parametrize("n", [1, 2, 6, 50, 70])
    @pytest.mark.parametrize("rows", [1000, 4], ids=["one_block", "blocks_of_4"])
    def test_match_path_counts(self, n, count, m, step_cells, rows, monkeypatch):
        # 64-cell step slices: 7 steps at 9 rows, so 701 steps end mid-slice.
        # Slices are at least n * n steps long, so 50 and 70 states are
        # sliced at m = 10001; 70 states take the kernel's binary-search
        # path.  Blocks of 4 trials leave 9 and 40 trials with a short last
        # block
        monkeypatch.setattr(systems, "_STEP_CELLS", step_cells)
        monkeypatch.setattr(systems, "_BLOCK_CELLS", rows * n * n)
        sys_ = random_ergodic_chain(n, n)
        gen, ref_gen = rng.stream(3, n), rng.stream(3, n)
        counts = _all_counts(sys_, m, gen, count, rows)
        assert counts.dtype == np.int64 and counts.shape == (count, n, n)
        assert np.array_equal(counts, _path_counts(sys_, m, ref_gen, count))
        assert np.all(counts.sum(axis=(1, 2)) == m)
        # gen ends where the path sampler leaves it
        assert _same_state(gen, ref_gen)

    @pytest.mark.parametrize("count, m", [(10, 25), (10, 7), (1, 100)])
    def test_draw_order(self, count, m, monkeypatch):
        # 3 states step 3 steps a code.  In blocks of 4 trials they step 9
        # steps a slice (10, cut to whole codes), and each slice of each
        # block is one (rows, draws) draw after the starts: a code uniform
        # per 3 steps, then one uniform per step of the s mod 3 left, which
        # only a row's last slice has.  One trial steps 39 a slice, and its
        # slices draw its whole row: 33 code uniforms, then 1 step's
        monkeypatch.setattr(systems, "_STEP_CELLS", 40)
        monkeypatch.setattr(systems, "_BLOCK_CELLS", 4 * 9)
        sys_ = random_ergodic_chain(3, 7)
        tables = kernels.chain_tables(sys_._cdf)
        assert tables.k == 3
        gen, ref_gen = rng.stream(4, 3), rng.stream(4, 3)
        x0 = sys_.initial_law()(ref_gen, count)
        if count == 1:
            ref = kernels.chain_paths(tables, x0, ref_gen.random((1, 34)), codes=33)
        else:
            blocks = []
            for lo in range(0, count, 4):
                block = x0[lo : lo + 4, None]
                for t in range(0, m, 9):
                    s = min(9, m - t)
                    u = ref_gen.random((len(block), s // 3 + s % 3))
                    paths = kernels.chain_paths(tables, block[:, -1], u, codes=s // 3)
                    block = np.concatenate([block, paths[:, 1:]], axis=1)
                blocks.append(block)
            ref = np.concatenate(blocks)
        assert np.array_equal(sys_.ergodic_block(m, gen, count), ref)
        assert _same_state(gen, ref_gen)
        gen = rng.stream(4, 3)
        counts = _all_counts(sys_, m, gen, count, 4)
        assert np.array_equal(counts, kernels.pair_counts(ref[:, :-1], ref[:, 1:], 3))
        assert _same_state(gen, ref_gen)

    @pytest.mark.parametrize("rows", [200, 64])
    def test_whole_chunk_at_the_default_budgets(self, rows, monkeypatch):
        # 200 trials at m = 1e4 step 1310 steps a slice (4096 in blocks of 64)
        monkeypatch.setattr(systems, "_BLOCK_CELLS", rows * 4)
        sys_ = systems.FiniteMarkovSystem([[0.9, 0.1], [0.2, 0.8]])
        counts = _all_counts(sys_, 10**4, rng.stream(0, 0), 200, rows)
        assert np.array_equal(counts, _path_counts(sys_, 10**4, rng.stream(0, 0), 200))

    def test_nonergodic_raises(self):
        with pytest.raises(NonErgodicChain):
            next(systems.FiniteMarkovSystem(np.eye(2)).ergodic_counts(5, rng.stream(0), 2))


@pytest.mark.parametrize("P", [[[0.7, 0.3], [0.3, 0.7]],
                               [[0.0, 0.5, 0.5], [0.5, 0.5, 0.0], [0.25, 0.25, 0.5]]],
                         ids=["two_states", "thresholds_at_0_and_1"])
def test_alias_codes_follow_the_product_law(P):
    # 2e6 draws of 3**7 and 5**4 codes, the second with codes of no mass
    tables = systems.FiniteMarkovSystem(P)._tables
    w, k = tables.w, tables.k
    assert (w, k) in [(3, 7), (5, 4)]
    p = np.diff(np.clip(np.concatenate([[0.0], tables.q, [1.0]]), 0.0, 1.0))
    law = np.prod(p[np.arange(w**k)[:, None] // w ** np.arange(k) % w], axis=1)
    draws = 2_000_000
    seen = np.bincount(draw_codes(tables, rng.stream(5, k).random(draws)).ravel(),
                       minlength=w**k)
    assert np.all(seen[law == 0.0] == 0)
    expected = draws * law[law > 0.0]
    chi2 = np.sum((seen[law > 0.0] - expected) ** 2 / expected)
    df = len(expected) - 1
    assert abs(chi2 - df) <= 4.0 * np.sqrt(2.0 * df), (chi2, df)


@pytest.mark.parametrize(
    "system, dictionary, regime",
    [({"type": "finite_chain", "transition": [[0.9, 0.1, 0.0], [0.05, 0.9, 0.05],
                                              [0.0, 0.2, 0.8]]},
      {"kind": "monomial", "degree": 2}, "iid"),
     ({"type": "finite_chain", "transition": [[0.7, 0.3], [0.3, 0.7]]},
      {"kind": "indicator"}, "iid"),
     ({"type": "circle_rotation", "t0": {"form": "quadratic", "a": -1, "b": 1, "c": 2,
                                         "d": 5}},
      {"kind": "fourier", "max_freq": 3}, "ergodic"),
     # 1024-trial chunks of 3 states step 256 steps a slice: m = 300 takes two
     ({"type": "finite_chain", "transition": [[0.8, 0.2, 0.0], [0.1, 0.8, 0.1],
                                              [0.3, 0.0, 0.7]]},
      {"kind": "monomial", "degree": 2}, "ergodic")],
    ids=["iid_chain_monomial", "iid_chain_indicator", "rotation_fourier", "ergodic_chain"],
)
def test_same_bytes_at_one_and_two_threads(system, dictionary, regime):
    cfg = dict(system=system, dictionary=dictionary, regime=regime, m_grid=[10, 300],
               n_trials=2500, seed=9)
    one, _ = studies.run_convergence_study(studies.StudyConfig(**cfg, threads=1))
    two, _ = studies.run_convergence_study(studies.StudyConfig(**cfg, threads=2))
    assert json.dumps(one) == json.dumps(two)


def _child_peak(body):
    """Run `body` in a fresh interpreter; return the dict it leaves in
    `result`, with its wall seconds ("s") and peak memory ("peak_mb")
    added.  The peak is VmHWM, the high-water mark of the child's own
    memory map; ru_maxrss would also count the forking test process, whose
    peak Linux carries across exec."""
    script = "import json, time\nstart = time.perf_counter()\n" + textwrap.dedent(body) + """
with open("/proc/self/status") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
result.update(s=time.perf_counter() - start, peak_mb=hwm_kb / 1024)
print(json.dumps(result))
"""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                                reason="needs Linux /proc")


@needs_proc
def test_rotation_variance_check_memory_is_bounded_in_m():
    # golden fourier(4), 200 trials at m = 1e6: streamed, the states alone
    # would be 200 * 1e6 * 8 bytes
    result = _child_peak("""
        from koopman_cert import studies
        golden = {"type": "circle_rotation",
                  "t0": {"form": "quadratic", "a": -1, "b": 1, "c": 2, "d": 5}}
        cfg = studies.StudyConfig(system=golden, dictionary={"kind": "fourier", "max_freq": 4},
                                  m_grid=[1000000], n_trials=200, seed=0)
        rows = studies.run_variance_check(cfg)
        result = {"finite": all(v == v for v in rows[0].values())}
    """)
    assert result["finite"]
    assert result["s"] < 20.0, result
    assert result["peak_mb"] < 200.0, result


@needs_proc
def test_chain_variance_oracle_memory_is_bounded_in_m():
    # 2-state chain, 256 ergodic trials at m = 2e5: with whole paths the
    # uniforms and states alone would be 256 * 2e5 * 16 bytes, 820 MB
    result = _child_peak("""
        from koopman_cert import dictionaries, studies, systems, variance
        chain = systems.FiniteMarkovSystem([[0.9, 0.1], [0.2, 0.8]])
        rep = variance.build_rep(chain, dictionaries.indicator(2))
        oracle = studies.montecarlo_variance_oracle(rep, 200000, 256, seed=0)
        result = {"var": oracle.var_C_hat}
    """)
    assert result["var"] > 0
    assert result["s"] < 30.0, result
    assert result["peak_mb"] < 120.0, result


@needs_proc
def test_many_state_chain_counts_memory_is_bounded_in_n_trials():
    # 200 states, one 1024-trial ergodic chunk at m = 1000: the counts are
    # tallied in blocks of 100 trials, 32 MB each; the whole chunk's
    # (1024, 200, 200) counts would be 328 MB
    result = _child_peak("""
        import numpy as np
        from koopman_cert import dictionaries, rng, studies, systems, variance
        P = rng.stream(11).random((200, 200)) + 0.05
        chain = systems.FiniteMarkovSystem(P / P.sum(axis=1, keepdims=True))
        d = dictionaries.monomial(2)
        ref = studies.exact_reference(variance.build_rep(chain, d).gram)
        errs = studies.mc_trial_errors(chain, d, ref, 1000, 1024, 0, systems.Regime.ERGODIC)
        result = {"finite": bool(np.isfinite(errs[0]).all())}
    """)
    assert result["finite"]
    assert result["peak_mb"] < 250.0, result


@needs_proc
@pytest.mark.parametrize("regime", ["ergodic", "iid"])
def test_ou_variance_oracle_memory_is_bounded_in_m(regime):
    # OU with monomial(2), 256 trials at m = 1e5: the states path holds one
    # time slice of the chunk at a time.  The whole chunk's states and
    # dictionary values peaked at 332 MB (ergodic) and 624 MB (i.i.d.)
    result = _child_peak(f"""
        from koopman_cert import config, dictionaries, studies, systems, variance
        ou = config.system_from_config({{"type": "sde", "model": "ornstein_uhlenbeck",
                                         "rate": 10.0, "lag": 0.1, "integrator_dt": 0.01}})
        rep = variance.build_rep(ou, dictionaries.monomial(2))
        oracle = studies.montecarlo_variance_oracle(rep, 100000, 256, seed=0,
                                                    regime=systems.Regime("{regime}"))
        result = {{"var": oracle.var_C_hat}}
    """)
    assert result["var"] > 0
    assert result["s"] < 30.0, result
    assert result["peak_mb"] < 250.0, result
