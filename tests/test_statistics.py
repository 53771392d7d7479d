"""Sampled sufficient statistics against the streamed Gram sums they replace.

Ergodic rotations with a Fourier dictionary form C_hat and C_hat_plus from
phase sums, and i.i.d. chain trials from multinomial transition counts.
The streamed `gram_block` sum over sampled states stays the naive
reference for both.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from koopman_cert import dictionaries, galerkin, kernels, rng, studies, systems, variance

from conftest import random_ergodic_chain

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _close(a, b, scale):
    return np.max(np.abs(a - b)) <= 1e-12 * scale


ANGLES = {
    "golden": systems.golden_rotation(),
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

    def test_blocks_of_steps_sum_to_one_pass(self, golden, monkeypatch):
        m = 1000
        whole = studies.rotation_phase_means(golden.t0, m, 6)
        monkeypatch.setattr(studies, "_PHASE_BLOCK", 64)
        blocked = studies.rotation_phase_means(golden.t0, m, 6)
        assert np.max(np.abs(whole - blocked)) <= 1e-14


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
            mu0 = systems.categorical_sampler(sys_.pi)
            xs, ys = systems.iid_chunk(sys_, mu0, m, 17, 0, count)
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
        xs, ys = systems.iid_chunk(sys_, systems.categorical_sampler(sys_.pi), m, 2, 0, count)
        streamed = studies._gram_errors_block(*galerkin.gram_block(np.eye(4)[xs],
                                                                   np.eye(4)[ys], m), ref)
        closed = studies._indicator_errors(kernels.pair_counts(xs, ys, 4), ref, m)
        for a, b in zip(streamed, closed):
            assert np.array_equal(np.isnan(a), np.isnan(b))
            ok = ~np.isnan(a)
            assert np.max(np.abs(a[ok] - b[ok])) <= 1e-12

    def test_counts_follow_the_multinomial_law(self):
        sys_ = systems.FiniteMarkovSystem([[0.7, 0.3], [0.4, 0.6]])
        m, trials = 40, 20000
        counts = studies.iid_chain_counts(sys_, sys_.pi, m, rng.stream(4, 0), trials)
        assert counts.shape == (trials, 2, 2)
        assert np.all(counts.sum(axis=(1, 2)) == m)
        x = counts.reshape(trials, -1).astype(np.float64)
        p = (sys_.pi[:, None] * sys_.transition).ravel()
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
        mu0 = systems.categorical_sampler(sys_.pi)
        whole = studies.mc_trial_errors(sys_, d, ref, 30, 100, 6, systems.Regime.IID, mu0)
        monkeypatch.setattr(studies, "_SLICE_BUDGET", 7 * 9)
        sliced = studies.mc_trial_errors(sys_, d, ref, 30, 100, 6, systems.Regime.IID, mu0)
        for a, b in zip(whole, sliced):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "system, dictionary, regime",
    [({"type": "finite_chain", "transition": [[0.9, 0.1, 0.0], [0.05, 0.9, 0.05],
                                              [0.0, 0.2, 0.8]]},
      {"kind": "monomial", "degree": 2}, "iid"),
     ({"type": "finite_chain", "transition": [[0.7, 0.3], [0.3, 0.7]]},
      {"kind": "indicator"}, "iid"),
     ({"type": "circle_rotation", "t0": {"form": "quadratic", "a": -1, "b": 1, "c": 2,
                                         "d": 5}},
      {"kind": "fourier", "max_freq": 3}, "ergodic")],
    ids=["iid_chain_monomial", "iid_chain_indicator", "rotation_fourier"],
)
def test_same_bytes_at_one_and_two_threads(system, dictionary, regime):
    cfg = dict(system=system, dictionary=dictionary, regime=regime, m_grid=[10, 300],
               n_trials=2500, seed=9)
    one, _ = studies.run_convergence_study(studies.StudyConfig(**cfg, threads=1))
    two, _ = studies.run_convergence_study(studies.StudyConfig(**cfg, threads=2))
    assert json.dumps(one) == json.dumps(two)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_rotation_variance_check_memory_is_bounded_in_m():
    # golden fourier(4), 200 trials at m = 1e6: streamed, the states alone
    # would be 200 * 1e6 * 8 bytes.  The peak is VmHWM, the high-water mark
    # of the child's own memory map; ru_maxrss would also count the forking
    # test process, whose peak Linux carries across exec.
    script = """
import json, time
start = time.perf_counter()
from koopman_cert import studies
golden = {"type": "circle_rotation",
          "t0": {"form": "quadratic", "a": -1, "b": 1, "c": 2, "d": 5}}
cfg = studies.StudyConfig(system=golden, dictionary={"kind": "fourier", "max_freq": 4},
                          m_grid=[1000000], n_trials=200, seed=0)
rows = studies.run_variance_check(cfg)
with open("/proc/self/status") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"s": time.perf_counter() - start, "peak_mb": hwm_kb / 1024,
                  "finite": all(v == v for v in rows[0].values())}))
"""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["finite"]
    assert result["s"] < 20.0, result
    assert result["peak_mb"] < 200.0, result
