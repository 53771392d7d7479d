"""Sampled sufficient statistics against the streamed Gram sums they replace.

Ergodic rotations with a Fourier dictionary form C_hat and C_hat_plus from
phase sums, and i.i.d. chain trials from multinomial transition counts.
The streamed `gram_block` sum over sampled states stays the naive
reference for both.  Ergodic chain trials tally their transition counts
one time slice at a time; the counts of their whole paths are the naive
reference.
"""

import copy
import json
import mmap
import os
import subprocess
import sys

import numpy as np
import pytest

from koopman_cert import (cli, dictionaries, galerkin, kernels, rng, studies, systems,
                          variance)
from koopman_cert.errors import NonErgodicChain

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
        whole = studies.mc_trial_errors(sys_, d, ref, 30, 100, 6, systems.Regime.IID)
        monkeypatch.setattr(studies, "_SLICE_BUDGET", 7 * 9)
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
    blocks = list(sys_.ergodic_counts(m, gen, count, rows))
    assert [len(b) for b in blocks] == [min(rows, count - lo) for lo in range(0, count, rows)]
    return np.concatenate(blocks)


class TestErgodicCounts:
    # one draw for the whole block, or one positioned generator per row
    @pytest.mark.parametrize("draw_cells", [10**9, 0], ids=["one_draw", "per_row"])
    @pytest.mark.parametrize("count, m", [(4, 0), (1, 1), (1, 301), (9, 1), (9, 701), (40, 155),
                                          (3, 10001)])
    @pytest.mark.parametrize("n", [1, 2, 6, 50, 70])
    @pytest.mark.parametrize("rows", [1000, 4], ids=["one_block", "blocks_of_4"])
    def test_match_path_counts(self, n, count, m, draw_cells, rows, monkeypatch):
        # 64-cell step slices: 7 steps at 9 rows, so 701 steps end mid-slice,
        # and draw slices of 10 steps straddle them.  Slices are at least
        # n * n steps long, so 50 and 70 states are sliced at m = 10001; 70
        # states take the kernel's binary-search path.  Blocks of 4 trials
        # leave 9 and 40 trials with a short last block
        monkeypatch.setattr(systems, "_STEP_CELLS", 64)
        monkeypatch.setattr(systems, "_ROW_DRAWS", 10)
        monkeypatch.setattr(systems, "_DRAW_CELLS", draw_cells)
        sys_ = random_ergodic_chain(n, n)
        gen, ref_gen = rng.stream(3, n), rng.stream(3, n)
        counts = _all_counts(sys_, m, gen, count, rows)
        assert counts.dtype == np.int64 and counts.shape == (count, n, n)
        assert np.array_equal(counts, _path_counts(sys_, m, ref_gen, count))
        assert np.all(counts.sum(axis=(1, 2)) == m)
        # gen ends where the path sampler leaves it
        assert _same_state(gen, ref_gen)

    @pytest.mark.parametrize("draw_cells, m, per_row",
                             [(200, 20, False), (200, 21, True), (50, 10, False),
                              (50, 11, True)])
    def test_either_side_of_the_draw_budget(self, draw_cells, m, per_row, monkeypatch):
        # 10 rows of 3 states step 9 at a time and draw 10 at a time: past
        # the budget, a block of at most 10 steps is still one draw
        monkeypatch.setattr(systems, "_STEP_CELLS", 40)
        monkeypatch.setattr(systems, "_ROW_DRAWS", 10)
        monkeypatch.setattr(systems, "_DRAW_CELLS", draw_cells)
        calls = []
        positioned = rng.positioned
        monkeypatch.setattr(rng, "positioned",
                            lambda *a: calls.append(a) or positioned(*a))
        sys_ = random_ergodic_chain(3, 4)
        gen, ref_gen = rng.stream(8, 1), rng.stream(8, 1)
        counts = _all_counts(sys_, m, gen, 10, 10)
        assert len(calls) == per_row
        assert np.array_equal(counts, _path_counts(sys_, m, ref_gen, 10))
        assert _same_state(gen, ref_gen)

    def test_positions_each_block_of_trials(self, monkeypatch):
        # past the budget, each block of trials positions its own rows
        monkeypatch.setattr(systems, "_STEP_CELLS", 40)
        monkeypatch.setattr(systems, "_ROW_DRAWS", 100)
        monkeypatch.setattr(systems, "_DRAW_CELLS", 0)
        calls = []
        positioned = rng.positioned
        monkeypatch.setattr(rng, "positioned",
                            lambda gen, offsets: calls.append(list(offsets))
                            or positioned(gen, offsets))
        sys_ = random_ergodic_chain(3, 5)
        gen, ref_gen = rng.stream(2, 6), rng.stream(2, 6)
        counts = _all_counts(sys_, 3000, gen, 10, 4)
        assert calls == [[0, 3000, 6000, 9000], [12000, 15000, 18000, 21000],
                         [24000, 27000]]
        assert np.array_equal(counts, _path_counts(sys_, 3000, ref_gen, 10))
        assert _same_state(gen, ref_gen)

    @pytest.mark.parametrize("rows", [200, 64])
    def test_whole_chunk_at_the_default_budgets(self, rows):
        # 200 x 1e4 cells are past the draw budget: draws of 2048 steps,
        # stepped 1310 (4096 at 64 rows) at a time
        sys_ = systems.FiniteMarkovSystem([[0.9, 0.1], [0.2, 0.8]])
        assert 200 * 10**4 > systems._DRAW_CELLS
        counts = _all_counts(sys_, 10**4, rng.stream(0, 0), 200, rows)
        assert np.array_equal(counts, _path_counts(sys_, 10**4, rng.stream(0, 0), 200))

    def test_nonergodic_raises(self):
        with pytest.raises(NonErgodicChain):
            next(systems.FiniteMarkovSystem(np.eye(2)).ergodic_counts(5, rng.stream(0), 2, 2))

    def test_one_draw_uniforms_have_pages_of_their_own(self, monkeypatch):
        # freeing the one-shot uniforms unmaps them: they are not left
        # cached in the malloc arena of the pool thread that drew them
        shapes = []
        mapped = systems._mapped
        monkeypatch.setattr(systems, "_mapped", lambda shape: shapes.append(shape) or mapped(shape))
        monkeypatch.setattr(systems, "_STEP_CELLS", 64)
        sys_ = random_ergodic_chain(3, 4)
        counts = _all_counts(sys_, 100, rng.stream(1, 1), 9, 9)
        assert shapes == [(9, 100)]
        assert np.array_equal(counts, _path_counts(sys_, 100, rng.stream(1, 1), 9))
        u = mapped((2, 3))
        assert isinstance(u.base.base.obj, mmap.mmap)
        assert u.dtype == np.float64 and u.flags.c_contiguous and u.flags.writeable


class TestPositionedStreams:
    @pytest.mark.parametrize("drawn", range(4))
    def test_rows_of_one_draw(self, drawn):
        # after `drawn` draws, rows of 7 start at every position mod 4
        gen = rng.stream(5, 2)
        gen.random(drawn)
        before = copy.deepcopy(gen)
        count, m = 6, 7
        rows = rng.positioned(gen, range(0, count * m, m))
        assert _same_state(gen, before)
        ref = before.random((count, m))
        for row_gen, row in zip(rows, ref):
            assert np.array_equal(row_gen.random(m), row)
        # the last row ends where the one draw does
        assert _same_state(rows[-1], before)
        # gen itself has not moved
        assert np.array_equal(gen.random((count, m)), ref)

    def test_counter_carries_across_words(self):
        gen = rng.stream(5, 2)
        state = gen.bit_generator.state
        state["state"]["counter"] = np.array([2**64 - 2, 2**64 - 1, 0, 0], dtype=np.uint64)
        gen.bit_generator.state = state
        gen.random(3)
        ref = copy.deepcopy(gen).random(40)
        rows = rng.positioned(gen, [0, 5, 11, 30])
        for row_gen, offset in zip(rows, [0, 5, 11, 30]):
            assert np.array_equal(row_gen.random(10), ref[offset : offset + 10])


def test_ergodic_chain_study_same_bytes_across_the_draw_budget(tmp_path, monkeypatch):
    # 1100 trials are a 1024-trial and a 76-trial chunk; with a 2^14-cell
    # draw budget the first crosses it at m = 30 and the second never does
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": {"type": "finite_chain",
                                          "transition": [[0.8, 0.2, 0.0], [0.1, 0.8, 0.1],
                                                         [0.3, 0.0, 0.7]]},
                               "dictionary": {"kind": "monomial", "degree": 2},
                               "m_grid": [10, 30], "n_trials": 1100, "seed": 4}))
    runs = []
    for draw_cells, threads in ((10**9, "1"), (1 << 14, "1"), (1 << 14, "2")):
        monkeypatch.setattr(systems, "_DRAW_CELLS", draw_cells)
        out = tmp_path / f"out-{draw_cells}-{threads}"
        assert cli.main(["study", "--config", str(cfg), "--out", str(out),
                         "--threads", threads]) == 0
        runs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert runs[0] == runs[1] == runs[2]


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


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_chain_variance_oracle_memory_is_bounded_in_m():
    # 2-state chain, 256 ergodic trials at m = 2e5: with whole paths the
    # uniforms and states alone would be 256 * 2e5 * 16 bytes, 820 MB
    script = """
import json, time
start = time.perf_counter()
from koopman_cert import dictionaries, studies, systems, variance
chain = systems.FiniteMarkovSystem([[0.9, 0.1], [0.2, 0.8]])
rep = variance.build_rep(chain, dictionaries.indicator(2))
oracle = studies.montecarlo_variance_oracle(rep, 200000, 256, seed=0)
with open("/proc/self/status") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"s": time.perf_counter() - start, "peak_mb": hwm_kb / 1024,
                  "var": oracle.var_C_hat}))
"""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["var"] > 0
    assert result["s"] < 30.0, result
    assert result["peak_mb"] < 120.0, result


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_many_state_chain_counts_memory_is_bounded_in_n_trials():
    # 200 states, one 1024-trial ergodic chunk at m = 1000: the counts are
    # tallied in blocks of 100 trials, 32 MB each; the whole chunk's
    # (1024, 200, 200) counts would be 328 MB
    script = """
import json
import numpy as np
from koopman_cert import dictionaries, rng, studies, systems, variance
P = rng.stream(11).random((200, 200)) + 0.05
chain = systems.FiniteMarkovSystem(P / P.sum(axis=1, keepdims=True))
d = dictionaries.monomial(2)
ref = studies.exact_reference(variance.build_rep(chain, d).gram)
errs = studies.mc_trial_errors(chain, d, ref, 1000, 1024, 0, systems.Regime.ERGODIC)
with open("/proc/self/status") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"peak_mb": hwm_kb / 1024, "finite": bool(np.isfinite(errs[0]).all())}))
"""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["finite"]
    assert result["peak_mb"] < 250.0, result
