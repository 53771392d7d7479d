import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import koopman_cert
from koopman_cert import bounds, cli, config, dictionaries, studies, systems, variance
from koopman_cert.errors import ConfigError, InsufficientPoints


class TestFitRate:
    def test_exact_inverse_law(self):
        ms = np.array([10, 100, 1000, 10000])
        fit = studies.fit_rate(ms, 3.0 / ms)
        assert abs(fit.slope + 1.0) < 1e-12
        assert fit.r2 == 1.0

    def test_constant_data_zero_slope(self):
        fit = studies.fit_rate([10, 100, 1000, 10000], [2.0, 2.0, 2.0, 2.0])
        assert abs(fit.slope) < 1e-12

    def test_noisy_half_rate(self):
        g = np.random.Generator(np.random.Philox(4))
        ms = np.logspace(2, 5, 10)
        vals = ms**-0.5 * np.exp(0.01 * g.standard_normal(10))
        fit = studies.fit_rate(ms, vals)
        assert abs(fit.slope + 0.5) < 0.05

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPoints):
            studies.fit_rate([10, 100, 1000], [1.0, 0.5, 0.25])


class TestStudyConfig:
    def test_grid_must_increase(self):
        with pytest.raises(ConfigError):
            studies.StudyConfig(system={}, dictionary={}, m_grid=[100, 100])

    def test_min_trials(self):
        with pytest.raises(ConfigError):
            studies.StudyConfig(system={}, dictionary={}, n_trials=10)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            studies.StudyConfig.from_dict(
                {"system": {}, "dictionary": {}, "bogus": 1}
            )


CHAIN_CFG = {
    "system": {"type": "finite_chain", "transition": [[0.7, 0.3], [0.3, 0.7]]},
    "dictionary": {"kind": "indicator", "n_states": 2},
}


ROTATION_CFG = {
    "system": {"type": "circle_rotation",
               "t0": {"form": "quadratic", "a": -1, "b": 1, "c": 2, "d": 5}},
    "dictionary": {"kind": "fourier", "max_freq": 4},
}


class TestConvergenceStudy:
    def test_chain_ergodic_half_rate(self):
        cfg = studies.StudyConfig(
            **CHAIN_CFG, regime="ergodic",
            m_grid=[100, 400, 1600, 6400, 25600], n_trials=40, seed=1,
        )
        rows, fits = studies.run_convergence_study(cfg)
        assert abs(fits["C"].slope + 0.5) < 0.1
        assert abs(fits["K"].slope + 0.5) < 0.1
        # theory column tracks the empirical RMSE within a small factor
        for r in rows:
            assert 0.5 < r["rmse_C"] / r["pred_rmse_C"] < 2.0

    def test_deterministic_given_config(self):
        cfg = studies.StudyConfig(
            **CHAIN_CFG, m_grid=[50, 100, 200, 400], n_trials=30, seed=3,
        )
        r1, f1 = studies.run_convergence_study(cfg)
        r2, f2 = studies.run_convergence_study(cfg)
        assert r1 == r2
        assert f1["C"].slope == f2["C"].slope

    def test_threads_do_not_change_rows(self):
        base = studies.StudyConfig(
            **CHAIN_CFG, m_grid=[50, 100, 200, 400], n_trials=40, seed=3,
        )
        threaded = studies.StudyConfig(
            **CHAIN_CFG, m_grid=[50, 100, 200, 400], n_trials=40, seed=3, threads=4,
        )
        r1, _ = studies.run_convergence_study(base)
        r2, _ = studies.run_convergence_study(threaded)
        assert r1 == r2
        # more than one trial chunk of a Fourier rotation: the streamed Gram path
        rotation = dict(ROTATION_CFG, m_grid=[20, 40, 80, 160], n_trials=1100, seed=3)
        r1, _ = studies.run_convergence_study(studies.StudyConfig(**rotation))
        r2, _ = studies.run_convergence_study(studies.StudyConfig(**rotation, threads=2))
        assert r1 == r2

    def test_blas_threads_do_not_change_bytes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(ROTATION_CFG, m_grid=[500, 2000], n_trials=1100)))
        outputs = []
        for blas in ("1", "2"):
            out = tmp_path / blas
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas,
                       PYTHONPATH=os.path.dirname(os.path.dirname(koopman_cert.__file__)))
            subprocess.run([sys.executable, "-m", "koopman_cert.cli", "study",
                            "--config", str(cfg), "--out", str(out), "--threads", "2"],
                           env=env, check=True)
            outputs.append((out / "convergence.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_quantile_columns(self):
        cfg = studies.StudyConfig(
            **CHAIN_CFG, m_grid=[50, 100, 200, 400], n_trials=30, seed=5,
            error_quantiles=[0.5, 0.9],
        )
        rows, _ = studies.run_convergence_study(cfg)
        for r in rows:
            assert r["q50_C"] <= r["q90_C"]


class TestQuantileColumns:
    """Every quantile column a `study` writes, in either format, is the
    `np.quantile` of the engine's own errors at that grid point, taken on
    its own: the K errors over the regular trials, NaN when all are
    singular."""

    @pytest.mark.parametrize("quantiles", [[0, 0.5, 0.9, 1], []], ids=["four", "none"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_columns_equal_per_column_quantiles(self, tmp_path, monkeypatch, quantiles, fmt):
        errors = []
        engine = studies.mc_trial_errors

        def recorded(*args, **kwargs):
            errors.append(engine(*args, **kwargs))
            return errors[-1]

        monkeypatch.setattr(studies, "mc_trial_errors", recorded)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(CHAIN_CFG, m_grid=[1, 2, 3, 50], n_trials=40, seed=1,
                                        error_quantiles=quantiles)))
        assert cli.main(["study", "--config", str(path), "--out", str(tmp_path),
                         "--format", fmt]) == 0
        if fmt == "csv":
            with open(tmp_path / "convergence.csv") as fh:
                lines = fh.read().splitlines()[1:]
            header = lines[0].split(",")
            rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
        else:
            rows = [{k: float("nan") if v is None else v for k, v in r.items()}
                    for r in json.loads((tmp_path / "convergence.json").read_text())]
            header = list(rows[0])
        # one point with every trial singular, two with some, one with none
        assert [r["n_singular"] for r in rows] == [40, 27, 21, 0]
        tags = [f"q{round(q * 100)}" for q in quantiles]
        columns = [f"{t}_{e}" for t in tags for e in ("C", "Cplus", "K")]
        if fmt == "csv":  # between the RMSEs and the predictions, in the config's order
            assert header[6:7 + len(columns)] == [*columns, "pred_rmse_C"]
        else:
            assert sorted(k for k in header if k.startswith("q")) == sorted(columns)
        for row, (err_C, err_Cp, err_K) in zip(rows, errors, strict=True):
            good = np.isfinite(err_K)
            for q, tag in zip(quantiles, tags):
                assert row[f"{tag}_C"] == np.quantile(err_C, q)
                assert row[f"{tag}_Cplus"] == np.quantile(err_Cp, q)
                if good.any():
                    assert row[f"{tag}_K"] == np.quantile(err_K[good], q)
                else:
                    assert math.isnan(row[f"{tag}_K"])

    def test_colliding_tags_rejected(self):
        with pytest.raises(ConfigError, match=r"0\.5 and 0\.501 .* q50_\*"):
            studies.StudyConfig(system={}, dictionary={}, error_quantiles=[0.5, 0.501])


class TestVarianceCheck:
    def test_two_state_all_within(self):
        cfg = studies.StudyConfig(
            **CHAIN_CFG, m_grid=[1, 2, 5, 10], n_trials=20000, seed=2,
        )
        rows = studies.run_variance_check(cfg)
        assert all(r["within_3sigma_C"] for r in rows)
        assert all(r["within_3sigma_Cplus"] for r in rows)

    def test_constant_dictionary_identically_zero(self, five_state_chain):
        cfg = studies.StudyConfig(
            system={"type": "finite_chain",
                    "transition": five_state_chain.transition.tolist()},
            dictionary={"kind": "monomial", "degree": 0},
            m_grid=[1, 5, 10], n_trials=100, seed=0,
        )
        rows = studies.run_variance_check(cfg)
        for r in rows:
            assert r["var_C_exact"] < 1e-14 and r["var_C_mc"] < 1e-14
            assert r["var_Cplus_exact"] < 1e-14 and r["var_Cplus_mc"] < 1e-14

    def test_circle_deterministic_oracle(self, golden):
        cfg = studies.StudyConfig(
            system={"type": "circle_rotation",
                    "t0": {"form": "quadratic", "a": -1, "b": 1, "c": 2, "d": 5}},
            dictionary={"kind": "fourier", "max_freq": 1},
            m_grid=[10, 100], n_trials=50, seed=0,
        )
        rows = studies.run_variance_check(cfg)
        assert all(r["within_3sigma_C"] and r["within_3sigma_Cplus"] for r in rows)

    GOLDEN_FOURIER4 = dict(
        system={"type": "circle_rotation",
                "t0": {"form": "quadratic", "a": -1, "b": 1, "c": 2, "d": 5}},
        dictionary={"kind": "fourier", "max_freq": 4},
        m_grid=[1000, 3000, 10000], n_trials=30, seed=0,
    )

    def test_roundoff_within_slack_at_large_m(self):
        # the squared errors agree to ~1e-17, far below the accumulated
        # round-off of m-term Gram sums
        rows = studies.run_variance_check(studies.StudyConfig(**self.GOLDEN_FOURIER4))
        assert all(r["stderr_C"] < 1e-15 for r in rows)
        assert all(r["within_3sigma_C"] and r["within_3sigma_Cplus"] for r in rows)

    def test_exact_value_beyond_slack_flagged(self, monkeypatch):
        from koopman_cert import config, variance

        cfg = studies.StudyConfig(**self.GOLDEN_FOURIER4)
        rows = {r["m"]: r for r in studies.run_variance_check(cfg)}
        d = config.dictionary_from_config(cfg.dictionary)
        sys = config.system_from_config(cfg.system)
        rep = variance.build_rep(sys, d)

        def beyond(m, key):
            mc, se = rows[m][f"var_{key}_mc"], rows[m][f"stderr_{key}"]
            slack = studies._roundoff_slack(rep, systems.Regime.ERGODIC, m, cfg.n_trials, mc)
            return mc + 3.0 * se + 2.0 * slack

        def perturbed(rep, m, regime):
            vr = variance.exact_variance(rep, m, regime)
            vr.var_C, vr.var_Cplus = beyond(m, "C"), beyond(m, "Cplus")
            return vr

        monkeypatch.setattr(studies, "exact_variance", perturbed)
        for r in studies.run_variance_check(cfg):
            assert r["var_C_exact"] - r["var_C_mc"] < 1e-6 * r["var_C_mc"]
            assert not r["within_3sigma_C"] and not r["within_3sigma_Cplus"]

    def test_slack_small_beside_exact_variance_at_large_m(self):
        # sigma^2 = E + S cancels down to O(1/m) on a rotation, so the exact
        # value's round-off is what the slack must cover here
        cfg = studies.StudyConfig(**dict(self.GOLDEN_FOURIER4, m_grid=[10**3, 10**6, 10**9]))
        rep = variance.build_rep(config.system_from_config(cfg.system),
                                 config.dictionary_from_config(cfg.dictionary))
        for r in studies.run_variance_check(cfg):
            assert r["within_3sigma_C"] and r["within_3sigma_Cplus"], r
            for key in ("C", "Cplus"):
                slack = studies._roundoff_slack(rep, systems.Regime.ERGODIC, r["m"],
                                                cfg.n_trials, r[f"var_{key}_mc"])
                assert slack < 0.01 * r[f"var_{key}_exact"], (r["m"], key, slack)

    def test_golden_study_follows_prediction_to_m_1e9(self):
        cfg = studies.StudyConfig(
            **dict(self.GOLDEN_FOURIER4, m_grid=[10**k for k in range(3, 10)], n_trials=200))
        start = time.perf_counter()
        rows, fits = studies.run_convergence_study(cfg)
        assert time.perf_counter() - start < 1.0
        for r in rows:
            assert abs(r["rmse_C"] / r["pred_rmse_C"] - 1.0) <= 1e-5, r
        pred = studies.fit_rate(cfg.m_grid, [r["pred_rmse_C"] for r in rows])
        assert abs(fits["C"].slope - pred.slope) <= 1e-3


THREE_STATE = {"type": "finite_chain",
               "transition": [[0.9, 0.1, 0.0], [0.05, 0.9, 0.05], [0.0, 0.2, 0.8]]}
GOLDEN = {"type": "circle_rotation",
          "t0": {"form": "quadratic", "a": -1, "b": 1, "c": 2, "d": 5}}
IID_ARGS = "system, dictionary, m_grid, n_trials"
IID_CASES = [
    pytest.param(THREE_STATE, {"kind": "monomial", "degree": 2}, [100, 400, 1600], 4000,
                 id="chain_monomial2"),
    pytest.param(GOLDEN, {"kind": "fourier", "max_freq": 2}, [10, 40, 160], 2000,
                 id="golden_fourier2"),
]
# Gaussian AR(1) systems draw i.i.d. pairs from their law N(0, v).  Their
# squared errors are heavy-tailed, and 2000 trials under-cover.
OU = {"type": "sde", "model": "ornstein_uhlenbeck", "rate": 10.0, "lag": 0.1,
      "integrator_dt": 0.01}
LINEAR = {"type": "noisy_map", "map": {"name": "linear", "matrix": [[0.8]]},
          "noise_sigma": 0.5}
AR1_IID_CASES = [
    pytest.param(system, {"kind": "monomial", "degree": 2}, [10, 100, 1000], 10000,
                 id=f"{name}_monomial2")
    for name, system in (("ou", OU), ("linear", LINEAR))
]


class TestIidRegime:
    """Under i.i.d. sampling the exact variance is E / m (no p_m term)."""

    @pytest.mark.parametrize(IID_ARGS, IID_CASES)
    def test_study_prediction_within_3_stderr(self, system, dictionary, m_grid, n_trials):
        cfg = studies.StudyConfig(system=system, dictionary=dictionary, regime="iid",
                                  m_grid=m_grid, n_trials=n_trials, seed=3)
        rows, _ = studies.run_convergence_study(cfg)
        sys_ = config.system_from_config(system)
        d = config.dictionary_from_config(dictionary, system=sys_)
        rep = variance.build_rep(sys_, d)
        ref = rep.reference
        for mi, (m, row) in enumerate(zip(m_grid, rows)):
            err_C, err_Cp, _ = studies.mc_trial_errors(
                sys_, d, ref, m, n_trials, studies._derived_seed(3, mi),
                systems.Regime.IID)
            for err, key in ((err_C, "C"), (err_Cp, "Cplus")):
                mse = np.mean(err**2)
                assert row[f"rmse_{key}"] == np.sqrt(mse)
                se = np.std(err**2, ddof=1) / np.sqrt(n_trials)
                assert abs(row[f"pred_rmse_{key}"] ** 2 - mse) <= 3.0 * se, (m, key)

    @pytest.mark.parametrize(IID_ARGS, IID_CASES + AR1_IID_CASES)
    def test_variance_check_flags_pass(self, system, dictionary, m_grid, n_trials):
        cfg = studies.StudyConfig(system=system, dictionary=dictionary, regime="iid",
                                  m_grid=m_grid, n_trials=n_trials, seed=5)
        sys_ = config.system_from_config(system)
        rep = variance.build_rep(sys_, config.dictionary_from_config(dictionary, system=sys_))
        for m, r in zip(m_grid, studies.run_variance_check(cfg)):
            assert r["var_C_exact"] == rep.E_zero / m
            assert r["var_Cplus_exact"] == rep.E_plus / m
            assert r["within_3sigma_C"] and r["within_3sigma_Cplus"], r

    def test_exact_variance_is_e_over_m(self, five_state_chain, monomial3):
        rep = variance.build_rep(five_state_chain, monomial3)
        vr = variance.exact_variance(rep, 50, systems.Regime.IID)
        assert (vr.sigma2_zero, vr.sigma2_plus) == (rep.E_zero, rep.E_plus)
        assert (vr.var_C, vr.var_Cplus) == (rep.E_zero / 50, rep.E_plus / 50)


class TestBoundValidity:
    def test_ergodic_linear_grid(self, two_state_chain, indicator2):
        rep = variance.build_rep(two_state_chain, indicator2)
        rows = studies.run_bound_validity(
            rep, bounds.bound_inputs_from_exact(rep), bounds.BRANCH_ERGODIC_LINEAR,
            m_values=[2000], epsilons=[1.0, 2.0], n_trials=500, seed=0,
        )
        assert all(r["ok"] and r["ok_C"] and r["ok_Cplus"] for r in rows)

    def test_kappa_zero_grid(self, golden):
        d = dictionaries.fourier(1)
        rep = variance.build_rep(golden, d)
        rows = studies.run_bound_validity(
            rep, bounds.bound_inputs_from_exact(rep, thin_params=(1.5, 0.2)),
            bounds.BRANCH_ERGODIC_KAPPA_ZERO,
            m_values=[100, 300], epsilons=[1.0], n_trials=500, seed=1,
        )
        assert all(r["ok"] for r in rows)
        assert any(r["p_bound"] <= 0.5 for r in rows)


class TestCsv:
    def test_schema_header_and_byte_identical(self, tmp_path):
        cfg = studies.StudyConfig(
            **CHAIN_CFG, m_grid=[50, 100, 200, 400], n_trials=30, seed=7,
        )
        rows, _ = studies.run_convergence_study(cfg)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        studies.write_csv(p1, rows, "convergence")
        rows2, _ = studies.run_convergence_study(cfg)
        studies.write_csv(p2, rows2, "convergence")
        b1 = p1.read_bytes()
        assert b1 == p2.read_bytes()
        head = b1.decode().splitlines()[0]
        assert head == "# schema: koopman-cert/convergence-v1"


class TestWeylPreGate:
    def test_chain_monomial_fallback_keeps_its_values(self, eigvalsh_stacks):
        """A reversible 3-state chain with `monomial(2)`: at m = 3 and 4 most
        trials are singular, and at every m some trials leave the Weyl test
        for the batched `eigvalsh`.  The literals were recorded from the same
        study with every trial sent to the batched `eigvalsh`, before the
        Weyl test existed, and must match bit for bit."""
        P = [[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]]
        cfg = studies.StudyConfig(
            system={"type": "finite_chain", "transition": P},
            dictionary={"kind": "monomial", "degree": 2},
            m_grid=[3, 4, 8, 30, 1000], n_trials=60, seed=11)
        rows, _ = studies.run_convergence_study(cfg)
        assert [r["n_singular"] for r in rows] == [49, 39, 10, 0, 0]
        assert [r["rmse_K"] for r in rows] == [
            7.143719428471897, 5.981757983354765, 4.182570979672662,
            1.8244162279347462, 0.27961722388539123]
        # both sides of the gate ran: some trials cleared, the rest factorised
        assert len(eigvalsh_stacks) == 5 and 0 < sum(eigvalsh_stacks) < 5 * cfg.n_trials

    def test_golden_rotation_factorises_no_stack(self, monkeypatch, eigvalsh_stacks):
        """Every trial of a golden `fourier(4)` study is cleared by the Weyl
        test, so no (B, N, N) stack reaches `eigvalsh`, and the phase path's
        mode matrix is built once for the whole grid."""
        builds = []
        phase_modes = studies._phase_modes
        monkeypatch.setattr(studies, "_phase_modes",
                            lambda *args: builds.append(args) or phase_modes(*args))
        cfg = studies.StudyConfig(**ROTATION_CFG, m_grid=[100, 316, 1000, 3162],
                                  n_trials=200, seed=1)
        rows, _ = studies.run_convergence_study(cfg)
        assert eigvalsh_stacks == [] and len(builds) == 1
        assert all(r["n_singular"] == 0 for r in rows)
