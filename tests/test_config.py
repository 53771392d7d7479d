import numpy as np
import pytest

from koopman_cert import config, systems
from koopman_cert.dictionaries import DictionaryKind
from koopman_cert.errors import ConfigError


class TestSystemConfigs:
    def test_finite_chain(self):
        sys = config.system_from_config(
            {"type": "finite_chain", "transition": [[0.7, 0.3], [0.3, 0.7]]}
        )
        assert isinstance(sys, systems.FiniteMarkovSystem)
        assert sys.n_states == 2

    def test_circle_quadratic(self):
        sys = config.system_from_config(
            {"type": "circle_rotation",
             "t0": {"form": "quadratic", "a": -1, "b": 1, "c": 2, "d": 5}}
        )
        assert abs(sys.t0 - (np.sqrt(5) - 1) / 2) < 1e-15
        assert sys.t0_exact is not None

    def test_circle_plain_float(self):
        sys = config.system_from_config({"type": "circle_rotation", "t0": 0.25})
        assert sys.t0 == 0.25

    def test_noisy_map_logistic(self):
        sys = config.system_from_config(
            {"type": "noisy_map", "map": {"name": "logistic", "r": 3.9},
             "noise_sigma": 0.0, "x0": [0.3]}
        )
        pairs = systems.sample_ergodic(sys, 5, seed=0)
        x = 0.3
        for _ in range(systems._BURN_IN):  # the sampler's burn-in
            x = 3.9 * x * (1.0 - x)
        assert abs(pairs.ys[0, 0] - 3.9 * x * (1.0 - x)) < 1e-12

    def test_sde_ou(self):
        sys = config.system_from_config(
            {"type": "sde", "model": "ornstein_uhlenbeck", "rate": 2.0,
             "sigma": 0.5, "lag": 0.2, "integrator_dt": 0.02}
        )
        assert sys.substeps == 10

    def test_unknown_type(self):
        with pytest.raises(ConfigError):
            config.system_from_config({"type": "pendulum"})


class TestDictionaryConfigs:
    def test_fourier(self):
        d = config.dictionary_from_config({"kind": "fourier", "max_freq": 8})
        assert d.size == 17 and d.kind is DictionaryKind.FOURIER

    def test_indicator_size_from_system(self):
        sys = config.system_from_config(
            {"type": "finite_chain", "transition": [[0.7, 0.3], [0.3, 0.7]]}
        )
        d = config.dictionary_from_config({"kind": "indicator"}, system=sys)
        assert d.size == 2

    def test_indicator_needs_size_or_system(self):
        with pytest.raises(ConfigError):
            config.dictionary_from_config({"kind": "indicator"})

    def test_rff(self):
        d = config.dictionary_from_config(
            {"kind": "rff", "n_features": 100, "bandwidth": 2.0, "seed": 7}
        )
        assert d.size == 100
        assert d.metadata["bandwidth"] == 2.0

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            config.dictionary_from_config({"kind": "wavelet"})


class TestReferenceModelMode:
    def test_double_well_study_runs_without_exact_reference(self):
        from koopman_cert import studies

        cfg = studies.StudyConfig(
            system={"type": "sde", "model": "double_well", "sigma": 1.0, "lag": 0.5,
                    "integrator_dt": 0.05},
            dictionary={"kind": "monomial", "degree": 2},
            regime="ergodic", m_grid=[30, 60, 120, 240], n_trials=30, seed=4,
        )
        rows, fits = studies.run_convergence_study(cfg)
        assert all(np.isnan(r["pred_rmse_C"]) for r in rows)  # no exact theory
        assert rows[-1]["rmse_K"] < rows[0]["rmse_K"]  # error shrinks

    DOUBLE_WELL = {"type": "sde", "model": "double_well", "sigma": 1.0, "lag": 0.5,
                   "integrator_dt": 0.05}

    def test_reference_standard_error_below_smallest_rmse(self, monkeypatch):
        # the reference is the mean of n_trials trials at the largest m, so
        # its standard error is about 1/sqrt(n_trials) of that m's RMSE
        from koopman_cert import studies

        seen = []
        real = studies.reference_model

        def spy(*args, **kwargs):
            seen.append(real(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(studies, "reference_model", spy)
        cfg = studies.StudyConfig(system=self.DOUBLE_WELL,
                                  dictionary={"kind": "monomial", "degree": 2},
                                  m_grid=[30, 60, 120, 240], n_trials=30, seed=4)
        rows, _ = studies.run_convergence_study(cfg)
        [(_, (se_C, se_Cp))] = seen
        bound = 1.5 / np.sqrt(cfg.n_trials)
        assert se_C <= bound * min(r["rmse_C"] for r in rows)
        assert se_Cp <= bound * min(r["rmse_Cplus"] for r in rows)

    def test_reference_is_the_trials_mean_and_spread(self):
        # two trial chunks: the reference's sums over chunks, on one thread
        # or two, against the mean and spread of the explicit Gram stacks
        from koopman_cert import dictionaries, rng, studies

        sys = config.system_from_config(self.DOUBLE_WELL)
        d = dictionaries.monomial(2)
        m, n, seed = 8, 1100, 9
        (C, Cp, K), se = studies.reference_model(sys, d, m, n, seed)
        (C2, Cp2, K2), se2 = studies.reference_model(sys, d, m, n, seed, threads=2)
        assert se2 == se
        assert all(np.array_equal(a, b) for a, b in ((C, C2), (Cp, Cp2), (K, K2)))
        stacks = [np.concatenate(g) for g in zip(
            *(grams for c, _, count in rng.trial_chunks(n)
              for grams in studies._trial_grams(sys, d, m, seed, c, count,
                                                systems.Regime.ERGODIC)))]
        for G, mean, err in zip(stacks, (C, Cp), se):
            assert len(G) == n
            assert np.allclose(mean, G.mean(axis=0), rtol=1e-13, atol=0)
            spread = np.sqrt(np.sum(G.var(axis=0, ddof=1)) / n)
            assert err == pytest.approx(spread, rel=1e-9)
        assert np.allclose(C @ K, Cp, rtol=1e-12, atol=1e-14)

    def test_burn_in_bias_below_three_standard_errors(self, monkeypatch):
        # each m's trial MSE of C at the fixed burn-in against a burn-in ten
        # times as long, both measured against one reference
        from koopman_cert import dictionaries, studies

        sys = config.system_from_config(self.DOUBLE_WELL)
        d = dictionaries.monomial(2)
        grid, n = [30, 240], 200
        ref, _ = studies.reference_model(sys, d, grid[-1], n, 100)

        def mse(seed):
            out = []
            for mi, m in enumerate(grid):
                err_C, _, _ = studies.mc_trial_errors(sys, d, ref, m, n, seed + mi,
                                                      systems.Regime.ERGODIC)
                sq = err_C**2
                out.append((sq.mean(), sq.std(ddof=1) / np.sqrt(n)))
            return out

        short = mse(200)
        monkeypatch.setattr(systems, "_BURN_IN", 10 * systems._BURN_IN)
        long = mse(300)
        for m, (a, sa), (b, sb) in zip(grid, short, long):
            assert abs(a - b) <= 3 * np.hypot(sa, sb), (m, a, b, sa, sb)
