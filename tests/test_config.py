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
        for _ in range(10 * 5):  # the sampler's burn-in
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
