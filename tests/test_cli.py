import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from koopman_cert import cli, config, galerkin, studies, systems, variance

CHAIN_SYSTEM = {"type": "finite_chain", "transition": [[0.7, 0.3], [0.3, 0.7]]}


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestSimulate:
    def test_ergodic_pairs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"system": CHAIN_SYSTEM, "seed": 4})
        rc = cli.main(["simulate", "--config", cfg, "--m", "25", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["xs"]) == 25
        assert payload["regime"] == "ergodic"

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"system": {"type": "nonsense"}})
        rc = cli.main(["simulate", "--config", cfg])
        assert rc == 2

    def test_missing_file_exit_2(self, capsys):
        rc = cli.main(["simulate", "--config", "/nonexistent.json"])
        assert rc == 2

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_unknown_key_exit_2(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, {"system": CHAIN_SYSTEM,
                                   "dictionary": {"kind": "indicator"}, "sed": 3})
        assert cli.main([command, "--config", cfg, "--m", "10"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'sed'" in err

    @pytest.mark.parametrize("extra", [
        {"regime": "iid", "m_grid": [10, 20], "n_trials": 30, "error_quantiles": [0.5],
         "tail_epsilon": 0.1, "tail_branch": "iid_markov"},
        {"branch": "iid_markov", "m_grid": [10], "epsilons": [1.0], "n_trials": 5,
         "thin": {"alpha": 1.5, "theta": 0.2}},
    ], ids=["study", "bounds"])
    def test_study_and_bounds_configs_serve_simulate(self, tmp_path, capsys, extra):
        cfg = write_cfg(tmp_path, {"system": CHAIN_SYSTEM,
                                   "dictionary": {"kind": "indicator"}, **extra})
        assert cli.main(["simulate", "--config", cfg, "--m", "10"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 11

    def test_csv_format(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"system": CHAIN_SYSTEM, "seed": 4})
        rc = cli.main(["simulate", "--config", cfg, "--m", "10", "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "k,x,y"
        assert len(lines) == 11

    @pytest.mark.parametrize(
        "system, width",
        [({"type": "sde", "model": "ornstein_uhlenbeck", "lag": 0.1,
           "integrator_dt": 0.01}, 1),
         ({"type": "noisy_map", "noise_sigma": 0.1,
           "map": {"name": "linear", "matrix": [[0.5, 0.1], [0.0, 0.3]]}}, 2)],
        ids=["sde_1d", "linear_2d"],
    )
    def test_csv_prints_plain_floats(self, tmp_path, capsys, system, width):
        cfg = write_cfg(tmp_path, {"system": system, "seed": 0})
        rc = cli.main(["simulate", "--config", cfg, "--m", "3"])
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 3
        for k, row in enumerate(rows):
            cells = row.split(",")
            assert cells[0] == str(k)
            for cell in cells[1:]:
                coords = cell.split(";")
                assert len(coords) == width
                assert all(repr(float(c)) == c for c in coords)

    @pytest.mark.parametrize("system", [
        CHAIN_SYSTEM,
        {"type": "sde", "model": "ornstein_uhlenbeck", "lag": 0.1, "integrator_dt": 0.01},
        {"type": "noisy_map", "noise_sigma": 0.1,
         "map": {"name": "linear", "matrix": [[0.5, 0.1], [0.0, 0.3]]}},
    ], ids=["chain", "sde_1d", "linear_2d"])
    def test_csv_bytes_match_per_value_formatting(self, tmp_path, system):
        # the reference formats each state on its own, as a ravel of its
        # coordinates through `tolist`
        def per_value(v):
            return ";".join(repr(x) for x in np.ravel(v).tolist())

        cfg = write_cfg(tmp_path, {"system": system, "seed": 5})
        out = tmp_path / "pairs.csv"
        assert cli.main(["simulate", "--config", cfg, "--m", "300", "--out", str(out)]) == 0
        pairs = systems.sample_ergodic(config.system_from_config(system), 300, seed=5)
        lines = ["k,x,y"] + [f"{k},{per_value(x)},{per_value(y)}" for k, (x, y)
                             in enumerate(zip(np.asarray(pairs.xs), np.asarray(pairs.ys)))]
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


class TestEstimate:
    def test_estimate_with_errors(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            {"system": CHAIN_SYSTEM,
             "dictionary": {"kind": "indicator", "n_states": 2}, "seed": 8},
        )
        rc = cli.main(["estimate", "--config", cfg, "--m", "500"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert "Khat" in payload and "errors" in payload and "config_hash" in payload
        assert payload["errors"]["err_K"] < 1.0

    def test_config_hash_is_the_effective_config(self, tmp_path, capsys):
        # --seed changes the hash with Khat; the same seed from the file or a
        # flag gives one hash, and a file stating seed and threads hashes as is
        base = {"system": CHAIN_SYSTEM, "dictionary": {"kind": "indicator"}}

        def run(payload, *flags):
            cfg = write_cfg(tmp_path, payload)
            assert cli.main(["estimate", "--config", cfg, "--m", "50", *flags]) == 0
            out = json.loads(capsys.readouterr().out)
            return out["config_hash"], out["Khat"]

        (h1, k1), (h2, k2) = run(base, "--seed", "1"), run(base, "--seed", "2")
        assert h1 != h2 and k1 != k2
        stated = dict(base, seed=1, threads=1)
        assert run(stated) == (h1, k1)
        assert h1 == cli.hash_config(stated)

    def test_without_exact_reference_notes_missing_errors(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"system": DOUBLE_WELL,
                                   "dictionary": {"kind": "monomial", "degree": 2}})
        assert cli.main(["estimate", "--config", cfg, "--m", "50"]) == 0
        captured = capsys.readouterr()
        assert "errors" not in json.loads(captured.out)
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("note: no exact reference for sde double_well")
        assert "no exact representation" in lines[0]

    def test_singular_exact_mass_matrix_exits_3_before_sampling(self, tmp_path, capsys,
                                                                  monkeypatch):
        # at scale 1e120 the exact C is singular; the sample would be blamed
        # for it ("need m >= N") if it were drawn first
        def never(*args, **kwargs):
            raise AssertionError("sampled before the exact reference was gated")

        monkeypatch.setattr(cli, "_sample", never)
        cfg = write_cfg(tmp_path, {"system": OU_SYSTEM, "dictionary": {
            "kind": "monomial", "degree": 1, "scale": 1e120}})
        assert cli.main(["estimate", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical failure: exact mass matrix is numerically singular\n"

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        # m < N makes the empirical mass matrix singular
        cfg = write_cfg(
            tmp_path,
            {"system": {"type": "circle_rotation", "t0": 0.123456},
             "dictionary": {"kind": "fourier", "max_freq": 3}},
        )
        rc = cli.main(["estimate", "--config", cfg, "--m", "3"])
        assert rc == 3


class TestStudy:
    def test_study_writes_outputs(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {"system": CHAIN_SYSTEM,
             "dictionary": {"kind": "indicator", "n_states": 2},
             "m_grid": [50, 100, 200, 400], "n_trials": 30, "seed": 1},
        )
        out = tmp_path / "out"
        rc = cli.main(["study", "--config", cfg, "--out", str(out)])
        assert rc == 0
        assert (out / "convergence.csv").exists()
        fits = json.loads((out / "rate_fit.json").read_text())
        assert -0.8 < fits["C"]["slope"] < -0.2

    def test_variance_subcommand(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            {"system": CHAIN_SYSTEM,
             "dictionary": {"kind": "indicator", "n_states": 2},
             "m_grid": [1, 5], "n_trials": 2000, "seed": 1},
        )
        rc = cli.main(["variance", "--config", cfg, "--format", "json"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert all(r["within_3sigma_C"] for r in rows)

    @pytest.mark.parametrize("command", ["study", "variance", "bounds"])
    @pytest.mark.parametrize(
        "bad",
        [{"m_grid": [0, 10, 20, 40]}, {"m_grid": [10, 20.5, 40]},
         {"m_grid": "abc"}, {"m_grid": 100}, {"m_grid": [True, 10]},
         {"seed": -1}, {"seed": 1.5}, {"m_grid": []}, {"n_trials": 0}],
        ids=["m_zero", "m_float", "m_string", "m_scalar", "m_bool",
             "seed_negative", "seed_float", "m_empty", "trials_zero"],
    )
    def test_invalid_grid_or_seed_exit_2(self, tmp_path, capsys, command, bad):
        cfg = {"system": CHAIN_SYSTEM, "dictionary": {"kind": "indicator"},
               "m_grid": [10, 20, 40, 80], "n_trials": 30, "seed": 0}
        cfg.update(bad)
        rc = cli.main([command, "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_negative_seed_override_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"system": CHAIN_SYSTEM, "dictionary": {"kind": "indicator"},
                                   "m_grid": [10, 20, 40, 80], "n_trials": 30})
        rc = cli.main(["study", "--config", cfg, "--seed", "-1", "--out", str(tmp_path)])
        assert rc == 2

    def test_bounds_subcommand(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {"system": CHAIN_SYSTEM,
             "dictionary": {"kind": "indicator", "n_states": 2},
             "branch": "ergodic_linear", "m_grid": [2000],
             "epsilons": [1.0], "n_trials": 200, "seed": 3},
        )
        out = tmp_path / "bout"
        rc = cli.main(["bounds", "--config", cfg, "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "bound_report.json").read_text())
        assert report["branch"] == "ergodic_linear"
        grid = (out / "bound_grid.csv").read_text().splitlines()
        assert grid[0] == "# schema: koopman-cert/bounds-v1"

    def test_bounds_with_certificate(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {"system": {"type": "circle_rotation",
                        "t0": {"form": "quadratic", "a": -1, "b": 1, "c": 2, "d": 5}},
             "dictionary": {"kind": "fourier", "max_freq": 1},
             "branch": "ergodic_superlinear",
             "thin": {"alpha": 1.5, "theta": 0.2},
             "m_grid": [100, 300], "epsilons": [1.0],
             "n_trials": 200, "seed": 5},
        )
        out = tmp_path / "cout"
        rc = cli.main(["bounds", "--config", cfg, "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "bound_report.json").read_text())
        # zero arc mass upgrades to the quadratic-rate branch
        assert report["branch"] == "ergodic_kappa_zero"

    @pytest.mark.parametrize("command, fmt", [("bounds", "json"), ("estimate", "csv")])
    def test_format_only_where_it_chooses(self, tmp_path, capsys, command, fmt):
        # estimate always writes JSON, and bounds its JSON report and CSV grid
        cfg = write_cfg(tmp_path, {"system": CHAIN_SYSTEM, "dictionary": {"kind": "indicator"}})
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", cfg, "--out", str(tmp_path), "--format", fmt])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err


class TestInputContract:
    BOUNDS = {"system": CHAIN_SYSTEM, "dictionary": {"kind": "indicator"},
              "branch": "ergodic_linear", "m_grid": [100, 200], "epsilons": [1.0],
              "n_trials": 30, "seed": 0}

    @pytest.mark.parametrize(
        "bad",
        [{"m_grid": [200, 100]}, {"epsilons": [0.0]}, {"epsilons": []},
         {"epsilons": [float("inf")]}, {"thin": {"alpha": 1.5}},
         {"thin": {"theta": 0.2}}, {"thin": "wide"}, {"bogus": 1}],
        ids=["m_decreasing", "eps_zero", "eps_empty", "eps_inf", "thin_no_theta",
             "thin_no_alpha", "thin_string", "unknown_key"],
    )
    def test_bounds_invalid_input_exit_2(self, tmp_path, capsys, bad):
        cfg = dict(self.BOUNDS, **bad)
        rc = cli.main(["bounds", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_bounds_negative_seed_override_exit_2(self, tmp_path, capsys):
        rc = cli.main(["bounds", "--config", write_cfg(tmp_path, self.BOUNDS),
                       "--seed", "-1", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("command, out", [
        ("simulate", "missing/pairs.csv"), ("study", "a_file"), ("bounds", "a_file"),
    ])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, command, out):
        # a file in a missing directory, or an output directory that is a file
        (tmp_path / "a_file").write_text("")
        cfg = {"simulate": {"system": CHAIN_SYSTEM},
               "study": {"system": CHAIN_SYSTEM, "dictionary": {"kind": "indicator"},
                         "m_grid": [10, 20], "n_trials": 30},
               "bounds": self.BOUNDS}[command]
        path = str(tmp_path / out)
        rc = cli.main([command, "--config", write_cfg(tmp_path, cfg), "--out", path])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and path in err

    @pytest.mark.parametrize("command, out", [
        ("study", "a_file"), ("variance", "missing/variance.csv"),
        ("variance", "a_file/variance.json"), ("bounds", "a_file"),
    ])
    def test_unwritable_out_exits_before_sampling(self, tmp_path, capsys, monkeypatch,
                                                  command, out):
        def engine(*args, **kwargs):
            raise AssertionError("the Monte-Carlo engine ran before --out was checked")

        monkeypatch.setattr(studies, "mc_trial_errors", engine)
        (tmp_path / "a_file").write_text("")
        cfg = self.BOUNDS if command == "bounds" else {
            "system": CHAIN_SYSTEM, "dictionary": {"kind": "indicator"},
            "m_grid": [10, 20], "n_trials": 30}
        path = str(tmp_path / out)
        rc = cli.main([command, "--config", write_cfg(tmp_path, cfg), "--out", path])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot write {path}")

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    @pytest.mark.parametrize(
        "cfg, extra",
        [({"system": CHAIN_SYSTEM, "dictionary": {"kind": "indicator"}, "seed": -1}, []),
         ({"system": CHAIN_SYSTEM, "dictionary": {"kind": "indicator"}}, ["--seed", "-2"]),
         ({"dictionary": {"kind": "indicator", "n_states": 2}}, []),
         ([CHAIN_SYSTEM], [])],
        ids=["seed_negative", "seed_override_negative", "no_system", "not_an_object"],
    )
    def test_sampling_commands_invalid_input_exit_2(self, tmp_path, capsys, command,
                                                     cfg, extra):
        rc = cli.main([command, "--config", write_cfg(tmp_path, cfg), *extra])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_estimate_without_dictionary_exit_2(self, tmp_path, capsys):
        rc = cli.main(["estimate", "--config", write_cfg(tmp_path, {"system": CHAIN_SYSTEM})])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'dictionary'" in err

    def test_chain_without_transition_exit_2(self, tmp_path, capsys):
        cfg = {"system": {"type": "finite_chain"}, "dictionary": {"kind": "indicator"},
               "m_grid": [10, 20, 40, 80], "n_trials": 30}
        rc = cli.main(["study", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "system.transition" in err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_transition_exit_2(self, tmp_path, capsys, bad):
        cfg = {"system": {"type": "finite_chain", "transition": [[bad, 1.0], [0.5, 0.5]]},
               "dictionary": {"kind": "indicator"}, "m_grid": [10, 20, 40, 80],
               "n_trials": 30}
        rc = cli.main(["study", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error:")


class TestCheckedBeforeSampling:
    """Every key of a study config is checked when the config is read: a bad
    value exits 2 naming its key before anything is sampled, and --threads
    overrides the config's threads."""

    STUDY = {"system": CHAIN_SYSTEM, "dictionary": {"kind": "indicator"},
             "m_grid": [100, 200], "n_trials": 30, "seed": 0}

    @pytest.mark.parametrize(
        "bad, key",
        [({"tail_epsilon": "abc"}, "tail_epsilon"),
         ({"tail_epsilon": "nan"}, "tail_epsilon"),
         ({"tail_epsilon": [1.0]}, "tail_epsilon"),
         ({"tail_epsilon": 0.0, "tail_branch": "ergodic_linear"}, "tail_epsilon"),
         ({"error_quantiles": [1.5]}, "error_quantiles"),
         ({"error_quantiles": "x"}, "error_quantiles"),
         ({"error_quantiles": None}, "error_quantiles"),
         ({"error_quantiles": [0.9, 0.904]}, "error_quantiles 0.9 and 0.904 both name"
                                             " the columns q90_*"),
         ({"tail_epsilon": 1.0, "tail_branch": "bogus", "m_grid": [200000],
           "n_trials": 200}, "tail_branch")],
        ids=["tail_eps_string", "tail_eps_nan", "tail_eps_list", "tail_eps_zero",
             "quantile_above_one", "quantiles_string", "quantiles_null",
             "quantile_tags_collide", "unknown_tail_branch"],
    )
    def test_bad_key_exits_2_before_sampling(self, tmp_path, capsys, monkeypatch, bad, key):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the config was checked")

        monkeypatch.setattr(studies, "mc_trial_errors", no_sampling)
        path = write_cfg(tmp_path, dict(self.STUDY, **bad))
        start = time.perf_counter()
        rc = cli.main(["study", "--config", path, "--out", str(tmp_path)])
        assert time.perf_counter() - start < 0.5
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["study", "variance", "bounds"])
    def test_threads_flag_overrides_config(self, tmp_path, monkeypatch, command):
        seen = []
        engine = studies.mc_trial_errors

        def recorded(*args, threads, **kwargs):
            seen.append(threads)
            return engine(*args, threads=threads, **kwargs)

        monkeypatch.setattr(studies, "mc_trial_errors", recorded)
        path = write_cfg(tmp_path, dict(self.STUDY, threads=2))
        # the config's threads reach the engine
        assert cli.main([command, "--config", path, "--out", str(tmp_path)]) == 0
        assert seen == [2, 2]
        seen.clear()
        rc = cli.main([command, "--config", path, "--out", str(tmp_path), "--threads", "1"])
        assert rc == 0
        assert seen == [1, 1]


GOLDEN = {"type": "circle_rotation",
          "t0": {"form": "quadratic", "a": -1, "b": 1, "c": 2, "d": 5}}


class TestOneExactReference:
    """A command builds the product family of its exact representation at
    most once, whatever its grid: once where it reads the family (the thin
    spectral certificate), and not at all where it does not (the variances
    read the rep's cross-Grams and phi)."""

    @pytest.mark.parametrize(
        "command, cfg, builds",
        [("study", {"system": GOLDEN, "dictionary": {"kind": "fourier", "max_freq": 2},
                    "m_grid": [10, 20, 40, 80], "n_trials": 30, "seed": 1}, 0),
         ("study", {"system": CHAIN_SYSTEM, "dictionary": {"kind": "indicator"},
                    "m_grid": [10, 20, 40, 80, 160], "n_trials": 30, "seed": 1,
                    "tail_epsilon": 1.0, "tail_branch": "ergodic_linear"}, 0),
         ("variance", {"system": CHAIN_SYSTEM, "dictionary": {"kind": "indicator"},
                       "m_grid": [8, 16, 32], "n_trials": 30, "seed": 1}, 0),
         ("bounds", {"system": CHAIN_SYSTEM, "dictionary": {"kind": "indicator"},
                     "branch": "ergodic_linear", "m_grid": [100, 200],
                     "epsilons": [1.0, 2.0], "n_trials": 30, "seed": 1}, 0),
         ("bounds", {"system": GOLDEN, "dictionary": {"kind": "fourier", "max_freq": 1},
                     "branch": "ergodic_superlinear", "thin": {"alpha": 1.5, "theta": 0.2},
                     "m_grid": [100, 300], "epsilons": [1.0], "n_trials": 30, "seed": 1}, 1)],
        ids=["rotation_study", "chain_study_with_tail", "variance", "bounds",
             "bounds_thin"],
    )
    def test_one_family_per_command(self, tmp_path, monkeypatch, command, cfg, builds):
        calls = []
        family = variance.function_family

        def counted(rep):
            calls.append(rep)
            return family(rep)

        monkeypatch.setattr(variance, "function_family", counted)
        rc = cli.main([command, "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 0
        assert len(calls) == builds


    @pytest.mark.parametrize(
        "cfg", [{"system": CHAIN_SYSTEM, "dictionary": {"kind": "indicator"}},
                {"system": GOLDEN, "dictionary": {"kind": "fourier", "max_freq": 2}}],
        ids=["chain", "rotation"])
    def test_one_galerkin_solve_per_variance_command(self, tmp_path, monkeypatch, cfg):
        """`variance` solves its exact reference once, behind the singularity
        gate, and scores every grid point's oracle against it."""
        calls = []
        solve = studies.galerkin_matrix
        monkeypatch.setattr(studies, "galerkin_matrix",
                            lambda gram: calls.append(gram) or solve(gram))
        path = write_cfg(tmp_path, {**cfg, "m_grid": [8, 16, 32], "n_trials": 30, "seed": 1})
        assert cli.main(["variance", "--config", path, "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "command, cfg",
        [("study", {"system": GOLDEN, "dictionary": {"kind": "fourier", "max_freq": 2},
                    "m_grid": [10, 20, 40], "n_trials": 30, "seed": 1}),
         ("variance", {"system": GOLDEN, "dictionary": {"kind": "fourier", "max_freq": 2},
                       "m_grid": [8, 16], "n_trials": 30, "seed": 1}),
         ("bounds", {"system": GOLDEN, "dictionary": {"kind": "fourier", "max_freq": 1},
                     "branch": "ergodic_kappa_zero", "thin": {"alpha": 1.5, "theta": 0.2},
                     "m_grid": [50, 150], "epsilons": [1.0], "n_trials": 30, "seed": 1}),
         ("study", {"system": {"type": "sde", "model": "ornstein_uhlenbeck", "rate": 10.0,
                               "lag": 0.1, "integrator_dt": 0.01},
                    "dictionary": {"kind": "monomial", "degree": 2},
                    "m_grid": [4, 8, 16], "n_trials": 30, "seed": 1})],
        ids=["rotation_study", "rotation_variance", "rotation_bounds", "ou_study"])
    def test_one_weyl_radius_per_command(self, tmp_path, monkeypatch, command, cfg):
        """Every block a command scores is pre-gated against one reference,
        whose Weyl radius (one N x N `eigvalsh`) is computed once."""
        calls = []
        radius = galerkin.weyl_radius

        def counted(ref):
            calls.append(ref)
            return radius(ref)

        monkeypatch.setattr(galerkin, "weyl_radius", counted)
        monkeypatch.setattr(studies, "weyl_radius", counted)
        path = write_cfg(tmp_path, cfg)
        assert cli.main([command, "--config", path, "--out", str(tmp_path)]) == 0
        assert len(calls) == 1


class TestOneParser:
    """`main` builds the parser once per process, and no flag of one call
    carries over to the next."""

    STUDY = {"system": CHAIN_SYSTEM, "dictionary": {"kind": "indicator"},
             "m_grid": [10, 20], "n_trials": 30, "seed": 1}

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_flags_do_not_carry_over(self, tmp_path, monkeypatch):
        seen = []
        study = studies.run_convergence_study

        def recorded(cfg):
            seen.append((cfg.seed, cfg.threads))
            return study(cfg)

        monkeypatch.setattr(studies, "run_convergence_study", recorded)
        path = write_cfg(tmp_path, self.STUDY)
        first, second = tmp_path / "first", tmp_path / "second"
        assert cli.main(["study", "--config", path, "--out", str(first), "--format", "json",
                         "--seed", "5", "--threads", "2"]) == 0
        assert cli.main(["study", "--config", path, "--out", str(second)]) == 0
        assert seen == [(5, 2), (1, 1)]
        assert (first / "convergence.json").exists() and not (first / "convergence.csv").exists()
        assert (second / "convergence.csv").exists() and not (second / "convergence.json").exists()

    def test_argparse_failure_leaves_the_next_call_working(self, tmp_path, capsys):
        path = write_cfg(tmp_path, self.STUDY)
        for argv in (["study"], ["study", "--config", path, "--format", "xml"],
                     ["study", "--config", path, "--seed", "five"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
        assert cli.main(["study", "--config", path, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "convergence.csv").exists()


class TestOneQuantilePass:
    """`study` takes every quantile column of its grid by one `np.quantile`,
    plus one for the K errors of each grid point with singular trials."""

    @pytest.mark.parametrize(
        "cfg, most",
        [({"system": GOLDEN, "dictionary": {"kind": "fourier", "max_freq": 2},
           "m_grid": [10, 20, 40, 80], "error_quantiles": [0.1, 0.5, 0.9]}, 1),
         ({"system": CHAIN_SYSTEM, "dictionary": {"kind": "indicator"},
           "m_grid": [2, 3, 4, 200], "error_quantiles": [0.5, 0.9]}, 5)],
        ids=["regular", "singular"])
    def test_quantile_calls_per_study(self, tmp_path, monkeypatch, cfg, most):
        calls = []
        quantile = np.quantile
        engine = studies.mc_trial_errors
        singular = []

        def counted(*args, **kwargs):
            calls.append(args)
            return quantile(*args, **kwargs)

        def recorded(*args, **kwargs):
            errors = engine(*args, **kwargs)
            singular.append(int(np.sum(np.isnan(errors[2]))))
            return errors

        monkeypatch.setattr(np, "quantile", counted)
        monkeypatch.setattr(studies, "mc_trial_errors", recorded)
        path = write_cfg(tmp_path, {**cfg, "n_trials": 30, "seed": 1})
        assert cli.main(["study", "--config", path, "--out", str(tmp_path)]) == 0
        # a point whose trials are all singular needs no call of its own
        assert len(calls) == 1 + sum(0 < n < 30 for n in singular) <= most
        assert any(singular) == (most > 1)


class TestEntryPoint:
    def test_console_script_runs(self, tmp_path):
        cfg = write_cfg(tmp_path, {"system": CHAIN_SYSTEM})
        proc = subprocess.run(
            [sys.executable, "-m", "koopman_cert.cli", "simulate",
             "--config", cfg, "--m", "5", "--format", "json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["regime"] == "ergodic"


    @pytest.mark.parametrize("threads", [1, 2])
    def test_diverging_trajectory_prints_one_line(self, tmp_path, threads):
        # a double-well of noise 3 and one Euler substep per lag of 2
        # overflows in its burn-in; numpy's warnings stay off stderr
        cfg = write_cfg(tmp_path, {
            "system": {"type": "sde", "model": "double_well", "sigma": 3, "lag": 2,
                       "integrator_dt": 2},
            "dictionary": {"kind": "monomial", "degree": 2}, "m_grid": [4, 8],
            "n_trials": 30, "seed": 3})
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run(
            [sys.executable, "-m", "koopman_cert.cli", "study", "--config", cfg,
             "--out", str(tmp_path), "--threads", str(threads)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 3
        assert proc.stderr == ("numerical failure: non-finite state at lag 7; "
                               "lags 1..100 are the burn-in\n")

    def test_overflowing_dictionary_prints_one_line(self, tmp_path):
        # monomials of scale 1e200 square to inf on OU states; numpy's
        # warnings stay off stderr
        cfg = write_cfg(tmp_path, {
            "system": OU_SYSTEM, "dictionary": {"kind": "monomial", "degree": 2, "scale": 1e200},
            "m_grid": [4, 8, 16, 32], "n_trials": 30, "seed": 0})
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run(
            [sys.executable, "-m", "koopman_cert.cli", "study", "--config", cfg,
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 3
        assert proc.stderr == "numerical failure: monomial dictionary values overflow\n"

    # finite values of 1e199 whose squares overflow in the exact Gram
    def test_non_finite_mass_matrix_exit_3(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "system": OU_SYSTEM, "dictionary": {"kind": "monomial", "degree": 1, "scale": 1e200},
            "m_grid": [4, 8, 16, 32], "n_trials": 30, "seed": 0})
        assert cli.main(["study", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == "numerical failure: mass matrix has non-finite entries\n"

    @pytest.mark.parametrize("command", ["study", "variance", "bounds", "estimate"])
    @pytest.mark.parametrize("scale", [1e200, 1e120])
    def test_overflowing_grams_print_one_line(self, tmp_path, scale, command):
        # finite monomial values whose Grams overflow (1e200), or whose exact
        # C is singular and whose exact constants overflow (1e120): the gate
        # speaks first, and numpy's warnings stay off stderr
        cfg = write_cfg(tmp_path, {
            "system": OU_SYSTEM, "dictionary": {"kind": "monomial", "degree": 1, "scale": scale},
            "m_grid": [4, 8, 16, 32], "n_trials": 30, "seed": 0})
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run(
            [sys.executable, "-m", "koopman_cert.cli", command, "--config", cfg,
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 3
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("numerical failure: ")


OU_SYSTEM = {"type": "sde", "model": "ornstein_uhlenbeck", "rate": 10.0, "lag": 0.1,
             "integrator_dt": 0.01}
# an SDE with no exact reference: studies run in reference-model mode
DOUBLE_WELL = {"type": "sde", "model": "double_well", "lag": 0.1, "integrator_dt": 0.01}


class TestJsonOutput:
    def test_study_without_exact_reference_writes_null(self, tmp_path):
        cfg = write_cfg(tmp_path, {"system": DOUBLE_WELL,
                                   "dictionary": {"kind": "monomial", "degree": 2},
                                   "m_grid": [4, 8], "n_trials": 30, "seed": 3})
        rc = cli.main(["study", "--config", cfg, "--out", str(tmp_path), "--format", "json"])
        assert rc == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        for name in ("convergence.json", "rate_fit.json"):
            text = (tmp_path / name).read_text()
            json.loads(text, parse_constant=reject)
        rows = json.loads((tmp_path / "convergence.json").read_text())
        assert all(r["pred_rmse_C"] is None and r["pred_rmse_Cplus"] is None for r in rows)
        assert all(isinstance(r["rmse_C"], float) for r in rows)


LINEAR_1D = {"type": "noisy_map", "noise_sigma": 0.5,
             "map": {"name": "linear", "matrix": [[0.8]]}}


class TestGaussianAR1:
    """OU and the 1-d linear noisy map have an exact Hermite reference."""

    @pytest.mark.parametrize("system", [OU_SYSTEM, LINEAR_1D], ids=["ou", "linear"])
    def test_variance_within_3_sigma(self, tmp_path, capsys, system):
        # the squared errors are heavy-tailed at rho = 0.8: at 2000 trials
        # 8 of 180 flags (30 seeds) failed, all with the oracle's mean below
        # the exact value; at 10000 trials the z-scores are N(0, 1)
        cfg = write_cfg(tmp_path, {"system": system,
                                   "dictionary": {"kind": "monomial", "degree": 2},
                                   "m_grid": [10, 100, 1000], "n_trials": 10000, "seed": 0})
        rc = cli.main(["variance", "--config", cfg, "--format", "json"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["m"] for r in rows] == [10, 100, 1000]
        for r in rows:
            assert r["within_3sigma_C"] and r["within_3sigma_Cplus"], r

    def test_study_same_bytes_at_one_and_two_threads(self, tmp_path, capsys):
        # 1100 trials are two trial chunks, so two threads run the pool
        cfg = write_cfg(tmp_path, {"system": OU_SYSTEM,
                                   "dictionary": {"kind": "monomial", "degree": 2},
                                   "m_grid": [4, 8, 16, 32], "n_trials": 1100, "seed": 2})
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            rc = cli.main(["study", "--config", cfg, "--out", str(out), "--threads", threads])
            assert rc == 0
            outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert outs[0] == outs[1]
        # an exact reference: predictions are finite and nothing is reported
        rows = outs[0]["convergence.csv"].decode().splitlines()[2:]
        assert all("nan" not in row for row in rows)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("branch, code", [("iid_markov", 0), ("iid_hoeffding", 3)])
    def test_iid_bounds_need_sup_only_for_hoeffding(self, tmp_path, capsys, branch, code):
        # monomials on the real line have no finite ||phi||_inf
        cfg = write_cfg(tmp_path, {"system": OU_SYSTEM,
                                   "dictionary": {"kind": "monomial", "degree": 2},
                                   "branch": branch, "m_grid": [100, 1000],
                                   "n_trials": 200, "seed": 0})
        rc = cli.main(["bounds", "--config", cfg, "--out", str(tmp_path)])
        assert rc == code
        if code == 0:
            lines = (tmp_path / "bound_grid.csv").read_text().splitlines()[1:]
            rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
            assert len(rows) == 2
            assert all(r[k] == "true" for r in rows for k in ("ok", "ok_C", "ok_Cplus"))
        else:
            assert "||phi||_inf" in capsys.readouterr().err

    def test_hoeffding_exits_3_before_sampling(self, tmp_path, capsys, monkeypatch):
        # every bound is built before the Monte-Carlo run of any grid point
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the bounds were built")

        monkeypatch.setattr(studies, "mc_trial_errors", no_sampling)
        cfg = write_cfg(tmp_path, {"system": OU_SYSTEM,
                                   "dictionary": {"kind": "monomial", "degree": 2},
                                   "branch": "iid_hoeffding", "m_grid": [2000, 4000],
                                   "n_trials": 4000, "seed": 0})
        assert cli.main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "||phi||_inf" in capsys.readouterr().err

    def test_reference_model_fallback_is_reported(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"system": DOUBLE_WELL,
                                   "dictionary": {"kind": "monomial", "degree": 2},
                                   "m_grid": [4, 8], "n_trials": 30, "seed": 3})
        rc = cli.main(["study", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert "sde double_well" in lines[0] and "30 trials of 8 lags" in lines[0]
        assert "standard error" in lines[0]


class TestInputAtFault:
    STUDY = {"system": CHAIN_SYSTEM, "dictionary": {"kind": "indicator"},
             "m_grid": [10, 20, 40, 80], "n_trials": 30, "seed": 0}

    @pytest.mark.parametrize(
        "command, cfg, extra",
        [("study", {"threads": "two"}, []), ("study", {}, ["--threads", "0"]),
         ("variance", {}, ["--threads", "-1"]), ("variance", {"threads": 1.5}, []),
         ("bounds", {"branch": "ergodic_linear"}, ["--threads", "0"])],
        ids=["study_string", "study_zero", "variance_negative", "variance_float",
             "bounds_zero"],
    )
    def test_bad_threads_exit_2(self, tmp_path, capsys, command, cfg, extra):
        cfg = dict(self.STUDY, **cfg)
        rc = cli.main([command, "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path), *extra])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "threads" in err

    @pytest.mark.parametrize(
        "argv, cfg",
        [(["study"], dict(STUDY, system={"type": "finite_chain",
                                         "transition": [[0.0, 1.0], [1.0, 0.0]]})),
         (["variance"], dict(STUDY, system=DOUBLE_WELL,
                             dictionary={"kind": "monomial", "degree": 2})),
         (["simulate", "--regime", "iid"], {"system": DOUBLE_WELL}),
         # fails before learning a reference model, so no note precedes the error
         (["study"], dict(STUDY, system=DOUBLE_WELL, regime="iid",
                          dictionary={"kind": "monomial", "degree": 2}))],
        ids=["periodic_chain_study", "sde_variance", "sde_iid_simulate", "sde_iid_study"],
    )
    def test_input_at_fault_exit_2(self, tmp_path, capsys, argv, cfg):
        rc = cli.main([*argv, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_run_too_large_for_memory_exit_2(self, tmp_path, capsys, command):
        # 10^12 steps of one trajectory: its 8 TB of states cannot be allocated
        cfg = {"system": CHAIN_SYSTEM, "dictionary": {"kind": "indicator"}}
        rc = cli.main([command, "--config", write_cfg(tmp_path, cfg), "--m", str(10**12),
                       "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "does not fit in memory" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "dictionary",
        [{"kind": "indicator", "n_states": 2}, {"kind": "fourier", "max_freq": 1},
         {"kind": "monomial", "degree": 2}],
        ids=["indicator", "fourier", "monomial"],
    )
    def test_scalar_dictionary_on_vector_states_exit_2(self, tmp_path, capsys, dictionary):
        # found by the CLI fuzz test: on 2-d states the indicator and
        # Fourier dictionaries raised a numpy broadcasting error (exit 1)
        cfg = dict(self.STUDY, system=dict(OU_SYSTEM, state_dim=2), dictionary=dictionary)
        rc = cli.main(["study", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "scalar states" in err

    @pytest.mark.parametrize(
        "system, dictionary, path",
        [(dict(OU_SYSTEM, rate="fast"), {"kind": "monomial"}, "system.rate"),
         ({"type": "noisy_map", "map": {"name": "logistic", "r": [3.9]}},
          {"kind": "monomial"}, "system.map.r"),
         (OU_SYSTEM, {"kind": "monomial", "degree": "two"}, "dictionary.degree"),
         (OU_SYSTEM, {"kind": "rff", "n_features": 4, "bandwidth": None},
          "dictionary.bandwidth")],
        ids=["sde_rate", "logistic_r", "monomial_degree", "rff_bandwidth"],
    )
    def test_bad_number_named(self, tmp_path, capsys, system, dictionary, path):
        cfg = dict(self.STUDY, system=system, dictionary=dictionary)
        rc = cli.main(["study", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and path in err


def test_linear_2d_rff_study(tmp_path):
    system = {"type": "noisy_map", "noise_sigma": 0.1,
              "map": {"name": "linear", "matrix": [[0.5, 0.1], [0.0, 0.4]]}}
    cfg = write_cfg(tmp_path, {"system": system,
                               "dictionary": {"kind": "rff", "n_features": 6, "dim": 2},
                               "m_grid": [20, 40], "n_trials": 30, "seed": 1})
    rc = cli.main(["study", "--config", cfg, "--out", str(tmp_path), "--format", "json"])
    assert rc == 0
    rows = json.loads((tmp_path / "convergence.json").read_text())
    assert [r["m"] for r in rows] == [20, 40]
    assert all(math.isfinite(r["rmse_C"]) for r in rows)


LINEAR_2D = {"type": "noisy_map", "noise_sigma": 0.1,
             "map": {"name": "linear", "matrix": [[0.5, 0.1], [0.0, 0.4]]}}


class TestMalformedStructure:
    @pytest.mark.parametrize(
        "command, cfg, path",
        [("simulate", {"system": {"type": "noisy_map", "map": {"name": "linear"}}},
          "system.map.matrix"),
         ("simulate", {"system": {"type": "finite_chain",
                                  "transition": [["a", 1.0], [0.5, 0.5]]}},
          "system.transition"),
         ("simulate", {"system": {"type": "noisy_map",
                                  "map": {"name": "linear", "matrix": [[0.5, "x"]]}}},
          "system.map.matrix"),
         ("simulate", {"system": {"type": "noisy_map",
                                  "map": {"name": "linear", "matrix": [[0.5, 0.1]]}}},
          "system.map.matrix"),
         ("simulate", {"system": {"type": "circle_rotation",
                                  "t0": {"form": "quadratic", "a": -1, "c": 2, "d": 5}}},
          "system.t0.b"),
         ("simulate", {"system": {"type": "noisy_map", "map": "x"}}, "system.map"),
         ("estimate", {"system": LINEAR_2D,
                       "dictionary": {"kind": "rff", "n_features": 6, "dim": 3}},
          "dictionary.dim"),
         ("study", {"system": GOLDEN, "dictionary": {"kind": "rff", "n_features": 4,
                                                     "seed": -1},
                    "m_grid": [10, 20], "n_trials": 30}, "dictionary.seed"),
         ("simulate", {"system": {"type": "noisy_map", "map": {"name": "logistic"},
                                  "x0": "abc"}}, "system.x0"),
         ("simulate", {"system": dict(LINEAR_2D, x0=[1, 2, 3])}, "system.x0"),
         ("simulate", {"system": dict(LINEAR_2D, x0=[0.1, float("nan")])}, "system.x0"),
         ("simulate", {"system": {"type": "circle_rotation",
                                  "t0": {"form": "quadratic", "a": -1, "b": 1.5, "c": 2,
                                         "d": 5}}},
          "system.t0.b"),
         ("study", {"system": OU_SYSTEM, "dictionary": {"kind": "monomial", "degree": 2.5},
                    "m_grid": [10, 20], "n_trials": 30}, "dictionary.degree"),
         ("study", {"system": dict(OU_SYSTEM, rate=True),
                    "dictionary": {"kind": "monomial", "degree": 2},
                    "m_grid": [10, 20], "n_trials": 30}, "system.rate")],
        ids=["linear_without_matrix", "transition_not_numeric", "matrix_not_numeric",
             "matrix_not_square", "t0_without_b", "map_not_object", "rff_dim_mismatch",
             "rff_negative_seed", "x0_not_numeric", "x0_wrong_dimension", "x0_not_finite",
             "t0_b_not_integral", "degree_not_integral", "rate_boolean"],
    )
    def test_named_key_exit_2(self, tmp_path, capsys, command, cfg, path):
        rc = cli.main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and path in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, cfg, path",
        [("estimate", {"system": {"type": "finite_chain", "transition": [[0.7, 0.3], [0.3, 0.7]],
                                  "bogus": 1}, "dictionary": {"kind": "indicator"}},
          "system.bogus"),
         ("estimate", {"system": {"type": "finite_chain", "transition": [[0.7, 0.3], [0.3, 0.7]]},
                       "dictionary": {"kind": "indicator", "degre": 3}}, "dictionary.degre"),
         ("estimate", {"system": dict(OU_SYSTEM, sigmaa=0.2),
                       "dictionary": {"kind": "monomial", "degree": 2}}, "system.sigmaa"),
         ("estimate", {"system": {"type": "noisy_map", "noise": 0.1,
                                  "map": {"name": "linear", "matrix": [[0.5]]}},
                       "dictionary": {"kind": "monomial", "degree": 2}}, "system.noise"),
         ("simulate", {"system": {"type": "sde", "model": "double_well", "rate": 1.0}},
          "system.rate"),
         ("simulate", {"system": {"type": "noisy_map", "map": {"name": "logistic", "rr": 3}}},
          "system.map.rr"),
         ("simulate", {"system": dict(GOLDEN, t0=dict(GOLDEN["t0"], e=1))}, "system.t0.e"),
         ("bounds", {"system": GOLDEN, "dictionary": {"kind": "fourier", "max_freq": 1},
                     "branch": "ergodic_kappa_zero", "thin": {"alpha": 1.5, "theta": 0.2,
                                                             "gamma": 1},
                     "m_grid": [50], "n_trials": 20}, "thin.gamma")],
        ids=["chain", "indicator", "ou", "linear_map", "double_well", "logistic_map",
             "quadratic_t0", "thin"],
    )
    def test_unknown_nested_key_exit_2(self, tmp_path, capsys, command, cfg, path):
        rc = cli.main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: unknown key {path}; ") and len(err.splitlines()) == 1

    def test_integral_float_and_scalar_x0_accepted(self, tmp_path, capsys):
        system = {"type": "noisy_map", "map": {"name": "logistic"}, "noise_sigma": 0.01,
                  "x0": 0.2}
        cfg = write_cfg(tmp_path, {"system": system, "seed": 1})
        assert cli.main(["simulate", "--config", cfg, "--m", "5", "--format", "json"]) == 0
        golden = dict(GOLDEN, t0=dict(GOLDEN["t0"], b=1.0))
        cfg = write_cfg(tmp_path, {"system": golden, "seed": 1})
        assert cli.main(["simulate", "--config", cfg, "--m", "5", "--format", "json"]) == 0

    def test_iid_variance_reports_iid_numbers(self, tmp_path):
        cfg = {"system": {"type": "finite_chain",
                          "transition": [[0.9, 0.1, 0.0], [0.05, 0.9, 0.05],
                                         [0.0, 0.2, 0.8]]},
               "dictionary": {"kind": "monomial", "degree": 2}, "regime": "iid",
               "m_grid": [100, 400], "n_trials": 2000, "seed": 3}
        rc = cli.main(["variance", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path), "--format", "json"])
        assert rc == 0
        rows = json.loads((tmp_path / "variance_check.json").read_text())
        # ergodic sampling of this chain gives 4.357 at m = 100; i.i.d. gives E_0 / m
        assert rows[0]["var_C_exact"] < 1.0
        assert all(r["within_3sigma_C"] and r["within_3sigma_Cplus"] for r in rows)

    def test_rff_dim_defaults_to_state_dim(self, tmp_path):
        cfg = {"system": LINEAR_2D, "dictionary": {"kind": "rff", "n_features": 6}}
        out = tmp_path / "estimate.json"
        rc = cli.main(["estimate", "--config", write_cfg(tmp_path, cfg), "--m", "50",
                       "--out", str(out)])
        assert rc == 0
        assert len(json.loads(out.read_text())["Khat"]) == 6

    # the logistic map at r = 5 overflows on its way to the non-finite state
    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
    def test_non_finite_state_names_lag_exit_3(self, tmp_path, capsys):
        system = {"type": "noisy_map", "map": {"name": "logistic", "r": 5},
                  "noise_sigma": 0.01, "x0": 0.2}
        cfg = {"system": system, "dictionary": {"kind": "monomial", "degree": 2},
               "m_grid": [10, 20], "n_trials": 30}
        rc = cli.main(["study", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "non-finite state at lag" in err
