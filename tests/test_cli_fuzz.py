"""Property test: every generated config gets exit code 0, 2 or 3 from
`cli.main`, and never a traceback."""

import contextlib
import io
import json
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from koopman_cert import cli  # noqa: E402

BRANCHES = ["ergodic_linear", "ergodic_superlinear", "ergodic_kappa_zero",
            "iid_markov", "iid_hoeffding"]
small = st.floats(0.0, 1.0)


@st.composite
def chains(draw):
    n = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=n, max_size=n))
    # most rows are normalized, so most chains are valid; raw rows test the gate
    if draw(st.sampled_from([True, True, True, False])):
        rows = [[x / sum(r) for x in r] if sum(r) > 0 else r for r in rows]
    return {"type": "finite_chain", "transition": rows}


circles = st.one_of(
    st.builds(lambda t0: {"type": "circle_rotation", "t0": t0}, small),
    st.builds(lambda a, b, c, d: {"type": "circle_rotation",
                                  "t0": {"form": "quadratic", "a": a, "b": b, "c": c, "d": d}},
              st.integers(-2, 2), st.integers(-2, 2), st.integers(-3, 3), st.integers(0, 6)),
)
sdes = st.builds(
    lambda model, rate, sigma, lag, dim: {
        "type": "sde", "model": model, "rate": rate, "sigma": sigma, "lag": lag,
        "integrator_dt": 0.05, "state_dim": dim},
    st.sampled_from(["ornstein_uhlenbeck", "double_well"]), st.floats(0.0, 50.0),
    st.floats(0.0, 2.0), st.sampled_from([0.05, 0.1]), st.integers(1, 2),
)
noisy_maps = st.one_of(
    st.builds(lambda r, sigma, x0: {"type": "noisy_map", "noise_sigma": sigma, "x0": x0,
                                    "map": {"name": "logistic", "r": r}},
              st.floats(0.0, 4.0), st.floats(0.0, 0.1), small),
    st.builds(lambda A, sigma: {"type": "noisy_map", "noise_sigma": sigma,
                                "map": {"name": "linear", "matrix": A}},
              st.sampled_from([1, 2]).flatmap(lambda n: st.lists(
                  st.lists(st.floats(-1.2, 1.2), min_size=n, max_size=n),
                  min_size=n, max_size=n)),
              st.floats(0.0, 1.0)),
)
dictionaries = st.one_of(
    st.just({"kind": "indicator"}),
    st.builds(lambda n: {"kind": "indicator", "n_states": n}, st.integers(1, 3)),
    st.builds(lambda F: {"kind": "fourier", "max_freq": F}, st.integers(0, 2)),
    # scales of 1e100 and up overflow the dictionary values or their Grams
    st.builds(lambda d, s: {"kind": "monomial", "degree": d, "scale": s},
              st.integers(0, 3), st.one_of(st.floats(0.1, 2.0),
                                           st.sampled_from([1e100, 1e160, 1e200, 1e300]))),
    st.builds(lambda n, b, dim: {"kind": "rff", "n_features": n, "bandwidth": b, "dim": dim},
              st.sampled_from([2, 4]), st.floats(0.5, 2.0), st.integers(1, 2)),
)


# valid and malformed values of the flags and of the study and bounds keys;
# a run sets some valid ones and, half the time, breaks one
FLAGS = {"--seed": st.integers(0, 9), "--threads": st.integers(1, 2)}
BAD_FLAGS = {"--seed": st.just(-1), "--threads": st.sampled_from([0, -1])}
STUDY_KEYS = {
    "error_quantiles": st.lists(st.floats(0.0, 1.0), max_size=2),
    "tail_epsilon": st.floats(0.1, 2.0),
    "tail_branch": st.sampled_from(BRANCHES),
    "threads": st.integers(1, 2),
}
BAD_STUDY_KEYS = {
    "error_quantiles": st.sampled_from([[1.5], [-0.1], "x", None, 0.5]),
    "tail_epsilon": st.sampled_from(["abc", "nan", [1.0], 0.0, -1.0]),
    "tail_branch": st.sampled_from(["bogus", 1]),
    "threads": st.sampled_from([0, -1, "two", 1.5, None]),
}
BOUNDS_KEYS = {
    "branch": st.sampled_from(BRANCHES),
    "epsilons": st.lists(st.floats(0.1, 3.0), min_size=1, max_size=2),
    "thin": st.just({"alpha": 1.5, "theta": 0.2}),
    "threads": st.integers(1, 2),
}
BAD_BOUNDS_KEYS = {
    "branch": st.sampled_from(["bogus", 1]),
    "epsilons": st.sampled_from(["abc", [], [0.0], [-1.0], [float("inf")]]),
    "thin": st.sampled_from([{"alpha": 1.5}, {"alpha": "x", "theta": 0.2}, "wide", {}]),
}


def drawn_keys(draw, good, bad):
    """Valid values of some of the good keys and, half the time, one bad
    key: a config dict, and its "--" keys as CLI arguments."""
    keys = {k: draw(v) for k, v in {**FLAGS, **good}.items() if draw(st.booleans())}
    bad = {**BAD_FLAGS, **bad}
    broken = draw(st.sampled_from([None] * len(bad) + list(bad)))
    if broken:
        keys[broken] = draw(bad[broken])
    argv = [str(x) for k, v in keys.items() if k.startswith("--") for x in (k, v)]
    return {k: v for k, v in keys.items() if not k.startswith("--")}, argv


@st.composite
def runs(draw):
    """(argv after the config path, config) for one small CLI run."""
    system = draw(st.one_of(chains(), circles, sdes, noisy_maps))
    cfg = {"system": system, "dictionary": draw(dictionaries), "seed": draw(st.integers(0, 9))}
    command = draw(st.sampled_from(["simulate", "estimate", "variance", "bounds", "study"]))
    regime = draw(st.sampled_from(["ergodic", "iid"]))
    if command in ("simulate", "estimate"):
        _, argv = drawn_keys(draw, {}, {})
        return [command, *argv, "--m", "6", "--regime", regime], cfg
    if command == "bounds":
        keys, argv = drawn_keys(draw, BOUNDS_KEYS, BAD_BOUNDS_KEYS)
        cfg.update(m_grid=[20], n_trials=20, **keys)
        return [command, *argv], cfg
    keys, argv = drawn_keys(draw, STUDY_KEYS, BAD_STUDY_KEYS)
    cfg.update(regime=regime, m_grid=[4, 8], n_trials=30, **keys)
    return [command, *argv], cfg


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(runs())
def test_cli_exits_0_2_or_3_without_traceback(run):
    argv, cfg = run
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main([argv[0], "--config", path, "--out", tmp, *argv[1:]])
    assert rc in (0, 2, 3), (rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
