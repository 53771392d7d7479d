"""JSON config loading: systems, dictionaries and the config of every command.

Every command reads its config through `read_config`, which checks every key
before anything is sampled; `--seed` and `--threads`, whenever given, take
the place of the file's `seed` and `threads`.
"""

import json
import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import bounds
from . import dictionaries as dicts
from .errors import ConfigError
from .systems import (
    CircleRotationSystem,
    FiniteMarkovSystem,
    NoisyMapSystem,
    QuadraticIrrational,
    SdeSystem,
    gaussian_ar1,
)


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _name(path, key):
    return f"{path}.{key}" if path else key


def _number(cfg, key, default, path, cast=float, least=None):
    """cfg[key], or default when absent, through cast; a boolean, a value
    cast rejects, one an int cast would change (1.5, "3"), a float that is
    not finite, or a value below least raises ConfigError naming path.key
    (the bare key when path is None)."""
    value = cfg.get(key, default)
    name = _name(path, key)
    try:
        if isinstance(value, bool):
            raise TypeError("a boolean is not a number")
        out = cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be a number, got {value!r}") from exc
    if cast is int and out != value:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if cast is float and not math.isfinite(out):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if least is not None and out < least:
        kind = "an integer" if cast is int else "a number"
        raise ConfigError(f"{name} must be {kind} >= {least}, got {value!r}")
    return out


def _array(cfg, key, path):
    """cfg[key] as a float array; a missing key or a value that is not an
    array of finite numbers raises ConfigError naming path.key."""
    name = _name(path, key)
    if key not in cfg:
        raise ConfigError(f"{name} is required")
    try:
        arr = np.asarray(cfg[key], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be an array of numbers, got {cfg[key]!r}") from exc
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} must hold finite numbers, got {cfg[key]!r}")
    return arr


def _grid(cfg, key):
    """cfg[key] as a non-empty, strictly increasing list of integers >= 1."""
    grid = cfg[key]
    if not isinstance(grid, (list, tuple)) or not grid:
        raise ConfigError(f"{key} must be a non-empty list of integers >= 1, got {grid!r}")
    entries = dict(enumerate(grid))
    out = [_number(entries, i, None, key, int, least=1) for i in entries]
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ConfigError(f"{key} must be strictly increasing, got {grid!r}")
    return out


def _keys(cfg, known, path):
    """Raise ConfigError naming every key of the object cfg at path that is
    not in known, the keys read from it."""
    unknown = sorted(set(cfg) - set(known))
    if unknown:
        names = ", ".join(_name(path, k) for k in unknown)
        raise ConfigError(f"unknown key{'s' if len(unknown) > 1 else ''} {names}; "
                          f"this {path} takes {', '.join(known)}")


def _choice(cfg, key, choices):
    if cfg[key] not in choices:
        raise ConfigError(f"{key} must be one of {list(choices)}, got {cfg[key]!r}")


def system_from_config(cfg):
    """Build a system from {"type": ..., ...}."""
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise ConfigError(f"config needs a 'system' object with a 'type' key, got {cfg!r}")
    kind = cfg["type"]
    if kind == "finite_chain":
        _keys(cfg, ("type", "transition"), "system")
        return FiniteMarkovSystem(_array(cfg, "transition", "system"))
    if kind == "circle_rotation":
        _keys(cfg, ("type", "t0"), "system")
        t0 = cfg.get("t0")
        if isinstance(t0, dict):
            if t0.get("form") != "quadratic":
                raise ConfigError("t0 object must have form='quadratic'")
            _keys(t0, ("form", "a", "b", "c", "d"), "system.t0")
            return CircleRotationSystem(QuadraticIrrational(
                *(_number(t0, k, None, "system.t0", int) for k in "abcd")))
        return CircleRotationSystem(_number(cfg, "t0", None, "system"))
    if kind == "noisy_map":
        return _noisy_map_from_config(cfg)
    if kind == "sde":
        return _sde_from_config(cfg)
    raise ConfigError(f"unknown system type {kind!r}")


# the keys each noisy map, SDE model and dictionary kind reads
MAP_KEYS = {"logistic": ("name", "r"), "linear": ("name", "matrix")}
SDE_KEYS = {"ornstein_uhlenbeck": ("rate", "sigma", "state_dim"), "double_well": ("sigma",)}
DICTIONARY_KEYS = {"indicator": ("n_states",), "fourier": ("max_freq",),
                   "monomial": ("degree", "scale"),
                   "rff": ("n_features", "bandwidth", "seed", "dim")}


def _noisy_map_from_config(cfg):
    _keys(cfg, ("type", "map", "noise_sigma", "x0"), "system")
    spec = cfg.get("map", {})
    if not isinstance(spec, dict):
        raise ConfigError(f"system.map must be an object, got {spec!r}")
    name = spec.get("name")
    if name in MAP_KEYS:
        _keys(spec, MAP_KEYS[name], "system.map")
    if name == "logistic":
        r = _number(spec, "r", 3.9, "system.map")

        def map_fn(x):
            return r * x * (1.0 - x)

        dim = 1
    elif name == "linear":
        A = _array(spec, "matrix", "system.map")
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ConfigError(f"system.map.matrix must be square, got shape {A.shape}")

        def map_fn(x):
            return x @ A.T

        dim = A.shape[0]
    else:
        raise ConfigError("noisy_map supports map names 'logistic' and 'linear'")
    sigma = _number(cfg, "noise_sigma", 0.0, "system")

    def noise(gen, shape):
        if sigma == 0.0:
            return np.zeros(shape)
        return sigma * gen.standard_normal(shape)

    x0 = None
    if "x0" in cfg:
        x0 = _array(cfg, "x0", "system")
        # a scalar start is accepted for a 1-d map
        if x0.shape != (dim,) and not (dim == 1 and x0.ndim == 0):
            raise ConfigError(f"system.x0 must hold {dim} coordinates, got shape {x0.shape}")
    system = NoisyMapSystem(map_fn, noise, dim, x0=x0)
    if name == "linear" and dim == 1 and sigma > 0 and abs(A[0, 0]) < 1.0:
        a = float(A[0, 0])
        system.law = gaussian_ar1(a, sigma**2 / (1.0 - a * a))
    return system


def _sde_from_config(cfg):
    name = cfg.get("model")
    if name in SDE_KEYS:
        _keys(cfg, ("type", "model", "lag", "integrator_dt", *SDE_KEYS[name]), "system")
    if name == "ornstein_uhlenbeck":
        rate = _number(cfg, "rate", 1.0, "system")
        sigma = _number(cfg, "sigma", 1.0, "system")
        dim = _number(cfg, "state_dim", 1, "system", int)

        def drift(x):
            return -rate * x

        def diffusion(x):
            return sigma * np.ones_like(x)

    elif name == "double_well":
        sigma = _number(cfg, "sigma", 0.7, "system")
        dim = 1

        def drift(x):
            return x - x**3

        def diffusion(x):
            return sigma * np.ones_like(x)

    else:
        raise ConfigError("sde supports models 'ornstein_uhlenbeck' and 'double_well'")
    lag = _number(cfg, "lag", 1.0, "system")
    dt = None
    if cfg.get("integrator_dt") is not None:
        dt = _number(cfg, "integrator_dt", None, "system")
    system = SdeSystem(drift, diffusion, dim, lag, integrator_dt=dt)
    if name == "ornstein_uhlenbeck" and sigma > 0:
        # each substep is x -> a x + sigma sqrt(dt) xi, so a lag of s
        # substeps is a Gaussian AR(1) step with rho = a^s
        a = 1.0 - rate * system.integrator_dt
        if abs(a) < 1.0:
            system.law = gaussian_ar1(a**system.substeps,
                                      sigma**2 * system.integrator_dt / (1.0 - a * a))
    return system


def dictionary_from_config(cfg, system=None):
    """Build a dictionary from {"kind": ..., ...}.

    {"kind": "indicator"} takes its size from the accompanying finite
    chain when n_states is omitted.
    """
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError(f"config needs a 'dictionary' object with a 'kind' key, got {cfg!r}")
    kind = cfg["kind"]
    if kind in DICTIONARY_KEYS:
        _keys(cfg, ("kind", *DICTIONARY_KEYS[kind]), "dictionary")
    # chain and circle states are scalars
    state_dim = getattr(system, "state_dim", 1)
    if kind in ("indicator", "fourier", "monomial") and state_dim != 1:
        raise ConfigError(f"the {kind} dictionary needs scalar states, but the "
                          f"system's states have {state_dim} coordinates")
    if kind == "indicator":
        if cfg.get("n_states") is not None:
            return dicts.indicator(_number(cfg, "n_states", None, "dictionary", int))
        if not isinstance(system, FiniteMarkovSystem):
            raise ConfigError(
                "indicator dictionary needs n_states or a finite-chain system"
            )
        return dicts.indicator(system.n_states)
    if kind == "fourier":
        return dicts.fourier(_number(cfg, "max_freq", 1, "dictionary", int))
    if kind == "monomial":
        return dicts.monomial(_number(cfg, "degree", 2, "dictionary", int),
                              _number(cfg, "scale", 1.0, "dictionary"))
    if kind == "rff":
        dim = _number(cfg, "dim", state_dim, "dictionary", int)
        if system is not None and dim != state_dim:
            raise ConfigError(f"dictionary.dim is {dim}, but the system's states "
                              f"have {state_dim} coordinates")
        return dicts.random_fourier(
            _number(cfg, "n_features", 100, "dictionary", int),
            _number(cfg, "bandwidth", 1.0, "dictionary"),
            _number(cfg, "seed", 0, "dictionary", int, least=0), dim=dim)
    raise ConfigError(f"unknown dictionary kind {kind!r}")


# ---------------------------------------------------------------------------
# command configs
# ---------------------------------------------------------------------------

@dataclass(kw_only=True)
class RunConfig:
    """The config of `simulate` and `estimate`, and the keys every command's
    config shares.  `system` and `dictionary` are checked as they are built
    (`system_from_config`, `dictionary_from_config`), which every command
    does before it samples anything."""

    system: Optional[dict] = None
    dictionary: Optional[dict] = None
    seed: int = 0
    threads: int = 1

    # the config file's own object
    source = None
    NAME = "run"

    def __post_init__(self):
        d = vars(self)
        self.seed = _number(d, "seed", None, None, int, least=0)
        self.threads = _number(d, "threads", None, None, int, least=1)

    @classmethod
    def from_dict(cls, d, **flags):
        """A cls from the config object d, with flags in place of its keys."""
        keys = set(cls.__dataclass_fields__)
        # a run config passes the keys the other configs read, so a study
        # or bounds config serves `simulate` too
        known = keys if cls is not RunConfig else (set(StudyConfig.__dataclass_fields__)
                                                   | set(BoundsConfig.__dataclass_fields__))
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown {cls.NAME} config keys: {sorted(unknown)}")
        out = cls(**{**{k: d[k] for k in keys & set(d)}, **flags})
        out.source = d
        return out


def quantile_tag(q):
    """The prefix of the `study` columns of error quantile q: its percent,
    rounded, as in `q90`."""
    return f"q{int(round(q * 100))}"


@dataclass(kw_only=True)
class StudyConfig(RunConfig):
    """The config of `study` and `variance`."""

    regime: str = "ergodic"
    m_grid: List[int] = field(default_factory=lambda: [100, 1000, 10000])
    n_trials: int = 50
    error_quantiles: List[float] = field(default_factory=lambda: [0.9])
    tail_epsilon: Optional[float] = None
    tail_branch: Optional[str] = None

    NAME = "study"

    def __post_init__(self):
        super().__post_init__()
        d = vars(self)
        _choice(d, "regime", ("ergodic", "iid"))
        self.m_grid = _grid(d, "m_grid")
        # 30 trials at least, so the standard errors mean something
        self.n_trials = _number(d, "n_trials", None, None, int, least=30)
        q = _array(d, "error_quantiles", None)
        if q.ndim != 1 or np.any((q < 0) | (q > 1)):
            raise ConfigError("error_quantiles must be a list of numbers in [0, 1], "
                              f"got {self.error_quantiles!r}")
        self.error_quantiles = q.tolist()
        tagged = {}
        for v in self.error_quantiles:
            u = tagged.setdefault(quantile_tag(v), v)
            if u != v:
                raise ConfigError(f"error_quantiles {u!r} and {v!r} both name the columns "
                                  f"{quantile_tag(v)}_*; give quantiles that differ in percent")
        if self.tail_epsilon is not None:
            eps = _number(d, "tail_epsilon", None, None)
            if eps <= 0:
                raise ConfigError(f"tail_epsilon must be a number > 0, got {self.tail_epsilon!r}")
            self.tail_epsilon = eps
        if self.tail_branch is not None:
            _choice(d, "tail_branch", bounds.BRANCHES)


@dataclass(kw_only=True)
class BoundsConfig(RunConfig):
    """The config of `bounds`."""

    branch: str = bounds.BRANCH_ERGODIC_LINEAR
    thin: Optional[dict] = None
    m_grid: List[int] = field(default_factory=lambda: [1000, 10000])
    epsilons: List[float] = field(default_factory=lambda: [1.0])
    n_trials: int = 1000

    NAME = "bounds"

    def __post_init__(self):
        super().__post_init__()
        d = vars(self)
        _choice(d, "branch", bounds.BRANCHES)
        self.m_grid = _grid(d, "m_grid")
        self.n_trials = _number(d, "n_trials", None, None, int, least=1)
        eps = _array(d, "epsilons", None)
        if eps.ndim != 1 or not eps.size or np.any(eps <= 0):
            raise ConfigError("epsilons must be a non-empty list of numbers > 0, "
                              f"got {self.epsilons!r}")
        self.epsilons = eps.tolist()
        if self.thin is not None:
            if not isinstance(self.thin, dict):
                raise ConfigError(f"thin must be an object with numbers alpha and theta, "
                                  f"got {self.thin!r}")
            _keys(self.thin, ("alpha", "theta"), "thin")
            self.thin = {k: _number(self.thin, k, None, "thin") for k in ("alpha", "theta")}

    @property
    def thin_params(self):
        return None if self.thin is None else (self.thin["alpha"], self.thin["theta"])


def read_config(path, cls, seed=None, threads=None):
    """The config file at path as a cls (`RunConfig`, `StudyConfig` or
    `BoundsConfig`), every key checked.  `seed` and `threads`, the values
    of `--seed` and `--threads`, whenever given take the place of the
    file's."""
    cfg = load_json(path)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    flags = {k: v for k, v in (("seed", seed), ("threads", threads)) if v is not None}
    return cls.from_dict(cfg, **flags)
