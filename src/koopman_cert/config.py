"""JSON config loading for systems and dictionaries."""

import json

import numpy as np

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


def _number(cfg, key, default, path, cast=float):
    """cfg[key], or default when absent, through cast; a boolean, a value
    cast rejects, or one an int cast would change (1.5, "3") raises
    ConfigError naming path.key."""
    value = cfg.get(key, default)
    try:
        if isinstance(value, bool):
            raise TypeError("a boolean is not a number")
        out = cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}.{key} must be a number, got {value!r}") from exc
    if cast is int and out != value:
        raise ConfigError(f"{path}.{key} must be an integer, got {value!r}")
    return out


def _array(cfg, key, path):
    """cfg[key] as a float array; a missing key or a value that is not an
    array of finite numbers raises ConfigError naming path.key."""
    if key not in cfg:
        raise ConfigError(f"{path}.{key} is required")
    try:
        arr = np.asarray(cfg[key], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}.{key} must be an array of numbers, got {cfg[key]!r}") from exc
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{path}.{key} must hold finite numbers, got {cfg[key]!r}")
    return arr


def system_from_config(cfg):
    """Build a system from {"type": ..., ...}."""
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise ConfigError("system config must be an object with a 'type' key")
    kind = cfg["type"]
    if kind == "finite_chain":
        return FiniteMarkovSystem(_array(cfg, "transition", "system"))
    if kind == "circle_rotation":
        t0 = cfg.get("t0")
        if isinstance(t0, dict):
            if t0.get("form") != "quadratic":
                raise ConfigError("t0 object must have form='quadratic'")
            return CircleRotationSystem(QuadraticIrrational(
                *(_number(t0, k, None, "system.t0", int) for k in "abcd")))
        if t0 is None:
            raise ConfigError("circle_rotation needs t0")
        return CircleRotationSystem(_number(cfg, "t0", None, "system"))
    if kind == "noisy_map":
        return _noisy_map_from_config(cfg)
    if kind == "sde":
        return _sde_from_config(cfg)
    raise ConfigError(f"unknown system type {kind!r}")


def _noisy_map_from_config(cfg):
    spec = cfg.get("map", {})
    if not isinstance(spec, dict):
        raise ConfigError(f"system.map must be an object, got {spec!r}")
    name = spec.get("name")
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
        raise ConfigError("dictionary config must be an object with a 'kind' key")
    kind = cfg["kind"]
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
        seed = _number(cfg, "seed", 0, "dictionary", int)
        if seed < 0:
            raise ConfigError(f"dictionary.seed must be an integer >= 0, got {seed}")
        return dicts.random_fourier(
            _number(cfg, "n_features", 100, "dictionary", int),
            _number(cfg, "bandwidth", 1.0, "dictionary"), seed, dim=dim)
    raise ConfigError(f"unknown dictionary kind {kind!r}")
