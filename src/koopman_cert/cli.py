"""koopman-cert command line interface.

Subcommands: simulate, estimate, variance, bounds, study.  Exit codes:
0 success; 2 for a ConfigError (the input is at fault, including its
subclasses NonErgodicChain and UnsupportedSystem), an --out that cannot
be written, which is checked before any sampling, or a run that does not
fit in memory; 3 for any other KoopmanCertError (a numerical failure).
JSON output writes null for a missing (non-finite) value.
"""

import argparse
import errno
import json
import math
import os
import sys as _sys
from dataclasses import asdict

import numpy as np

from . import bounds as bounds_mod
from . import studies
from .config import (
    BoundsConfig,
    RunConfig,
    StudyConfig,
    dictionary_from_config,
    read_config,
    system_from_config,
)
from .edmd import edmd_estimate, estimation_error
from .errors import ConfigError, KoopmanCertError
from .galerkin import galerkin_matrix
from .systems import sample_ergodic, sample_iid
from .variance import build_rep, exact_reference_gram


def _add_common(p):
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--threads", type=int, default=None, help="override config threads")
    p.add_argument("--out", default=None, help="output file or directory")


def build_parser():
    p = argparse.ArgumentParser(prog="koopman-cert")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("simulate", "estimate", "variance", "bounds", "study"):
        _add_common(sub.add_parser(name))
    # estimate always writes JSON, bounds a JSON report and a CSV grid
    for name in ("simulate", "variance", "study"):
        sub.choices[name].add_argument("--format", choices=["csv", "json"], default="csv")
    sub.choices["simulate"].add_argument("--m", type=int, default=100)
    sub.choices["simulate"].add_argument(
        "--regime", choices=["ergodic", "iid"], default="ergodic"
    )
    sub.choices["estimate"].add_argument("--m", type=int, default=1000)
    sub.choices["estimate"].add_argument(
        "--regime", choices=["ergodic", "iid"], default="ergodic"
    )
    return p


def _json_text(payload):
    """Indented, key-sorted JSON; non-finite floats become null."""
    return json.dumps(_finite_or_none(payload), indent=2, sort_keys=True, allow_nan=False)


def _finite_or_none(v):
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _finite_or_none(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite_or_none(x) for x in v]
    return v


def _write_json(path, payload):
    with open(path, "w") as fh:
        fh.write(_json_text(payload) + "\n")


def _emit(path, payload):
    """JSON to the file `path`, or to standard output when it is None."""
    if path:
        _write_json(path, payload)
    else:
        print(_json_text(payload))


def _out_file(args, default_name):
    """The file --out names (default_name in it when it is a directory), or
    None for standard output.  Checked before any sampling, so that an
    --out that cannot be written fails before the run, not after it."""
    if not args.out:
        return None
    path = args.out
    if os.path.isdir(path):
        path = os.path.join(path, default_name)
    _check_writable(os.path.dirname(path) or ".", path)
    return path


def _out_dir(args):
    """The directory `study` and `bounds` write into, made and checked
    before any sampling."""
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    _check_writable(out_dir, out_dir)
    return out_dir


def _check_writable(directory, path):
    """Raise the OSError that writing `path` into `directory` would."""
    if not os.path.isdir(directory):
        code = errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
        raise OSError(code, os.strerror(code), path)
    if not os.access(directory, os.W_OK):
        raise OSError(errno.EACCES, os.strerror(errno.EACCES), path)


def cmd_simulate(args):
    cfg = read_config(args.config, RunConfig, args.seed, args.threads)
    path = _out_file(args, f"pairs.{args.format}")
    pairs = _sample(system_from_config(cfg.system), args, cfg.seed)
    if args.format == "csv":
        xs, ys = _rows(pairs.xs), _rows(pairs.ys)
        text = "".join(["k,x,y\n", *(f"{k},{x},{y}\n" for k, (x, y) in enumerate(zip(xs, ys)))])
        if path:
            with open(path, "w") as fh:
                fh.write(text)
        else:
            print(text, end="")
        return 0
    payload = {
        "regime": pairs.regime.value,
        "seed": pairs.seed,
        "xs": np.asarray(pairs.xs).tolist(),
        "ys": np.asarray(pairs.ys).tolist(),
    }
    _emit(path, payload)
    return 0


def _sample(system, args, seed):
    """The pairs of `simulate` and `estimate`, in the --regime asked for."""
    if args.regime == "ergodic":
        return sample_ergodic(system, args.m, seed=seed)
    return sample_iid(system, args.m, seed=seed)


def _rows(states):
    """Each state of an (m,) or (m, state_dim) array as the reprs of its
    coordinates joined by ';', from one `tolist`."""
    states = np.asarray(states)
    if states.ndim == 1:
        return list(map(repr, states.tolist()))
    return [";".join(map(repr, row)) for row in states.reshape(len(states), -1).tolist()]


def cmd_estimate(args):
    cfg = read_config(args.config, RunConfig, args.seed, args.threads)
    path = _out_file(args, "estimate.json")
    system = system_from_config(cfg.system)
    dictionary = dictionary_from_config(cfg.dictionary, system=system)
    pairs = _sample(system, args, cfg.seed)
    est = edmd_estimate(dictionary, pairs)
    payload = est.to_json_dict()
    payload["seed"] = cfg.seed
    # the effective config: the file's, with the seed and threads in force
    payload["config_hash"] = hash_config(dict(cfg.source, seed=cfg.seed,
                                              threads=cfg.threads))
    try:
        ref = galerkin_matrix(exact_reference_gram(system, dictionary))
        payload["errors"] = estimation_error(est, ref)
    except KoopmanCertError as exc:
        print(f"note: no exact reference for {studies._system_name(cfg.system)} ({exc}); "
              "the output has no errors block", file=_sys.stderr)
    _emit(path, payload)
    return 0


def hash_config(cfg):
    import hashlib

    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]


def cmd_variance(args):
    cfg = read_config(args.config, StudyConfig, args.seed, args.threads)
    # CSV only to a file; JSON to a file or standard output
    csv = args.format == "csv" and args.out
    path = _out_file(args, "variance_check.csv" if csv else "variance_check.json")
    rows = studies.run_variance_check(cfg)
    if csv:
        studies.write_csv(path, rows, "variance")
    else:
        _emit(path, rows)
    return 0


def cmd_bounds(args):
    cfg = read_config(args.config, BoundsConfig, args.seed, args.threads)
    out_dir = _out_dir(args)
    system = system_from_config(cfg.system)
    rep = build_rep(system, dictionary_from_config(cfg.dictionary, system=system))
    inputs = bounds_mod.bound_inputs_from_exact(rep, thin_params=cfg.thin_params)
    rows = studies.run_bound_validity(
        rep, inputs, cfg.branch, cfg.m_grid, cfg.epsilons, cfg.n_trials, cfg.seed,
        threads=cfg.threads,
    )
    report = bounds_mod.branch_bound(inputs, cfg.branch, cfg.m_grid[-1], cfg.epsilons[0])
    _write_json(os.path.join(out_dir, "bound_report.json"), report.to_json_dict())
    studies.write_csv(os.path.join(out_dir, "bound_grid.csv"), rows, "bounds")
    return 0


def cmd_study(args):
    cfg = read_config(args.config, StudyConfig, args.seed, args.threads)
    out_dir = _out_dir(args)
    rows, fits = studies.run_convergence_study(cfg)
    if args.format == "json":
        _write_json(os.path.join(out_dir, "convergence.json"), rows)
    else:
        studies.write_csv(os.path.join(out_dir, "convergence.csv"), rows, "convergence")
    _write_json(os.path.join(out_dir, "rate_fit.json"),
                {k: (asdict(v) if v else None) for k, v in fits.items()})
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "variance": cmd_variance,
    "bounds": cmd_bounds,
    "study": cmd_study,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except KoopmanCertError as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return 3
    except OSError as exc:
        # the config was read (`read_config` reports its own path), so a
        # path here is an --out that cannot be written
        if exc.filename is None:
            raise
        print(f"config error: cannot write {exc.filename}: {exc.strerror}", file=_sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"config error: the requested run does not fit in memory ({exc})", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    _sys.exit(main())
