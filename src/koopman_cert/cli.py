"""koopman-cert command line interface.

Subcommands: simulate, estimate, variance, bounds, study.  Exit codes:
0 success; 2 for a ConfigError (the input is at fault, including its
subclasses NonErgodicChain and UnsupportedSystem); 3 for any other
KoopmanCertError (a numerical failure).  JSON output writes null for a
missing (non-finite) value.
"""

import argparse
import json
import math
import os
import sys as _sys

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
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None, help="output file or directory")


def build_parser():
    p = argparse.ArgumentParser(prog="koopman-cert")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("simulate", "estimate", "variance", "bounds", "study"):
        _add_common(sub.add_parser(name))
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


def _emit(args, payload, default_name):
    if args.out:
        path = args.out
        if os.path.isdir(path):
            path = os.path.join(path, default_name)
        _write_json(path, payload)
    else:
        print(_json_text(payload))


def cmd_simulate(args):
    cfg = read_config(args.config, RunConfig, args.seed, args.threads)
    pairs = _sample(system_from_config(cfg.system), args, cfg.seed)
    if args.format == "csv":
        lines = ["k,x,y"]
        for k, (x, y) in enumerate(zip(np.asarray(pairs.xs), np.asarray(pairs.ys))):
            lines.append(f"{k},{_scalar(x)},{_scalar(y)}")
        text = "\n".join(lines) + "\n"
        if args.out:
            path = args.out
            if os.path.isdir(path):
                path = os.path.join(path, "pairs.csv")
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
    _emit(args, payload, "pairs.json")
    return 0


def _sample(system, args, seed):
    """The pairs of `simulate` and `estimate`, in the --regime asked for."""
    if args.regime == "ergodic":
        return sample_ergodic(system, args.m, seed=seed)
    return sample_iid(system, system.initial_law(), args.m, seed=seed)


def _scalar(v):
    return ";".join(repr(x) for x in np.ravel(v).tolist())


def cmd_estimate(args):
    cfg = read_config(args.config, RunConfig, args.seed, args.threads)
    system = system_from_config(cfg.system)
    dictionary = dictionary_from_config(cfg.dictionary, system=system)
    pairs = _sample(system, args, cfg.seed)
    est = edmd_estimate(dictionary, pairs)
    payload = est.to_json_dict()
    payload["seed"] = cfg.seed
    payload["config_hash"] = hash_config(cfg.source)
    try:
        ref = galerkin_matrix(exact_reference_gram(system, dictionary))
        payload["errors"] = estimation_error(est, ref)
    except KoopmanCertError:
        pass
    _emit(args, payload, "estimate.json")
    return 0


def hash_config(cfg):
    import hashlib

    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]


def cmd_variance(args):
    cfg = read_config(args.config, StudyConfig, args.seed, args.threads)
    rows = studies.run_variance_check(cfg)
    return _emit_rows(args, rows, "variance", "variance_check.csv")


def cmd_bounds(args):
    cfg = read_config(args.config, BoundsConfig, args.seed, args.threads)
    system = system_from_config(cfg.system)
    rep = build_rep(system, dictionary_from_config(cfg.dictionary, system=system))
    inputs = bounds_mod.bound_inputs_from_exact(rep, thin_params=cfg.thin_params)
    rows = studies.run_bound_validity(
        rep, inputs, cfg.branch, cfg.m_grid, cfg.epsilons, cfg.n_trials, cfg.seed,
        threads=cfg.threads,
    )
    report = studies._branch_bound(inputs, cfg.branch, cfg.m_grid[-1], cfg.epsilons[0])
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "bound_report.json"), report.to_json_dict())
    studies.write_csv(os.path.join(out_dir, "bound_grid.csv"), rows, "bounds")
    return 0


def cmd_study(args):
    cfg = read_config(args.config, StudyConfig, args.seed, args.threads)
    rows, fits = studies.run_convergence_study(cfg)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    if args.format == "json":
        _write_json(os.path.join(out_dir, "convergence.json"), rows)
    else:
        studies.write_csv(os.path.join(out_dir, "convergence.csv"), rows, "convergence")
    _write_json(os.path.join(out_dir, "rate_fit.json"),
                {k: (v.to_json_dict() if v else None) for k, v in fits.items()})
    return 0


def _emit_rows(args, rows, schema, default_name):
    if args.format == "json" or not args.out:
        payload = rows
        _emit(args, payload, default_name.replace(".csv", ".json"))
        return 0
    path = args.out
    if os.path.isdir(path):
        path = os.path.join(path, default_name)
    studies.write_csv(path, rows, schema)
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


if __name__ == "__main__":
    _sys.exit(main())
