"""Command-line entry point.

Subcommands: ``fit`` runs one boosting fit from a config file,
``oracle`` evaluates closed-form path points, ``rates`` certifies a
run against its geometric gap bound, ``experiment`` executes a named
scenario, ``report`` summarizes a written artifact. Exit codes:
0 success, 1 configuration error, 2 numeric error, 3 acceptance
failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .boost import BoostConfig, run_boost
from .closedform import implicit_penalty, path_points
from .design import (
    BlockSpec,
    difference_penalty,
    make_partition,
)
from .errors import ConfigError, NumericError
from .experiments import (
    EXPERIMENTS,
    _load_ini,
    _typed,
    _typed_section,
    _typed_seed,
    emit_report,
    load_artifact,
    load_config,
    run_experiment,
    synth_glm_data,
)
from .losses import binomial, l2, poisson
from .rates import check_bound, rate_quadratic
from .tableio import write_csv

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_ACCEPTANCE = 3


# Every key ``fit``, ``oracle`` and ``rates`` read, with its default.
# ``beta_true`` (p ones) and ``gamma_ks`` (none) are typed where they are
# read, with float and integer elements.
_CLI_DEFAULTS = {
    "experiment": {"seed": 0},
    "data": {"n": 100, "p": 2, "rho": 0.0, "beta_true": None, "family": "gaussian"},
    "run": {
        **{f.name: f.default for f in fields(BoostConfig)},
        "blocks": "singleton",
        "lam": 0.0,
        "penalty": "none",
    },
    "oracle": {"nu": 0.1, "lam": 0.0, "penalty": "ridge",
               "ks": (0, 1, 2, 5, 10, 100), "gamma_ks": None},
}


def _load_cli_config(args):
    """Typed sections of ``--config`` over :data:`_CLI_DEFAULTS`, and the seed."""
    if args.config is None:
        raise ConfigError("--config is required for this subcommand")
    ini = _load_ini(args.config, tuple(_CLI_DEFAULTS))
    config = {
        name: _typed_section(name, ini.get(name, {}), defaults)
        for name, defaults in _CLI_DEFAULTS.items()
    }
    seed = _typed_seed(args.seed if args.seed is not None else config["experiment"]["seed"])
    return config, seed


def _data_from_config(data, seed):
    p = data["p"]
    beta_true = (1.0,) * p
    if data["beta_true"] is not None:
        beta_true = _typed("data", "beta_true", data["beta_true"], (1.0,))
    X, y = synth_glm_data(data["n"], p, data["rho"], beta_true, data["family"], seed)
    return X, y, data["family"]


def _loss_for(family):
    if family == "gaussian":
        return l2()
    if family == "binomial":
        return binomial()
    if family == "poisson":
        return poisson()
    raise ConfigError(f"unsupported family {family!r}")


def _penalty_matrix(penalty, size):
    """The penalty matrix that ``penalty`` names, for ``size`` coefficients."""
    if penalty == "ridge":
        return np.eye(size)
    if penalty == "diff2":
        return difference_penalty(size, 2)
    raise ConfigError(f"unknown penalty {penalty!r}")


def _blocks_from_config(run, p):
    blocks, lam, penalty = run["blocks"], run["lam"], run["penalty"]
    if blocks == "singleton":
        sizes = [1] * p
    elif blocks == "joint":
        sizes = [p]
    else:
        sizes = [int(s) for s in blocks.split("+")]
        if sum(sizes) != p:
            raise ConfigError(f"block sizes {sizes} do not cover p={p}")
    specs = []
    start = 0
    for size in sizes:
        cols = tuple(range(start, start + size))
        start += size
        if penalty == "none" or lam == 0.0:
            specs.append(BlockSpec(cols))
        elif penalty == "diff2" and size < 3:
            raise ConfigError("diff2 penalty needs blocks of at least 3 columns")
        else:
            specs.append(BlockSpec(cols, lam, _penalty_matrix(penalty, size)))
    return specs


def _boost_config(run):
    return BoostConfig(**{f.name: run[f.name] for f in fields(BoostConfig)})


def _cmd_fit(args):
    config, seed = _load_cli_config(args)
    X, y, family = _data_from_config(config["data"], seed)
    run = config["run"]
    part = make_partition(X, _blocks_from_config(run, X.shape[1]))
    path = run_boost(part, _loss_for(family), y, _boost_config(run))
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    target = out / "fit_path.csv"
    write_csv(target, *path.table())
    print(f"wrote {target} ({path.n_steps} steps, "
          f"terminated by {path.terminated_by}, final loss "
          f"{path.losses[-1]:.6g})")
    return EXIT_OK


def _cmd_oracle(args):
    config, seed = _load_cli_config(args)
    X, y, family = _data_from_config(config["data"], seed)
    if family != "gaussian":
        raise ConfigError("closed-form paths require the gaussian family")
    oracle = config["oracle"]
    nu, lam, penalty, ks = oracle["nu"], oracle["lam"], oracle["penalty"], oracle["ks"]
    gamma_ks = ()
    if oracle["gamma_ks"] is not None:
        gamma_ks = _typed("oracle", "gamma_ks", oracle["gamma_ks"], (0,))
    p = X.shape[1]
    P = None if lam == 0.0 else _penalty_matrix(penalty, p)
    pts = path_points(X, y, nu, ks, lam, P)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    target = out / "oracle_path.csv"
    write_csv(
        target,
        ["k"] + [f"beta_{j + 1}" for j in range(p)],
        [[k] + [float(v) for v in row] for k, row in zip(ks, pts)],
    )
    print(f"wrote {target}")
    for k in gamma_ks:
        ip = implicit_penalty(X, y, P, lam, nu, k)
        gpath = out / f"implicit_penalty_k{k}.csv"
        write_csv(gpath, [f"c{j + 1}" for j in range(ip.gamma.shape[1])], ip.gamma)
        print(f"wrote {gpath}")
    return EXIT_OK


def _cmd_rates(args):
    config, seed = _load_cli_config(args)
    X, y, family = _data_from_config(config["data"], seed)
    if family != "gaussian":
        raise ConfigError("rate certificates apply to the gaussian family")
    run = config["run"]
    part = make_partition(X, _blocks_from_config(run, X.shape[1]))
    cfg = _boost_config(run)
    path = run_boost(part, l2(), y, cfg)
    beta_star = np.linalg.lstsq(X, y, rcond=None)[0]
    loss_opt = 0.5 * float(np.sum((y - X @ beta_star) ** 2))
    gamma = rate_quadratic(X.T @ X, part.n_blocks, cfg.nu)
    report = check_bound(path, gamma, loss_opt)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    target = out / "rate_report.csv"
    write_csv(target, *report.table())
    print(f"gamma = {gamma:.6f}")
    status = "compliant" if report.all_compliant else (
        f"violated first at k={report.first_violation()}"
    )
    print(f"gap bound: {status}")
    print(f"wrote {target}")
    return EXIT_OK if report.all_compliant else EXIT_ACCEPTANCE


def _cmd_experiment(args):
    cfg = load_config(
        args.config,
        experiment=args.name,
        seed=args.seed,
        out_dir=args.out,
        svg=True if args.svg else None,
    )
    artifact = run_experiment(cfg)
    print(emit_report(artifact))
    return EXIT_OK if artifact.all_passed else EXIT_ACCEPTANCE


def _cmd_report(args):
    artifact = load_artifact(args.out)
    print(emit_report(artifact))
    return EXIT_OK if artifact.all_passed else EXIT_ACCEPTANCE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="amboost",
        description="boosting of additive models: fits, closed-form path "
        "oracles, rate certificates and reproducible experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", help="output directory")

    p_fit = sub.add_parser("fit", help="one boosting run from a config file")
    common(p_fit)
    p_fit.set_defaults(func=_cmd_fit)

    p_oracle = sub.add_parser("oracle", help="closed-form path evaluation")
    common(p_oracle)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_rates = sub.add_parser("rates", help="rate constants and bound compliance")
    common(p_rates)
    p_rates.set_defaults(func=_cmd_rates)

    p_exp = sub.add_parser("experiment", help="run a named scenario")
    p_exp.add_argument("name", choices=EXPERIMENTS)
    common(p_exp)
    p_exp.add_argument("--svg", action="store_true", help="emit SVG charts")
    p_exp.set_defaults(func=_cmd_experiment)

    p_rep = sub.add_parser("report", help="summarize a written artifact")
    p_rep.add_argument("--out", required=True, help="artifact directory")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # LinAlgError subclasses ValueError, so it must be caught first
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # ConfigError and IntegrityError are ValueErrors
    except (ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
