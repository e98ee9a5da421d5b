"""Reproducible synthetic experiments and run artifacts.

Each named scenario generates its own data from a seed, runs the
relevant procedures and returns its tables, pass/fail checks and
charts. :func:`run_experiment` alone writes them:
one CSV per table (and, on request, one SVG per chart) into the
scenario's own subdirectory, plus a manifest. Identical configuration
and seed produce byte-identical CSV output; the random stream comes
from numpy's seeded default generator (PCG64) and the algorithm name is
pinned in the manifest.

Every config value takes the type of its default, once, in
:func:`_typed`: a scalar for a tuple default becomes a 1-tuple, each
element typed like the default's first; a ``None`` default passes the
value through; a text default takes any single value as text. A value
that does not convert exactly (a list for a scalar key, an empty list,
text for a number, a non-integral number for an integer, anything but
true/false for a flag) is a :class:`ConfigError` naming ``section.key``.
"""

from __future__ import annotations

import configparser
import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .boost import BoostConfig, divergence_detector, run_boost
from .closedform import (
    boost_limit,
    linear_boost_path,
    ridge_equivalent_lambda,
    ridge_solve,
)
from .design import (
    BlockSpec,
    SplineSpec,
    bspline_basis,
    difference_penalty,
    make_partition,
    pspline_block_spec,
    single_block,
    singleton_blocks,
)
from .distreg import biconvexity_check, cyclic_boost_ls
from .errors import ConfigError, IntegrityError
from .gbcd import GbcdConfig, equivalence_check, gbcd_gsq
from .losses import binomial, l2, poisson
from .rates import _l2_certificate, _quadratic_constants, hessian_ub_check
from .svgplot import write_line_svg
from .tableio import write_csv

RNG_ALGORITHM = "numpy.random.default_rng (PCG64)"

# Family name in configs and synthetic data -> its loss factory.
GLM_FAMILIES = {"gaussian": l2, "binomial": binomial, "poisson": poisson}

# ``[experiment]`` keys of an experiment config file, with their defaults
_EXPERIMENT_KEYS = {"name": None, "seed": 0, "out": ".", "svg": False}


@dataclass
class ExperimentConfig:
    """Named scenario plus seed, output location and parameter overrides.

    ``data`` and ``run`` keep the overrides as given. ``params`` holds
    both sections in full, each override or default typed like the
    default; ``seed`` and ``svg`` are typed in place.
    """

    experiment: str
    seed: int = 0
    out_dir: str = "."
    svg: bool = False
    data: dict = field(default_factory=dict)
    run: dict = field(default_factory=dict)
    params: dict = field(init=False, repr=False)

    def __post_init__(self):
        # the tuple, not the dict: an unhashable name is a ConfigError too
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; "
                f"choose from {', '.join(EXPERIMENTS)}"
            )
        self.seed = _typed_seed(self.seed)
        self.svg = _typed("experiment", "svg", self.svg, _EXPERIMENT_KEYS["svg"])
        self.params = {
            section: _typed_section(section, getattr(self, section),
                                    _REGISTRY[self.experiment][1][section])
            for section in ("data", "run")
        }


@dataclass
class RunArtifact:
    """A scenario's output directory together with its manifest."""

    out_dir: Path
    manifest: dict

    @property
    def files(self):
        return {
            name: self.out_dir / entry["path"]
            for name, entry in self.manifest["files"].items()
        }

    @property
    def checks(self):
        return self.manifest["checks"]

    @property
    def all_passed(self):
        return all(c["passed"] for c in self.manifest["checks"])


def _check_sizes(n, p, beta_true):
    """``beta_true`` as a float array of ``p`` entries, for ``n >= 1`` observations."""
    beta_true = np.asarray(beta_true, dtype=float)
    if n < 1:
        raise ConfigError(f"need at least one observation, got n={n}")
    if p != beta_true.size:
        raise ConfigError("beta_true length must equal p")
    return beta_true


def _correlated_design(rng, n, p, rho):
    """``n`` rows of ``p`` standard Gaussians with pairwise correlation ``rho``.

    Built from a Cholesky factor of the equicorrelation matrix (for two
    features this is ``x2 = rho x1 + sqrt(1 - rho^2) z``); a ``rho`` that
    leaves it not positive definite, or NaN, is a ``ConfigError``.
    """
    if not abs(rho) < 1.0 or (p > 1 and rho <= -1.0 / (p - 1)):
        raise ConfigError(f"correlation {rho} invalid for p={p}")
    C = (1.0 - rho) * np.eye(p) + rho * np.ones((p, p))
    return rng.standard_normal(size=(n, p)) @ np.linalg.cholesky(C).T


def synth_glm_data(n, p, rho, beta_true, family, seed):
    """Draw a correlated-feature dataset with a canonical-link outcome.

    Features are drawn by :func:`_correlated_design`. The linear predictor
    ``X beta_true`` is pushed through the family's canonical response
    and sampled; the gaussian family adds unit-variance noise.
    """
    beta_true = _check_sizes(n, p, beta_true)
    rng = np.random.default_rng(seed)
    X = _correlated_design(rng, n, p, rho)
    if family not in GLM_FAMILIES:
        raise ConfigError(f"config key data.family names an unknown family {family!r}; "
                          "choose from gaussian, binomial, poisson")
    f = X @ beta_true
    if family == "gaussian":
        y = f + rng.standard_normal(size=n)
    elif family == "binomial":
        from scipy.special import expit  # scipy loads only for binomial data

        y = (rng.uniform(size=n) < expit(f)).astype(float)
    else:
        if f.max() > 30.0:
            raise ConfigError(
                "poisson rates overflow; shrink beta_true or the feature scale"
            )
        y = rng.poisson(np.exp(f)).astype(float)
    return X, y


def synth_survival_data(n, p, beta_true, seed):
    """Exponential survival times with proportional hazards in X beta.

    Censoring times are exponential at 0.3 times the mean hazard.
    """
    beta_true = _check_sizes(n, p, beta_true)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal(size=(n, p))
    hazard = np.exp(np.clip(X @ beta_true, -30.0, 30.0))
    t_event = rng.exponential(1.0, size=n) / hazard
    t_censor = rng.exponential(1.0 / (0.3 * hazard.mean()), size=n)
    events = (t_event <= t_censor).astype(float)
    times = np.minimum(t_event, t_censor)
    return X, times, events


def _check(name, passed, detail=""):
    return {"name": name, "passed": bool(passed), "detail": str(detail)}


def _thin_indices(n_rows, keep=250):
    if n_rows <= keep:
        return np.arange(n_rows)
    idx = np.unique(np.round(np.linspace(0, n_rows - 1, keep)).astype(int))
    return idx


def _scenario_path_matching(cfg):
    tables, checks, charts = {}, [], {}
    data, run = cfg.params["data"], cfg.params["run"]
    n, beta_true, nu = data["n"], data["beta_true"], run["nu"]

    X, y = synth_glm_data(n, len(beta_true), data["rho"], beta_true, "gaussian",
                          cfg.seed)
    part = make_partition(X, single_block(X.shape[1]))
    path = run_boost(
        part, l2(), y, BoostConfig(nu=nu, max_iter=run["max_iter"], mode="joint")
    )
    tables["boost_path"] = path.table(_thin_indices(len(path.betas), 500))

    grid = np.logspace(-6, 6, run["grid_points"])
    ridge_path = np.array([ridge_solve(X, y, lam) for lam in grid])
    tables["ridge_path"] = (
        ["lambda"] + [f"beta_{j + 1}" for j in range(X.shape[1])],
        [[float(lam)] + [float(v) for v in row] for lam, row in zip(grid, ridge_path)],
    )

    # correlated features: some boosting iterate stays away from every
    # ridge solution on the grid
    min_gaps = np.array(
        [
            np.linalg.norm(ridge_path - path.betas[k][None, :], axis=1).min()
            for k in range(1, len(path.betas))
        ]
    )
    # rows made as write_csv takes them, not held as 10,000 lists
    tables["ridge_mismatch"] = (
        ["k", "min_gap_over_grid"],
        ([k + 1, float(g)] for k, g in enumerate(min_gaps)),
    )
    worst = float(min_gaps.max())
    checks.append(
        _check(
            "anisotropic_paths_separate",
            worst > 1e-3,
            f"max over k of min distance to the ridge grid = {worst:.3e}",
        )
    )

    # isotropic features: per-iteration coincidence with a ridge solution
    rng = np.random.default_rng(cfg.seed + 1)
    Q, _ = np.linalg.qr(rng.standard_normal(size=(n, len(beta_true))))
    X_iso = 1.3 * Q
    y_iso = X_iso @ np.asarray(beta_true) + rng.standard_normal(size=n)
    sigma2 = 1.3**2
    ks = np.arange(1, run["isotropic_k"] + 1)
    worst_rel = 0.0
    rows = []
    for k in ks:
        bO = linear_boost_path(X_iso, y_iso, nu, int(k))
        lam_k = ridge_equivalent_lambda(sigma2, nu, int(k))
        bR = ridge_solve(X_iso, y_iso, lam_k)
        rel = float(np.linalg.norm(bO - bR) / (np.linalg.norm(bR) + 1e-300))
        worst_rel = max(worst_rel, rel)
        rows.append([int(k), float(lam_k), rel])
    tables["isotropic_check"] = (["k", "lambda_tilde", "rel_err"], rows)
    checks.append(
        _check(
            "isotropic_matches_ridge",
            worst_rel < 1e-10,
            f"max relative gap to the ridge-equivalent solve = {worst_rel:.3e}",
        )
    )

    charts["paths"] = dict(
        series={
            "boosting": (path.betas[:, 0], path.betas[:, 1]),
            "ridge": (ridge_path[:, 0], ridge_path[:, 1]),
        },
        title="coefficient paths",
        xlabel="beta_1",
        ylabel="beta_2",
    )
    return tables, checks, charts


def _scenario_pspline_unpenalized(cfg):
    tables, checks, charts = {}, [], {}
    data, run = cfg.params["data"], cfg.params["run"]
    n = data["n"]
    spec = SplineSpec(
        n_knots=data["n_knots"],
        degree=data["degree"],
        diff_order=data["diff_order"],
    )
    rng = np.random.default_rng(cfg.seed)
    x = np.linspace(0.0, 1.0, n)
    X = bspline_basis(x, spec)
    y = np.sin(2 * np.pi * x) + data["noise"] * rng.standard_normal(n)
    P = difference_penalty(spec.n_basis, spec.diff_order)
    beta_ols = boost_limit(X, y)
    scale = 1.0 + np.linalg.norm(beta_ols)
    fit_grid = np.linspace(0.0, 1.0, 200)
    B = bspline_basis(fit_grid, spec)

    summary_rows = []
    # each path keeps only the coefficients its table writes
    idx = _thin_indices(run["max_iter"] + 1)
    for lam in run["lams"]:
        part = make_partition(X, [pspline_block_spec(range(spec.n_basis), spec, lam)])
        path = run_boost(
            part, l2(), y,
            BoostConfig(nu=run["nu"], max_iter=run["max_iter"], mode="joint"),
            betas_at=idx,
        )
        beta_pls = np.linalg.solve(X.T @ X + lam * P, X.T @ y)
        gbcd_path = gbcd_gsq(
            part,
            l2(),
            y,
            GbcdConfig(nu=1.0, max_iter=200, gradient_of="penalized"),
        )
        d_unpen = float(np.linalg.norm(path.final - beta_ols))
        d_pen = float(np.linalg.norm(path.final - beta_pls))
        d_gbcd = float(np.linalg.norm(gbcd_path.final - beta_pls))
        pen_size = lam * float(np.linalg.norm(P @ beta_ols))
        tag = f"lam_{lam:g}"
        tables[f"boost_path_{tag}"] = path.table()
        summary_rows.append([lam, d_unpen, d_pen, d_gbcd, pen_size])
        checks.append(
            _check(
                f"boosting_reaches_unpenalized_{tag}",
                d_unpen <= 1e-6 * scale,
                f"|beta_K - beta_unpen| = {d_unpen:.3e}",
            )
        )
        checks.append(
            _check(
                f"boosting_avoids_penalized_{tag}",
                pen_size > 0 and d_pen > 1e-2,
                f"|beta_K - beta_pen| = {d_pen:.3e}",
            )
        )
        checks.append(
            _check(
                f"descent_reaches_penalized_{tag}",
                d_gbcd <= 1e-6 * scale,
                f"|beta_descent - beta_pen| = {d_gbcd:.3e}",
            )
        )
        charts[f"fits_{tag}"] = dict(
            series={
                "boosted": (fit_grid, B @ path.final),
                "penalized": (fit_grid, B @ beta_pls),
                "unpenalized": (fit_grid, B @ beta_ols),
            },
            title=f"fits at lam={lam:g}",
            xlabel="x",
            ylabel="fit",
        )
        # the tables hold the kept rows and the charts the final fit:
        # free both paths before the next penalty records its own
        del path, gbcd_path
    tables["summary"] = (
        ["lam", "dist_unpenalized", "dist_penalized", "dist_descent_penalized",
         "penalty_at_unpenalized"],
        summary_rows,
    )
    return tables, checks, charts


def _scenario_rates_sweep(cfg):
    tables, checks, charts = {}, [], {}
    data, run = cfg.params["data"], cfg.params["run"]
    n, p_grid, rho_grid, nu = data["n"], data["p_grid"], data["rho_grid"], run["nu"]
    p_lo, p_hi = min(p_grid), max((p for p in p_grid if p <= n), default=0)
    if p_hi <= p_lo:
        raise ConfigError(f"data.p_grid {p_grid} needs two dimensions of at most data.n = {n}")

    rows = []
    gammas = {}
    for rho in rho_grid:
        for p in p_grid:
            X, _ = synth_glm_data(
                n, p, rho, np.zeros(p), "gaussian",
                cfg.seed + 1000 * p + int(1e6 * rho),
            )
            mu, lmax, gamma = _quadratic_constants(X.T @ X, p, nu)
            gammas[(rho, p)] = gamma
            rows.append([p, rho, mu, lmax, gamma])
    tables["rates_grid"] = (["p", "rho", "lambda_pmin", "lambda_max", "gamma"], rows)

    in_range = all(0.0 <= g < 1.0 for g in gammas.values())
    checks.append(_check("gamma_in_unit_interval", in_range))
    rising = all(gammas[(rho, p_hi)] > gammas[(rho, p_lo)] for rho in rho_grid)
    checks.append(
        _check(
            "gamma_rises_with_dimension",
            rising,
            f"checked p={p_lo} against p={p_hi} for each correlation",
        )
    )

    # bound compliance on random instances solved by greedy updates
    rng = np.random.default_rng(cfg.seed + 7)
    comp_rows = []
    all_ok = True
    for trial in range(run["check_instances"]):
        p = int(rng.integers(2, 12))
        rho = float(rng.choice([0.0, 0.5, 0.9]))
        X, y = synth_glm_data(
            60, p, rho, np.zeros(p), "gaussian", cfg.seed + 31 * trial
        )
        y = y + X @ rng.standard_normal(p)
        part = make_partition(X, singleton_blocks(p))
        report = _l2_certificate(
            part, y, run_boost(part, l2(), y, BoostConfig(nu=nu, max_iter=run["check_iters"]))
        )
        all_ok = all_ok and report.all_compliant
        comp_rows.append(
            [trial, p, rho, report.gamma, report.all_compliant,
             report.first_violation() if report.first_violation() is not None else ""]
        )
    tables["bound_compliance"] = (
        ["trial", "p", "rho", "gamma", "compliant", "first_violation"],
        comp_rows,
    )
    checks.append(_check("gap_bound_holds", all_ok))

    charts["gamma"] = dict(
        series={
            f"rho={rho:g}": (list(p_grid), [gammas[(rho, p)] for p in p_grid])
            for rho in rho_grid
        },
        title="rate vs dimension",
        xlabel="p",
        ylabel="gamma",
    )
    return tables, checks, charts


def _scenario_expfam_convergence(cfg):
    tables, checks, charts = {}, [], {}
    data, run = cfg.params["data"], cfg.params["run"]
    p, nus = data["p"], run["nus"]
    loss_rows, verdict_rows = [], []
    results = {}
    for family in ("binomial", "poisson"):
        spec_fn = GLM_FAMILIES[family]
        X, y = synth_glm_data(data["n"], p, data["rho"], data["beta_true"], family,
                              data["seed"])
        part = make_partition(X, singleton_blocks(p))
        series = {}
        for nu in nus:
            path = run_boost(part, spec_fn(), y, BoostConfig(
                nu=nu, max_iter=run["max_iter"], mode="greedy", divergence_guard=True
            ))
            verdict = divergence_detector(path, window=20)
            curvature = hessian_ub_check(spec_fn(), part, path)
            results[(family, nu)] = (verdict, curvature)
            idx = _thin_indices(len(path.losses), 250)
            ks = [int(k) for k in idx]
            ls = [float(path.losses[k]) for k in idx]
            loss_rows += [[family, nu, k, loss] for k, loss in zip(ks, ls)]
            series[f"nu={nu:g}"] = (ks, ls)
            verdict_rows.append(
                [
                    family,
                    nu,
                    verdict,
                    curvature.ok,
                    curvature.first_violation[0] if curvature.first_violation else "",
                    path.terminated_by,
                ]
            )
        charts[f"loss_{family}"] = dict(
            series=series, title=f"{family} loss paths", xlabel="k", ylabel="loss",
        )
    tables["loss_paths"] = (["family", "nu", "k", "loss"], loss_rows)
    tables["verdicts"] = (
        ["family", "nu", "verdict", "curvature_ok", "first_violation_k",
         "terminated_by"],
        verdict_rows,
    )

    binom_ok = all(results[("binomial", nu)][0] == "converging" for nu in nus)
    checks.append(_check("binomial_converges_at_every_rate", binom_ok))
    pois_bad = [nu for nu in nus if results[("poisson", nu)][0] != "converging"]
    checks.append(
        _check(
            "poisson_fails_for_some_rate",
            len(pois_bad) > 0,
            f"non-converging rates: {pois_bad}",
        )
    )
    compliant_converge = all(
        verdict == "converging"
        for (family, nu), (verdict, curvature) in results.items()
        if curvature.ok
    )
    checks.append(
        _check("curvature_compliant_rates_converge", compliant_converge)
    )
    return tables, checks, charts


def _scenario_distreg_divergence(cfg):
    tables, checks, charts = {}, [], {}
    data, run = cfg.params["data"], cfg.params["run"]
    n = data["n"]
    rng = np.random.default_rng(cfg.seed)
    x = rng.standard_normal(n)
    X = np.column_stack([np.ones(n), x])
    Z = np.column_stack([np.ones(n), x])
    sigma = np.exp(Z @ np.asarray(data["xi_true"]))
    y = X @ np.asarray(data["beta_true"]) + sigma * rng.standard_normal(n)

    outcomes = {}
    for label, nu in (
        ("large", run["nu_large"]),
        ("small", run["nu_small"]),
    ):
        res = cyclic_boost_ls(X, Z, y, nu, run["max_iter"])
        outcomes[label] = res
        tables[f"paired_path_{label}"] = res.table()
    checks.append(
        _check(
            "large_step_scale_model_diverges",
            outcomes["large"].scale_verdict == "diverging"
            and outcomes["large"].scale_path.n_steps <= 20,
            f"verdict {outcomes['large'].scale_verdict} after "
            f"{outcomes['large'].scale_path.n_steps} steps",
        )
    )
    checks.append(
        _check(
            "small_step_stays_stable",
            outcomes["small"].scale_verdict != "diverging"
            and outcomes["small"].mean_verdict != "diverging",
            f"verdicts {outcomes['small'].mean_verdict}/"
            f"{outcomes['small'].scale_verdict}",
        )
    )

    report = biconvexity_check(
        X, Z, y, trials=run["trials"], seed=cfg.seed
    )
    tables["curvature"] = (
        ["min_eig_mean_block", "min_eig_scale_block", "ray_eig_first",
         "ray_eig_last", "counterexample_indefinite"],
        [[report.min_eig_mean_block, report.min_eig_scale_block,
          float(report.ray_eigs[0]), float(report.ray_eigs[-1]),
          report.counterexample_indefinite]],
    )
    checks.append(_check("diagonal_blocks_psd", report.diag_blocks_psd))
    checks.append(_check("scale_curvature_unbounded", report.ray_unbounded))
    checks.append(
        _check("reference_counterexample_indefinite",
               report.counterexample_indefinite)
    )

    charts["scale_loss"] = dict(
        series={
            label: (np.arange(len(res.scale_path.losses)), res.scale_path.losses)
            for label, res in outcomes.items()
        },
        title="scale-model loss",
        xlabel="k",
        ylabel="nll",
    )
    return tables, checks, charts


def _scenario_gsq_equivalence(cfg):
    tables, checks, charts = {}, [], {}
    data, run = cfg.params["data"], cfg.params["run"]
    rng = np.random.default_rng(cfg.seed)
    n, rho, nus, n_steps = data["n"], data["rho"], run["nus"], run["n_steps"]
    p_min, p_max = data["p_min"], data["p_max"]
    if not 1 <= p_min <= p_max:
        raise ConfigError("config keys data.p_min and data.p_max need "
                          "1 <= data.p_min <= data.p_max")
    # a block of more columns than rows has a singular scaling matrix
    if n < min(4, p_max):
        raise ConfigError("config key data.n is below min(4, data.p_max), "
                          "the size of the largest block the scenario draws")
    rows = []
    all_identical = True
    for trial in range(run["n_partitions"]):
        p = int(rng.integers(p_min, p_max + 1))
        cols = list(range(p))
        specs = []
        while cols:
            size = int(rng.integers(1, min(4, len(cols)) + 1))
            specs.append(BlockSpec(tuple(cols[:size])))
            cols = cols[size:]
        # correlated features keep greedy progress well above the floating
        # floor for the whole comparison horizon
        X = _correlated_design(rng, n, p, rho)
        y = rng.standard_normal(size=n)
        part = make_partition(X, specs)
        nu = nus[trial % len(nus)]
        report = equivalence_check(part, l2(), y, nu, n_steps)
        all_identical = all_identical and report.identical
        # an exact match leaves no tie to count; the column keeps the
        # written outputs byte-identical
        rows.append(
            [trial, p, part.n_blocks, nu, report.identical, report.n_compared, 0]
        )
    tables["equivalence"] = (
        ["trial", "p", "n_blocks", "nu", "identical", "n_compared",
         "tied_selections"],
        rows,
    )
    checks.append(
        _check(
            "greedy_boosting_equals_quadratic_norm_descent",
            all_identical,
            "identical" if all_identical else "some trial differed",
        )
    )
    return tables, checks, charts


# name -> (scenario, defaults of its [data] and [run] sections): the one list
_REGISTRY = {
    "path_matching": (_scenario_path_matching, {
        "data": {"n": 100, "rho": 0.7, "beta_true": (3.0, -2.0)},
        "run": {"nu": 0.1, "max_iter": 10000, "grid_points": 200,
                "isotropic_k": 500},
    }),
    "pspline_unpenalized": (_scenario_pspline_unpenalized, {
        "data": {"n": 400, "n_knots": 10, "degree": 3, "diff_order": 2,
                 "noise": 0.3},
        "run": {"nu": 1.0, "max_iter": 50000, "lams": (1.0, 10.0)},
    }),
    "rates_sweep": (_scenario_rates_sweep, {
        "data": {"n": 200, "p_grid": (2, 5, 10, 20, 40, 60),
                 "rho_grid": (0.0, 0.5, 0.9)},
        "run": {"nu": 1.0, "check_instances": 10, "check_iters": 150},
    }),
    "expfam_convergence": (_scenario_expfam_convergence, {
        # the data seed pins a draw where the rate grid splits into
        # converging and non-converging runs; the split is seed-dependent
        "data": {"n": 100, "p": 2, "rho": 0.5, "beta_true": (3.0, -2.0),
                 "seed": 5},
        "run": {"nus": (0.02, 0.03, 0.04, 0.05, 0.06, 0.07), "max_iter": 1000},
    }),
    "distreg_divergence": (_scenario_distreg_divergence, {
        "data": {"n": 200, "beta_true": (1.0, 2.0), "xi_true": (-0.3, 0.8)},
        "run": {"nu_large": 0.5, "nu_small": 0.01, "max_iter": 500,
                "trials": 100},
    }),
    "gsq_equivalence": (_scenario_gsq_equivalence, {
        "data": {"n": 60, "p_min": 4, "p_max": 10, "rho": 0.6},
        "run": {"n_partitions": 20, "n_steps": 200, "nus": (0.1, 0.2, 0.3)},
    }),
}
EXPERIMENTS = tuple(_REGISTRY)


def run_experiment(config):
    """Execute a named scenario and write its artifact.

    A scenario returns its tables, checks and charts; this is the only
    code that writes them. It creates ``out_dir/<experiment>/`` with
    ``<name>.csv`` for every table, ``<name>.svg`` for every chart when
    ``config.svg`` is set, and a ``manifest.json`` echoing the
    configuration (each override typed like its default), the library
    version, the pinned random-stream algorithm, the file inventory
    with row counts and the pass/fail checks.
    """
    # a scenario writes nothing, so one that rejects its config leaves no directory
    tables, checks, charts = _REGISTRY[config.experiment][0](config)
    out = Path(config.out_dir) / config.experiment
    out.mkdir(parents=True, exist_ok=True)
    files = {
        name: {"path": f"{name}.csv", "rows": write_csv(out / f"{name}.csv", *table)}
        for name, table in tables.items()
    }
    svgs = {}
    if config.svg:
        for name, chart in charts.items():
            write_line_svg(out / f"{name}.svg", **chart)
            svgs[name] = f"{name}.svg"
    manifest = {
        "experiment": config.experiment,
        "seed": config.seed,
        "version": __version__,
        "rng": RNG_ALGORITHM,
        "config": {
            "data": {key: config.params["data"][key] for key in config.data},
            "run": {key: config.params["run"][key] for key in config.run},
            "svg": config.svg,
        },
        "files": files,
        "svgs": svgs,
        "checks": checks,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return RunArtifact(out_dir=out, manifest=manifest)


def load_artifact(out_dir):
    """Load an artifact directory; a damaged manifest or listed file is an IntegrityError.

    Beyond its keys, the manifest's ``files`` must be an object of entries
    that each have a ``path`` string and ``rows``, its ``checks`` a list of
    objects that each have a ``name`` and ``passed``, and its ``svgs``,
    when present, an object: what :func:`emit_report` reads.
    """
    out = Path(out_dir)
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        raise IntegrityError(f"no manifest found in {out}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError:
        manifest = None
    if not isinstance(manifest, dict):
        raise IntegrityError(f"manifest {manifest_path} is not a JSON object")
    missing = [key for key in ("experiment", "seed", "version", "rng", "files", "checks")
               if key not in manifest]
    if missing:
        raise IntegrityError(f"manifest {manifest_path} lacks {', '.join(missing)}")
    files, checks = manifest["files"], manifest["checks"]
    if not isinstance(files, dict):
        raise IntegrityError(f"manifest {manifest_path} files is not an object")
    if not isinstance(checks, list):
        raise IntegrityError(f"manifest {manifest_path} checks is not a list")
    if not isinstance(manifest.get("svgs", {}), dict):
        raise IntegrityError(f"manifest {manifest_path} svgs is not an object")
    for what, entries, keys in (("file", files.items(), ("path", "rows")),
                                ("check", enumerate(checks), ("name", "passed"))):
        for name, entry in entries:
            lacking = [key for key in keys if not isinstance(entry, dict) or key not in entry]
            if lacking:
                raise IntegrityError(
                    f"manifest {manifest_path} {what} {name!r} lacks {', '.join(lacking)}"
                )
    for name, entry in files.items():
        if not isinstance(entry["path"], str):
            raise IntegrityError(f"manifest {manifest_path} file {name!r} path is not a string")
        path = out / entry["path"]
        if not path.is_file():
            raise IntegrityError(f"manifest references missing file {entry['path']}")
        if path.stat().st_size == 0:
            raise IntegrityError(f"manifest references empty file {entry['path']}")
    return RunArtifact(out_dir=out, manifest=manifest)


def emit_report(artifact):
    """One-page text summary: check outcomes and file inventory."""
    m = artifact.manifest
    lines = [
        f"experiment: {m['experiment']}   seed: {m['seed']}   "
        f"version: {m['version']}",
        f"random stream: {m['rng']}",
        "",
        "checks:",
    ]
    for c in m["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        detail = f"  ({c['detail']})" if c.get("detail") else ""
        lines.append(f"  [{status}] {c['name']}{detail}")
    lines.append("")
    lines.append("files:")
    for name, entry in sorted(m["files"].items()):
        lines.append(f"  {entry['path']}: {entry['rows']} rows")
    for name, rel in sorted(m.get("svgs", {}).items()):
        lines.append(f"  {rel}: chart")
    overall = "PASS" if artifact.all_passed else "FAIL"
    lines.append("")
    lines.append(f"overall: {overall}")
    return "\n".join(lines)


def _parse_value(text):
    text = text.strip()
    if "," in text:
        return tuple(_parse_value(t) for t in text.split(",") if t.strip())
    lowered = text.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a number"}


def _typed(section, key, value, default):
    """``value`` as the type of ``default`` (rules in the module docstring)."""
    if default is None:
        return value
    if isinstance(default, tuple):
        items = value if isinstance(value, (tuple, list)) else (value,)
        if not items:
            raise ConfigError(f"config key {section}.{key} needs at least one value")
        return tuple(_typed(section, key, v, default[0]) for v in items)
    kind = type(default)
    if isinstance(value, (tuple, list)):
        raise ConfigError(f"config key {section}.{key} takes one value, got {value!r}")
    if kind is str:
        return str(value)
    if kind is bool or isinstance(value, bool):
        exact = type(value) is kind
    elif isinstance(value, numbers.Real):
        exact = kind is float or float(value).is_integer()
    else:
        exact = False
    if not exact:
        raise ConfigError(
            f"config key {section}.{key} must be {_KIND_NAMES[kind]}, got {value!r}"
        )
    return kind(value)


def _typed_seed(value):
    """``experiment.seed`` as an integer; numpy's generators take no negative seed."""
    seed = _typed("experiment", "seed", value, _EXPERIMENT_KEYS["seed"])
    if seed < 0:
        raise ConfigError(f"config key experiment.seed must be nonnegative, got {seed}")
    return seed


def _typed_section(section, values, defaults):
    """``defaults`` overridden by ``values``, every value typed by :func:`_typed`.

    A key of ``values`` that ``defaults`` does not list is a
    :class:`ConfigError` naming it.
    """
    for key in values:
        if key not in defaults:
            raise ConfigError(
                f"unknown config key {section}.{key}; "
                f"allowed: {', '.join(sorted(defaults))}"
            )
    return {
        key: _typed(section, key, values.get(key, default), default)
        for key, default in defaults.items()
    }


def _load_ini(path, sections):
    """Read an INI file into ``{section: {key: parsed value}}``.

    ``None`` reads as an empty file. ``sections`` maps each allowed section
    to its defaults; a key whose default is text keeps its text. An
    unreadable or malformed file is a :class:`ConfigError`.
    """
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        ini = {name: dict(parser[name]) for name in parser.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    for name in ini:
        if name not in sections:
            raise ConfigError(
                f"unknown config section [{name}]; allowed: {', '.join(sections)}"
            )
    return {
        name: {k: v if isinstance(sections[name].get(k), str) else _parse_value(v)
               for k, v in values.items()}
        for name, values in ini.items()
    }


def load_config(path, experiment=None, seed=None, out_dir=None, svg=None):
    """Read an INI-style config file into an :class:`ExperimentConfig`.

    Sections: ``[experiment]`` with ``name``, ``seed``, ``out``, ``svg``;
    ``[data]`` and ``[run]`` hold per-scenario parameter overrides, whose
    keys must be parameters of the scenario. Keyword arguments override
    file values; ``path=None`` reads no file.
    """
    ini = _load_ini(path, {"experiment": _EXPERIMENT_KEYS, "data": {}, "run": {}})
    exp = _typed_section("experiment", ini.get("experiment", {}), _EXPERIMENT_KEYS)
    name = experiment or exp["name"]
    if not name:
        raise ConfigError("no experiment name given (config [experiment] name=...)")
    return ExperimentConfig(
        experiment=name,
        seed=seed if seed is not None else exp["seed"],
        out_dir=out_dir if out_dir is not None else exp["out"],
        svg=svg if svg is not None else exp["svg"],
        data=ini.get("data", {}),
        run=ini.get("run", {}),
    )
