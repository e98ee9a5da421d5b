"""The benchmark's workloads: inputs, timed bodies and output checks.

Each workload is three functions:

* ``setup(seed, size, work)`` generates the inputs from the seed, builds
  the design and partition, and makes one warm-up call. ``size`` is
  ``"full"`` for measurement or ``"tiny"`` for the benchmark's tests;
  ``work`` is a scratch directory inside the checkout.
* ``body(state)`` is the timed part. It calls only public amboost
  functions, always through their module attribute so the instruments
  in ``tracer`` see the calls, and returns an :class:`Outcome`.
* ``check(state, outcome, memo)`` compares the outputs with computations
  made here with numpy and scipy, or with properties the method must
  have, and returns a list of failure messages. ``memo`` persists across
  repetitions and set-ups of one run.

The check functions that take plain arrays are separate so that the
tests can feed them perturbed results.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit

import amboost
import amboost.cli
from tracer import SCENARIOS as EXPERIMENTS

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_CONFIG = ROOT / "demos" / "sample_config.ini"

CLI_COMMANDS = ("fit", "oracle", "rates")


@dataclass
class Outcome:
    """What one repetition of a body attempted and produced."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def attempt(self, key, fn, *args):
        """Call one program operation; an exception counts as a failed one."""
        self.attempted += 1
        try:
            self.data[key] = fn(*args)
        except Exception as exc:  # the run goes on and reports the failure
            self.failed += 1
            self.errors.append(f"{key}: {type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# paper_experiments: the six experiments at their default configs and the
# fit / oracle / rates subcommands on the sample config, through the CLI.

# The pspline_unpenalized data as the experiment defines it at its default
# config and seed: x on an even grid, y = sin(2 pi x) + noise, cubic
# B-splines on equidistant knots over [0, 1].
PSPLINE = {
    "full": {"n": 400, "n_knots": 10, "degree": 3, "noise": 0.3, "seed": 0,
             "lams": (1.0, 10.0)},
    "tiny": {"n": 100, "n_knots": 6, "degree": 3, "noise": 0.3, "seed": 0,
             "lams": (0.01,)},
}
# Smaller runs of every experiment for the tests; the full size uses the
# built-in defaults, so no config file is passed.
TINY_OVERRIDES = {
    "path_matching": "[run]\nmax_iter = 1000\nisotropic_k = 50\ngrid_points = 50\n",
    "pspline_unpenalized": "[data]\nn = {n}\nn_knots = {n_knots}\n"
                           "[run]\nmax_iter = 500\nlams = 0.01\n",
    "rates_sweep": "[run]\ncheck_instances = 3\n",
    "expfam_convergence": "[run]\nmax_iter = 300\n",
    "distreg_divergence": "[run]\ntrials = 10\n",
    "gsq_equivalence": "[run]\nn_partitions = 4\nn_steps = 50\n",
}


@dataclass
class PaperState:
    seed: int
    size: str
    work: Path
    configs: dict


def _cli(argv):
    """Run the command line in-process; returns its exit code."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = amboost.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code}: {sink.getvalue()[-400:]}")
    return code


def paper_setup(seed, size, work):
    configs = {}
    if size == "tiny":
        for name, text in TINY_OVERRIDES.items():
            path = Path(work) / f"{name}.ini"
            path.write_text(text.format(**PSPLINE["tiny"]))
            configs[name] = ["--config", str(path)]
    state = PaperState(seed, size, Path(work), configs)
    warm = tempfile.mkdtemp(dir=work)
    _cli(["fit", "--config", str(SAMPLE_CONFIG), "--seed", str(seed), "--out", warm])
    return state


def paper_body(state):
    out = Path(tempfile.mkdtemp(dir=state.work))
    outcome = Outcome(data={"dir": out})
    for name in EXPERIMENTS:
        argv = ["experiment", name, "--out", str(out)] + state.configs.get(name, [])
        outcome.attempt(name, _cli, argv)
    for command in CLI_COMMANDS:
        argv = [command, "--config", str(SAMPLE_CONFIG), "--seed", str(state.seed),
                "--out", str(out / "cli")]
        outcome.attempt(command, _cli, argv)
    return outcome


def pspline_reference(n, n_knots, degree, noise, seed, **_):
    """Least-squares spline fit to the experiment's data, via scipy."""
    from scipy.interpolate import BSpline  # slow to import; only checks need it

    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, n)
    y = np.sin(2 * np.pi * x) + noise * rng.standard_normal(n)
    h = 1.0 / (n_knots - 1)
    knots = h * (np.arange(n_knots + 2 * degree) - degree)
    B = BSpline.design_matrix(x, knots, degree).toarray()
    return np.linalg.lstsq(B, y, rcond=None)[0]


def read_final_coefficients(path):
    """Coefficients of the last row of a path CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, last = rows[0], rows[-1]
    return np.array([float(v) for h, v in zip(header, last) if h.startswith("beta_")])


def csv_digests(out):
    """SHA-256 of every CSV below ``out``, by relative path."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(out).rglob("*.csv"))
    }


def check_manifests(manifests):
    fails = []
    for name, manifest in manifests.items():
        for c in manifest["checks"]:
            if not c["passed"]:
                fails.append(f"{name}: manifest check {c['name']} failed ({c['detail']})")
    return fails


def check_pspline(finals, reference, rel=1e-6):
    fails = []
    scale = np.linalg.norm(reference)
    for lam, beta in finals.items():
        gap = float(np.linalg.norm(beta - reference))
        if not gap <= rel * scale:
            fails.append(
                f"pspline_unpenalized lam={lam:g}: final coefficients are "
                f"{gap / scale:.3e} (relative) from the least-squares fit"
            )
    return fails


def check_same_csv(first, current):
    if first == current:
        return []
    differ = sorted(k for k in first.keys() | current.keys() if first.get(k) != current.get(k))
    return [f"CSV output differs between repetitions: {', '.join(differ)}"]


def paper_check(state, outcome, memo):
    out = outcome.data["dir"]
    fails = []
    manifests = {}
    for name in EXPERIMENTS:
        if name in outcome.data:
            path = out / name / "manifest.json"
            if not path.is_file():
                fails.append(f"{name}: no manifest written")
                continue
            manifests[name] = json.loads(path.read_text())
    fails += check_manifests(manifests)

    if "pspline_unpenalized" in outcome.data:
        spec = PSPLINE[state.size]
        if "pspline" not in memo:
            memo["pspline"] = pspline_reference(**spec)
        finals = {}
        for lam in spec["lams"]:
            path = out / "pspline_unpenalized" / f"boost_path_lam_{lam:g}.csv"
            if path.is_file():
                finals[lam] = read_final_coefficients(path)
            else:
                fails.append(f"pspline_unpenalized: {path.name} missing")
        fails += check_pspline(finals, memo["pspline"])

    digests = csv_digests(out)
    if "csv" not in memo:
        memo["csv"] = digests
    else:
        fails += check_same_csv(memo["csv"], digests)
    return fails


# ---------------------------------------------------------------------------
# greedy_wide: component-wise greedy boosting on a wide design, with L2 and
# binomial loss, and gbcd_gsq on the same L2 problem.

GREEDY = {
    "full": {"n": 100_000, "p": 50, "steps": 20},
    "tiny": {"n": 2_000, "p": 10, "steps": 10},
}
NU = 0.1


@dataclass
class GreedyState:
    X: np.ndarray
    y: np.ndarray
    y_bin: np.ndarray
    partition: object
    steps: int


def greedy_inputs(seed, n, p):
    """Standard normal design, a sparse signal, Gaussian and Bernoulli outcomes."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    k = max(1, p // 5)
    beta = np.zeros(p)
    beta[rng.choice(p, size=k, replace=False)] = (
        rng.choice([-1.0, 1.0], size=k) * rng.uniform(0.5, 2.0, size=k)
    )
    eta = X @ beta
    y = eta + rng.standard_normal(n)
    y_bin = (rng.uniform(size=n) < expit(0.5 * eta)).astype(float)
    return X, y, y_bin


def greedy_setup(seed, size, work):
    n, p, steps = GREEDY[size]["n"], GREEDY[size]["p"], GREEDY[size]["steps"]
    X, y, y_bin = greedy_inputs(seed, n, p)
    partition = amboost.make_partition(X, amboost.singleton_blocks(p))
    amboost.run_boost(partition, amboost.l2(), y, amboost.BoostConfig(nu=NU, max_iter=1))
    return GreedyState(X, y, y_bin, partition, steps)


def greedy_body(state):
    cfg = amboost.BoostConfig(nu=NU, max_iter=state.steps, mode="greedy")
    outcome = Outcome()
    outcome.attempt("l2", amboost.run_boost, state.partition, amboost.l2(), state.y, cfg)
    outcome.attempt(
        "binomial", amboost.run_boost, state.partition, amboost.binomial(), state.y_bin, cfg
    )
    outcome.attempt(
        "gsq", amboost.gbcd_gsq, state.partition, amboost.l2(), state.y,
        amboost.GbcdConfig(nu=NU, max_iter=state.steps),
    )
    return outcome


def check_same_path(sel_a, betas_a, sel_b, betas_b, rel=1e-12):
    """Greedy boosting and descent: same block every step, same iterates."""
    fails = []
    if len(sel_a) != len(sel_b) or np.any(np.asarray(sel_a) != np.asarray(sel_b)):
        k = next(
            (i for i, (a, b) in enumerate(zip(sel_a, sel_b)) if a != b),
            min(len(sel_a), len(sel_b)),
        )
        fails.append(f"boosting and gbcd_gsq select different blocks from step {k}")
    elif betas_a.shape != betas_b.shape:
        fails.append("boosting and gbcd_gsq paths differ in length")
    else:
        gap = float(np.max(np.abs(betas_a - betas_b)))
        if not gap <= rel * max(1.0, float(np.max(np.abs(betas_a)))):
            fails.append(f"boosting and gbcd_gsq coefficients differ by {gap:.3e}")
    return fails


def check_greedy_steps(X, working_response, betas, selected, nu, rel=1e-9):
    """Each step moves one column j maximizing (x_j'r)^2 / ||x_j||^2 by nu x_j'r / ||x_j||^2.

    ``working_response(beta)`` recomputes r at the coefficients ``beta``.
    One n-vector at a time, so the check stays below the program's
    peak memory.
    """
    norms = np.einsum("ij,ij->j", X, X)
    fails = []
    for k, j in enumerate(selected):
        g = X.T @ working_response(betas[k])
        scores = g**2 / norms
        if not scores[j] >= (1.0 - rel) * scores.max():
            fails.append(
                f"step {k}: selected block {j} scores {scores[j]:.6e}, "
                f"block {int(scores.argmax())} scores {scores.max():.6e}"
            )
        expected = np.zeros(X.shape[1])
        expected[j] = nu * g[j] / norms[j]
        gap = float(np.max(np.abs(betas[k + 1] - betas[k] - expected)))
        if not gap <= rel * abs(expected[j]):
            fails.append(f"step {k}: update of block {j} is off by {gap:.3e}")
    return fails


def l2_reference(X, y, n_blocks, nu):
    """Optimal L2 loss and the greedy linear rate, from the Gram matrix."""
    G = X.T @ X
    beta_star = np.linalg.solve(G, X.T @ y)
    loss_opt = 0.5 * float(np.sum((y - X @ beta_star) ** 2))
    w = np.linalg.eigvalsh(G)
    gamma = 1.0 - nu * (2.0 - nu) / n_blocks * (w[0] / w[-1])
    return loss_opt, gamma


def check_gap_bound(losses, loss_opt, gamma, slack=1e-9):
    gaps = np.asarray(losses) - loss_opt
    bound = gamma ** np.arange(gaps.size) * gaps[0]
    bad = np.flatnonzero(gaps > bound + slack * gaps[0])
    if bad.size:
        k = int(bad[0])
        return [f"L2 gap {gaps[k]:.6e} at step {k} exceeds gamma^k gap0 = {bound[k]:.6e}"]
    return []


def check_binomial(X, y, betas, losses, rel=1e-9):
    fails = []
    losses = np.asarray(losses)
    rises = np.flatnonzero(np.diff(losses) > rel * np.abs(losses[1:]))
    if rises.size:
        fails.append(f"binomial loss rises at step {int(rises[0]) + 1}")
    f = X @ betas[-1]
    expected = float(np.sum(np.logaddexp(0.0, f) - y * f))
    if not abs(losses[-1] - expected) <= rel * abs(expected):
        fails.append(f"final binomial loss {losses[-1]!r} != recomputed {expected!r}")
    return fails


def greedy_check(state, outcome, memo):
    fails = []
    l2_path = outcome.data.get("l2")
    gsq_path = outcome.data.get("gsq")
    bin_path = outcome.data.get("binomial")
    if l2_path is not None:
        if "l2" not in memo:
            memo["l2"] = l2_reference(state.X, state.y, state.partition.n_blocks, NU)
        fails += check_greedy_steps(
            state.X, lambda b: state.y - state.X @ b, l2_path.betas, l2_path.selected, NU
        )
        fails += check_gap_bound(l2_path.losses, *memo["l2"])
        if gsq_path is not None:
            fails += check_same_path(
                l2_path.selected, l2_path.betas, gsq_path.selected, gsq_path.betas
            )
    if bin_path is not None:
        fails += check_greedy_steps(
            state.X, lambda b: state.y_bin - expit(state.X @ b),
            bin_path.betas, bin_path.selected, NU,
        )
        fails += check_binomial(state.X, state.y_bin, bin_path.betas, bin_path.losses)
    return fails


# ---------------------------------------------------------------------------
# cox_survival: greedy proportional-hazards boosting on censored survival
# times with ties.

COX = {
    "full": {"n": 2_000, "p": 5, "steps": 5},
    "tiny": {"n": 200, "p": 3, "steps": 3},
}
# times are rounded up onto a grid of this many cells per median time
GRID_PER_MEDIAN = 10


@dataclass
class CoxState:
    X: np.ndarray
    times: np.ndarray
    events: np.ndarray
    loss: object
    partition: object
    steps: int


def cox_inputs(seed, n, p):
    """Exponential survival times with proportional hazards, censored, tied.

    Censoring times are exponential with twice the median event time as
    their mean. Observed times are rounded up onto a grid, so many share
    a value and all stay positive.
    """
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta = rng.uniform(-1.0, 1.0, size=p)
    t_event = rng.exponential(1.0, size=n) * np.exp(-(X @ beta))
    t_censor = rng.exponential(2.0 * np.median(t_event), size=n)
    events = (t_event <= t_censor).astype(float)
    times = np.minimum(t_event, t_censor)
    h = np.median(times) / GRID_PER_MEDIAN
    times = np.ceil(times / h) * h
    return X, times, events


def cox_setup(seed, size, work):
    n, p, steps = COX[size]["n"], COX[size]["p"], COX[size]["steps"]
    X, times, events = cox_inputs(seed, n, p)
    loss = amboost.coxph(times, events)
    partition = amboost.make_partition(X, amboost.singleton_blocks(p))
    amboost.run_boost(partition, loss, events, amboost.BoostConfig(nu=NU, max_iter=1))
    return CoxState(X, times, events, loss, partition, steps)


def cox_body(state):
    outcome = Outcome()
    outcome.attempt(
        "path", amboost.run_boost, state.partition, state.loss, state.events,
        amboost.BoostConfig(nu=NU, max_iter=state.steps, mode="greedy"),
    )
    return outcome


def breslow(f, times, events):
    """Negative log partial likelihood with Breslow ties, and its negative gradient.

    Sorted and cumulative, O(n log n): walking from the latest time back,
    ``logaddexp.accumulate`` gives the log of the summed risk over every
    subject seen so far; a tie group takes the value at its last member,
    so its risk set holds the whole group.
    """
    f = np.asarray(f, dtype=float)
    ev = np.asarray(events, dtype=bool)
    desc = np.argsort(-times, kind="stable")
    t_desc = times[desc]
    group_end = np.searchsorted(-t_desc, -t_desc, side="right") - 1
    log_risk = np.empty_like(f)
    log_risk[desc] = np.logaddexp.accumulate(f[desc])[group_end]
    loss = float(np.sum(log_risk[ev] - f[ev]))
    # subject j collects exp(f_j - log_risk_i) from every event i with t_i <= t_j
    asc = desc[::-1]
    t_asc = times[asc]
    group_end = np.searchsorted(t_asc, t_asc, side="right") - 1
    share = np.where(ev[asc], np.exp(-log_risk[asc]), 0.0)
    collected = np.empty_like(f)
    collected[asc] = np.cumsum(share)[group_end]
    return loss, np.asarray(events, dtype=float) - np.exp(f) * collected


def check_cox(losses, working_response, ref_loss, ref_working_response, rel=1e-9):
    fails = []
    if not abs(losses[-1] - ref_loss) <= rel * abs(ref_loss):
        fails.append(f"final Cox loss {losses[-1]!r} != Breslow {ref_loss!r}")
    gap = float(np.max(np.abs(working_response - ref_working_response))
                / np.max(np.abs(ref_working_response)))
    if not gap <= rel:
        fails.append(f"Cox working response differs from Breslow by {gap:.3e} (relative)")
    if not losses[-1] < losses[0]:
        fails.append(f"Cox loss did not decrease: {losses[0]!r} -> {losses[-1]!r}")
    return fails


def cox_check(state, outcome, memo):
    path = outcome.data.get("path")
    if path is None:
        return []
    f = path.offset + state.X @ path.final
    ref_loss, ref_response = breslow(f, state.times, state.events)
    response = amboost.neg_functional_gradient(state.loss, state.events, f)
    return check_cox(path.losses, response, ref_loss, ref_response)


@dataclass(frozen=True)
class Workload:
    """A workload's three functions; why each exists is in BENCHMARK.json."""

    name: str
    setup: object
    body: object
    check: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_experiments", paper_setup, paper_body, paper_check),
        Workload("greedy_wide", greedy_setup, greedy_body, greedy_check),
        Workload("cox_survival", cox_setup, cox_body, cox_check),
    )
}
