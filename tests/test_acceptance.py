"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance
and prints a single pass/fail line (visible with ``pytest -s`` or in
failure output).
"""

import time

import numpy as np
import scipy.optimize

from amboost.boost import (
    BoostConfig,
    divergence_detector,
    run_boost,
    smoother_boost,
)
from amboost.closedform import (
    implicit_penalty,
    linear_boost_path,
    ridge_equivalent_lambda,
    ridge_solve,
)
from amboost.design import BlockSpec, make_partition, single_block, singleton_blocks
from amboost.distreg import (
    GaussianLSModel,
    cyclic_boost_ls,
    full_hessian,
    gauss_ls_eval,
    gauss_ls_hessian,
    reference_indefinite_instance,
)
from amboost.experiments import (
    ExperimentConfig,
    run_experiment,
    synth_glm_data,
    synth_survival_data,
)
from amboost.gbcd import equivalence_check
from amboost.losses import (
    binomial,
    coxph,
    l2,
    loss_value,
    neg_functional_gradient,
    hessian_weights,
    poisson,
)
from amboost.rates import check_bound, rate_quadratic


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{num:>2}] {name}: {status}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _correlated(rng, n, p, rho):
    C = (1.0 - rho) * np.eye(p) + rho * np.ones((p, p))
    return rng.standard_normal(size=(n, p)) @ np.linalg.cholesky(C).T


def _full_rank_problem(rng):
    n = int(rng.integers(30, 201))
    p = int(rng.integers(2, 21))
    if p >= n:
        p = n - 1
    X = _correlated(rng, n, p, float(rng.choice([0.0, 0.4, 0.8])))
    y = X @ rng.standard_normal(p) + rng.standard_normal(n)
    return X, y


def test_01_closed_form_path_match():
    """Joint boosting matches the shrinkage closed form at every iterate."""
    t0 = time.time()
    worst = 0.0
    for i in range(50):
        X, y = _full_rank_problem(np.random.default_rng([101, i]))
        ols = np.linalg.solve(X.T @ X, X.T @ y)
        part = make_partition(X, single_block(X.shape[1]))
        for nu in (0.1, 0.5, 1.0):
            path = run_boost(
                part, l2(), y, BoostConfig(nu=nu, max_iter=500, mode="joint")
            )
            delta = 1.0 - (1.0 - nu) ** np.arange(501)
            oracle = delta[:, None] * ols[None, :]
            err = np.linalg.norm(path.betas - oracle, axis=1) / (
                np.linalg.norm(oracle, axis=1) + 1e-300
            )
            worst = max(worst, float(err.max()))
    elapsed = time.time() - t0
    _report(
        1,
        "closed-form path match",
        worst < 1e-10 and elapsed < 60.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_02_implicit_penalty_self_consistency():
    """The iteration-indexed penalty solve reproduces the normal equations."""
    worst = 0.0
    for i in range(50):
        # the same problem set as criterion 1, one step size per problem
        X, y = _full_rank_problem(np.random.default_rng([101, i]))
        nu = (0.1, 0.5, 1.0)[i % 3]
        part = make_partition(X, single_block(X.shape[1]))
        path = run_boost(
            part, l2(), y, BoostConfig(nu=nu, max_iter=200, mode="joint")
        )
        xty = X.T @ y
        G = X.T @ X
        for k in range(1, 201):
            ip = implicit_penalty(X, y, None, 0.0, nu, k)
            resid = (G + ip.gamma) @ path.betas[k] - xty
            worst = max(worst, float(np.linalg.norm(resid) / np.linalg.norm(xty)))
    _report(
        2,
        "implicit penalty self-consistency",
        worst < 1e-8,
        f"max rel residual {worst:.2e}",
    )


def test_03_ridge_equivalence_both_directions():
    """Isotropic designs match a ridge solution per iterate; correlated ones do not."""
    rng = np.random.default_rng(103)
    n, nu = 100, 0.1

    Q, _ = np.linalg.qr(rng.standard_normal(size=(n, 2)))
    X_iso = 1.4 * Q
    y_iso = X_iso @ np.array([3.0, -2.0]) + rng.standard_normal(n)
    part = make_partition(X_iso, single_block(2))
    path = run_boost(part, l2(), y_iso, BoostConfig(nu=nu, max_iter=500, mode="joint"))
    worst_iso = 0.0
    for k in range(1, 501):
        lam_k = ridge_equivalent_lambda(1.4**2, nu, k)
        ridge = ridge_solve(X_iso, y_iso, lam_k)
        rel = np.linalg.norm(path.betas[k] - ridge) / np.linalg.norm(ridge)
        worst_iso = max(worst_iso, float(rel))

    x1 = rng.standard_normal(n)
    x2 = 0.7 * x1 + np.sqrt(1 - 0.7**2) * rng.standard_normal(n)
    X = np.column_stack([x1, x2])
    y = X @ np.array([3.0, -2.0]) + rng.standard_normal(n)
    part = make_partition(X, single_block(2))
    path = run_boost(part, l2(), y, BoostConfig(nu=nu, max_iter=10000, mode="joint"))
    grid = np.logspace(-6, 6, 200)
    ridge_path = np.array([ridge_solve(X, y, lam) for lam in grid])
    min_gaps = [
        np.linalg.norm(ridge_path - path.betas[k][None, :], axis=1).min()
        for k in range(1, len(path.betas))
    ]
    worst_gap = float(max(min_gaps))
    _report(
        3,
        "ridge equivalence holds only for isotropic designs",
        worst_iso < 1e-10 and worst_gap > 1e-3,
        f"isotropic max rel err {worst_iso:.2e}; correlated max min-distance "
        f"{worst_gap:.2e}",
    )


def test_04_penalized_boosting_pathology(tmp_path):
    """Penalized spline boosting lands on the unpenalized fit; descent on the
    penalized objective lands on the penalized one."""
    t0 = time.time()
    artifact = run_experiment(
        ExperimentConfig(
            experiment="pspline_unpenalized", seed=0, out_dir=str(tmp_path)
        )
    )
    elapsed = time.time() - t0
    ok = artifact.all_passed and elapsed < 120.0
    detail = "; ".join(
        f"{c['name']}: {c['detail']}" for c in artifact.checks if not c["passed"]
    ) or f"{len(artifact.checks)} checks, {elapsed:.1f}s"
    _report(4, "penalized boosting converges to the unpenalized fit", ok, detail)


def test_05_descent_equivalence():
    """Greedy boosting and quadratic-norm descent produce identical runs."""
    rng = np.random.default_rng(105)
    all_ok = True
    detail = ""
    for trial in range(20):
        p = int(rng.integers(4, 11))
        cols = list(range(p))
        specs = []
        while cols:
            size = int(rng.integers(1, min(4, len(cols)) + 1))
            specs.append(BlockSpec(tuple(cols[:size])))
            cols = cols[size:]
        X = _correlated(rng, 60, p, 0.6)
        y = rng.standard_normal(60)
        part = make_partition(X, specs)
        nu = float((0.1, 0.2, 0.3)[trial % 3])
        report = equivalence_check(part, l2(), y, nu, n_steps=200)
        full = report.identical and report.n_compared == 201
        if not full:
            all_ok = False
            detail = f"trial {trial}: {report}"
            break
    _report(5, "greedy boosting equals quadratic-norm descent", all_ok, detail)


def test_06_gap_bound_compliance():
    """The geometric gap bound holds on random quadratics; a halved rate is
    flagged as violated."""
    rng = np.random.default_rng(106)
    all_ok = True
    detail = ""
    for trial in range(100):
        n = int(rng.integers(20, 201))
        p = int(rng.integers(2, 51))
        rho = float(rng.choice([0.0, 0.5, 0.9]))
        X = _correlated(rng, n, p, rho)
        y = X @ rng.standard_normal(p) + rng.standard_normal(n)
        if trial % 2 == 0:
            specs = singleton_blocks(p)
        else:
            cols = list(range(p))
            specs = []
            while cols:
                size = int(rng.integers(1, min(5, len(cols)) + 1))
                specs.append(BlockSpec(tuple(cols[:size])))
                cols = cols[size:]
        part = make_partition(X, specs)
        nu = float(rng.choice([0.5, 1.0]))
        path = run_boost(part, l2(), y, BoostConfig(nu=nu, max_iter=120))
        beta_star = np.linalg.lstsq(X, y, rcond=None)[0]
        loss_opt = 0.5 * float(np.sum((y - X @ beta_star) ** 2))
        gamma = rate_quadratic(X.T @ X, part.n_blocks, nu)
        report = check_bound(path, gamma, loss_opt)
        if not report.all_compliant:
            all_ok = False
            detail = f"trial {trial}: violated at k={report.first_violation()}"
            break

    # negative control: a slow correlated instance cannot meet half the rate
    X = _correlated(np.random.default_rng(1060), 100, 30, 0.9)
    y = X @ np.random.default_rng(1061).standard_normal(30)
    part = make_partition(X, singleton_blocks(30))
    path = run_boost(part, l2(), y, BoostConfig(nu=1.0, max_iter=200))
    beta_star = np.linalg.lstsq(X, y, rcond=None)[0]
    loss_opt = 0.5 * float(np.sum((y - X @ beta_star) ** 2))
    gamma = rate_quadratic(X.T @ X, 30, 1.0)
    control = check_bound(path, gamma / 2.0, loss_opt)
    negative_detected = not control.all_compliant
    _report(
        6,
        "linear rate bound compliance",
        all_ok and negative_detected,
        detail or f"100 instances compliant; halved rate violated at "
        f"k={control.first_violation()}",
    )


def test_07_exponential_family_step_sizes(tmp_path):
    """Binomial boosting converges at every rate; poisson does not, and every
    curvature-compliant rate converges."""
    t0 = time.time()
    artifact = run_experiment(
        ExperimentConfig(
            experiment="expfam_convergence", seed=0, out_dir=str(tmp_path)
        )
    )
    elapsed = time.time() - t0
    ok = artifact.all_passed and elapsed < 60.0
    detail = "; ".join(
        f"{c['name']}: {c['detail']}" for c in artifact.checks if not c["passed"]
    ) or f"{len(artifact.checks)} checks, {elapsed:.1f}s"
    _report(7, "exponential-family step-size behavior", ok, detail)


def test_08_smoother_contraction():
    """Smoother boosting contracts the residual geometrically to the
    perfect fit under greedy, cyclic and random selection."""
    rng = np.random.default_rng(108)
    n = 20
    smoothers = []
    bound_rate = 0.0
    for _ in range(3):
        Q, _ = np.linalg.qr(rng.standard_normal(size=(n, n)))
        e = rng.uniform(0.06, 1.0, size=n)
        smoothers.append(Q @ np.diag(e) @ Q.T)
        bound_rate = max(bound_rate, 1.0 - e.min())
    y = rng.standard_normal(n)
    ok = True
    detail = f"contraction factor {bound_rate:.3f}"
    for rule in ("greedy", "cyclic", "random"):
        sp = smoother_boost(smoothers, y, 400, rule=rule, seed=9)
        bound = bound_rate ** np.arange(401) * np.linalg.norm(y)
        if not np.all(sp.residual_norms <= bound * (1 + 1e-9) + 1e-12):
            ok = False
            detail = f"{rule} selection exceeded the contraction bound"
            break
        if sp.residual_norms[-1] > 1e-8 * np.linalg.norm(y):
            ok = False
            detail = f"{rule} selection residual did not vanish"
            break
    _report(8, "smoother boosting contracts to the perfect fit", ok, detail)


def _fd_gradient(fun, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h * (1.0 + abs(x[i]))
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * e[i])
    return g


def test_09_gradient_correctness():
    """Every analytic gradient and curvature matches finite differences."""
    rng = np.random.default_rng(109)
    worst = 0.0

    def rel(a, b):
        return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-10))

    for family in ("l2", "binomial", "poisson", "coxph"):
        for _ in range(50):
            n = 8
            f = rng.normal(scale=1.2, size=n)
            if family == "l2":
                spec, y = l2(), rng.normal(size=n)
            elif family == "binomial":
                spec, y = binomial(), (rng.uniform(size=n) < 0.5).astype(float)
            elif family == "poisson":
                spec, y = poisson(), rng.poisson(2.0, size=n).astype(float)
            else:
                times = rng.exponential(size=n) + 0.05
                events = (rng.uniform(size=n) < 0.7).astype(float)
                events[rng.integers(n)] = 1.0
                spec, y = coxph(times, events), events.copy()
            grad = neg_functional_gradient(spec, y, f)
            fd = -_fd_gradient(lambda g: loss_value(spec, y, g), f)
            worst = max(worst, rel(grad, fd))
            if family == "coxph":
                H = hessian_weights(spec, f).gram(np.eye(n))
                fdH = np.zeros((n, n))
                for i in range(n):
                    e = np.zeros(n)
                    e[i] = 1e-6
                    fdH[:, i] = (
                        -neg_functional_gradient(spec, y, f + e)
                        + neg_functional_gradient(spec, y, f - e)
                    ) / 2e-6
                worst = max(worst, rel(H, fdH))

    for _ in range(50):
        n, p, q = 10, 3, 2
        X = rng.normal(size=(n, p))
        Z = rng.normal(size=(n, q))
        model = GaussianLSModel(X, Z, rng.normal(size=p), 0.4 * rng.normal(size=q))
        y = rng.normal(size=n)
        _, gb, gx = gauss_ls_eval(model, y)
        fd_b = _fd_gradient(
            lambda b: gauss_ls_eval(GaussianLSModel(X, Z, b, model.xi), y)[0],
            model.beta,
        )
        fd_x = _fd_gradient(
            lambda x: gauss_ls_eval(GaussianLSModel(X, Z, model.beta, x), y)[0],
            model.xi,
        )
        worst = max(worst, rel(gb, fd_b), rel(gx, fd_x))

        H = full_hessian(model, y)
        theta0 = np.concatenate([model.beta, model.xi])

        def grad_all(theta):
            m = GaussianLSModel(X, Z, theta[:p], theta[p:])
            _, a, b = gauss_ls_eval(m, y)
            return np.concatenate([a, b])

        fdH = np.zeros_like(H)
        for i in range(theta0.size):
            e = np.zeros_like(theta0)
            e[i] = 1e-6
            fdH[:, i] = (grad_all(theta0 + e) - grad_all(theta0 - e)) / 2e-6
        worst = max(worst, rel(H, fdH))

    _report(9, "analytic derivatives match finite differences", worst < 1e-5,
            f"max rel err {worst:.2e}")


def test_10_location_scale_properties():
    """Diagonal curvature blocks stay PSD, the reference instance is
    indefinite, and only small steps keep cyclic two-model boosting stable."""
    rng = np.random.default_rng(110)
    min_eig = np.inf
    for _ in range(100):
        X = rng.normal(size=(12, 3))
        Z = rng.normal(size=(12, 2))
        model = GaussianLSModel(X, Z, rng.normal(size=3), 0.4 * rng.normal(size=2))
        y = rng.normal(size=12)
        H_bb, _, _, H_xx = gauss_ls_hessian(model, y)
        min_eig = min(
            min_eig,
            float(np.linalg.eigvalsh(H_bb)[0]),
            float(np.linalg.eigvalsh(H_xx)[0]),
        )
    ce_model, ce_y = reference_indefinite_instance()
    w = np.linalg.eigvalsh(full_hessian(ce_model, ce_y))
    indefinite = w[0] < 0 < w[-1]

    n = 200
    x = rng.standard_normal(n)
    X = np.column_stack([np.ones(n), x])
    Z = np.column_stack([np.ones(n), x])
    sigma = np.exp(Z @ np.array([-0.3, 0.8]))
    y = X @ np.array([1.0, 2.0]) + sigma * rng.standard_normal(n)
    big = cyclic_boost_ls(X, Z, y, 0.5, 500)
    small = cyclic_boost_ls(X, Z, y, 0.01, 500)
    ok = (
        min_eig >= -1e-9
        and indefinite
        and big.scale_verdict == "diverging"
        and small.scale_verdict != "diverging"
        and small.mean_verdict != "diverging"
    )
    _report(
        10,
        "location-scale curvature structure and step-size divergence",
        ok,
        f"min diag eig {min_eig:.2e}; large step {big.scale_verdict} after "
        f"{big.scale_path.n_steps} cycles, small step {small.scale_verdict}",
    )


def test_11_survival_boosting_linear_rate():
    """Proportional-hazards boosting closes its loss gap geometrically."""
    X, times, events = synth_survival_data(50, 4, (0.8, -0.6, 0.4, 0.0), seed=7)
    spec = coxph(times, events)
    part = make_partition(X, singleton_blocks(4))
    path = run_boost(
        part, spec, events, BoostConfig(nu=0.3, max_iter=400, mode="greedy")
    )

    def objective(beta):
        return loss_value(spec, events, X @ beta)

    def grad(beta):
        return -X.T @ neg_functional_gradient(spec, events, X @ beta)

    opt = scipy.optimize.minimize(
        objective, np.zeros(4), jac=grad, method="BFGS",
        options={"gtol": 1e-12, "maxiter": 500},
    )
    gaps = path.losses - opt.fun
    keep = gaps > 1e-12 * max(gaps[0], 1e-300)
    ks = np.arange(len(gaps))[keep]
    slope = np.polyfit(ks, np.log(gaps[keep]), 1)[0]
    ok = slope < -1e-3 and gaps[-1] < 1e-6 * gaps[0]
    _report(
        11,
        "survival boosting converges at a linear rate",
        ok,
        f"log-gap slope {slope:.4f}, final gap ratio {gaps[-1] / gaps[0]:.2e}",
    )
