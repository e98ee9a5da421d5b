"""Gaussian location-scale distributional regression.

Negative log-likelihood, analytic gradients and Hessian blocks for a
model with linear mean predictor and log-linear standard deviation,
diagnostics for blockwise convexity and the missing global curvature
bound in the scale parameters, and a cyclic two-model boosting driver
that exhibits the step-size divergence of the scale model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boost import (
    JOINT_SENTINEL,
    BoostConfig,
    BoostPath,
    _BlockSolver,
    _check_start,
    _loss_grew,
    _PathRecorder,
    divergence_detector,
)
from .design import _check_count, _check_matrix, _check_outcome
from .errors import NumericError
from .losses import _PREDICTOR_LIMIT, _check_predictor

# exp(2 * eta) must stay inside double range
MAX_LOG_SCALE = 350.0

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class GaussianLSModel:
    """Linear mean model plus log-linear scale model.

    The observation standard deviations are ``exp(Z @ xi)``, positive by
    construction; residuals are taken against ``X @ beta``. Both designs
    must be non-empty, finite matrices; a non-finite entry is named by its
    row and column. The coefficients are not checked, so a diverging
    iterate surfaces as :class:`NumericError` when the model is evaluated.
    """

    X: np.ndarray
    Z: np.ndarray
    beta: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        self.X = _check_matrix(self.X, "mean design")
        self.Z = _check_matrix(self.Z, "scale design")
        self.beta = np.asarray(self.beta, dtype=float)
        self.xi = np.asarray(self.xi, dtype=float)
        if self.X.shape[0] != self.Z.shape[0]:
            raise ValueError("mean and scale designs must share observations")
        if self.beta.shape != (self.X.shape[1],):
            raise ValueError("mean coefficient length mismatch")
        if self.xi.shape != (self.Z.shape[1],):
            raise ValueError("scale coefficient length mismatch")

    @property
    def n(self):
        return self.X.shape[0]


def _scale_and_residual(model, y):
    # a malformed outcome is an input error, not a diverging iterate
    y = _check_outcome(y, model.n)
    eta = _check_predictor(model.Z @ model.xi, MAX_LOG_SCALE, what="log-scale")
    # like the l2 predictor's, the residual's only bound is the largest float
    r = _check_predictor(y - model.X @ model.beta, _PREDICTOR_LIMIT["l2"], what="residual")
    return eta, np.exp(2.0 * eta), r


def gauss_ls_eval(model, y):
    """Negative log-likelihood with both analytic gradients.

    Returns
    -------
    nll : float
    grad_beta : ndarray
        ``-sum_i x_i r_i / sigma_i^2``.
    grad_xi : ndarray
        ``sum_i z_i (1 - r_i^2 / sigma_i^2)``.
    """
    eta, sigma2, r = _scale_and_residual(model, y)
    nll = float(0.5 * model.n * LOG_2PI + np.sum(eta + r**2 / (2.0 * sigma2)))
    grad_beta = -(model.X.T @ (r / sigma2))
    grad_xi = model.Z.T @ (1.0 - r**2 / sigma2)
    return nll, grad_beta, grad_xi


def gauss_ls_hessian(model, y):
    """The four Hessian blocks of the negative log-likelihood.

    The diagonal blocks are PSD everywhere (the problem is convex in
    each parameter group separately); the full matrix need not be.
    """
    _, sigma2, r = _scale_and_residual(model, y)
    X, Z = model.X, model.Z
    H_bb = X.T @ (X / sigma2[:, None])
    H_bx = 2.0 * X.T @ (Z * (r / sigma2)[:, None])
    H_xx = 2.0 * Z.T @ (Z * (r**2 / sigma2)[:, None])
    return H_bb, H_bx, H_bx.T, H_xx


def full_hessian(model, y):
    """Assembled symmetric Hessian over (beta, xi)."""
    H_bb, H_bx, H_xb, H_xx = gauss_ls_hessian(model, y)
    return np.block([[H_bb, H_bx], [H_xb, H_xx]])


def reference_indefinite_instance():
    """Single-observation instance whose full Hessian is indefinite."""
    model = GaussianLSModel(
        X=np.array([[1.0]]),
        Z=np.array([[1.0]]),
        beta=np.array([1.0]),
        xi=np.array([1.0]),
    )
    return model, np.array([2.0])


@dataclass
class BiconvexityReport:
    """Sampled evidence for blockwise convexity and its limits.

    ``ray_eigs`` traces the top eigenvalue of the scale-block Hessian
    along a ray that drives the scale toward zero; its growth without
    bound is the witness that no global curvature constant exists for
    the scale parameters.
    """

    min_eig_mean_block: float
    min_eig_scale_block: float
    diag_blocks_psd: bool
    ray_ts: np.ndarray
    ray_eigs: np.ndarray
    ray_unbounded: bool
    counterexample_indefinite: bool


def biconvexity_check(X, Z, y, trials=100, seed=0):
    """Sample parameter space and check blockwise convexity.

    Draws random coefficient pairs, records the smallest eigenvalues of
    both diagonal Hessian blocks, follows the scale coefficients along
    ``-t * ones`` to watch the scale-block curvature blow up, and
    evaluates the known single-observation instance with an indefinite
    full Hessian. ``trials``: integer >= 1.
    """
    _check_count(trials, "trials", 1)
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    rng = np.random.default_rng(seed)
    min_bb, min_xx = np.inf, np.inf
    for _ in range(trials):
        model = GaussianLSModel(
            X, Z, rng.normal(size=X.shape[1]), 0.5 * rng.normal(size=Z.shape[1])
        )
        H_bb, _, _, H_xx = gauss_ls_hessian(model, y)
        min_bb = min(min_bb, float(np.linalg.eigvalsh(H_bb)[0]))
        min_xx = min(min_xx, float(np.linalg.eigvalsh(H_xx)[0]))

    ray = np.ones(Z.shape[1])
    if not np.any(Z @ ray):
        raise ValueError("ray direction is in the null space of the scale design")
    beta0 = np.zeros(X.shape[1])
    ray_ts = -np.linspace(0.5, 8.0, 12)
    ray_eigs = []
    for t in ray_ts:
        model = GaussianLSModel(X, Z, beta0, t * ray)
        _, _, _, H_xx = gauss_ls_hessian(model, y)
        ray_eigs.append(float(np.linalg.eigvalsh(H_xx)[-1]))
    ray_eigs = np.asarray(ray_eigs)
    ray_unbounded = bool(
        np.all(np.diff(ray_eigs) > 0) and ray_eigs[-1] > 1e6 * max(ray_eigs[0], 1e-12)
    )

    ce_model, ce_y = reference_indefinite_instance()
    w = np.linalg.eigvalsh(full_hessian(ce_model, ce_y))
    return BiconvexityReport(
        min_eig_mean_block=min_bb,
        min_eig_scale_block=min_xx,
        diag_blocks_psd=bool(min_bb >= -1e-9 and min_xx >= -1e-9),
        ray_ts=ray_ts,
        ray_eigs=ray_eigs,
        ray_unbounded=ray_unbounded,
        counterexample_indefinite=bool(w[0] < -1e-12 and w[-1] > 1e-12),
    )


@dataclass
class DistBoostResult:
    """Paired paths and verdicts of a cyclic two-model boosting run."""

    mean_path: BoostPath
    scale_path: BoostPath
    mean_verdict: str
    scale_verdict: str

    def table(self):
        """``(header, rows)`` of both paths: k, model, loss, coefficients.

        The shorter coefficient vector is padded with blanks.
        """
        p = max(self.mean_path.betas.shape[1], self.scale_path.betas.shape[1])
        header = ["k", "model", "loss"] + [f"coef_{j + 1}" for j in range(p)]
        rows = []
        for name, rec in (("mean", self.mean_path), ("scale", self.scale_path)):
            for k, coefs in enumerate(rec.betas):
                rows.append([k, name, float(rec.losses[k])]
                            + [float(v) for v in coefs] + [""] * (p - len(coefs)))
        return header, rows


def cyclic_boost_ls(X, Z, y, nu, max_iter):
    """Boost mean and scale models in alternation, mean first.

    Each of at most ``max_iter`` cycles applies one update of step size
    ``nu`` to the mean model against the working response ``r / sigma^2``
    and one to the scale model against
    ``r^2 / sigma^2 - 1`` (the negative gradient in the scale model's
    linear predictor). Numeric blow-ups and tenfold loss growth are
    recorded as a divergence termination rather than raised; both
    returned paths carry detector verdicts. Each half-step is the joint
    one-block step of ``run_boost`` on that model's design, guarded as
    above, so both paths record ``BoostConfig(nu=nu, max_iter=max_iter,
    mode="joint", divergence_guard=True)``, whose checks reject a bad
    ``nu`` or ``max_iter``. A non-finite design entry
    is a ``ValueError`` naming the mean or scale design, and an outcome
    that overflows the start loss or gradient is one too.
    """
    config = BoostConfig(nu=nu, max_iter=max_iter, mode="joint", divergence_guard=True)
    # the model checks both designs before a solver sees them
    model = GaussianLSModel(X, Z, np.zeros(np.shape(X)[1:]), np.zeros(np.shape(Z)[1:]))
    y = np.asarray(y, dtype=float)
    mean_solver = _BlockSolver(model.X)
    scale_solver = _BlockSolver(model.Z)

    with np.errstate(over="ignore", invalid="ignore"):
        nll0, gb, gx = gauss_ls_eval(model, y)
        mean_rec = _PathRecorder(model.beta, nll0, gb, config)
        scale_rec = _PathRecorder(model.xi, nll0, gx, config)
    for rec in (mean_rec, scale_rec):
        _check_start(y, nll0, rec.grad_norms[0])
    terminated = "max_iter"
    numeric_error = False

    # each half-step moves along the negated gradient of the current state
    for _ in range(max_iter):
        try:
            model.beta += nu * mean_solver.solve_gram(-gb)
            nll_mean, gb, gx = gauss_ls_eval(model, y)
            mean_rec.record(model.beta, JOINT_SENTINEL, nll_mean, gb)
            model.xi += nu * scale_solver.solve_gram(-gx)
            nll, gb, gx = gauss_ls_eval(model, y)
            scale_rec.record(model.xi, JOINT_SENTINEL, nll, gx)
        except (NumericError, np.linalg.LinAlgError):
            terminated = "divergence"
            numeric_error = True
            break
        if _loss_grew(max(nll_mean, nll), nll0):
            terminated = "divergence"
            break

    mean_path = mean_rec.path(terminated, numeric_error=numeric_error)
    scale_path = scale_rec.path(terminated, numeric_error=numeric_error)
    return DistBoostResult(
        mean_path=mean_path,
        scale_path=scale_path,
        mean_verdict=divergence_detector(mean_path, window=10),
        scale_verdict=divergence_detector(scale_path, window=10),
    )
