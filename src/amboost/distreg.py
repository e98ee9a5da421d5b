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
    BoostPath,
    _check_schedule,
    _loss_grew,
    _PathRecorder,
    _Stepper,
    divergence_detector,
)
from .design import _check_finite, make_partition, single_block
from .errors import NumericError

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
        self.X = np.asarray(self.X, dtype=float)
        self.Z = np.asarray(self.Z, dtype=float)
        self.beta = np.asarray(self.beta, dtype=float)
        self.xi = np.asarray(self.xi, dtype=float)
        for what, M in (("mean design", self.X), ("scale design", self.Z)):
            if M.ndim != 2 or M.size == 0:
                raise ValueError(f"{what} must be a non-empty matrix, shape {M.shape}")
            _check_finite(M, what)
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
    eta = model.Z @ model.xi
    big = np.abs(eta) > MAX_LOG_SCALE
    if big.any():
        bad = int(np.argmax(big))
        raise NumericError(
            f"log-scale magnitude {abs(eta[bad]):.3g} at index {bad} exceeds "
            f"the overflow guard {MAX_LOG_SCALE:g}",
            index=bad,
        )
    sigma2 = np.exp(2.0 * eta)
    r = np.asarray(y, dtype=float) - model.X @ model.beta
    if not np.isfinite(r).all():
        bad = int(np.argmax(~np.isfinite(r)))
        raise NumericError(f"non-finite residual at index {bad}", index=bad)
    return eta, sigma2, r


def gauss_ls_nll(model, y):
    """Negative log-likelihood of the location-scale model."""
    eta, sigma2, r = _scale_and_residual(model, y)
    return float(0.5 * model.n * LOG_2PI + np.sum(eta + r**2 / (2.0 * sigma2)))


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
    full Hessian.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float)
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


def cyclic_boost_ls(X, Z, y, nu, max_iter, update_scale=True):
    """Boost mean and scale models in alternation, mean first.

    Each of at most ``max_iter`` cycles applies one update of step size
    ``nu`` to the mean model against the working response ``r / sigma^2``
    and, unless disabled, one to the scale model against
    ``r^2 / sigma^2 - 1`` (the negative gradient in the scale model's
    linear predictor). Numeric blow-ups and tenfold loss growth are
    recorded as a divergence termination rather than raised; both
    returned paths carry detector verdicts.

    With the scale updates disabled the run reduces to plain squared-loss
    boosting of the mean model at unit variance.
    """
    _check_schedule(nu, max_iter, 1)
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float)
    mean_part = make_partition(X, single_block(X.shape[1]))
    scale_part = make_partition(Z, single_block(Z.shape[1]))
    mean_step = _Stepper(mean_part, nu, "joint")
    scale_step = _Stepper(scale_part, nu, "joint")

    def state():
        model = GaussianLSModel(X, Z, mean_step.beta, scale_step.beta)
        return gauss_ls_eval(model, y)

    nll0, gb, gx = state()
    mean_rec = _PathRecorder(mean_step.beta, nll0, gb)
    scale_rec = _PathRecorder(scale_step.beta, nll0, gx)
    terminated = "max_iter"
    numeric_error = False

    # each half-step moves along the negated gradient of the current state
    for _ in range(max_iter):
        try:
            sel = mean_step.step(-gb)
            nll, gb, gx = state()
            mean_rec.record(mean_step.beta, sel, nll, gb)
            if update_scale:
                sel = scale_step.step(-gx)
                nll, gb, gx = state()
                scale_rec.record(scale_step.beta, sel, nll, gx)
        except (NumericError, np.linalg.LinAlgError):
            terminated = "divergence"
            numeric_error = True
            break
        if _loss_grew(max(mean_rec.losses[-1], scale_rec.losses[-1]), nll0):
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
