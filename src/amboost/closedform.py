"""Analytic oracles for joint-update boosting paths.

Closed forms for the iterates of L2 boosting with and without quadratic
penalties, their limits, the iteration-indexed implicit penalty matrix
whose ridge-type solve reproduces each iterate, and the scalar
ridge-equivalent penalty for isotropic designs. All computations are
stateless and freely concurrent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EIG_TOL = 1e-12


def _gram(X):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("design matrix must be 2-dimensional")
    return X, X.T @ X


def _require_full_rank(X, G):
    w = np.linalg.eigvalsh(G)
    cutoff = max(X.shape) * np.finfo(float).eps * max(w[-1], 0.0)
    if w[0] <= cutoff:
        raise np.linalg.LinAlgError(
            "design matrix is rank deficient; use the penalized path or the "
            "min-norm limit instead"
        )


def _sym_pencil(G, A):
    """Diagonalize A^{-1} G through the symmetric pencil A^{-1/2} G A^{-1/2}.

    Returns the shared eigenvalues ``d`` (those of the smoother matrix
    ``(X^T X + lam P)^{-1} X^T X``, inside [0, 1]), the eigenvectors of
    the symmetrized matrix and the inverse square root of ``A``.
    """
    wa, Va = np.linalg.eigh(A)
    cutoff = A.shape[0] * np.finfo(float).eps * max(wa[-1], 0.0)
    if wa[0] <= cutoff:
        raise np.linalg.LinAlgError("singular penalized system matrix")
    Ainv_half = Va @ ((1.0 / np.sqrt(wa))[:, None] * Va.T)
    A_half = Va @ (np.sqrt(wa)[:, None] * Va.T)
    M = Ainv_half @ G @ Ainv_half
    M = 0.5 * (M + M.T)
    d, V = np.linalg.eigh(M)
    d = np.clip(d, 0.0, 1.0)
    return d, V, Ainv_half, A_half


def _check_step(nu):
    if not 0.0 < nu <= 1.0:
        raise ValueError("step size must be in (0, 1]")


def linear_boost_path(X, y, nu, k):
    """Iterate k of joint L2 boosting with an unpenalized linear learner.

    Equals ``(1 - (1 - nu)^k)`` times the least-squares solution; the
    shrinkage factor depends only on the step size and the iteration.
    Requires a full-column-rank design.
    """
    _check_step(nu)
    if k < 0:
        raise ValueError("iteration must be nonnegative")
    X, G = _gram(X)
    _require_full_rank(X, G)
    beta_ols = np.linalg.solve(G, X.T @ np.asarray(y, dtype=float))
    delta = -np.expm1(k * np.log1p(-nu)) if nu < 1.0 else float(k > 0)
    return delta * beta_ols


def penalized_boost_path(X, y, P, lam, nu, k):
    """Iterate k of joint L2 boosting with a quadratic-penalty learner.

    Evaluates the matrix-geometric sum
    ``sum_{m<k} nu (I - nu (X^T X + lam P)^{-1} X^T X)^m`` applied to the
    penalized least-squares solution, in telescoped form through the
    eigenvalues of the symmetrized smoother matrix rather than by naive
    matrix powers. ``lam=0`` reduces to :func:`linear_boost_path`.
    """
    _check_step(nu)
    if k < 0:
        raise ValueError("iteration must be nonnegative")
    if lam < 0:
        raise ValueError("penalty weight must be nonnegative")
    X, G = _gram(X)
    if k == 0:
        return np.zeros(X.shape[1])
    P = np.zeros_like(G) if P is None else np.asarray(P, dtype=float)
    A = G + lam * P
    d, V, Ainv_half, _ = _sym_pencil(G, A)
    # per-eigendirection telescoped geometric sum of (1 - nu d)
    with np.errstate(divide="ignore"):
        phi = np.where(
            d > _EIG_TOL,
            -np.expm1(k * np.log1p(-nu * d)) / np.where(d > _EIG_TOL, d, 1.0),
            nu * k,
        )
    rhs = Ainv_half @ (X.T @ np.asarray(y, dtype=float))
    return Ainv_half @ (V @ (phi * (V.T @ rhs)))


def boost_limit(X, y, lam=0.0, P=None):
    """Limit of the joint boosting path: the unpenalized min-norm fit.

    Independent of the penalty weight and matrix, which is the pathology:
    the limit ignores the penalty entirely. Full-column-rank designs give
    the least-squares solution, rank-deficient ones the pseudoinverse
    applied to the outcome.
    """
    X = np.asarray(X, dtype=float)
    return np.linalg.lstsq(X, np.asarray(y, dtype=float), rcond=None)[0]


@dataclass
class ImplicitPenalty:
    """Iteration-indexed penalty whose ridge-type solve matches boosting.

    ``gamma`` is symmetric PSD and shrinks to zero as the iteration
    grows; ``beta_check`` is the solve ``(X^T X + gamma)^{-1} X^T y``
    which reproduces the boosting iterate.
    """

    gamma: np.ndarray
    k: int
    nu: float
    lam: float
    beta_check: np.ndarray
    conditioning_warning: bool = False


def implicit_penalty(X, y, P, lam, nu, k):
    """Penalty matrix of the explicitly regularized problem solved at step k.

    Computes ``(X^T X) S^{-1} [(I - nu S)^{-k} - I]^{-1} S`` with
    ``S = (X^T X + lam P)^{-1} X^T X``, evaluated through the symmetric
    pencil so the matrix power cannot overflow. For very large k the
    scalar factors underflow to zero; the result is then reported as the
    zero matrix with a conditioning warning.

    Requires a full-column-rank design and ``k >= 1``.
    """
    _check_step(nu)
    if k < 1:
        raise ValueError("implicit penalty defined for k >= 1")
    if lam < 0:
        raise ValueError("penalty weight must be nonnegative")
    X, G = _gram(X)
    _require_full_rank(X, G)
    P = np.zeros_like(G) if P is None else np.asarray(P, dtype=float)
    A = G + lam * P
    d, V, Ainv_half, A_half = _sym_pencil(G, A)
    with np.errstate(over="ignore", divide="ignore"):
        denom = np.expm1(-k * np.log1p(-nu * d))
        g = np.where(np.isfinite(denom), d / np.where(denom > 0, denom, np.inf), 0.0)
    warning = bool(np.any(~np.isfinite(denom)))
    gamma = A_half @ (V @ (g[:, None] * V.T)) @ A_half
    gamma = 0.5 * (gamma + gamma.T)
    beta_check = np.linalg.solve(G + gamma, X.T @ np.asarray(y, dtype=float))
    return ImplicitPenalty(
        gamma=gamma,
        k=int(k),
        nu=float(nu),
        lam=float(lam),
        beta_check=beta_check,
        conditioning_warning=warning,
    )


def ridge_equivalent_lambda(sigma2, nu, k, variant="plain", lam=None):
    """Ridge penalty whose solution matches boosting iterate k.

    Valid for isotropic designs with ``X^T X = sigma2 * I`` only. The
    ``'plain'`` variant covers the unpenalized linear learner, the
    ``'ridge_boost'`` variant a learner that itself carries a ridge
    penalty ``lam``. Both are strictly decreasing in k and vanish in the
    limit.
    """
    _check_step(nu)
    if sigma2 <= 0:
        raise ValueError("isotropy parameter must be positive")
    if k < 1:
        raise ValueError(
            "ridge-equivalent penalty undefined at k=0 (division by zero)"
        )
    if variant == "plain":
        shrink = 1.0 - nu
    elif variant == "ridge_boost":
        if lam is None or lam < 0:
            raise ValueError("ridge_boost variant needs a nonnegative lam")
        shrink = 1.0 - nu * sigma2 / (sigma2 + lam)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if shrink == 0.0:
        return 0.0
    # sigma2 * shrink^k / (1 - shrink^k), stable for large k
    return float(sigma2 / np.expm1(-k * np.log(shrink)))


def ridge_solve(X, y, lam):
    """Plain ridge regression solution ``(X^T X + lam I)^{-1} X^T y``."""
    X, G = _gram(X)
    return np.linalg.solve(G + lam * np.eye(G.shape[0]), X.T @ np.asarray(y, float))


def path_points(X, y, nu, ks, lam=0.0, P=None):
    """Closed-form path evaluated on a grid of iteration counts.

    Returns an array with one row per entry of ``ks``.
    """
    rows = [penalized_boost_path(X, y, P, lam, nu, int(k)) for k in ks]
    return np.asarray(rows)
