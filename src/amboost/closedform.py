"""Analytic oracles for joint-update boosting paths.

Closed forms for the iterates of L2 boosting with and without quadratic
penalties, their limits, the iteration-indexed implicit penalty matrix
whose ridge-type solve reproduces each iterate, and the scalar
ridge-equivalent penalty for isotropic designs. :func:`path_points`
factors once per call, however many iteration counts it evaluates. All
computations are stateless and freely concurrent.

The oracles solve in Gram space, with ``X^T X`` rather than ``X``, so
their relative error grows like ``cond(X)^2 eps``. Without a penalty they
all admit the same designs: each rejects a design whose ``X^T X`` is
singular by :func:`design._gram_singular`, ``cond(X)`` from about
``1 / sqrt(max(n, p) eps)``, 6.7e6 at n=100, as rank deficient. Over 100
random n=100, p=2 designs at k=3, nu=0.5, against the least-squares
iterate, :func:`linear_boost_path` was off by a median 4.3e-5 at
``cond(X)`` = 1e6 and 1.3e-3 at 6e6 (at most 3.1e-4 and 1.2e-2), while
the joint engine of ``run_boost``, working on ``X`` itself, was off by a
median 6.4e-10 (at most 3.6e-7) at 1e7.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import (
    _check_count,
    _check_matrix,
    _check_outcome,
    _check_step,
    _check_weight,
    _gram_singular,
    _is_penalized,
    _penalty,
)

_EIG_TOL = 1e-12
_RANK_DEFICIENT = (
    "design matrix is rank deficient; use the penalized path or the min-norm limit instead"
)


def _inputs(X, y):
    """Design and outcome as float arrays, rejecting a non-finite entry by name."""
    X = _check_matrix(X, "design matrix")
    return X, _check_outcome(y, X.shape[0])


def _gram(X, y):
    X, y = _inputs(X, y)
    return X, y, X.T @ X


def _require_full_rank(X, G):
    if _gram_singular(np.linalg.eigvalsh(G), X.shape):
        raise np.linalg.LinAlgError(_RANK_DEFICIENT)


def _sym_pencil(G, A, shape, penalized):
    """Diagonalize A^{-1} G through the symmetric pencil A^{-1/2} G A^{-1/2}.

    Returns the shared eigenvalues ``d`` (those of the smoother matrix
    ``(X^T X + lam P)^{-1} X^T X``, inside [0, 1]), the eigenvectors of
    the symmetrized matrix and the inverse square root of ``A``. A
    singular ``A`` is a singular penalized system or, without a penalty
    (``A = G``), a rank-deficient design of ``shape``.
    """
    wa, Va = np.linalg.eigh(A)
    if _gram_singular(wa, shape):
        raise np.linalg.LinAlgError(
            "singular penalized system matrix" if penalized else _RANK_DEFICIENT
        )
    Ainv_half = Va @ ((1.0 / np.sqrt(wa))[:, None] * Va.T)
    A_half = Va @ (np.sqrt(wa)[:, None] * Va.T)
    M = Ainv_half @ G @ Ainv_half
    M = 0.5 * (M + M.T)
    d, V = np.linalg.eigh(M)
    d = np.clip(d, 0.0, 1.0)
    return d, V, Ainv_half, A_half


def linear_boost_path(X, y, nu, k):
    """Iterate k of joint L2 boosting with an unpenalized linear learner.

    Equals ``(1 - (1 - nu)^k)`` times the least-squares solution; the
    shrinkage factor depends only on the step size and the iteration.
    Requires a full-column-rank design; ``k``: integer >= 0.
    """
    _check_step(nu)
    _check_count(k, "k", 0)
    X, y, G = _gram(X, y)
    _require_full_rank(X, G)
    beta_ols = np.linalg.solve(G, X.T @ y)
    delta = -np.expm1(k * np.log1p(-nu)) if nu < 1.0 else float(k > 0)
    return delta * beta_ols


def penalized_boost_path(X, y, P, lam, nu, k):
    """Iterate k of joint L2 boosting with a quadratic-penalty learner.

    The single-iterate case of :func:`path_points`; ``k``: integer >= 0.
    Weight 0 or an all-zero ``P`` reduces to :func:`linear_boost_path`.
    """
    return path_points(X, y, nu, (k,), lam, P)[0]


def boost_limit(X, y):
    """Limit of the joint boosting path: the unpenalized min-norm fit.

    A penalized joint path on a full-column-rank design converges to the
    same fit, which is the pathology: the limit ignores the penalty.
    Full-column-rank designs give the least-squares solution,
    rank-deficient ones the pseudoinverse applied to the outcome.
    """
    X, y = _inputs(X, y)
    return np.linalg.lstsq(X, y, rcond=None)[0]


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
    zero matrix with a conditioning warning. ``P=None`` is the identity
    when ``lam > 0``, as in a :class:`BlockSpec`. Requires a
    full-column-rank design; ``k``: integer >= 1.
    """
    _check_step(nu)
    _check_count(k, "k", 1)
    X, y, G = _gram(X, y)
    P = _penalty(P, lam, X.shape[1])
    penalized = _is_penalized(P, lam)
    if penalized:
        # without a penalty the pencil's A is G, whose rank it checks
        _require_full_rank(X, G)
    d, V, Ainv_half, A_half = _sym_pencil(G, G + lam * P, X.shape, penalized)
    with np.errstate(over="ignore", divide="ignore"):
        denom = np.expm1(-k * np.log1p(-nu * d))
        g = np.where(np.isfinite(denom), d / np.where(denom > 0, denom, np.inf), 0.0)
    warning = bool(np.any(~np.isfinite(denom)))
    gamma = A_half @ (V @ (g[:, None] * V.T)) @ A_half
    gamma = 0.5 * (gamma + gamma.T)
    beta_check = np.linalg.solve(G + gamma, X.T @ y)
    return ImplicitPenalty(gamma, int(k), float(nu), float(lam), beta_check, warning)


def ridge_equivalent_lambda(sigma2, nu, k, lam=0.0):
    """Ridge penalty whose solution matches boosting iterate k.

    Valid for isotropic designs with ``X^T X = sigma2 * I`` only, and for
    a learner that itself carries a ridge penalty ``lam``; ``lam = 0`` is
    the unpenalized linear learner. Strictly decreasing in k and
    vanishing in the limit. ``k``: integer >= 1.
    """
    _check_step(nu)
    if not 0.0 < sigma2 < np.inf:
        raise ValueError("isotropy parameter must be positive and finite")
    _check_weight(lam)
    _check_count(k, "k", 1)
    # sigma2 / (sigma2 + 0) is exactly 1, so lam = 0 shrinks by 1 - nu
    shrink = 1.0 - nu * (sigma2 / (sigma2 + lam))
    # sigma2 * shrink^k / (1 - shrink^k), stable for large k; the penalty
    # is zero once shrink^-k overflows, and at shrink = 0 (nu = 1, lam = 0)
    with np.errstate(over="ignore", divide="ignore"):
        return float(sigma2 / np.expm1(-k * np.log(shrink)))


def ridge_solve(X, y, lam):
    """Plain ridge regression solution ``(X^T X + lam I)^{-1} X^T y``."""
    X, y, G = _gram(X, y)
    return np.linalg.solve(G + lam * _penalty(None, lam, G.shape[0]), X.T @ y)


def path_points(X, y, nu, ks, lam=0.0, P=None):
    """Iterates of joint L2 boosting with a quadratic-penalty learner.

    Evaluates the matrix-geometric sum
    ``sum_{m<k} nu (I - nu (X^T X + lam P)^{-1} X^T X)^m`` applied to the
    penalized least-squares solution, in telescoped form through the
    eigenvalues of the symmetrized smoother matrix rather than by naive
    matrix powers. The pencil is diagonalized once, and only if some
    ``k >= 1``, so ``k = 0`` gives zeros even for a singular system.
    ``P=None`` is the identity when ``lam > 0``, as in a :class:`BlockSpec`,
    so the rows are the joint engine's iterates on ``single_block(p, lam,
    P)``. ``ks``: integers >= 0; the result has one row per entry.
    """
    _check_step(nu)
    ks = tuple(ks)
    for k in ks:
        _check_count(k, "k", 0)
    X, y, G = _gram(X, y)
    P = _penalty(P, lam, X.shape[1])
    rows = np.zeros((len(ks), X.shape[1]))
    if max(ks, default=0) == 0:
        return rows
    d, V, Ainv_half, _ = _sym_pencil(G, G + lam * P, X.shape, _is_penalized(P, lam))
    coef = V.T @ (Ainv_half @ (X.T @ y))
    # per-eigendirection telescoped geometric sum of (1 - nu d)
    pos = d > _EIG_TOL
    d_pos = np.where(pos, d, 1.0)
    with np.errstate(divide="ignore"):
        log_shrink = np.log1p(-nu * d)
    for i, k in enumerate(ks):
        if k > 0:
            phi = np.where(pos, -np.expm1(k * log_shrink) / d_pos, nu * k)
            rows[i] = Ainv_half @ (V @ (phi * coef))
    return rows
