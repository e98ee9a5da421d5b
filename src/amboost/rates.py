"""Convergence-rate constants, bound compliance and curvature checks.

Computes the Polyak-Lojasiewicz and smoothness constants of quadratic
objectives, the linear rates for greedy block-wise updates, verifies the
per-iteration gap bound along recorded paths, and checks the scaled
Gram upper-bound condition on the loss curvature that the step-size
guarantee rests on. Pure analysis over immutable inputs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import losses as losses_mod
from .boost import BoostConfig
from .closedform import boost_limit
from .design import _check_count, _check_step, _is_penalized, _nonzero_eigenvalues, _psd_spectrum
from .errors import NumericError


def pl_constant(Q):
    """Smallest non-zero eigenvalue of a symmetric PSD matrix.

    This is the gradient-domination constant of the quadratic objective
    with Hessian ``Q``; eigenvalues below ``EIG_TAU`` times the largest
    count as zero.
    """
    return _smallest_positive(_psd_spectrum(Q, "quadratic form"))


def _smallest_positive(w):
    """The smallest of the ascending eigenvalues ``w`` that counts as non-zero."""
    positive = w[_nonzero_eigenvalues(w)]
    if positive.size == 0:
        raise ValueError("matrix has no positive eigenvalue")
    return float(positive[0])


def lipschitz_constant(Q):
    """Largest eigenvalue of a symmetric PSD matrix."""
    return float(_psd_spectrum(Q, "quadratic form")[-1])


def rate_quadratic(Q, n_blocks, nu):
    """Linear rate of greedy block-wise updates on a quadratic objective.

    ``1 - (nu (2 - nu) / n_blocks) * (pl / lmax)`` with the constants
    taken from one decomposition of ``Q``. Increasing in the block count,
    decreasing in the step size on (0, 1]. ``n_blocks``: integer >= 1.
    """
    return _quadratic_constants(Q, n_blocks, nu)[2]


def _quadratic_constants(Q, n_blocks, nu):
    """``(pl, lmax, rate)`` of ``Q`` from one decomposition.

    The values of :func:`pl_constant`, :func:`lipschitz_constant` and
    :func:`rate_quadratic`.
    """
    _check_step(nu)
    _check_count(n_blocks, "n_blocks", 1)
    w = _psd_spectrum(Q, "quadratic form")
    mu = _smallest_positive(w)
    lmax = float(w[-1])
    return mu, lmax, 1.0 - (nu * (2.0 - nu) / n_blocks) * (mu / lmax)


@dataclass
class RateReport:
    """Per-iteration compliance of a path with a geometric gap bound."""

    gamma: float
    gaps: np.ndarray
    bounds: np.ndarray
    compliant: np.ndarray
    all_compliant: bool
    note: str = ""

    def first_violation(self):
        """Index of the first non-compliant iteration, or None."""
        bad = np.flatnonzero(~self.compliant)
        return int(bad[0]) if bad.size else None

    def table(self):
        """``(header, rows)``: k, gap, bound, compliant."""
        rows = [
            [k, float(g), float(b), bool(c)]
            for k, (g, b, c) in enumerate(zip(self.gaps, self.bounds, self.compliant))
        ]
        return ["k", "gap", "bound", "compliant"], rows


def check_bound(path, gamma, loss_opt):
    """Check ``loss[k] - loss_opt <= gamma^k * (loss[0] - loss_opt)``.

    Compliance allows a slack of ``1e-9`` times the initial gap.

    Parameters
    ----------
    path : BoostPath
        A recorded run whose losses are checked.
    gamma : float
        Geometric rate in [0, 1); any other, where the bound certifies
        nothing, or a non-finite ``loss_opt`` is a ``ValueError``.
    loss_opt : float
        Optimal loss, from an exact solve for quadratics or a long
        reference run otherwise.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"rate gamma={gamma!r} is not in [0, 1)")
    if not np.isfinite(loss_opt):
        raise ValueError(f"optimal loss loss_opt={loss_opt!r} is not finite")
    gaps = np.asarray(path.losses, dtype=float) - float(loss_opt)
    gap0 = gaps[0]
    if gap0 <= 0.0:
        return RateReport(
            gamma=float(gamma),
            gaps=gaps,
            bounds=np.zeros_like(gaps),
            compliant=np.ones(len(gaps), dtype=bool),
            all_compliant=True,
            note="already optimal at the start iterate",
        )
    ks = np.arange(len(gaps))
    bounds = gamma**ks * gap0
    compliant = gaps <= bounds + 1e-9 * gap0
    return RateReport(
        gamma=float(gamma),
        gaps=gaps,
        bounds=bounds,
        compliant=compliant,
        all_compliant=bool(compliant.all()),
    )


def _l2_certificate(partition, y, path):
    """The gap certificate of a squared-loss boosting run over ``partition``.

    The one place that decides what such a run is held to:
    :func:`check_bound` with ``gamma = rate_quadratic(X'X, n_blocks, nu)``
    for the step size ``nu`` the run recorded in ``path.config``, and the
    least-squares loss of the model the run fits, its offset
    ``path.offset`` held fixed. A path whose config is not a
    :class:`BoostConfig`, such as a ``gbcd_gsq`` path, is a
    ``ValueError`` that says so. The bound covers unpenalized learners
    taken jointly or by greedy selection only. A cyclic step may take a
    block whose gradient is near zero, so a path of a cyclic run is a
    ``ValueError`` that says so, and a penalized block one that names it.
    """
    config = path.config
    if not isinstance(config, BoostConfig):
        raise ValueError("the gap bound certifies boosting runs; this path's "
                         "config is not a BoostConfig")
    if config.mode == "cyclic":
        raise ValueError("the gap bound is a per-step bound for greedy and joint "
                         "updates; a cyclic step may take a block whose gradient is "
                         "near zero, so cyclic runs are not certified")
    for b, block in enumerate(partition.blocks):
        if _is_penalized(block.P, block.lam):
            raise ValueError(f"the gap bound covers unpenalized learners; "
                             f"block {b} has penalty weight {block.lam:g}")
    X = partition.X
    fit = path.offset + X @ boost_limit(X, y - path.offset)
    loss_opt = losses_mod.loss_value(losses_mod.l2(), y, fit)
    return check_bound(path, rate_quadratic(X.T @ X, partition.n_blocks, config.nu),
                       loss_opt)


@dataclass
class CurvatureCheck:
    """Result of checking the scaled-Gram curvature bound along a path.

    ``ratios[k, b]`` is the largest generalized eigenvalue of the loss
    curvature against the block Gram matrix at iterate k; the bound
    requires it to stay at or below ``1/nu``, with ``nu`` the step size in
    the path's ``config``. ``first_violation`` is the first offending
    ``(k, block)`` pair, with block ``-1`` standing for a numeric
    overflow while evaluating the curvature.
    """

    ok: bool
    ratios: np.ndarray
    first_violation: tuple = None


def _inv_sqrt_gram(X, block_id):
    G = X.T @ X
    w, V = np.linalg.eigh(G)
    keep = _nonzero_eigenvalues(w)
    if not keep[0]:
        warnings.warn(
            f"block {block_id} Gram matrix is rank deficient; curvature "
            "ratios computed on its positive eigenspace",
            stacklevel=3,
        )
    return V[:, keep] * (1.0 / np.sqrt(w[keep]))[None, :]


def hessian_ub_check(loss, partition, path):
    """Check the curvature upper bound ``hessian_bb <= (1/nu) X_b' X_b``.

    ``nu`` is the step size the run recorded in ``path.config``.
    Evaluates the loss curvature at every recorded iterate and compares
    its block diagonal against the scaled block Gram matrices. For the
    squared loss this holds for any step size; for the binomial loss the
    quarter bound on the weights makes it automatic; for the poisson
    loss it can fail once the fit grows, which is exactly when the
    step-size guarantee breaks down. For proportional hazards each block's
    ``X_b' H X_b`` comes from :meth:`CoxCurvature.gram` in O(n p_b^2),
    without the n x n Hessian.

    A block whose Gram matrix has an eigenvalue at most ``EIG_TAU``
    times its largest, ``cond(X_b)`` from about 1e5, is compared on its
    positive eigenspace with a "rank deficient" warning. That is the PSD
    rule of :func:`design._nonzero_eigenvalues`, not the closed-form
    oracles' rule, which rejects a design only from about 6.7e6 at n=100.
    A thinned path (``run_boost``'s ``betas_at``) is a ``ValueError``:
    the check needs the coefficients of every iterate.
    """
    if path.iterates is not None:
        raise ValueError("hessian_ub_check needs the coefficients of every iterate; "
                         "this path kept only some (betas_at)")
    # a loop, not a comprehension, so that stacklevel=3 names the caller
    roots = []
    for b, block in enumerate(partition.blocks):
        roots.append(_inv_sqrt_gram(block.X, b))
    limit = 1.0 / path.config.nu
    tol = 1e-9 * limit
    n_iter = len(path.betas)
    ratios = np.full((n_iter, partition.n_blocks), np.nan)
    first = None
    for k in range(n_iter):
        f = path.offset + partition.X @ path.betas[k]
        try:
            W = losses_mod.hessian_weights(loss, f)
        except NumericError:
            first = (k, -1)
            break
        for b, block in enumerate(partition.blocks):
            if isinstance(W, losses_mod.CoxCurvature):
                C = W.gram(block.X)
            else:
                C = block.X.T @ (W[:, None] * block.X)
            R = roots[b]
            M = R.T @ C @ R
            ratios[k, b] = float(np.linalg.eigvalsh(M)[-1])
            if first is None and ratios[k, b] > limit + tol:
                first = (k, b)
        if first is not None and first[1] >= 0:
            # keep scanning ratios for this iterate only; later iterates
            # are irrelevant once the first violation is known
            break
    return CurvatureCheck(
        ok=first is None,
        ratios=ratios[: (first[0] + 1) if first else n_iter],
        first_violation=first,
    )
