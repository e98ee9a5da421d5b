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
from .errors import NumericError

# Relative eigenvalue threshold separating "zero" from "positive".
EIG_TAU = 1e-10


def _eigvals_psd(Q):
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.allclose(Q, Q.T, atol=1e-8 * (1.0 + np.abs(Q).max())):
        raise ValueError("expected a symmetric matrix")
    w = np.linalg.eigvalsh(Q)
    if w[0] < -EIG_TAU * max(w[-1], 0.0) - 1e-300:
        raise ValueError(f"matrix is not PSD (min eigenvalue {w[0]:.3e})")
    return w


def pl_constant(Q):
    """Smallest non-zero eigenvalue of a symmetric PSD matrix.

    This is the gradient-domination constant of the quadratic objective
    with Hessian ``Q``; eigenvalues below ``EIG_TAU`` times the largest
    count as zero.
    """
    w = _eigvals_psd(Q)
    positive = w[w > EIG_TAU * max(w[-1], 0.0)]
    if positive.size == 0:
        raise ValueError("matrix has no positive eigenvalue")
    return float(positive[0])


def lipschitz_constant(Q):
    """Largest eigenvalue of a symmetric PSD matrix."""
    return float(_eigvals_psd(Q)[-1])


def rate_quadratic(Q, n_blocks, nu):
    """Linear rate of greedy block-wise updates on a quadratic objective.

    ``1 - (nu (2 - nu) / n_blocks) * (pl / lmax)`` with the constants
    taken from the spectrum of ``Q``. Increasing in the block count,
    decreasing in the step size on (0, 1].
    """
    if not 0.0 < nu <= 1.0:
        raise ValueError("step size must be in (0, 1]")
    if n_blocks < 1:
        raise ValueError("need at least one block")
    mu = pl_constant(Q)
    lmax = lipschitz_constant(Q)
    return 1.0 - (nu * (2.0 - nu) / n_blocks) * (mu / lmax)


def rate_general(mu, block_lipschitz, n_blocks, nu):
    """Linear rate ``1 - nu * mu / (block_lipschitz * n_blocks)``.

    ``block_lipschitz`` is the largest Lipschitz constant over all
    blocks; it must dominate the gradient-domination constant ``mu``.
    """
    if mu <= 0:
        raise ValueError("gradient-domination constant must be positive")
    if block_lipschitz < mu:
        raise ValueError("block Lipschitz constant cannot be below mu")
    if not 0.0 < nu <= 1.0:
        raise ValueError("step size must be in (0, 1]")
    if n_blocks < 1:
        raise ValueError("need at least one block")
    return 1.0 - nu * mu / (block_lipschitz * n_blocks)


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
        Geometric rate in [0, 1).
    loss_opt : float
        Optimal loss, from an exact solve for quadratics or a long
        reference run otherwise.
    """
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


@dataclass
class CurvatureCheck:
    """Result of checking the scaled-Gram curvature bound along a path.

    ``ratios[k, b]`` is the largest generalized eigenvalue of the loss
    curvature against the block Gram matrix at iterate k; the bound
    requires it to stay at or below ``1/nu``. ``first_violation`` is the
    first offending ``(k, block)`` pair, with block ``-1`` standing for
    a numeric overflow while evaluating the curvature.
    """

    ok: bool
    nu: float
    ratios: np.ndarray
    first_violation: tuple = None


def _inv_sqrt_gram(X, block_id):
    G = X.T @ X
    w, V = np.linalg.eigh(G)
    cutoff = EIG_TAU * max(w[-1], 0.0)
    if w[0] <= cutoff:
        warnings.warn(
            f"block {block_id} Gram matrix is rank deficient; curvature "
            "ratios computed on its positive eigenspace",
            stacklevel=3,
        )
    keep = w > cutoff
    return V[:, keep] * (1.0 / np.sqrt(w[keep]))[None, :]


def hessian_ub_check(loss, partition, nu, path):
    """Check the curvature upper bound ``hessian_bb <= (1/nu) X_b' X_b``.

    Evaluates the loss curvature at every recorded iterate and compares
    its block diagonal against the scaled block Gram matrices. For the
    squared loss this holds for any step size; for the binomial loss the
    quarter bound on the weights makes it automatic; for the poisson
    loss it can fail once the fit grows, which is exactly when the
    step-size guarantee breaks down.
    """
    if not 0.0 < nu <= 1.0:
        raise ValueError("step size must be in (0, 1]")
    # a loop, not a comprehension, so that stacklevel=3 names the caller
    roots = []
    for b, block in enumerate(partition.blocks):
        roots.append(_inv_sqrt_gram(block.X, b))
    limit = 1.0 / nu
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
            if W.ndim == 1:
                C = block.X.T @ (W[:, None] * block.X)
            else:
                C = block.X.T @ W @ block.X
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
        nu=float(nu),
        ratios=ratios[: (first[0] + 1) if first else n_iter],
        first_violation=first,
    )
