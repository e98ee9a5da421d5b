"""Greedy (block) coordinate descent with quadratic-norm selection.

Selects at each step the block with the largest gradient norm in the
inverse-curvature quadratic norm and applies a damped matrix-scaled
update. Over unpenalized learners and with the gradient of the loss, for
every family, this reproduces greedy boosting bit for bit; with the
gradient of the penalized objective it converges to the penalized fit
instead, which is exactly where the two procedures part ways.
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
    run_boost,
)
from .design import _check_count, _check_outcome, _check_step, _is_penalized

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
    """Outcome of comparing a boosting path against a descent path."""

    identical: bool
    first_index: int = None
    n_compared: int = 0
    detail: str = ""

    def __str__(self):
        if self.identical:
            return f"identical over {self.n_compared} iterates"
        return f"paths differ first at iterate {self.first_index}: {self.detail}"


def equivalence_check(partition, loss, y, nu, n_steps):
    """Compare greedy boosting against descent on the unpenalized loss.

    Runs both procedures for ``n_steps`` steps and compares the selected
    block sequences and the iterates bit for bit: over unpenalized
    learners the two compute the same scores and updates in the same
    order, for every loss family. A penalized block is a ``ValueError``
    that names it, since boosting scores such a block by its fit's loss
    decrease and descent by ``g' H^{-1} g``. ``nu``, ``y`` and
    ``n_steps`` (an integer >= 0) are checked as the engines check them,
    also at ``n_steps=0``, where no engine runs.
    """
    for b, block in enumerate(partition.blocks):
        if _is_penalized(block.P, block.lam):
            raise ValueError(f"the equivalence covers unpenalized learners; "
                             f"block {b} has penalty weight {block.lam:g}")
    _check_step(nu)
    y = losses_mod.validate_outcome(loss, _check_outcome(y, partition.n))
    _check_count(n_steps, "n_steps", 0)
    if n_steps == 0:
        return EquivalenceReport(identical=True, n_compared=0)
    boost_cfg = BoostConfig(nu=nu, max_iter=n_steps, mode="greedy")
    boost_path = run_boost(partition, loss, y, boost_cfg)
    gbcd_cfg = GbcdConfig(nu=nu, max_iter=n_steps)
    gbcd_path = gbcd_gsq(partition, loss, y, gbcd_cfg)

    # iterate k follows the selection of step k - 1
    picked = boost_path.selected != gbcd_path.selected
    moved = np.any(boost_path.betas != gbcd_path.betas, axis=1)
    differs = np.flatnonzero(moved | np.r_[False, picked])
    n_compared = len(boost_path.betas)
    if not differs.size:
        return EquivalenceReport(identical=True, n_compared=n_compared)
    k = int(differs[0])
    if k and picked[k - 1]:
        detail = f"selected block {boost_path.selected[k - 1]} vs {gbcd_path.selected[k - 1]}"
    else:
        gap = np.abs(boost_path.betas[k] - gbcd_path.betas[k]).max()
        detail = f"max coefficient gap {gap:.3e}"
    return EquivalenceReport(identical=False, first_index=k, n_compared=n_compared,
                             detail=detail)
