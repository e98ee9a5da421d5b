"""Gradient boosting engine for additive models.

Fits base learners against the negative functional gradient, selects
blocks greedily, jointly or cyclically, applies damped updates and
records the full parameter path. Also provides boosting with generic
full-rank linear smoothers and a divergence detector for the paths.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import losses as losses_mod
from .errors import NumericError

MODES = ("joint", "greedy", "cyclic")
INITS = ("zero", "offset")

JOINT_SENTINEL = -1

# Loss growth beyond this factor over the run start trips the guard.
GUARD_GROWTH = 10.0


def _loss_grew(current, reference):
    """Growth beyond 10x the reference, robust to nonpositive losses."""
    return current - reference > (GUARD_GROWTH - 1.0) * max(abs(reference), 1e-12)


def _check_schedule(nu, max_iter, min_iter):
    """Reject ``nu`` NaN or outside (0, 1], and a non-integer or too small ``max_iter``."""
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"step size nu must be in (0, 1], got {nu!r}")
    if not isinstance(max_iter, numbers.Integral):
        raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
    if max_iter < min_iter:
        raise ValueError(f"max_iter must be at least {min_iter}, got {max_iter!r}")


@dataclass(frozen=True)
class BoostConfig:
    """Run configuration for the boosting engine.

    Parameters
    ----------
    nu : float
        Step size in (0, 1].
    max_iter : int
        Iteration cap, at least 1.
    mode : str
        ``'joint'`` refits all blocks together each step, ``'greedy'``
        updates the best-fitting block, ``'cyclic'`` round-robins over
        blocks.
    init : str
        ``'zero'`` starts at the origin; ``'offset'`` starts the fit at
        the link-transformed outcome mean (coefficients still at zero).
    stop_tol : float
        Stop once the per-step loss decrease falls below this. Zero
        disables the check so paths match closed-form series exactly.
    divergence_guard : bool
        Catch numeric overflow and runaway loss growth, recording a
        divergence termination instead of raising.
    """

    nu: float = 0.1
    max_iter: int = 100
    mode: str = "greedy"
    init: str = "zero"
    stop_tol: float = 0.0
    divergence_guard: bool = False

    def __post_init__(self):
        _check_schedule(self.nu, self.max_iter, 1)
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.init not in INITS:
            raise ValueError(f"unknown init {self.init!r}")
        if not 0.0 <= self.stop_tol < math.inf:
            raise ValueError(f"stop_tol must be finite and >= 0, got {self.stop_tol!r}")


@dataclass
class BoostPath:
    """Full iterate history of one boosting run.

    ``betas`` has one row per iterate including the start, ``losses`` and
    ``grad_norms`` match it, ``selected`` has one entry per step taken
    (``-1`` for joint updates).
    """

    betas: np.ndarray
    losses: np.ndarray
    selected: np.ndarray
    grad_norms: np.ndarray
    terminated_by: str
    offset: float = 0.0
    numeric_error: bool = False

    @property
    def n_steps(self):
        return len(self.betas) - 1

    @property
    def final(self):
        return self.betas[-1]

    def table(self, index=None):
        """``(header, rows)`` of the iterates listed in ``index`` (default all).

        Columns: k, loss, selected_block (blank at the start iterate),
        grad_norm, beta_1..beta_p.
        """
        header = ["k", "loss", "selected_block", "grad_norm"]
        header += [f"beta_{j + 1}" for j in range(self.betas.shape[1])]
        if index is None:
            index = range(len(self.betas))
        rows = [
            [int(k), float(self.losses[k]),
             "" if k == 0 else int(self.selected[k - 1]),
             float(self.grad_norms[k])] + [float(v) for v in self.betas[k]]
            for k in index
        ]
        return header, rows


class _PathRecorder:
    """Iterate history of one run.

    The only code that constructs a :class:`BoostPath`. Starts from the
    initial ``(beta, loss, grad)``; every ``record`` appends one step with
    the block it updated. The gradient norm is ``sqrt(grad @ grad)``, the
    same sum of squares ``np.linalg.norm`` takes for a 1-d float vector.
    """

    def __init__(self, beta, loss, grad):
        self.betas = [beta.copy()]
        self.losses = [loss]
        self.grad_norms = [math.sqrt(grad @ grad)]
        self.selected = []

    def record(self, beta, selected, loss, grad):
        self.betas.append(beta.copy())
        self.selected.append(selected)
        self.losses.append(loss)
        self.grad_norms.append(math.sqrt(grad @ grad))

    def path(self, terminated_by="max_iter", offset=0.0, numeric_error=False):
        return BoostPath(
            betas=np.asarray(self.betas),
            losses=np.asarray(self.losses),
            selected=np.asarray(self.selected, dtype=int),
            grad_norms=np.asarray(self.grad_norms),
            terminated_by=terminated_by,
            offset=offset,
            numeric_error=numeric_error,
        )


def _rank_cutoff(s, shape):
    """Singular values at or below this count as zero (machine precision)."""
    return max(shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)


def _cho_factor(A, lam):
    try:
        return scipy.linalg.cho_factor(A)
    except scipy.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"singular penalized system (lam={lam:g}): {exc}"
        ) from exc


class _BlockSolver:
    """Cached parameter-space solver for one base learner.

    The system matrix ``A = X^T X + lam P`` is fixed over a run, so it is
    factored once. Solves take the block gradient ``g = X^T y_tilde``
    rather than the working response and never touch the n rows of the
    design. Penalized blocks keep a Cholesky factor of ``A`` and the Gram
    matrix ``G = X^T X``; unpenalized blocks keep the singular values
    ``s`` and right singular vectors ``V`` of ``X`` (from the SVD of its
    triangular QR factor) and apply ``V s^-2 V^T`` over the singular
    values above a machine-precision cutoff, the min-norm solution when
    rank deficient. Penalized solves call LAPACK ``potrs``, the routine
    ``scipy.linalg.cho_solve`` wraps, directly: the same bits without the
    wrapper's per-call cost, which dominates at the block sizes boosting
    uses.
    """

    def __init__(self, X, P=None, lam=0.0):
        self.penalized = lam > 0.0 and P is not None and np.any(P != 0)
        if self.penalized:
            self._gram = X.T @ X
            self._chol, self._lower = _cho_factor(self._gram + lam * P, lam)
            (self._potrs,) = scipy.linalg.get_lapack_funcs(("potrs",), (self._chol,))
        else:
            # X = QR shares s and V with R; the n-row Q is never formed
            _, self.s, Vt = np.linalg.svd(
                np.linalg.qr(X, mode="r"), full_matrices=False
            )
            keep = self.s > _rank_cutoff(self.s, X.shape)
            self._sinv2 = (1.0 / self.s[keep]) ** 2
            self._V = Vt[keep].T

    def solve_gram(self, g):
        """Apply the inverse system matrix to a gradient-sized vector."""
        if self.penalized:
            # cho_solve's guard: a non-finite g raises its ValueError
            x, info = self._potrs(
                self._chol, np.asarray_chkfinite(g), lower=self._lower
            )
            if info != 0:
                raise ValueError(f"illegal value in {-info}th argument of potrs")
            return x
        return self._V @ (self._sinv2 * (self._V.T @ g))

    def decrease(self, g, inc):
        """``||r||^2 - ||r - X inc||^2`` for ``inc = solve_gram(g)``, ``g = X^T r``."""
        if self.penalized:
            return 2.0 * (inc @ g) - inc @ (self._gram @ inc)
        return g @ inc


def fit_block(block, y_tilde):
    """Fit one base learner against a working response.

    Solves ``(X^T X + lam P) beta = X^T y_tilde`` by a rank-revealing
    decomposition; rank-deficient unpenalized systems return the
    min-norm solution. Works in residual space, independently of the
    engine's parameter-space solver, and serves as its oracle.

    Returns
    -------
    beta : ndarray
        Fitted block coefficients.
    sse : float
        Squared residual norm ``||y_tilde - X beta||^2``.
    """
    y_tilde = np.asarray(y_tilde, dtype=float)
    if y_tilde.shape != (block.n,):
        raise ValueError("working response length does not match the block")
    X = block.X
    if block.lam > 0.0 and np.any(block.P != 0):
        chol = _cho_factor(X.T @ X + block.lam * block.P, block.lam)
        beta = scipy.linalg.cho_solve(chol, X.T @ y_tilde)
    else:
        U, s, Vt = np.linalg.svd(X, full_matrices=False)
        keep = s > _rank_cutoff(s, X.shape)
        beta = Vt[keep].T @ (1.0 / s[keep] * (U[:, keep].T @ y_tilde))
    resid = y_tilde - X @ beta
    return beta, float(resid @ resid)


def select_block(partition, y_tilde):
    """Index of the block whose fit leaves the smallest mean squared residual.

    Ties break to the lowest block id.
    """
    if partition.n_blocks == 0:
        raise ValueError("empty partition")
    sse = np.empty(partition.n_blocks)
    for b, block in enumerate(partition.blocks):
        _, sse[b] = fit_block(block, y_tilde)
    return int(np.argmin(sse / partition.n))


class _Stepper:
    """One boosting step at a time over a fixed partition.

    Owns the coefficient vector and the fitted values' linear part;
    shared by the main engine and the cyclic distributional driver.
    Every step works in parameter space from the gradient
    ``g = X^T y_tilde``: greedy mode scores each block by the loss
    decrease of its fit, ``||r||^2 - SSE_b``, from ``g_b`` alone (the
    Gauss-Southwell-q rule of greedy block coordinate descent), so one
    pass over the design per step serves every block.
    """

    def __init__(self, partition, nu, mode):
        self.partition = partition
        self.nu = nu
        self.mode = mode
        self.beta = np.zeros(partition.p)
        self.f_lin = np.zeros(partition.n)
        self._k = 0
        if mode == "joint":
            Pjoint = partition.penalty_blockdiag()
            self._joint = _BlockSolver(
                partition.X, Pjoint, 1.0 if np.any(Pjoint) else 0.0
            )
        else:
            self._solvers = [
                _BlockSolver(b.X, b.P, b.lam) for b in partition.blocks
            ]

    def step(self, g):
        """Advance one iteration from the gradient ``g = X^T y_tilde``.

        Returns the updated block id.
        """
        part = self.partition
        if self.mode == "joint":
            inc = self._joint.solve_gram(g)
            self.beta += self.nu * inc
            self.f_lin += self.nu * (part.X @ inc)
            self._k += 1
            return JOINT_SENTINEL
        if self.mode == "greedy":
            best, best_score, best_inc = 0, -np.inf, None
            for b, (solver, cols) in enumerate(zip(self._solvers, part.column_map)):
                g_b = g[cols]
                inc = solver.solve_gram(g_b)
                score = solver.decrease(g_b, inc)
                if score > best_score:
                    best, best_score, best_inc = b, score, inc
        else:  # cyclic
            best = self._k % part.n_blocks
            best_inc = self._solvers[best].solve_gram(g[part.column_map[best]])
        cols = part.column_map[best]
        self.beta[cols] += self.nu * best_inc
        self.f_lin += self.nu * (part.blocks[best].X @ best_inc)
        self._k += 1
        return best


def run_boost(partition, loss, y, config):
    """Run the boosting algorithm and record the full path.

    Parameters
    ----------
    partition : BlockPartition
        Base learners over a global design matrix.
    loss : LossSpec
        Loss family; the working response each step is its negative
        functional gradient at the current fit.
    y : array
        Outcome vector.
    config : BoostConfig

    Returns
    -------
    BoostPath
    """
    y = losses_mod.validate_outcome(loss, y)
    if y.shape != (partition.n,):
        raise ValueError("outcome length does not match the partition")
    offset = losses_mod.link_offset(loss, y) if config.init == "offset" else 0.0

    stepper = _Stepper(partition, config.nu, config.mode)
    X = partition.X
    terminated = "max_iter"
    numeric_error = False

    ge = losses_mod.evaluate(loss, y, offset + stepper.f_lin)
    g = X.T @ ge.y_tilde
    rec = _PathRecorder(stepper.beta, ge.value, g)

    for _ in range(config.max_iter):
        sel = stepper.step(g)
        try:
            ge = losses_mod.evaluate(loss, y, offset + stepper.f_lin)
        except NumericError:
            if not config.divergence_guard:
                raise
            terminated = "divergence"
            numeric_error = True
            break
        g = X.T @ ge.y_tilde
        rec.record(stepper.beta, sel, ge.value, g)
        if config.stop_tol > 0.0 and rec.losses[-2] - rec.losses[-1] < config.stop_tol:
            terminated = "tol"
            break
        if config.divergence_guard and _loss_grew(rec.losses[-1], rec.losses[0]):
            terminated = "divergence"
            break

    return rec.path(terminated, offset, numeric_error)


@dataclass
class SmootherPath:
    """Fitted-value path of boosting with linear smoothers."""

    fitted: np.ndarray
    selected: np.ndarray
    residual_norms: np.ndarray
    contraction: float  # largest eigenvalue over all (I - S_m)

    @property
    def n_steps(self):
        return len(self.fitted) - 1


def smoother_boost(smoothers, y, n_steps, rule="greedy", seed=0):
    """Boost with generic full-rank linear smoothers toward the perfect fit.

    Each step applies the update ``f <- f + S_m (y - f)`` for one
    smoother, with no step size. Every smoother must be symmetric with
    eigenvalues in (0, 1]; the residual then contracts at least
    geometrically with factor ``max_m lambda_max(I - S_m)`` regardless
    of how the smoother is selected.

    Parameters
    ----------
    smoothers : sequence of ndarray
        Symmetric n-by-n matrices with eigenvalues in (0, 1].
    y : array
        Target vector.
    n_steps : int
        Number of updates.
    rule : str
        ``'greedy'`` (largest residual reduction), ``'cyclic'`` or
        ``'random'``.
    seed : int
        Seed for the random selection rule.
    """
    y = np.asarray(y, dtype=float)
    if rule not in ("greedy", "cyclic", "random"):
        raise ValueError(f"unsupported smoother selection rule {rule!r}")
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    smoothers = [np.asarray(S, dtype=float) for S in smoothers]
    if not smoothers:
        raise ValueError("need at least one smoother")
    tol = 1e-10
    contraction = 0.0
    for m, S in enumerate(smoothers):
        if S.shape != (y.size, y.size):
            raise ValueError(f"smoother {m} has shape {S.shape}")
        if not np.allclose(S, S.T, atol=1e-10 * (1.0 + np.abs(S).max())):
            raise ValueError(f"smoother {m} is not symmetric")
        w = np.linalg.eigvalsh(S)
        if w[0] <= tol or w[-1] > 1.0 + tol:
            raise ValueError(
                f"smoother {m} has eigenvalues in [{w[0]:.3e}, {w[-1]:.3e}], "
                "required inside (0, 1]"
            )
        contraction = max(contraction, 1.0 - w[0])

    rng = np.random.default_rng(seed)
    f = np.zeros_like(y)
    fitted = [f.copy()]
    selected = []
    res_norms = [float(np.linalg.norm(y))]
    for k in range(n_steps):
        r = y - f
        if rule == "greedy":
            norms = [np.linalg.norm(r - S @ r) for S in smoothers]
            m = int(np.argmin(norms))
        elif rule == "cyclic":
            m = k % len(smoothers)
        else:
            m = int(rng.integers(len(smoothers)))
        f = f + smoothers[m] @ r
        fitted.append(f.copy())
        selected.append(m)
        res_norms.append(float(np.linalg.norm(y - f)))
    return SmootherPath(
        fitted=np.asarray(fitted),
        selected=np.asarray(selected, dtype=int),
        residual_norms=np.asarray(res_norms),
        contraction=contraction,
    )


def divergence_detector(path, window=10):
    """Classify the tail behavior of a boosting path.

    Returns ``'diverging'`` if the loss grew by more than a factor of 10
    over the window or a numeric error occurred, ``'oscillating'`` if
    some coefficient's updates alternate sign with comparable
    non-vanishing magnitudes over the window, else ``'converging'``.
    """
    if window < 2:
        raise ValueError("window must be at least 2")
    if path.numeric_error:
        return "diverging"
    L = path.losses
    w = min(window, len(L) - 1)
    if w < 1:
        return "converging"
    if _loss_grew(L[-1], L[-1 - w]):
        return "diverging"

    deltas = np.diff(path.betas[-(w + 1):], axis=0)
    scale = 1.0 + np.abs(path.betas[-1]).max()
    floor = 1e-12 * scale
    for j in range(deltas.shape[1]):
        d = deltas[:, j]
        d = d[np.abs(d) > floor]
        if d.size < 3:
            continue
        signs_alternate = np.all(d[1:] * d[:-1] < 0)
        ratios = np.abs(d[1:]) / np.abs(d[:-1])
        if signs_alternate and np.all((ratios >= 0.5) & (ratios <= 2.0)):
            return "oscillating"
    return "converging"
