"""Gradient boosting engine for additive models.

Fits base learners against the negative functional gradient, selects
blocks greedily, jointly or cyclically, applies damped updates and
records the parameter path. Also provides boosting with generic
full-rank linear smoothers and a divergence detector for the paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import losses as losses_mod
from .design import (
    EIG_TAU,
    _check_count,
    _check_outcome,
    _check_step,
    _is_integer,
    _is_penalized,
    _nonzero_singular_values,
    _psd_spectrum,
)
from .errors import NumericError

MODES = ("joint", "greedy", "cyclic")
INITS = ("zero", "offset")

JOINT_SENTINEL = -1

# Loss growth beyond this factor over the run start trips the guard.
GUARD_GROWTH = 10.0


def _loss_grew(current, reference):
    """Growth beyond 10x the reference, robust to nonpositive losses."""
    return current - reference > (GUARD_GROWTH - 1.0) * max(abs(reference), 1e-12)


@dataclass(frozen=True)
class BoostConfig:
    """Run configuration for the boosting engine.

    Parameters
    ----------
    nu : float
        Step size in (0, 1].
    max_iter : int
        Iteration cap: integer >= 1.
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
        _check_step(self.nu)
        _check_count(self.max_iter, "max_iter", 1)
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.init not in INITS:
            raise ValueError(f"unknown init {self.init!r}")
        if not 0.0 <= self.stop_tol < math.inf:
            raise ValueError(f"stop_tol must be finite and >= 0, got {self.stop_tol!r}")


@dataclass
class BoostPath:
    """Iterate history of one boosting run.

    ``losses`` and ``grad_norms`` have one entry per iterate including the
    start, ``selected`` one per step taken (``-1`` for joint updates).
    ``betas`` has one row per iterate too, unless the run kept only some
    coefficients (``run_boost``'s ``betas_at``): then ``iterates`` lists,
    in increasing order, the iterate each row of ``betas`` belongs to, and
    always ends at the final one; it is ``None`` for a full path.
    ``config`` is the configuration the run was made with: a
    :class:`BoostConfig`, or the ``GbcdConfig`` of a ``gbcd_gsq`` run.
    Each array holds exactly these iterates, however far short of
    ``max_iter`` the run stopped, and owns its data.
    A run whose ``max_iter + 1`` rows fit the recorder's 16 MiB budget
    reserves them in one allocation; when it runs to ``max_iter`` the path
    holds those arrays, and one that stops early holds copies cut to its
    rows. The huge-page caveat of that reservation is on ``_PathRecorder``.
    """

    betas: np.ndarray
    losses: np.ndarray
    selected: np.ndarray
    grad_norms: np.ndarray
    terminated_by: str
    config: object
    offset: float = 0.0
    numeric_error: bool = False
    iterates: np.ndarray | None = None

    @property
    def n_steps(self):
        return len(self.losses) - 1

    @property
    def final(self):
        return self.betas[-1]

    def _row(self, k):
        """The row of ``betas`` that holds iterate ``k``; any other ``k`` is a ValueError."""
        if not _is_integer(k) or not 0 <= k <= self.n_steps:
            raise ValueError(f"index {k!r} is not an iterate of this {self.n_steps}-step path")
        if self.iterates is None:
            return k
        row = int(np.searchsorted(self.iterates, k))
        if self.iterates[row] != k:
            raise ValueError(f"iterate {k} is not among the coefficients this path kept")
        return row

    def table(self, index=None):
        """``(header, rows)`` of the iterates listed in ``index``.

        The default is every iterate whose coefficients the path holds:
        all of them, or ``iterates`` on a thinned path. An entry that is
        not an iterate of the path, or one whose coefficients it did not
        keep, is a ``ValueError`` that names it. Columns: k, loss,
        selected_block (blank at the start iterate), grad_norm,
        beta_1..beta_p.
        """
        header = ["k", "loss", "selected_block", "grad_norm"]
        header += [f"beta_{j + 1}" for j in range(self.betas.shape[1])]
        if index is None:
            index = range(len(self.betas)) if self.iterates is None else self.iterates
        picked = [(k, self._row(k)) for k in index]
        rows = [
            [int(k), float(self.losses[k]),
             "" if k == 0 else int(self.selected[k - 1]),
             float(self.grad_norms[k])] + [float(v) for v in self.betas[row]]
            for k, row in picked
        ]
        return header, rows


# A recorder allocates all max_iter + 1 rows at once when its four arrays
# fit this many bytes; otherwise it starts at _FIRST_ROWS rows and doubles.
_RESERVE_BYTES = 16 << 20
_FIRST_ROWS = 1024


class _PathRecorder:
    """Iterate history of one run made with ``config``, at most ``max_iter`` steps.

    The only code that constructs a :class:`BoostPath`, and the path
    records ``config``. Starts from the initial ``(beta, loss, grad)``;
    every ``record`` writes step ``k`` into row ``k`` of ``betas``,
    ``losses`` and ``grad_norms`` and its block into ``selected[k - 1]``.
    When all ``max_iter + 1`` rows fit
    ``_RESERVE_BYTES`` they are allocated up front, so a full run's arrays
    become the path's without a copy and no doubling holds an old and a
    new array at once. Otherwise the arrays start at ``_FIRST_ROWS`` rows
    and double when full. numpy asks for transparent huge pages for an
    array of 4 MiB or more, so a reservation that large becomes resident
    in 2 MiB steps, even for a run that stops after a few steps; the
    budget bounds that cost. The gradient norm is ``sqrt(grad @ grad)``,
    the same sum of squares ``np.linalg.norm`` takes for a 1-d float vector.

    ``betas_at``, the checked increasing iterates of ``run_boost``, thins
    the coefficients: ``betas`` is then ``len(betas_at) + 1`` rows
    allocated once, never grown, and left out of the reservation rule.
    Each iterate is written into the first row not yet kept, which it
    keeps when listed, so the last row holds the latest iterate and the
    path ends at the final one. ``losses``, ``grad_norms`` and ``selected``
    are recorded at every iterate as before.
    """

    def __init__(self, beta, loss, grad, config, betas_at=None):
        self._config = config
        self._max_rows = config.max_iter + 1
        self._keep = None
        # a row of betas, losses and grad_norms, and an entry of selected
        row_bytes = 8 * (len(beta) + 2) + np.dtype(int).itemsize
        if betas_at is not None:
            # the listed iterates, then one that never matches; _kept indexes it
            self._keep, self._kept = [int(k) for k in betas_at] + [-1], 0
            self._write = self._write_thinned
            row_bytes -= 8 * len(beta)
        if self._max_rows * row_bytes <= _RESERVE_BYTES:
            rows = self._max_rows
        else:
            rows = min(_FIRST_ROWS, self._max_rows)
        self.betas = np.empty((rows if self._keep is None else len(self._keep), len(beta)))
        self.losses = np.empty(rows)
        self.grad_norms = np.empty(rows)
        self.selected = np.empty(rows - 1, dtype=int)
        self.n_steps = 0
        self._write(0, beta, loss, grad)

    def _write(self, k, beta, loss, grad):
        self.betas[k] = beta
        self.losses[k] = loss
        self.grad_norms[k] = math.sqrt(grad @ grad)

    def _write_thinned(self, k, beta, loss, grad):
        self.betas[self._kept] = beta
        if k == self._keep[self._kept]:
            self._kept += 1
        self.losses[k] = loss
        self.grad_norms[k] = math.sqrt(grad @ grad)

    def record(self, beta, selected, loss, grad):
        k = self.n_steps = self.n_steps + 1
        if k == len(self.losses):
            # every array of iterates is full; each grows by the same number of rows
            grow = min(k, self._max_rows - k)
            names = ("losses", "grad_norms", "selected")
            for name in names + (("betas",) if self._keep is None else ()):
                old = getattr(self, name)
                new = np.empty((len(old) + grow,) + old.shape[1:], old.dtype)
                new[: len(old)] = old
                setattr(self, name, new)
        self.selected[k - 1] = selected
        self._write(k, beta, loss, grad)

    def path(self, terminated_by="max_iter", offset=0.0, numeric_error=False):
        rows = self.n_steps + 1
        iterates = None
        if self._keep is not None:
            # the final iterate is kept, or sits in the first row not kept
            iterates = self._keep[: self._kept]
            if iterates[-1:] != [self.n_steps]:
                iterates.append(self.n_steps)
            iterates = np.array(iterates)

        def cut(a, n):
            # a full array becomes the path's; a partly filled one is cut to a copy
            return a if len(a) == n else a[:n].copy()

        return BoostPath(
            betas=cut(self.betas, rows if iterates is None else len(iterates)),
            losses=cut(self.losses, rows),
            selected=cut(self.selected, rows - 1),
            grad_norms=cut(self.grad_norms, rows),
            terminated_by=terminated_by,
            config=self._config,
            offset=offset,
            numeric_error=numeric_error,
            iterates=iterates,
        )


# Elements in one stack of singleton columns factored by one batched call.
# A stack is a view of a contiguous column range and np.linalg.qr copies
# it, so this bounds that copy at 512 KB; at n > 65,536 a stack is one
# column, as a per-block factorization is.
_STACK_ELEMENTS = 1 << 16


def _singleton_sinv2(X, columns):
    """``s^-2`` of each one-column block ``X[:, c]``, ``c`` in the int array ``columns``.

    The value a :class:`_BlockSolver` keeps for an unpenalized one-column
    block, computed for many at once: consecutive columns form (k, n, 1)
    stacks, each factored by one batched QR and one batched SVD of the
    triangular factors, the per-block calls applied to every matrix of the
    stack. A zero singular value gives ``0``, so the block's solve
    ``sinv2 * g`` is the zero its empty ``V`` gives.
    """
    n = X.shape[0]
    width = max(1, _STACK_ELEMENTS // n)
    s = np.empty(columns.size)
    lo = 0
    for hi in [*(np.flatnonzero(np.diff(columns) != 1) + 1), columns.size]:
        for i in range(lo, hi, width):
            c, k = columns[i], min(width, hi - i)
            r = np.linalg.qr(X[:, c : c + k].T[:, :, np.newaxis], mode="r")
            s[i : i + k] = np.linalg.svd(r, full_matrices=False)[1][:, 0]
        lo = hi
    # _nonzero_singular_values cuts one column's s at n eps s: it keeps s unless s is 0
    return np.divide(1.0, s, out=np.zeros_like(s), where=s > 0.0) ** 2


def _cho_factor(A, lam):
    # scipy.linalg is imported here and below only where a block is
    # penalized: it is most of the library's import time
    import scipy.linalg

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
    rank deficient. ``rank`` counts those values; a penalized block's
    ``A`` is positive definite, so its rank is its column count.
    Penalized solves call LAPACK ``potrs``, the routine
    ``scipy.linalg.cho_solve`` wraps, directly: the same bits without the
    wrapper's per-call cost, which dominates at the block sizes boosting
    uses.
    """

    def __init__(self, X, P=None, lam=0.0):
        self.penalized = _is_penalized(P, lam)
        if self.penalized:
            import scipy.linalg

            self.rank = X.shape[1]
            self._gram = X.T @ X
            self._chol, self._lower = _cho_factor(self._gram + lam * P, lam)
            (self._potrs,) = scipy.linalg.get_lapack_funcs(("potrs",), (self._chol,))
        else:
            # X = QR shares s and V with R; the n-row Q is never formed
            _, s, Vt = np.linalg.svd(np.linalg.qr(X, mode="r"), full_matrices=False)
            keep = _nonzero_singular_values(s, X.shape)
            self._sinv2 = (1.0 / s[keep]) ** 2
            self._V = Vt[keep].T
            self.rank = self._sinv2.size

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


def _check_start(y, value=0.0, grad_norm=0.0):
    """Reject an outcome too large for an engine's start iterate.

    The design and the outcome are finite, so a non-finite offset, start
    loss ``value`` or start gradient norm is an outcome that overflows
    them: malformed input, a ``ValueError`` before any step, guarded or
    not. Each engine computes these under one ``np.errstate`` and checks
    an offset before the loss is evaluated at it.
    """
    if not (math.isfinite(value) and math.isfinite(grad_norm)):
        what = "the start gradient" if math.isfinite(value) else "the loss at the start iterate"
        raise ValueError(f"outcome of magnitude {np.abs(y).max():.3g} overflows {what}")


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
    if _is_penalized(block.P, block.lam):
        import scipy.linalg

        chol = _cho_factor(X.T @ X + block.lam * block.P, block.lam)
        beta = scipy.linalg.cho_solve(chol, X.T @ y_tilde)
    else:
        U, s, Vt = np.linalg.svd(X, full_matrices=False)
        keep = _nonzero_singular_values(s, X.shape)
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


def _check_betas_at(betas_at, max_iter):
    """Reject a ``betas_at`` entry that is not an iterate after the one before it."""
    prev = -1
    for i, k in enumerate(betas_at):
        if not _is_integer(k) or not prev < k <= max_iter:
            raise ValueError(f"betas_at[{i}]={k!r} is not an integer in [{prev + 1}, "
                             f"{max_iter}]: it lists iterates in increasing order")
        prev = k


def run_boost(partition, loss, y, config, *, betas_at=None):
    """Run the boosting algorithm and record the path.

    Every step works in parameter space from the gradient
    ``g = X^T y_tilde``, one pass over the design that also gives the
    recorded gradient norm. Greedy mode scores each block by the loss
    decrease of its fit, ``||r||^2 - SSE_b``, from ``g_b`` alone (the
    Gauss-Southwell-q rule of greedy block coordinate descent); cyclic
    mode takes block ``k mod n_blocks``. Joint mode is the one-block case
    of the same update: one solver over all columns with the penalty
    ``blockdiag(lam_b P_b)``, its steps recorded as :data:`JOINT_SENTINEL`.

    In greedy and cyclic mode the unpenalized one-column blocks are
    factored in batches, and greedy mode scores them all in one array
    operation: such a block's right singular vector is ``+-1``, so its
    solve is exactly ``s^-2 g_b`` and its decrease ``g_b s^-2 g_b``. The
    path is the same, bit for bit, as with a solver per block. A NaN score
    never wins, and ties go to the lowest block index.

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
    betas_at : sequence of int, optional
        The iterates whose coefficients the path keeps, increasing, from
        0 to ``config.max_iter``; the final iterate is always kept. By
        default all are. A thinned path still records ``losses``,
        ``grad_norms`` and ``selected`` at every iterate, so ``n_steps``
        and every reader of those is unchanged; ``betas`` holds the kept
        rows, ``iterates`` names them and ``table`` reads only them.

    Returns
    -------
    BoostPath
    """
    y = losses_mod.validate_outcome(loss, _check_outcome(y, partition.n))
    if betas_at is not None:
        _check_betas_at(betas_at, config.max_iter)

    X = partition.X
    mode, nu = config.mode, config.nu
    if mode == "joint":
        solvers = [_BlockSolver(X, partition.penalty_blockdiag(), 1.0)]
        columns, designs = [slice(None)], [X]
    else:
        columns, designs = partition.column_map, [b.X for b in partition.blocks]
        solvers = [
            None if block.p == 1 and not _is_penalized(block.P, block.lam)
            else _BlockSolver(block.X, block.P, block.lam)
            for block in partition.blocks
        ]
    # the unpenalized one-column blocks, their columns and s^-2, and each
    # one's slot in those arrays; every other block has its solver
    singles = [b for b, solver in enumerate(solvers) if solver is None]
    others = [b for b, solver in enumerate(solvers) if solver is not None]
    single_cols = np.array([columns[b][0] for b in singles], dtype=int)
    sinv2 = _singleton_sinv2(X, single_cols)
    slot = {b: i for i, b in enumerate(singles)}
    beta = np.zeros(partition.p)
    f_lin = np.zeros(partition.n)
    terminated = "max_iter"
    numeric_error = False

    with np.errstate(over="ignore", invalid="ignore"):
        offset = losses_mod.link_offset(loss, y) if config.init == "offset" else 0.0
        _check_start(y, offset)
        try:
            value, y_tilde, _ = losses_mod.evaluate(loss, y, offset + f_lin)
        except NumericError:
            # the start predictor is the offset alone: the outcome is too large
            _check_start(y, math.inf)
        g = X.T @ y_tilde
        rec = _PathRecorder(beta, value, g, config, betas_at)
    _check_start(y, value, rec.grad_norms[0])
    start_loss = value

    # a guarded run records an overflowing gradient as an inf norm and
    # stops on the loss check or the next evaluation's NumericError
    with np.errstate(over="ignore" if config.divergence_guard else None):
        for k in range(config.max_iter):
            if mode == "greedy":
                best, best_score, best_inc = 0, -np.inf, None
                if singles:
                    g_s = g[single_cols]
                    inc_s = sinv2 * g_s
                    score_s = g_s * inc_s
                    score_s[np.isnan(score_s)] = -np.inf
                    i = int(np.argmax(score_s))
                    if score_s[i] > best_score:
                        best, best_score, best_inc = singles[i], score_s[i], inc_s[i : i + 1]
                for b in others:
                    g_b = g[columns[b]]
                    inc = solvers[b].solve_gram(g_b)
                    score = solvers[b].decrease(g_b, inc)
                    if score > best_score or (score == best_score and b < best):
                        best, best_score, best_inc = b, score, inc
            else:
                best = k % len(solvers)
                if solvers[best] is None:
                    best_inc = sinv2[slot[best]] * g[columns[best]]
                else:
                    best_inc = solvers[best].solve_gram(g[columns[best]])
            beta[columns[best]] += nu * best_inc
            # np.dot, not @: BLAS gemv also for a strided single-column view
            f_lin += nu * np.dot(designs[best], best_inc)
            prev_loss = value
            try:
                value, y_tilde, _ = losses_mod.evaluate(loss, y, offset + f_lin)
            except NumericError:
                if not config.divergence_guard:
                    raise
                terminated = "divergence"
                numeric_error = True
                break
            g = X.T @ y_tilde
            rec.record(beta, JOINT_SENTINEL if mode == "joint" else best, value, g)
            if config.stop_tol > 0.0 and prev_loss - value < config.stop_tol:
                terminated = "tol"
                break
            if config.divergence_guard and _loss_grew(value, start_loss):
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

    The run always takes ``n_steps`` steps, so the path is written into
    arrays of ``n_steps + 1`` rows allocated before the first step. numpy
    asks for transparent huge pages for an array of 4 MiB or more, so
    ``fitted`` then becomes resident in 2 MiB steps.

    Parameters
    ----------
    smoothers : sequence of ndarray
        Symmetric n-by-n matrices with eigenvalues in (0, 1].
    y : array
        Target vector.
    n_steps : int
        Number of updates: integer >= 0.
    rule : str
        ``'greedy'`` (largest residual reduction), ``'cyclic'`` or
        ``'random'``.
    seed : int
        Seed for the random selection rule.
    """
    # the smoothers are checked against the outcome's length
    y = _check_outcome(y)
    if rule not in ("greedy", "cyclic", "random"):
        raise ValueError(f"unsupported smoother selection rule {rule!r}")
    _check_count(n_steps, "n_steps", 0)
    smoothers = [np.asarray(S, dtype=float) for S in smoothers]
    if not smoothers:
        raise ValueError("need at least one smoother")
    contraction = 0.0
    for m, S in enumerate(smoothers):
        if S.shape != (y.size, y.size):
            raise ValueError(f"smoother {m} has shape {S.shape}")
        w = _psd_spectrum(S, f"smoother {m}")
        if w[0] <= EIG_TAU or w[-1] > 1.0 + EIG_TAU:
            raise ValueError(
                f"smoother {m} has eigenvalues in [{w[0]:.3e}, {w[-1]:.3e}], "
                "required inside (0, 1]"
            )
        contraction = max(contraction, 1.0 - w[0])

    rng = np.random.default_rng(seed)
    f = np.zeros_like(y)
    fitted = np.empty((n_steps + 1, y.size))
    selected = np.empty(n_steps, dtype=int)
    res_norms = np.empty(n_steps + 1)
    fitted[0] = f
    with np.errstate(over="ignore", invalid="ignore"):
        res_norms[0] = np.linalg.norm(y)
    _check_start(y, grad_norm=res_norms[0])  # the residual is the negative l2 gradient
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
        fitted[k + 1] = f
        selected[k] = m
        res_norms[k + 1] = np.linalg.norm(y - f)
    return SmootherPath(
        fitted=fitted,
        selected=selected,
        residual_norms=res_norms,
        contraction=contraction,
    )


def divergence_detector(path, window=10):
    """Classify the tail behavior of a boosting path from its losses alone.

    Over the last ``window`` steps (all of a shorter path), the first
    rule that holds decides: ``'diverging'`` if a numeric error occurred
    or the loss grew by more than a factor of ``GUARD_GROWTH``;
    ``'oscillating'`` if any step raised the loss by more than rounding,
    ``1e-12 * max(|L_0|, max |tail|)`` with ``L_0`` the start loss, so a
    limit cycle of any period is named; else ``'converging'``. ``L_0``
    keeps rounding jitter on a loss that fell to near zero from counting
    as a rise. ``window``: integer >= 2.
    """
    _check_count(window, "window", 2)
    if path.numeric_error:
        return "diverging"
    L = path.losses
    w = min(window, len(L) - 1)
    if w < 1:
        return "converging"
    if _loss_grew(L[-1], L[-1 - w]):
        return "diverging"
    tail = L[-1 - w:]
    if np.diff(tail).max() > 1e-12 * max(abs(L[0]), np.abs(tail).max()):
        return "oscillating"
    return "converging"
