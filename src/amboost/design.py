"""Base-learner building blocks.

Feature blocks with quadratic penalties, B-spline bases on equidistant
knots, difference penalties, and block partitions of a global design
matrix. All constructed objects are immutable after creation and safe to
share across threads. A partition holds the caller's design matrix
without copying it, and a block over a contiguous column range holds a
read-only view into it, so the design must not be modified while a
partition built on it is in use.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SplineSpec:
    """Specification of a B-spline basis on equidistant knots.

    Parameters
    ----------
    n_knots : int
        Number of equidistant knots spanning the domain, at least 2.
    degree : int, default 3
        Polynomial degree of the basis functions (0 gives piecewise
        constants). The basis has ``n_knots + degree - 1`` functions.
    diff_order : int, default 2
        Order of the difference penalty paired with this basis.
    domain : tuple of float, default (0.0, 1.0)
        Closed interval on which the basis is defined.
    """

    n_knots: int
    degree: int = 3
    diff_order: int = 2
    domain: tuple = (0.0, 1.0)

    def __post_init__(self):
        lo, hi = self.domain
        if not np.isfinite(lo) or not np.isfinite(hi) or not hi > lo:
            raise ValueError(f"degenerate spline domain {self.domain!r}")
        if self.n_knots < 2:
            raise ValueError("need at least 2 knots")
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if not 1 <= self.diff_order < self.n_basis:
            raise ValueError(
                f"difference order {self.diff_order} invalid for a basis "
                f"of dimension {self.n_basis}"
            )

    @property
    def n_basis(self):
        return self.n_knots + self.degree - 1


def bspline_knots(spec):
    """Equidistant knot grid, extended by ``degree`` knots on each side."""
    lo, hi = spec.domain
    h = (hi - lo) / (spec.n_knots - 1)
    m = spec.n_knots + 2 * spec.degree
    return lo + h * (np.arange(m) - spec.degree)


def bspline_basis(x, spec):
    """Evaluate the B-spline basis of ``spec`` at the points ``x``.

    Uses the Cox-de Boor recursion on the equidistant knot grid extended
    by ``degree`` boundary knots on each side. Rows sum to one on the
    domain for any degree (partition of unity).

    Parameters
    ----------
    x : array, shape (n,)
        Evaluation points, all inside ``spec.domain``.
    spec : SplineSpec

    Returns
    -------
    B : ndarray, shape (n, spec.n_basis)
        ``B[i, j]`` is the j-th basis function evaluated at ``x[i]``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = spec.domain
    if x.size and (x.min() < lo or x.max() > hi):
        bad = int(np.argmax((x < lo) | (x > hi)))
        raise ValueError(f"x[{bad}]={x[bad]} outside spline domain [{lo}, {hi}]")

    t = bspline_knots(spec)
    deg = spec.degree
    # Degree-0 seed: indicator of the containing knot interval. The right
    # domain endpoint is clamped into the last in-domain interval so that
    # the partition of unity holds on the closed domain.
    idx = np.searchsorted(t, x, side="right") - 1
    idx = np.clip(idx, deg, deg + spec.n_knots - 2)
    B = np.zeros((x.size, len(t) - 1))
    B[np.arange(x.size), idx] = 1.0
    for d in range(1, deg + 1):
        ncols = len(t) - 1 - d
        left = (x[:, None] - t[None, :ncols]) / (t[d : d + ncols] - t[:ncols])
        right = (t[d + 1 : d + 1 + ncols] - x[:, None]) / (
            t[d + 1 : d + 1 + ncols] - t[1 : 1 + ncols]
        )
        B = left * B[:, :ncols] + right * B[:, 1 : 1 + ncols]
    return B


def difference_matrix(p, d):
    """d-th order difference matrix of shape (p - d, p)."""
    if not 1 <= d < p:
        raise ValueError(f"difference order {d} invalid for dimension {p}")
    return np.diff(np.eye(p), n=d, axis=0)


def difference_penalty(p, d):
    """Difference penalty ``D_d.T @ D_d`` of shape (p, p).

    Symmetric positive semi-definite with exactly ``d`` zero eigenvalues
    (its null space contains the degree d-1 polynomial coefficient
    sequences), hence rank ``p - d``.
    """
    D = difference_matrix(p, d)
    return D.T @ D


def _check_penalty(P, p, eps_scale=1e-10):
    P = np.asarray(P, dtype=float)
    if P.shape != (p, p):
        raise ValueError(f"penalty has shape {P.shape}, expected ({p}, {p})")
    if not np.allclose(P, P.T, atol=1e-8 * (1.0 + np.abs(P).max())):
        raise ValueError("penalty matrix is not symmetric")
    w = np.linalg.eigvalsh(P)
    floor = eps_scale * (1.0 + max(w[-1], 0.0))
    if w[0] < -floor:
        raise ValueError(f"penalty matrix is not PSD (min eigenvalue {w[0]:.3e})")
    return P


def _check_finite(X, what):
    """Raise naming the first non-finite entry of the non-empty matrix ``X``."""
    # min and max are non-finite exactly when some entry is, and need no
    # n x p temporary
    if not (np.isfinite(X.min()) and np.isfinite(X.max())):
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise ValueError(f"{what} entry ({row}, {col}) is not finite")


@dataclass(frozen=True)
class DesignBlock:
    """One base learner: feature matrix, penalty matrix and penalty weight.

    Invariants checked on construction: the feature matrix is non-empty
    and finite (a non-finite entry is named by its row and column), the
    penalty is symmetric PSD, its dimension matches the number of
    columns, and the penalty weight is finite and nonnegative. A block with
    ``lam == 0`` is unpenalized whatever its penalty matrix.
    """

    X: np.ndarray
    P: np.ndarray
    lam: float = 0.0

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        if X.ndim != 2:
            raise ValueError("block feature matrix must be 2-dimensional")
        if X.size == 0:
            raise ValueError(f"block feature matrix is empty, shape {X.shape}")
        _check_finite(X, "block feature matrix")
        object.__setattr__(self, "X", X)
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"penalty weight {self.lam!r} is not finite and nonnegative")
        object.__setattr__(self, "P", _check_penalty(self.P, X.shape[1]))

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def p(self):
        return self.X.shape[1]


@dataclass(frozen=True)
class BlockSpec:
    """Column set, penalty weight and penalty matrix for one block.

    A missing penalty is the identity when ``lam > 0``, else zero.
    """

    columns: tuple
    lam: float = 0.0
    penalty: np.ndarray = None


@dataclass(frozen=True)
class BlockPartition:
    """Ordered disjoint covering of the columns of a global design matrix."""

    blocks: tuple
    column_map: tuple
    X: np.ndarray = field(repr=False)

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def p(self):
        return self.X.shape[1]

    @property
    def n_blocks(self):
        return len(self.blocks)

    def penalty_blockdiag(self):
        """Global penalty ``blockdiag(lam_b * P_b)`` scattered to columns."""
        P = np.zeros((self.p, self.p))
        for block, cols in zip(self.blocks, self.column_map):
            P[np.ix_(cols, cols)] = block.lam * block.P
        return P


def make_partition(X, specs):
    """Build a :class:`BlockPartition` from per-block column specs.

    Parameters
    ----------
    X : ndarray, shape (n, p)
        Global design matrix.
    specs : sequence of BlockSpec
        One spec per block, in block order. A single spec covering all
        columns yields the joint-update case of one block.

    Raises
    ------
    TypeError
        If a spec is not a :class:`BlockSpec` (named by its position).
    ValueError
        If the design has no rows, no columns or a non-finite entry
        (named by its row and column), a column index is not an integer,
        the column sets overlap or fail to cover all columns, or a block
        violates its own invariants.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("design matrix must be 2-dimensional")
    if X.shape[0] == 0:
        raise ValueError("design matrix has no rows")
    if X.shape[1] == 0:
        raise ValueError("design matrix has no columns")
    _check_finite(X, "design matrix")
    p = X.shape[1]
    seen = np.zeros(p, dtype=bool)
    blocks, column_map = [], []
    for b, s in enumerate(specs):
        if not isinstance(s, BlockSpec):
            raise TypeError(f"block spec {b} is a {type(s).__name__}, not a BlockSpec")
        bad = [c for c in s.columns if not isinstance(c, numbers.Integral)]
        if bad:
            raise ValueError(f"block spec {b} column {bad[0]!r} is not an integer")
        cols = np.asarray(s.columns, dtype=int)
        if cols.size == 0 or cols.min() < 0 or cols.max() >= p:
            raise ValueError(f"column set {s.columns!r} out of range for p={p}")
        if seen[cols].any():
            raise ValueError("block column sets overlap")
        seen[cols] = True
        if s.penalty is not None:
            P = np.asarray(s.penalty, dtype=float)
        elif s.lam > 0:
            P = np.eye(cols.size)
        else:
            P = np.zeros((cols.size, cols.size))
        if np.array_equal(cols, np.arange(cols[0], cols[0] + cols.size)):
            Xb = X[:, cols[0] : cols[0] + cols.size]
        else:
            Xb = X[:, cols]
        Xb.flags.writeable = False
        blocks.append(DesignBlock(Xb, P, s.lam))
        column_map.append(cols)
    if not seen.all():
        missing = np.flatnonzero(~seen)
        raise ValueError(f"columns {missing.tolist()} not covered by any block")
    return BlockPartition(tuple(blocks), tuple(column_map), X)


def singleton_blocks(p):
    """Specs for component-wise updates: one linear block per column."""
    return [BlockSpec((j,)) for j in range(p)]


def single_block(p, lam=0.0, penalty=None):
    """Spec list for joint updates: one block over all columns."""
    return [BlockSpec(tuple(range(p)), lam, penalty)]


def pspline_block_spec(columns, spec, lam):
    """Spec for a penalized spline block over already-expanded columns."""
    P = difference_penalty(spec.n_basis, spec.diff_order)
    return BlockSpec(tuple(columns), lam, P)
