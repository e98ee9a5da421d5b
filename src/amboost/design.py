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

# Relative tolerance of symmetry and PSD checks; smaller eigenvalues count as zero.
EIG_TAU = 1e-10

# The rules below decide what counts as numerically zero, each in one place.


def _nonzero_eigenvalues(w):
    """Which ascending eigenvalues ``w`` of a PSD matrix exceed ``EIG_TAU`` times the largest."""
    return w > EIG_TAU * max(w[-1], 0.0)


def _nonzero_singular_values(s, shape):
    """Which of the descending singular values ``s`` of a ``shape`` matrix count in its rank.

    A design-space rule: ``s`` above ``max(shape) eps s_max``, the cutoff
    of ``np.linalg.matrix_rank`` and of ``np.linalg.lstsq(rcond=None)``.
    """
    return s > max(shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)


def _gram_singular(w, shape):
    """Whether ``X^T X`` or ``X^T X + lam P`` of ascending eigenvalues ``w`` is singular.

    A Gram-space rule for an ``n x p`` design of ``shape``: the smallest
    eigenvalue is at most ``max(n, p) eps lambda_max``. Unpenalized, it
    rejects ``cond(X) >= 1 / sqrt(max(n, p) eps)``, about 6.7e6 at n = 100,
    where a Gram solve's error ``cond(X)^2 eps`` nears one part in n.
    """
    return w[0] <= max(shape) * np.finfo(float).eps * max(w[-1], 0.0)


def _is_penalized(P, lam):
    """Whether ``X^T X + lam P``, ``P`` from :func:`_penalty`, is not ``X^T X`` alone."""
    return lam > 0.0 and np.any(P != 0)


@dataclass(frozen=True)
class SplineSpec:
    """Specification of a B-spline basis on equidistant knots.

    Parameters
    ----------
    n_knots : int
        Number of equidistant knots spanning the domain: integer >= 2.
    degree : int, default 3
        Polynomial degree of the basis functions: integer >= 0 (0 gives
        piecewise constants). The basis has ``n_knots + degree - 1`` functions.
    diff_order : int, default 2
        Order of the difference penalty paired with this basis: integer
        in [1, n_basis).
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
        _check_count(self.n_knots, "n_knots", 2)
        _check_count(self.degree, "degree", 0)
        _check_count(self.diff_order, "diff_order", 1)
        if self.diff_order >= self.n_basis:
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
    """d-th order difference matrix of shape (p - d, p); ``d``: integer in [1, p)."""
    _check_count(d, "difference order d", 1)
    if d >= p:
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


def _column_squares(X):
    """Each column's sum of squares, in one pass with no n x p temporary.

    A sum is not finite where its column holds a non-finite entry or
    where it overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.einsum("ij,ij->j", X, X)


def _checked_squares(X, what):
    """``X`` as a non-empty float matrix, and its column sums of squares; a non-finite entry is named."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.size == 0:
        raise ValueError(f"{what} must be a non-empty matrix, shape {X.shape}")
    squares = _column_squares(X)
    # the sums of squares are all finite only when every entry is
    if not np.isfinite(squares).all() and not np.isfinite(X).all():
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise ValueError(f"{what} entry ({row}, {col}) is not finite")
    return X, squares


def _check_matrix(X, what):
    """``X`` as a non-empty float matrix; a non-finite entry is named."""
    return _checked_squares(X, what)[0]


def _check_column_scale(squares, what, columns=None):
    """Name the first column whose sum of squares, from :func:`_checked_squares`, overflows.

    The matrix is finite and the squares are nonnegative, so a sum is not
    finite only where it overflows. ``columns`` gives the name of each
    column, by default its position.
    """
    for j in np.flatnonzero(~np.isfinite(squares)):
        name = j if columns is None else columns[j]
        raise ValueError(f"{what} column {name} has a sum of squares beyond the largest float")


def _psd_spectrum(M, what):
    """Ascending eigenvalues of the matrix ``what``, checked to be symmetric PSD.

    A non-finite entry is named by its row and column; symmetry holds
    within ``EIG_TAU (1 + max|M|)``, and no eigenvalue may fall below
    ``-EIG_TAU max(lambda_max, 0)``.
    """
    M = _check_matrix(M, what)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{what} must be square, shape {M.shape}")
    if not np.allclose(M, M.T, atol=EIG_TAU * (1.0 + np.abs(M).max())):
        raise ValueError(f"{what} is not symmetric")
    w = np.linalg.eigvalsh(M)
    if w[0] < -EIG_TAU * max(w[-1], 0.0) - 1e-300:
        raise ValueError(f"{what} is not PSD (min eigenvalue {w[0]:.3e})")
    return w


def _penalty(P, lam, p):
    """The ``p x p`` penalty of a learner of weight ``lam`` and matrix ``P``, checked.

    The one reading of ``(lam, penalty)``: a missing matrix is the identity
    (ridge) when ``lam > 0`` and zero otherwise, and weight 0 is no penalty
    whatever the matrix. Only a supplied matrix needs the PSD check.
    """
    _check_weight(lam)
    if P is None:
        return np.eye(p) if lam > 0 else np.zeros((p, p))
    P = np.asarray(P, dtype=float)
    if P.shape != (p, p):
        raise ValueError(f"penalty has shape {P.shape}, expected ({p}, {p})")
    _psd_spectrum(P, "penalty matrix")
    return P


def _check_weight(lam):
    """Reject a penalty weight that is negative, NaN or infinite."""
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"penalty weight {lam!r} is not finite and nonnegative")


def _check_step(nu):
    """Reject a step size ``nu`` that is NaN or outside (0, 1]."""
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"step size nu must be in (0, 1], got {nu!r}")


def _is_integer(value):
    """An int or a numpy integer; ``bool`` is an ``Integral`` but never a count or an index."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_count(value, what, minimum):
    """Reject a count that is not an integer ``>= minimum``; ``bool``, ``2.0`` and NaN fail."""
    if not _is_integer(value) or value < minimum:
        raise ValueError(f"{what}={value!r} is not an integer >= {minimum}")


def _check_finite_vector(v, what):
    """Name the first non-finite entry of ``v``; ``what`` is e.g. ``"outcome contains"``."""
    if not np.isfinite(v).all():
        bad = int(np.argmax(~np.isfinite(v)))
        raise ValueError(f"{what} a non-finite value at index {bad}")


def _check_outcome(y, n=None):
    """``y`` as a float vector whose entries are finite, of length ``n`` when given."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("outcome must be a vector")
    if n is not None and y.size != n:
        raise ValueError(f"outcome has shape {y.shape}, expected ({n},)")
    _check_finite_vector(y, "outcome contains")
    return y


@dataclass(frozen=True)
class DesignBlock:
    """One base learner: feature matrix, penalty matrix and penalty weight.

    Invariants checked on construction: the feature matrix is non-empty
    and finite (a non-finite entry is named by its row and column), no
    column's sum of squares overflows (the column is named), the
    penalty is finite and symmetric PSD, its dimension matches the number of
    columns, and the penalty weight is finite and nonnegative. ``P=None``
    reads as in :func:`_penalty`. The blocks of
    :func:`make_partition` take their feature-matrix checks from its one
    pass over the whole design, and check only a penalty the spec supplies.
    """

    X: np.ndarray
    P: np.ndarray
    lam: float = 0.0

    def __post_init__(self):
        X, squares = _checked_squares(self.X, "block feature matrix")
        _check_column_scale(squares, "block feature matrix")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "P", _penalty(self.P, self.lam, self.p))

    @classmethod
    def _checked(cls, X, P, lam):
        """A block whose invariants :func:`make_partition` has checked.

        It checks the design whole, in one pass, and the weight and a
        supplied penalty of each spec; a penalty it built itself, zero or
        the identity, needs no check.
        """
        block = object.__new__(cls)
        for name, value in (("X", X), ("P", P), ("lam", lam)):
            object.__setattr__(block, name, value)
        return block

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def p(self):
        return self.X.shape[1]


@dataclass(frozen=True)
class BlockSpec:
    """Column set, penalty weight and penalty matrix for one block.

    A missing penalty is the identity when ``lam > 0``, else zero (:func:`_penalty`).
    """

    columns: tuple
    lam: float = 0.0
    penalty: np.ndarray = None


@dataclass(frozen=True)
class BlockPartition:
    """Ordered disjoint covering of the columns of a global design matrix.

    A pickled or copied partition holds its design once: it is rebuilt by
    :func:`make_partition` from ``X`` and each block's columns, penalty
    weight and penalty, so its contiguous blocks are views of its ``X``.
    """

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

    def __reduce__(self):
        specs = [
            BlockSpec(tuple(int(c) for c in cols), block.lam, block.P)
            for block, cols in zip(self.blocks, self.column_map)
        ]
        return make_partition, (self.X, specs)

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
        (named by its row and column), a column's sum of squares
        overflows (named with its block), a column index is not an integer
        or is a ``bool``, the column sets overlap (a column named a second
        time, in the same spec or a later one, is named with its spec) or
        fail to cover all columns, or a block's penalty or weight violates
        its invariants.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("design matrix must be 2-dimensional")
    if X.shape[0] == 0:
        raise ValueError("design matrix has no rows")
    if X.shape[1] == 0:
        raise ValueError("design matrix has no columns")
    X, squares = _checked_squares(X, "design matrix")
    any_overflow = not np.isfinite(squares).all()
    p = X.shape[1]
    named = np.zeros(p, dtype=int)
    blocks, column_map = [], []
    for b, s in enumerate(specs):
        if not isinstance(s, BlockSpec):
            raise TypeError(f"block spec {b} is a {type(s).__name__}, not a BlockSpec")
        # bool is an Integral, but True would silently select column 1
        bad = [c for c in s.columns
               if isinstance(c, bool) or not isinstance(c, numbers.Integral)]
        if bad:
            raise ValueError(f"block spec {b} column {bad[0]!r} is not an integer")
        cols = np.asarray(s.columns, dtype=int)
        if cols.size == 0 or cols.min() < 0 or cols.max() >= p:
            raise ValueError(f"column set {s.columns!r} out of range for p={p}")
        # add.at counts a column repeated within one spec too: an engine's
        # beta[cols] += inc would apply only one of its increments
        np.add.at(named, cols, 1)
        for c in cols[named[cols] > 1]:
            raise ValueError(
                f"block column sets overlap: block spec {b} names column {c} a second time"
            )
        if cols.size == 1 or np.array_equal(cols, np.arange(cols[0], cols[0] + cols.size)):
            Xb = X[:, cols[0] : cols[0] + cols.size]
        else:
            Xb = X[:, cols]
        Xb.flags.writeable = False
        if any_overflow:
            _check_column_scale(squares[cols], f"block {b}", cols)
        P = _penalty(s.penalty, s.lam, cols.size)
        blocks.append(DesignBlock._checked(Xb, P, s.lam))
        column_map.append(cols)
    if not named.all():
        missing = np.flatnonzero(named == 0)
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
