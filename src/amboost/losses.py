"""Loss families with values, functional negative gradients and curvature.

Each family uses its canonical link (identity, sigmoid, exp, and the
partial-likelihood structure for proportional hazards). All functions are
pure and safe for concurrent invocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, gammaln

from .design import _check_finite_vector
from .errors import NumericError

FAMILIES = ("l2", "binomial", "poisson", "coxph")

# Predictors beyond this magnitude raise instead of silently saturating;
# divergence detection depends on seeing the growth. The squared loss has
# no exponential to overflow: its bound, the largest float, rejects only non-finite ones.
MAX_PREDICTOR = 700.0
_PREDICTOR_LIMIT = dict.fromkeys(FAMILIES, MAX_PREDICTOR) | {"l2": float(np.finfo(float).max)}


@dataclass(frozen=True)
class LossSpec:
    """A loss family, plus survival metadata for proportional hazards.

    Parameters
    ----------
    family : str
        One of ``'l2'``, ``'binomial'``, ``'poisson'``, ``'coxph'``.
    times : array, optional
        Observed times, strictly positive. Required for ``'coxph'``.
    events : array, optional
        Event indicators in {0, 1}. Required for ``'coxph'``.

    For ``'coxph'`` the ascending stable time order is kept too, and in
    that order the event mask and the first and last position of every
    subject's tie group; the times are fixed, so every evaluation reuses
    them. Two specs are equal when their families are and, for
    ``'coxph'``, their times and events hold equal values.
    """

    family: str
    times: np.ndarray = None
    events: np.ndarray = None
    _order: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    _first: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    _last: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    _event_asc: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown loss family {self.family!r}")
        if self.family == "coxph":
            if self.times is None or self.events is None:
                raise ValueError("coxph requires times and events")
            t = np.asarray(self.times, dtype=float)
            c = np.asarray(self.events, dtype=float)
            if t.shape != c.shape or t.ndim != 1:
                raise ValueError("times and events must be 1-d of equal length")
            _check_finite_vector(t, "observed times contain")
            if np.any(t <= 0):
                raise ValueError("observed times must be strictly positive")
            if not np.isin(c, (0.0, 1.0)).all():
                raise ValueError("event indicators must be 0 or 1")
            object.__setattr__(self, "times", t)
            object.__setattr__(self, "events", c)
            order = np.argsort(t, kind="stable")
            t_asc = t[order]
            object.__setattr__(self, "_order", order)
            object.__setattr__(self, "_first", np.searchsorted(t_asc, t_asc, side="left"))
            object.__setattr__(self, "_last", np.searchsorted(t_asc, t_asc, side="right") - 1)
            object.__setattr__(self, "_event_asc", c[order] == 1.0)
        elif self.times is not None or self.events is not None:
            raise ValueError("times/events only apply to the coxph family")

    def __eq__(self, other):
        if not isinstance(other, LossSpec):
            return NotImplemented
        if self.family != other.family:
            return False
        return self.times is None or (
            np.array_equal(self.times, other.times)
            and np.array_equal(self.events, other.events)
        )

    def __hash__(self):
        if self.times is None:
            return hash(self.family)
        # the event mask's bytes, so that events of 0.0 and -0.0 hash alike
        return hash((self.family, self.times.tobytes(), (self.events == 1.0).tobytes()))


def l2():
    return LossSpec("l2")


def binomial():
    return LossSpec("binomial")


def poisson():
    return LossSpec("poisson")


def coxph(times, events):
    return LossSpec("coxph", np.asarray(times, float), np.asarray(events, float))


@dataclass(frozen=True)
class GradientEval:
    """Loss value, negative functional gradient and curvature weights.

    ``weights`` is what :func:`hessian_weights` returns: a diagonal weight
    vector for the scalar families and a :class:`CoxCurvature` for
    proportional hazards.
    """

    value: float
    y_tilde: np.ndarray
    weights: object


@dataclass(frozen=True, eq=False)
class CoxCurvature:
    """The proportional-hazards Hessian in the fit, kept in O(n) memory.

    The Hessian ``H = sum_e diag(w_e) - w_e w_e^T`` is dense: ``w_e`` is
    event e's softmax of ``f`` over its risk set. It is kept as what
    builds it, each an n-vector in time order: the predictor ``f``, the
    event share ``d = sum_e w_e`` and every subject's risk-set log sum.
    :meth:`gram` gives ``X' H X`` without forming ``H``.
    """

    spec: LossSpec
    f: np.ndarray
    share: np.ndarray
    log_risk: np.ndarray

    def gram(self, X):
        """``X' H X`` for a matrix ``X`` of n rows, in O(n p^2) time and O(n p) memory.

        It is ``X' diag(d) X - U' U`` (Breslow ties): row ``u_e`` of ``U``
        is event e's risk-set softmax mean of the columns of ``X``. Each
        mean is the exp of a reversed ``logaddexp.accumulate`` of
        ``f + log x+`` minus that of ``f + log x-``, read at the first
        index of e's tie group, less its risk-set log sum. Every exponent
        is at most ``log max|x|``, so nothing overflows or divides 0 by 0
        for ``|f|`` up to :data:`MAX_PREDICTOR`.
        """
        spec = self.spec
        X = np.asarray(X, dtype=float)[spec._order]
        ev = spec._event_asc
        first = spec._first[ev]
        log_risk = self.log_risk[ev, None]
        f = self.f[:, None]
        U = np.zeros((first.size, X.shape[1]))
        with np.errstate(divide="ignore"):
            for sign, part in ((1.0, X), (-1.0, -X)):
                log_part = np.log(np.maximum(part, 0.0)) + f
                log_sum = np.logaddexp.accumulate(log_part[::-1], axis=0)[::-1]
                U += sign * np.exp(log_sum[first] - log_risk)
        return (X * self.share[:, None]).T @ X - U.T @ U


def validate_outcome(spec, y):
    """Check that the outcome is admissible; for ``'coxph'`` it is the spec's ``events``."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("outcome must be a vector")
    _check_finite_vector(y, "outcome contains")
    if spec.family == "binomial" and not ((y == 0.0) | (y == 1.0)).all():
        raise ValueError("binomial outcomes must be 0 or 1")
    if spec.family == "poisson":
        if np.any(y < 0) or np.any(y != np.round(y)):
            raise ValueError("poisson outcomes must be nonnegative integers")
    if spec.family == "coxph":
        if y.shape != spec.times.shape:
            raise ValueError("outcome length must match survival metadata")
        if not np.array_equal(y, spec.events):
            bad = int(np.argmax(y != spec.events))
            raise ValueError(f"coxph outcome must be the events; it differs at index {bad}")
    return y


def _check_start_loss(spec, y, centre):
    """Reject an ``l2`` outcome whose squared loss at the start iterate overflows.

    The start iterate is zero, or the outcome mean when ``centre``. The
    loss comes from the norm of ``y / max|y|``, so the check itself cannot
    overflow; with ``centre`` an outcome whose sum could overflow, as its
    mean then would, is rejected too. An engine calls this once per run,
    before any arithmetic on the outcome.
    """
    if spec.family != "l2":
        return
    scale = float(np.abs(y).max(initial=0.0))
    if scale == 0.0:
        return
    z = y / scale
    if centre:
        z = z - z.mean()
    # Python floats: a product beyond the largest float is inf, not a warning
    norm = scale * math.sqrt(z @ z)
    if not math.isfinite(norm * norm) or (centre and not math.isfinite(scale * y.size)):
        raise ValueError(
            f"outcome of magnitude {scale:.3g} overflows the squared loss "
            "at the start iterate"
        )


def _check_predictor(f, limit=MAX_PREDICTOR):
    f = np.asarray(f, dtype=float)
    # one reduction clears every admissible predictor; NaN fails the
    # comparison, so every bad value takes the path that names it
    if f.size and np.abs(f).max() <= limit:
        return f
    if not np.isfinite(f).all():
        bad = int(np.argmax(~np.isfinite(f)))
        raise NumericError(f"non-finite predictor at index {bad}", index=bad)
    big = np.abs(f) > limit
    if big.any():
        bad = int(np.argmax(big))
        raise NumericError(
            f"predictor magnitude {abs(f[bad]):.3g} at index {bad} exceeds "
            f"the overflow guard {limit:g}",
            index=bad,
        )
    return f


def _cox_log_risk(spec, f):
    """Log of the summed ``exp(f)`` over each subject's risk set, in time order.

    Walking back from the latest time, ``logaddexp.accumulate`` sums every
    subject seen so far; a subject reads the value at the first member of
    its tie group, so its risk set holds the whole group (Breslow ties).
    """
    return np.logaddexp.accumulate(f[spec._order][::-1])[::-1][spec._first]


def _cox_event_share(spec, f, log_risk):
    """Each subject's summed softmax weight over the risk sets it is in.

    That is ``exp(f_k)`` times the summed ``exp(-log_risk)`` of the events
    at or before ``t_k``, one cumulative sum in time order; the result is
    in input order.
    """
    collected = np.empty_like(f)
    collected[spec._order] = np.cumsum(
        np.where(spec._event_asc, np.exp(-log_risk), 0.0)
    )[spec._last]
    return np.exp(f) * collected


def loss_value(spec, y, f):
    """Evaluate the loss (a negative log-likelihood, L2 uses 0.5*||y-f||^2)."""
    y = validate_outcome(spec, y)
    f = _check_predictor(f, _PREDICTOR_LIMIT[spec.family])
    if spec.family == "l2":
        return 0.5 * float(((y - f) ** 2).sum())
    if spec.family == "binomial":
        return float((np.logaddexp(0.0, f) - y * f).sum())
    if spec.family == "poisson":
        return float((np.exp(f) - y * f + gammaln(y + 1.0)).sum())
    # coxph: negative log partial likelihood with Breslow tie handling
    ev = spec._event_asc
    return float((_cox_log_risk(spec, f)[ev] - f[spec._order][ev]).sum())


def neg_functional_gradient(spec, y, f):
    """Negative derivative of the loss with respect to the fit, pointwise.

    Returns the working response the base learners are fitted against:
    residuals for L2, ``y - sigmoid(f)`` for binomial, ``y - exp(f)`` for
    poisson, and the event indicator minus accumulated risk-set softmax
    weights for proportional hazards. The latter come from time-sorted
    data in O(n log n): one reversed ``logaddexp.accumulate`` gives every
    risk set's log sum, and one cumulative sum over the events of
    ``exp(-log_risk)`` gives each subject's accumulated weight.
    """
    y = validate_outcome(spec, y)
    f = _check_predictor(f, _PREDICTOR_LIMIT[spec.family])
    if spec.family == "l2":
        return y - f
    if spec.family == "binomial":
        return y - expit(f)
    if spec.family == "poisson":
        return y - np.exp(f)
    return spec.events - _cox_event_share(spec, f, _cox_log_risk(spec, f))


def hessian_weights(spec, f):
    """Curvature of the loss in the fit.

    Returns the diagonal weight vector for the scalar families. For
    proportional hazards the Hessian in ``f`` is dense, so a
    :class:`CoxCurvature` is returned instead: it holds O(n) vectors, and
    its ``gram(X)`` gives ``X' H X`` in O(n p^2) without the n x n matrix.
    """
    f = _check_predictor(f, _PREDICTOR_LIMIT[spec.family])
    if spec.family == "l2":
        return np.ones_like(f)
    if spec.family == "binomial":
        s = expit(f)
        return s * (1.0 - s)
    if spec.family == "poisson":
        return np.exp(f)
    log_risk = _cox_log_risk(spec, f)
    share = _cox_event_share(spec, f, log_risk)
    return CoxCurvature(spec, f[spec._order], share[spec._order], log_risk)


def evaluate(spec, y, f):
    """Loss value, working response and weights from the three public functions.

    Each of them validates its own inputs; nothing is shared between them.
    """
    return GradientEval(
        value=loss_value(spec, y, f),
        y_tilde=neg_functional_gradient(spec, y, f),
        weights=hessian_weights(spec, f),
    )


def link_offset(spec, y):
    """Link-transformed outcome mean, used for offset initialization."""
    y = validate_outcome(spec, y)
    if spec.family == "l2":
        return float(np.mean(y))
    if spec.family == "binomial":
        m = float(np.mean(y))
        if not 0.0 < m < 1.0:
            raise ValueError("binomial offset undefined for a constant outcome")
        return float(np.log(m / (1.0 - m)))
    if spec.family == "poisson":
        m = float(np.mean(y))
        if m <= 0.0:
            raise ValueError("poisson offset undefined for an all-zero outcome")
        return float(np.log(m))
    # the partial likelihood is invariant under constant shifts of f
    return 0.0
