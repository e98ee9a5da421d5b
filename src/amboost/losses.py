"""Loss families with values, functional negative gradients and curvature.

Each family uses its canonical link (identity, sigmoid, exp, and the
partial-likelihood structure for proportional hazards). All functions are
pure and safe for concurrent invocation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .design import _check_finite_vector, _check_outcome
from .errors import NumericError

FAMILIES = ("l2", "binomial", "poisson", "coxph")

# Predictors beyond this magnitude raise instead of silently saturating;
# divergence detection depends on seeing the growth. The squared loss has
# no exponential to overflow: its bound, the largest float, rejects only non-finite ones.
MAX_PREDICTOR = 700.0
_PREDICTOR_LIMIT = dict.fromkeys(FAMILIES, MAX_PREDICTOR) | {"l2": float(np.finfo(float).max)}


@functools.cache
def _special():
    """``scipy.special``, imported at the first binomial or poisson call.

    Cached, so a step pays a lookup, not an import statement.
    """
    import scipy.special

    return scipy.special


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
    that order the events' positions and the tie-group index: the first
    position of each of the G distinct times, each subject's group and
    each group's event count. The times are fixed, so every evaluation
    reuses them. Two specs are equal when their families are and, for
    ``'coxph'``, their times and events hold equal values.
    """

    family: str
    times: np.ndarray = None
    events: np.ndarray = None
    _order: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    _event_pos: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    _starts: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    _group: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    _deaths: np.ndarray = field(default=None, init=False, repr=False, compare=False)

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
            c_asc = c[order]
            _, starts, group = np.unique(t[order], return_index=True, return_inverse=True)
            object.__setattr__(self, "_order", order)
            object.__setattr__(self, "_event_pos", np.flatnonzero(c_asc == 1.0))
            object.__setattr__(self, "_starts", starts)
            object.__setattr__(self, "_group", group)
            object.__setattr__(self, "_deaths", np.bincount(group, c_asc, starts.size))
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


@dataclass(frozen=True, eq=False)
class CoxCurvature:
    """The Breslow partial likelihood at ``f``: value, working response and Hessian.

    This is the one place the proportional-hazards loss is computed, all
    of it when the curvature is made by :meth:`_at`: ``group_log_risk``,
    the risk-set log sums of the G distinct times, from one
    :func:`_risk_log_sums` pass, and everything else from those sums.
    The Hessian ``H = sum_e diag(w_e) - w_e w_e^T`` is dense: ``w_e`` is
    event e's softmax of ``f`` over its risk set. It is kept in O(n)
    memory as what builds it: the predictor ``f`` and the event share
    ``d = sum_e w_e``, n-vectors in time order, and the G-vector
    ``group_log_risk``. ``value`` is the negative log partial likelihood
    and ``working_response`` the events minus the shares, in input order.
    :meth:`gram` gives ``X' H X`` without forming ``H``.
    """

    spec: LossSpec
    f: np.ndarray
    group_log_risk: np.ndarray
    share: np.ndarray
    value: float
    working_response: np.ndarray

    @classmethod
    def _at(cls, spec, f):
        """The curvature at the predictor ``f``, from one risk-set pass.

        A subject's share is ``exp(f_k)`` times the summed
        ``exp(-log_risk)`` of the events at or before ``t_k``: one
        cumulative sum over the G distinct times, each weighted by its
        event count.
        """
        f = f[spec._order]
        group_log_risk = _risk_log_sums(spec, f)
        share = np.exp(f) * np.cumsum(spec._deaths * np.exp(-group_log_risk))[spec._group]
        ev = spec._event_pos
        value = float((group_log_risk[spec._group[ev]] - f[ev]).sum())
        share_in_input_order = np.empty_like(f)
        share_in_input_order[spec._order] = share
        return cls(spec, f, group_log_risk, share, value, spec.events - share_in_input_order)

    def gram(self, X):
        """``X' H X`` for a matrix ``X`` of n rows, in O(n p^2) time and O(n p) memory.

        It is ``X' diag(d) X - U' U`` (Breslow ties): the row of ``U`` for
        tie group g is its risk set's softmax mean of the columns of
        ``X``, counted once per event at that time. Each mean is the exp
        of the risk-set log sum of ``f + log x+`` minus that of
        ``f + log x-``, less the group's risk-set log sum of ``f``. Every
        exponent is at most ``log max|x|``, so nothing overflows or
        divides 0 by 0 for ``|f|`` up to :data:`MAX_PREDICTOR`.
        """
        spec = self.spec
        X = np.asarray(X, dtype=float)[spec._order]
        p = X.shape[1]
        with np.errstate(divide="ignore"):
            log_parts = np.log(np.maximum(np.concatenate((X, -X), axis=1), 0.0))
            log_sums = _risk_log_sums(spec, log_parts + self.f[:, None])
        log_means = log_sums - self.group_log_risk[:, None]
        U = np.exp(log_means[:, :p]) - np.exp(log_means[:, p:])
        return (X * self.share[:, None]).T @ X - (U * spec._deaths[:, None]).T @ U


def validate_outcome(spec, y):
    """Check that the outcome is admissible; for ``'coxph'`` it is the spec's ``events``."""
    y = _check_outcome(y)
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


def _check_predictor(f, limit=MAX_PREDICTOR, n=None, what="predictor"):
    """``f`` as a float vector (of length ``n`` if given) whose shape is checked first.

    A non-finite entry, or one beyond ``limit``, is a diverging iterate:
    a :class:`NumericError` naming ``what`` and the first bad index.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 1 or n is not None and f.size != n:
        expected = "a vector" if n is None else f"({n},)"
        raise ValueError(f"{what} has shape {f.shape}, expected {expected}")
    # one bare ufunc reduction clears every admissible predictor; NaN fails
    # the comparison, so every bad value takes the path that names it
    if f.size and np.maximum.reduce(np.abs(f)) <= limit:
        return f
    if not np.isfinite(f).all():
        bad = int(np.argmax(~np.isfinite(f)))
        raise NumericError(f"non-finite {what} at index {bad}", index=bad)
    big = np.abs(f) > limit
    if big.any():
        bad = int(np.argmax(big))
        raise NumericError(
            f"{what} magnitude {abs(f[bad]):.3g} at index {bad} exceeds "
            f"the overflow guard {limit:g}",
            index=bad,
        )
    return f


def _risk_log_sums(spec, a):
    """Log of the summed ``exp(a)`` over each tie group's risk set.

    ``a`` is in time order: an n-vector, or an n x p matrix whose columns
    are summed apart; an entry may be -inf. Each tie group's log-sum-exp
    is vector work, shifted by the group's maximum so that every sum is at
    least 1; a reversed ``logaddexp.accumulate`` over the G distinct times
    then adds the later groups, so a group's risk set holds the whole
    group (Breslow ties). A group of -inf entries only sums to 0, whose
    log is -inf: a caller passing -inf silences the divide warning.
    Returns G values (G x p for a matrix), one per distinct time.
    """
    top = np.maximum.reduceat(a, spec._starts, axis=0)
    top = np.where(top == -np.inf, 0.0, top)  # a group of -inf entries only
    summed = np.add.reduceat(np.exp(a - top[spec._group]), spec._starts, axis=0)
    return np.logaddexp.accumulate((top + np.log(summed))[::-1], axis=0)[::-1]


def loss_value(spec, y, f):
    """Evaluate the loss (a negative log-likelihood, L2 uses 0.5*||y-f||^2)."""
    y = validate_outcome(spec, y)
    f = _check_predictor(f, _PREDICTOR_LIMIT[spec.family], y.size)
    if spec.family == "l2":
        return 0.5 * float(((y - f) ** 2).sum())
    if spec.family == "binomial":
        return float((np.logaddexp(0.0, f) - y * f).sum())
    if spec.family == "poisson":
        return float((np.exp(f) - y * f + _special().gammaln(y + 1.0)).sum())
    # coxph: negative log partial likelihood with Breslow tie handling
    return CoxCurvature._at(spec, f).value


def neg_functional_gradient(spec, y, f):
    """Negative derivative of the loss with respect to the fit, pointwise.

    Returns the working response the base learners are fitted against:
    residuals for L2, ``y - sigmoid(f)`` for binomial, ``y - exp(f)`` for
    poisson, and the event indicator minus accumulated risk-set softmax
    weights for proportional hazards, read from a :class:`CoxCurvature`.
    Those come from time-sorted data in O(n) vector work plus one
    sequential pass over the G distinct times: a reversed
    ``logaddexp.accumulate`` of the tie groups' log sums gives every risk
    set's log sum, and a cumulative sum of ``exp(-log_risk)`` over the
    events gives each subject's accumulated weight.
    """
    y = validate_outcome(spec, y)
    f = _check_predictor(f, _PREDICTOR_LIMIT[spec.family], y.size)
    if spec.family == "l2":
        return y - f
    if spec.family == "binomial":
        return y - _special().expit(f)
    if spec.family == "poisson":
        return y - np.exp(f)
    return CoxCurvature._at(spec, f).working_response


def hessian_weights(spec, f):
    """Curvature of the loss in the fit.

    Returns the diagonal weight vector for the scalar families. For
    proportional hazards the Hessian in ``f`` is dense, so a
    :class:`CoxCurvature` is returned instead: it holds O(n) vectors, and
    its ``gram(X)`` gives ``X' H X`` in O(n p^2) without the n x n matrix.
    The predictor is checked here, in every family, as a vector (of the
    times' length for proportional hazards).
    """
    n = None if spec.times is None else spec.times.size
    f = _check_predictor(f, _PREDICTOR_LIMIT[spec.family], n)
    if spec.family == "l2":
        return np.ones_like(f)
    if spec.family == "binomial":
        s = _special().expit(f)
        return s * (1.0 - s)
    if spec.family == "poisson":
        return np.exp(f)
    return CoxCurvature._at(spec, f)


def evaluate(spec, y, f):
    """``(value, y_tilde, weights)``: loss value, working response and weights at ``f``.

    ``weights`` is what :func:`hessian_weights` returns. For the scalar
    families the three come from the three public functions, each
    validating its own inputs. For proportional hazards the outcome is
    validated once, then one :func:`hessian_weights` call checks the
    predictor and gives the :class:`CoxCurvature` whose ``value`` and
    ``working_response`` are returned with it: one risk-set pass.
    ``y_tilde`` is then the curvature's own ``working_response``, so
    callers must not modify it in place.
    """
    if spec.family == "coxph":
        validate_outcome(spec, y)
        curvature = hessian_weights(spec, f)
        return curvature.value, curvature.working_response, curvature
    return loss_value(spec, y, f), neg_functional_gradient(spec, y, f), hessian_weights(spec, f)


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
