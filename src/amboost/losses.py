"""Loss families with values, functional negative gradients and curvature.

Each family uses its canonical link (identity, sigmoid, exp, and the
partial-likelihood structure for proportional hazards). All functions are
pure and safe for concurrent invocation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, gammaln, logsumexp

from .errors import NumericError

FAMILIES = ("l2", "binomial", "poisson", "coxph")

# Predictors beyond this magnitude raise instead of silently saturating;
# divergence detection depends on seeing the growth.
MAX_PREDICTOR = 700.0


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
    """

    family: str
    times: np.ndarray = None
    events: np.ndarray = None

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
            if np.any(t <= 0):
                raise ValueError("observed times must be strictly positive")
            if not np.isin(c, (0.0, 1.0)).all():
                raise ValueError("event indicators must be 0 or 1")
            object.__setattr__(self, "times", t)
            object.__setattr__(self, "events", c)
        elif self.times is not None or self.events is not None:
            raise ValueError("times/events only apply to the coxph family")


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

    ``weights`` is a diagonal weight vector for the scalar families and a
    dense matrix for proportional hazards.
    """

    value: float
    y_tilde: np.ndarray
    weights: np.ndarray


def validate_outcome(spec, y):
    """Check that the outcome vector is admissible for the family."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("outcome must be a vector")
    if not np.isfinite(y).all():
        raise ValueError("outcome contains non-finite values")
    if spec.family == "binomial" and not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("binomial outcomes must be 0 or 1")
    if spec.family == "poisson":
        if np.any(y < 0) or np.any(y != np.round(y)):
            raise ValueError("poisson outcomes must be nonnegative integers")
    if spec.family == "coxph" and y.shape != spec.times.shape:
        raise ValueError("outcome length must match survival metadata")
    return y


def _check_predictor(f):
    f = np.asarray(f, dtype=float)
    if not np.isfinite(f).all():
        bad = int(np.argmax(~np.isfinite(f)))
        raise NumericError(f"non-finite predictor at index {bad}", index=bad)
    big = np.abs(f) > MAX_PREDICTOR
    if big.any():
        bad = int(np.argmax(big))
        raise NumericError(
            f"predictor magnitude {abs(f[bad]):.3g} at index {bad} exceeds "
            f"the overflow guard {MAX_PREDICTOR:g}",
            index=bad,
        )
    return f


def _risk_matrix(spec):
    # rows: events in input order; columns: subjects at risk (t_j >= t_i)
    t = spec.times
    ev = spec.events.astype(bool)
    return t[None, :] >= t[ev, None]


def _cox_softmax(spec, f):
    """Per-event softmax weights over the risk sets, shape (n_events, n)."""
    R = _risk_matrix(spec)
    scores = np.where(R, f[None, :], -np.inf)
    W = np.exp(scores - logsumexp(scores, axis=1, keepdims=True))
    return W


def loss_value(spec, y, f):
    """Evaluate the loss (a negative log-likelihood, L2 uses 0.5*||y-f||^2)."""
    y = validate_outcome(spec, y)
    f = _check_predictor(f)
    if spec.family == "l2":
        return 0.5 * float(np.sum((y - f) ** 2))
    if spec.family == "binomial":
        return float(np.sum(np.logaddexp(0.0, f) - y * f))
    if spec.family == "poisson":
        return float(np.sum(np.exp(f) - y * f + gammaln(y + 1.0)))
    # coxph: negative log partial likelihood with Breslow tie handling
    R = _risk_matrix(spec)
    scores = np.where(R, f[None, :], -np.inf)
    ev = spec.events.astype(bool)
    return float(np.sum(logsumexp(scores, axis=1) - f[ev]))


def neg_functional_gradient(spec, y, f):
    """Negative derivative of the loss with respect to the fit, pointwise.

    Returns the working response the base learners are fitted against:
    residuals for L2, ``y - sigmoid(f)`` for binomial, ``y - exp(f)`` for
    poisson, and the event indicator minus accumulated risk-set softmax
    weights for proportional hazards.
    """
    y = validate_outcome(spec, y)
    f = _check_predictor(f)
    if spec.family == "l2":
        return y - f
    if spec.family == "binomial":
        return y - expit(f)
    if spec.family == "poisson":
        return y - np.exp(f)
    W = _cox_softmax(spec, f)
    return spec.events - W.sum(axis=0)


def hessian_weights(spec, f):
    """Curvature of the loss in the fit.

    Returns the diagonal weight vector for the scalar families; for
    proportional hazards the Hessian in ``f`` is dense and the full
    matrix ``sum_e diag(w_e) - w_e w_e^T`` is returned instead.
    """
    f = _check_predictor(f)
    if spec.family == "l2":
        return np.ones_like(f)
    if spec.family == "binomial":
        s = expit(f)
        return s * (1.0 - s)
    if spec.family == "poisson":
        return np.exp(f)
    W = _cox_softmax(spec, f)
    H = -W.T @ W
    H[np.diag_indices_from(H)] += W.sum(axis=0)
    return H


def evaluate(spec, y, f):
    """Loss value, working response and weights in one pass."""
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
