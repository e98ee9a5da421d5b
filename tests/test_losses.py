import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from amboost.errors import NumericError
from amboost.losses import (
    MAX_PREDICTOR,
    LossSpec,
    _check_predictor,
    binomial,
    coxph,
    evaluate,
    hessian_weights,
    l2,
    link_offset,
    loss_value,
    neg_functional_gradient,
    poisson,
    validate_outcome,
)


def central_fd_gradient(fun, f, h=1e-6):
    """Finite-difference oracle for the gradient of fun at f."""
    g = np.zeros_like(f)
    for i in range(f.size):
        e = np.zeros_like(f)
        e[i] = h * (1.0 + abs(f[i]))
        g[i] = (fun(f + e) - fun(f - e)) / (2.0 * e[i])
    return g


def random_cox_spec(rng, n):
    times = rng.exponential(scale=1.0, size=n) + 0.05
    events = (rng.uniform(size=n) < 0.7).astype(float)
    events[rng.integers(n)] = 1.0  # at least one event
    return coxph(times, events)


# Dense proportional-hazards oracle: one row per event over all subjects,
# O(n_events * n) memory, kept independent of the sorted code it checks.


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


def dense_cox(spec, f):
    """Loss, working response and Hessian of the Breslow partial likelihood."""
    R = _risk_matrix(spec)
    scores = np.where(R, f[None, :], -np.inf)
    ev = spec.events.astype(bool)
    loss = float(np.sum(logsumexp(scores, axis=1) - f[ev]))
    W = _cox_softmax(spec, f)
    H = -W.T @ W
    H[np.diag_indices_from(H)] += W.sum(axis=0)
    return loss, spec.events - W.sum(axis=0), H


def random_instance(family, rng, n=8):
    f = rng.normal(scale=1.5, size=n)
    if family == "l2":
        return l2(), rng.normal(size=n), f
    if family == "binomial":
        return binomial(), (rng.uniform(size=n) < 0.5).astype(float), f
    if family == "poisson":
        return poisson(), rng.poisson(lam=2.0, size=n).astype(float), f
    spec = random_cox_spec(rng, n)
    return spec, spec.times.copy(), f


class TestLossValues:
    def test_l2_perfect_fit(self):
        y = np.array([1.0, -2.0, 3.0])
        assert loss_value(l2(), y, y) == 0.0

    def test_binomial_at_zero(self):
        val = loss_value(binomial(), np.array([0.0, 1.0]), np.zeros(2))
        np.testing.assert_allclose(val, 2.0 * np.log(2.0), rtol=1e-15)

    def test_poisson_zero_counts_limit(self):
        # With all-zero counts the loss decreases monotonically to 0 as
        # the predictor goes to -inf.
        y = np.zeros(4)
        sweep = [loss_value(poisson(), y, np.full(4, -t)) for t in (1, 5, 20, 100)]
        assert all(a > b for a, b in zip(sweep, sweep[1:]))
        assert sweep[-1] < 1e-40

    def test_coxph_nonnegative(self):
        rng = np.random.default_rng(5)
        spec = random_cox_spec(rng, 10)
        for _ in range(10):
            f = rng.normal(size=10)
            assert loss_value(spec, spec.times, f) >= 0.0

    def test_nonfinite_predictor(self):
        with pytest.raises(NumericError):
            loss_value(l2(), np.zeros(2), np.array([0.0, np.nan]))


class TestPredictorGuard:
    @pytest.mark.parametrize("index", [0, 3, 6])
    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.nan, "non-finite predictor at index {i}"),
            (np.inf, "non-finite predictor at index {i}"),
            (-np.inf, "non-finite predictor at index {i}"),
            (700.5, "predictor magnitude 700 at index {i} exceeds the overflow guard 700"),
            (-1e5, "predictor magnitude 1e+05 at index {i} exceeds the overflow guard 700"),
        ],
    )
    def test_message_and_index(self, bad, message, index):
        f = np.linspace(-MAX_PREDICTOR, MAX_PREDICTOR, 7)
        f[index] = bad
        with pytest.raises(NumericError) as err:
            _check_predictor(f)
        assert str(err.value) == message.format(i=index)
        assert err.value.index == index

    def test_non_finite_is_named_before_an_earlier_overflow(self):
        with pytest.raises(NumericError) as err:
            _check_predictor(np.array([0.0, 800.0, np.nan]))
        assert str(err.value) == "non-finite predictor at index 2"
        assert err.value.index == 2

    def test_admissible_and_empty_predictors_pass_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = np.array([-MAX_PREDICTOR, 0.0, MAX_PREDICTOR])
            np.testing.assert_array_equal(_check_predictor(f), f)
            assert _check_predictor(np.array([])).shape == (0,)
            assert loss_value(l2(), np.array([]), np.array([])) == 0.0


class TestGradients:
    def test_l2_residuals(self):
        g = neg_functional_gradient(l2(), np.array([2.0, 4.0]), np.zeros(2))
        np.testing.assert_array_equal(g, [2.0, 4.0])

    def test_binomial_at_zero(self):
        y = np.array([0.0, 1.0, 1.0])
        g = neg_functional_gradient(binomial(), y, np.zeros(3))
        np.testing.assert_allclose(g, y - 0.5, rtol=1e-15)

    def test_coxph_small_instance_fd(self):
        rng = np.random.default_rng(7)
        spec = random_cox_spec(rng, 6)
        f = rng.normal(size=6)
        grad = neg_functional_gradient(spec, spec.times, f)
        fd = -central_fd_gradient(lambda g: loss_value(spec, spec.times, g), f)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("family", ["l2", "binomial", "poisson", "coxph"])
    def test_fd_all_families(self, family):
        rng = np.random.default_rng(11)
        for _ in range(50):
            spec, y, f = random_instance(family, rng)
            grad = neg_functional_gradient(spec, y, f)
            fd = -central_fd_gradient(lambda g: loss_value(spec, y, g), f)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)


class TestHessianWeights:
    def test_binomial_quarter_bound(self):
        rng = np.random.default_rng(3)
        w = hessian_weights(binomial(), rng.normal(scale=5, size=500))
        assert np.all(w > 0)
        assert w.max() <= 0.25

    def test_l2_unit_weights(self):
        np.testing.assert_array_equal(hessian_weights(l2(), np.zeros(4)), np.ones(4))

    def test_poisson_weights(self):
        w = hessian_weights(poisson(), np.array([0.0, np.log(2.0)]))
        np.testing.assert_allclose(w, [1.0, 2.0], rtol=1e-15)
        assert np.all(w > 0)

    def test_coxph_dense_hessian_fd(self):
        rng = np.random.default_rng(9)
        spec = random_cox_spec(rng, 7)
        f = rng.normal(size=7)
        H = hessian_weights(spec, f)
        np.testing.assert_allclose(H, H.T, atol=1e-12)
        h = 1e-6
        fd = np.zeros((7, 7))
        for i in range(7):
            e = np.zeros(7)
            e[i] = h
            gp = -neg_functional_gradient(spec, spec.times, f + e)
            gm = -neg_functional_gradient(spec, spec.times, f - e)
            fd[:, i] = (gp - gm) / (2 * h)
        np.testing.assert_allclose(H, fd, rtol=1e-5, atol=1e-7)

    def test_coxph_hessian_holds_one_n_by_n_buffer(self):
        # the dense construction also held the n_events x n risk-set weights
        rng = np.random.default_rng(17)
        spec = random_cox_spec(rng, 600)
        f = rng.normal(size=600)
        tracemalloc.start()
        try:
            H = hessian_weights(spec, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * H.nbytes

    def test_cox_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(13)
        spec = random_cox_spec(rng, 9)
        W = _cox_softmax(spec, rng.normal(size=9))
        np.testing.assert_allclose(W.sum(axis=1), 1.0, atol=1e-12)

    def test_overflow_guard_reports_index(self):
        with pytest.raises(NumericError) as err:
            hessian_weights(poisson(), np.array([0.0, 800.0]))
        assert err.value.index == 1


@st.composite
def cox_instances(draw):
    """Tied and censored times with at least one event, |f| up to the guard."""
    n = draw(st.integers(1, 25))
    times = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    events = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    events[draw(st.integers(0, n - 1))] = True
    f = draw(st.lists(st.floats(-MAX_PREDICTOR, MAX_PREDICTOR), min_size=n, max_size=n))
    return coxph(np.array(times, float), np.array(events, float)), np.array(f)


class TestSortedCoxAgainstDenseOracle:
    # Each quantity is a difference of larger terms, and rounding is
    # relative to those terms, in the oracle as in the sorted code: a loss
    # of 7e-8 at |f| ~ 10 carries absolute error ~1e-15, and the Hessian's
    # diagonal cancels to 0 when one subject carries a risk set (n = 1).
    # So each tolerance is 1e-12 of the terms' size: the events' |f| for
    # the loss, and the largest event share -- the largest diagonal entry
    # of sum_e diag(w_e) -- for the working response and the Hessian.
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(cox_instances())
    def test_loss_response_and_hessian(self, instance):
        spec, f = instance
        loss, y_tilde, H = dense_cox(spec, f)
        share = np.max(spec.events - y_tilde)
        loss_scale = loss + np.sum(np.abs(f[spec.events == 1.0]))
        assert abs(loss_value(spec, spec.times, f) - loss) <= 1e-12 * loss_scale
        gap = np.max(np.abs(neg_functional_gradient(spec, spec.times, f) - y_tilde))
        assert gap <= 1e-12 * max(1.0, share)
        assert np.max(np.abs(hessian_weights(spec, f) - H)) <= 1e-12 * share


class TestValidation:
    def test_binomial_outcome(self):
        for bad in (0.5, 2.0, -1.0):
            with pytest.raises(ValueError, match="binomial outcomes must be 0 or 1"):
                loss_value(binomial(), np.array([0.0, bad]), np.zeros(2))
        np.testing.assert_array_equal(
            validate_outcome(binomial(), [1.0, -0.0, 0.0]), [1.0, 0.0, 0.0]
        )

    def test_poisson_outcome(self):
        with pytest.raises(ValueError):
            loss_value(poisson(), np.array([-1.0, 2.0]), np.zeros(2))
        with pytest.raises(ValueError):
            loss_value(poisson(), np.array([0.5, 2.0]), np.zeros(2))

    def test_nonfinite_outcome_names_first_index(self):
        y = np.array([0.0, 1.0, np.nan, np.inf])
        with pytest.raises(ValueError, match="non-finite value at index 2$"):
            loss_value(l2(), y, np.zeros(4))

    def test_cox_metadata(self):
        with pytest.raises(ValueError):
            coxph(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            coxph(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            LossSpec("coxph")

    def test_nonfinite_cox_times_name_first_index(self):
        with pytest.raises(ValueError, match="non-finite value at index 0$"):
            coxph([np.nan, 1.0, 2.0], [1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="non-finite value at index 1$"):
            coxph([1.0, np.inf, np.nan], [1.0, 0.0, 1.0])

    def test_times_only_for_cox(self):
        with pytest.raises(ValueError):
            LossSpec("l2", times=np.array([1.0]))


class TestSpecEquality:
    def test_equal_specs_compare_and_hash_equal(self):
        a = coxph([1.0, 2.0, 2.0], [1.0, 0.0, 1.0])
        b = coxph(np.array([1, 2, 2]), [True, False, True])
        assert a == b and hash(a) == hash(b)
        # -0.0 is an admissible no-event indicator and equals 0.0
        c = coxph([1.0, 2.0, 2.0], [1.0, -0.0, 1.0])
        assert a == c and hash(a) == hash(c)
        assert len({a, b, c}) == 1
        assert l2() == l2() and hash(l2()) == hash(l2())

    def test_different_specs_compare_unequal(self):
        a = coxph([1.0, 2.0], [1.0, 0.0])
        assert a != coxph([1.0, 3.0], [1.0, 0.0])
        assert a != coxph([1.0, 2.0], [1.0, 1.0])
        assert a != coxph([1.0, 2.0, 3.0], [1.0, 0.0, 0.0])
        assert a != l2() and l2() != binomial()
        assert a != "coxph"


class TestEvaluateAndOffset:
    def test_evaluate_bundles(self):
        y = np.array([1.0, 0.0, 1.0])
        ge = evaluate(binomial(), y, np.zeros(3))
        assert ge.value == loss_value(binomial(), y, np.zeros(3))
        np.testing.assert_allclose(ge.y_tilde, y - 0.5)
        np.testing.assert_allclose(ge.weights, np.full(3, 0.25))

    def test_offsets(self):
        assert link_offset(l2(), np.array([1.0, 3.0])) == 2.0
        np.testing.assert_allclose(
            link_offset(binomial(), np.array([1.0, 1.0, 0.0, 1.0])), np.log(3.0)
        )
        np.testing.assert_allclose(
            link_offset(poisson(), np.array([2.0, 4.0])), np.log(3.0)
        )
