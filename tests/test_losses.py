import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from amboost import losses as losses_mod
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
    return spec, spec.events.copy(), f


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
            assert loss_value(spec, spec.events, f) >= 0.0

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
            # no subjects: no tie group, an empty risk-set pass
            empty, none = coxph([], []), np.array([])
            assert loss_value(empty, none, none) == 0.0
            assert neg_functional_gradient(empty, none, none).shape == (0,)
            np.testing.assert_array_equal(hessian_weights(empty, none).gram(np.ones((0, 2))),
                                          np.zeros((2, 2)))

    def test_squared_loss_has_no_magnitude_guard(self):
        # the squared loss has no exponential to overflow: only a non-finite predictor fails
        y = np.array([1000.0, -2e5, 1e200])
        f = np.array([999.0, -2e5, 1e200])
        assert loss_value(l2(), y, f) == 0.5
        np.testing.assert_array_equal(neg_functional_gradient(l2(), y, f), [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(hessian_weights(l2(), f), np.ones(3))
        with pytest.raises(NumericError, match="^non-finite predictor at index 1$"):
            loss_value(l2(), y, np.array([0.0, np.inf, 0.0]))
        # the exp-link families keep the guard
        for spec, out in ((binomial(), np.ones(3)), (poisson(), np.ones(3)),
                          (coxph([1.0, 2.0, 3.0], [1.0, 0.0, 1.0]), np.array([1.0, 0.0, 1.0]))):
            with pytest.raises(NumericError, match="exceeds the overflow guard 700"):
                loss_value(spec, out, np.array([0.0, 800.0, 0.0]))


# one length-3 outcome of each family, to which each predictor below is checked
SHAPE_CASES = [
    (l2(), np.array([0.5, -1.0, 2.0])),
    (binomial(), np.array([0.0, 1.0, 1.0])),
    (poisson(), np.array([0.0, 2.0, 1.0])),
    (coxph([1.0, 2.0, 3.0], [1.0, 0.0, 1.0]), np.array([1.0, 0.0, 1.0])),
]
SHAPE_IDS = ["l2", "binomial", "poisson", "coxph"]


class TestPredictorShape:
    @pytest.mark.parametrize("shape", [(3, 1), (), (2,)], ids=["column", "scalar", "short"])
    @pytest.mark.parametrize("spec, y", SHAPE_CASES, ids=SHAPE_IDS)
    def test_wrong_shape_is_rejected_before_its_values(self, spec, y, shape):
        # A (3, 1) l2 predictor used to broadcast to one loss over 9 pairs and
        # a (3, 3) gradient, a 0-d one to pass silently, and a short coxph one
        # to raise a bare IndexError. The NaN entries show the shape is
        # checked first: they would otherwise be a NumericError.
        f = np.full(shape, np.nan)
        message = rf"^predictor has shape {re.escape(str(shape))}, expected \(3,\)$"
        for call in (loss_value, neg_functional_gradient, evaluate):
            with pytest.raises(ValueError, match=message):
                call(spec, y, f)

    @pytest.mark.parametrize("shape", [(3, 1), ()], ids=["column", "scalar"])
    @pytest.mark.parametrize("spec, y", SHAPE_CASES, ids=SHAPE_IDS)
    def test_curvature_needs_a_vector(self, spec, y, shape):
        message = f"^predictor has shape {re.escape(str(shape))}, expected "
        with pytest.raises(ValueError, match=message):
            hessian_weights(spec, np.full(shape, np.nan))

    @pytest.mark.parametrize("spec, y", SHAPE_CASES, ids=SHAPE_IDS)
    def test_curvature_checks_a_length_only_the_spec_knows(self, spec, y):
        # the scalar families' curvature is pointwise and carries no length
        if spec.family == "coxph":
            with pytest.raises(ValueError, match=r"^predictor has shape \(2,\), expected \(3,\)$"):
                hessian_weights(spec, np.zeros(2))
        else:
            assert hessian_weights(spec, np.zeros(2)).shape == (2,)


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
        grad = neg_functional_gradient(spec, spec.events, f)
        fd = -central_fd_gradient(lambda g: loss_value(spec, spec.events, g), f)
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

    def test_binomial_weights(self):
        w = hessian_weights(binomial(), np.array([0.0, 0.0, np.log(3.0)]))
        np.testing.assert_allclose(w, [0.25, 0.25, 0.1875], rtol=1e-15)

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
        H = hessian_weights(spec, f).gram(np.eye(7))
        np.testing.assert_allclose(H, H.T, atol=1e-12)
        h = 1e-6
        fd = np.zeros((7, 7))
        for i in range(7):
            e = np.zeros(7)
            e[i] = h
            gp = -neg_functional_gradient(spec, spec.events, f + e)
            gm = -neg_functional_gradient(spec, spec.events, f - e)
            fd[:, i] = (gp - gm) / (2 * h)
        np.testing.assert_allclose(H, fd, rtol=1e-5, atol=1e-7)

    def test_coxph_curvature_gram_needs_no_n_by_n_buffer(self):
        # a dense H at n = 5,000 is 200 MB; the curvature and its gram are O(n p)
        rng = np.random.default_rng(17)
        n, p = 5_000, 5
        spec = random_cox_spec(rng, n)
        spec = coxph(np.ceil(10.0 * spec.times), spec.events)  # tied times
        f = rng.normal(size=n)
        X = rng.normal(size=(n, p))
        tracemalloc.start()
        try:
            G = hessian_weights(spec, f).gram(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert G.shape == (p, p)
        assert peak < 8 * n * n / 50  # 4 MB

    def test_coxph_curvature_computed_when_made(self, monkeypatch):
        rng = np.random.default_rng(19)
        spec = random_cox_spec(rng, 40)
        spec = coxph(np.ceil(4.0 * spec.times), spec.events)  # tied times
        f = rng.normal(size=40)
        X = rng.normal(size=(40, 3))
        passes = []
        risk_log_sums = losses_mod._risk_log_sums

        def counted(spec, a):
            passes.append(a.shape)
            return risk_log_sums(spec, a)

        monkeypatch.setattr(losses_mod, "_risk_log_sums", counted)
        value, y_tilde, curvature = evaluate(spec, spec.events, f)
        # the loss, the working response and the curvature share one pass,
        # made with the curvature; reading its fields makes none
        assert passes == [(40,)]
        passes.clear()
        curvature.group_log_risk, curvature.share, curvature.value
        assert passes == []
        assert value == curvature.value and y_tilde is curvature.working_response
        np.testing.assert_array_equal(
            curvature.group_log_risk, risk_log_sums(spec, f[spec._order])
        )
        # hessian_weights makes the same pass, with the same vectors
        made = hessian_weights(spec, f)
        assert passes == [(40,)]
        assert made.value == value
        for name in ("group_log_risk", "share", "working_response"):
            np.testing.assert_array_equal(getattr(made, name), getattr(curvature, name))
        # each gram adds one pass over X's 2p signed columns
        passes.clear()
        G = curvature.gram(X)
        assert passes == [(40, 6)]
        passes.clear()
        np.testing.assert_array_equal(curvature.gram(X), G)
        assert passes == [(40, 6)]

    def test_untied_risk_sums_are_the_sequential_sums_bit_for_bit(self):
        # one subject per group: each group's log sum is top + log(1.0) = f
        rng = np.random.default_rng(23)
        for n in (1, 2, 50, 2_000):
            spec = random_cox_spec(rng, n)
            assert np.unique(spec.times).size == n
            for f in (rng.uniform(-MAX_PREDICTOR, MAX_PREDICTOR, size=n), rng.normal(size=n)):
                f_asc = f[spec._order]
                sequential = np.logaddexp.accumulate(f_asc[::-1])[::-1]
                np.testing.assert_array_equal(hessian_weights(spec, f).group_log_risk, sequential)
                event = spec.events[spec._order] == 1.0
                expected = float((sequential - f_asc)[event].sum())
                assert loss_value(spec, spec.events, f) == expected

    def test_one_tie_group_at_both_ends_of_the_guard(self):
        # Each group's sum is shifted by its maximum. Unshifted, 20,000 terms
        # of exp(700) overflow, and exp(-700) times entries of 1e-10 are
        # subnormal. With every subject tied and one predictor value, each
        # risk set weighs all n subjects alike: the loss is events * log(n),
        # and X' H X is events times the population variance of the column.
        rng = np.random.default_rng(29)
        n = 20_000
        events = (rng.uniform(size=n) < 0.5).astype(float)
        spec = coxph(np.full(n, 3.0), events)
        n_events = events.sum()
        loss = loss_value(spec, events, np.full(n, MAX_PREDICTOR))
        assert abs(loss - n_events * np.log(n)) <= 1e-12 * loss
        x = rng.uniform(1.0, 2.0, size=n) * 1e-10
        G = hessian_weights(spec, np.full(n, -MAX_PREDICTOR)).gram(x[:, None])
        terms = n_events * np.mean(x * x)
        assert abs(G[0, 0] - n_events * np.var(x)) <= 1e-12 * terms

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
    # For X' H X the terms are X' diag(d) X and U' U, both at most
    # |X|' diag(d) |X| entrywise, with d the event shares. d is summed from
    # the oracle's softmax weights, not taken as events - y_tilde: for an
    # event whose share is below 1e-16 that difference is 0, and the scale
    # of the terms then drops with it.
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(cox_instances(), st.integers(0, 2**32 - 1))
    # all subjects tied (one group) and both ends of the guard in it
    @example((coxph([2.0] * 6, [1, 0, 1, 1, 0, 1]),
              np.array([700.0, -700.0, 700.0, -700.0, 0.0, -700.0])), 0)
    @example((coxph([5.0] * 3, [1, 1, 1]), np.array([-700.0, -700.0, 700.0])), 1)
    # an event whose share, about 3 exp(-196), vanishes from events - y_tilde
    @example((coxph([1.0] * 19, np.isin(np.arange(19), (0, 2, 18))),
              np.where(np.arange(19) == 7, 208.0, np.where(np.arange(19) == 2, 12.0, 0.0))), 1)
    def test_loss_response_and_hessian(self, instance, seed):
        spec, f = instance
        loss, y_tilde, H = dense_cox(spec, f)
        d = _cox_softmax(spec, f).sum(axis=0)
        share = np.max(d)
        loss_scale = loss + np.sum(np.abs(f[spec.events == 1.0]))
        assert abs(loss_value(spec, spec.events, f) - loss) <= 1e-12 * loss_scale
        gap = np.max(np.abs(neg_functional_gradient(spec, spec.events, f) - y_tilde))
        assert gap <= 1e-12 * max(1.0, share)
        curvature = hessian_weights(spec, f)
        n = f.size
        assert np.max(np.abs(curvature.gram(np.eye(n)) - H)) <= 1e-12 * share
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, int(rng.integers(1, 5)))) * 10.0 ** rng.integers(-3, 4)
        X[rng.uniform(size=X.shape) < 0.2] = 0.0
        terms = np.max(np.abs(X).T @ (d[:, None] * np.abs(X)))
        assert np.max(np.abs(curvature.gram(X) - X.T @ H @ X)) <= 1e-12 * terms


class TestValidation:
    def test_binomial_outcome(self):
        for bad in (0.5, 2.0, -1.0):
            with pytest.raises(ValueError, match="binomial outcomes must be 0 or 1"):
                loss_value(binomial(), np.array([0.0, bad]), np.zeros(2))
        np.testing.assert_array_equal(
            validate_outcome(binomial(), [1.0, -0.0, 0.0]), [1.0, 0.0, 0.0]
        )

    def test_poisson_outcome(self):
        for bad in (-1.0, 0.5):
            with pytest.raises(ValueError, match="^poisson outcomes must be nonnegative integers$"):
                loss_value(poisson(), np.array([bad, 2.0]), np.zeros(2))

    def test_nonfinite_outcome_names_first_index(self):
        y = np.array([0.0, 1.0, np.nan, np.inf])
        with pytest.raises(ValueError, match="non-finite value at index 2$"):
            loss_value(l2(), y, np.zeros(4))

    def test_cox_metadata(self):
        with pytest.raises(ValueError, match="^observed times must be strictly positive$"):
            coxph(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="^event indicators must be 0 or 1$"):
            coxph(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="^coxph requires times and events$"):
            LossSpec("coxph")
        with pytest.raises(ValueError, match="^times and events must be 1-d of equal length$"):
            coxph(np.array([1.0, 2.0]), np.array([1.0]))

    def test_nonfinite_cox_times_name_first_index(self):
        with pytest.raises(ValueError, match="non-finite value at index 0$"):
            coxph([np.nan, 1.0, 2.0], [1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="non-finite value at index 1$"):
            coxph([1.0, np.inf, np.nan], [1.0, 0.0, 1.0])

    def test_cox_outcome_must_be_the_events(self):
        spec = coxph([3.0, 1.0, 2.0, 2.0, 5.0], [1.0, 0.0, 1.0, 0.0, 1.0])
        np.testing.assert_array_equal(validate_outcome(spec, [1, 0, 1, -0.0, 1]), spec.events)
        for y, bad in (([1.0, 0.0, 1.0, 1.0, 1.0], 3), (spec.times, 0), (np.full(5, 7.5), 0)):
            for call in (validate_outcome, lambda s, y: loss_value(s, y, np.zeros(5))):
                message = f"^coxph outcome must be the events; it differs at index {bad}$"
                with pytest.raises(ValueError, match=message):
                    call(spec, np.asarray(y))

    def test_times_only_for_cox(self):
        with pytest.raises(ValueError, match="^times/events only apply to the coxph family$"):
            LossSpec("l2", times=np.array([1.0]))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: LossSpec("gamma"), "^unknown loss family 'gamma'$"),
            (lambda: validate_outcome(l2(), np.zeros((2, 1))), "^outcome must be a vector$"),
            (lambda: validate_outcome(coxph([1.0, 2.0], [1.0, 0.0]), [1.0, 0.0, 1.0]),
             "^outcome length must match survival metadata$"),
            (lambda: link_offset(binomial(), np.ones(3)),
             "^binomial offset undefined for a constant outcome$"),
            (lambda: link_offset(binomial(), np.zeros(3)),
             "^binomial offset undefined for a constant outcome$"),
            (lambda: link_offset(poisson(), np.zeros(3)),
             "^poisson offset undefined for an all-zero outcome$"),
        ],
        ids=["unknown_family", "matrix_outcome", "cox_outcome_length",
             "binomial_offset_all_ones", "binomial_offset_all_zeros", "poisson_offset"],
    )
    def test_error_message(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


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
    @pytest.mark.parametrize("family", ["l2", "binomial", "poisson", "coxph"])
    def test_evaluate_bundles(self, family):
        # bit-equal to the public functions, at both ends of the guard
        rng = np.random.default_rng(23)
        spec, y, f = random_instance(family, rng, n=12)
        if family == "coxph":
            spec = coxph(np.ceil(3.0 * spec.times), spec.events)  # tied times
        f[:2] = (MAX_PREDICTOR, -MAX_PREDICTOR)
        value, y_tilde, weights = evaluate(spec, y, f)
        assert value == loss_value(spec, y, f)
        np.testing.assert_array_equal(y_tilde, neg_functional_gradient(spec, y, f))
        if family == "coxph":
            np.testing.assert_array_equal(weights.share, hessian_weights(spec, f).share)
            loss, grad, _ = dense_cox(spec, f)
            np.testing.assert_allclose(value, loss, rtol=1e-12)
            np.testing.assert_allclose(y_tilde, grad, rtol=1e-12, atol=1e-14)
        else:
            np.testing.assert_array_equal(weights, hessian_weights(spec, f))

    def test_coxph_evaluate_rejects_the_outcome_before_the_predictor(self):
        spec = coxph([1.0, 2.0, 2.0], [1.0, 0.0, 1.0])
        f = np.array([0.0, 2.0 * MAX_PREDICTOR, 0.0])
        with pytest.raises(NumericError, match="exceeds the overflow guard"):
            evaluate(spec, spec.events, f)
        with pytest.raises(ValueError, match="it differs at index 1$"):
            evaluate(spec, [1.0, 1.0, 1.0], f)

    def test_offsets(self):
        assert link_offset(l2(), np.array([1.0, 3.0])) == 2.0
        np.testing.assert_allclose(
            link_offset(binomial(), np.array([1.0, 1.0, 0.0, 1.0])), np.log(3.0)
        )
        np.testing.assert_allclose(
            link_offset(poisson(), np.array([2.0, 4.0])), np.log(3.0)
        )
