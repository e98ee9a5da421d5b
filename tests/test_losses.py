import numpy as np
import pytest

from amboost.errors import NumericError
from amboost.losses import (
    LossSpec,
    binomial,
    coxph,
    evaluate,
    hessian_weights,
    l2,
    link_offset,
    loss_value,
    neg_functional_gradient,
    poisson,
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

    def test_cox_softmax_rows_sum_to_one(self):
        from amboost.losses import _cox_softmax

        rng = np.random.default_rng(13)
        spec = random_cox_spec(rng, 9)
        W = _cox_softmax(spec, rng.normal(size=9))
        np.testing.assert_allclose(W.sum(axis=1), 1.0, atol=1e-12)

    def test_overflow_guard_reports_index(self):
        with pytest.raises(NumericError) as err:
            hessian_weights(poisson(), np.array([0.0, 800.0]))
        assert err.value.index == 1


class TestValidation:
    def test_binomial_outcome(self):
        with pytest.raises(ValueError):
            loss_value(binomial(), np.array([0.0, 2.0]), np.zeros(2))

    def test_poisson_outcome(self):
        with pytest.raises(ValueError):
            loss_value(poisson(), np.array([-1.0, 2.0]), np.zeros(2))
        with pytest.raises(ValueError):
            loss_value(poisson(), np.array([0.5, 2.0]), np.zeros(2))

    def test_cox_metadata(self):
        with pytest.raises(ValueError):
            coxph(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            coxph(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            LossSpec("coxph")

    def test_times_only_for_cox(self):
        with pytest.raises(ValueError):
            LossSpec("l2", times=np.array([1.0]))


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
