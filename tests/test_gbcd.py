import numpy as np
import pytest

from amboost.boost import BoostConfig, run_boost
from amboost.closedform import boost_limit
from amboost.design import (
    BlockSpec,
    difference_penalty,
    make_partition,
    singleton_blocks,
)
from amboost.gbcd import GbcdConfig, equivalence_check, gbcd_gsq
from amboost.losses import binomial, l2


def random_partition(rng, n, p, max_block=4):
    cols = list(range(p))
    specs = []
    while cols:
        size = int(rng.integers(1, min(max_block, len(cols)) + 1))
        specs.append(BlockSpec(tuple(cols[:size])))
        cols = cols[size:]
    X = rng.normal(size=(n, p))
    return make_partition(X, specs)


class TestBoostingEquivalence:
    def test_selection_and_iterates_match(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            part = random_partition(rng, n=40, p=int(rng.integers(3, 9)))
            y = rng.normal(size=40)
            nu = float(rng.choice([0.1, 0.5, 1.0]))
            report = equivalence_check(part, l2(), y, nu, n_steps=200)
            assert report.identical, f"trial {trial}: {report}"

    def test_singleton_blocks_match(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 5))
        part = make_partition(X, singleton_blocks(5))
        y = rng.normal(size=30)
        report = equivalence_check(part, l2(), y, 0.3, n_steps=200)
        assert report.identical

    def test_zero_steps_trivially_identical(self):
        rng = np.random.default_rng(2)
        part = random_partition(rng, 20, 4)
        report = equivalence_check(part, l2(), rng.normal(size=20), 0.5, 0)
        assert report.identical
        assert report.n_compared == 0

    def test_selection_is_scaled_gradient_argmax(self):
        # With one column per block the quadratic-norm rule reduces to
        # argmax |grad_i| / sqrt(L_i) with L_i the column squared norm.
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 6)) * rng.uniform(0.5, 3.0, size=6)
        y = rng.normal(size=50)
        part = make_partition(X, singleton_blocks(6))
        cfg = GbcdConfig(nu=0.4, max_iter=40)
        path = gbcd_gsq(part, l2(), y, cfg)
        L = np.sum(X**2, axis=0)
        beta = np.zeros(6)
        for k in range(40):
            grad = X.T @ (X @ beta - y)
            expected = int(np.argmax(np.abs(grad) / np.sqrt(L)))
            assert path.selected[k] == expected
            beta = path.betas[k + 1]

    def test_expfam_matches_boosting(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 4))
        y = (rng.uniform(size=60) < 0.5).astype(float)
        part = make_partition(X, [BlockSpec((0, 1)), BlockSpec((2, 3))])
        boost_path = run_boost(
            part, binomial(), y, BoostConfig(nu=0.2, max_iter=100, mode="greedy")
        )
        gbcd_path = gbcd_gsq(
            part, binomial(), y, GbcdConfig(nu=0.2, max_iter=100)
        )
        np.testing.assert_array_equal(boost_path.selected, gbcd_path.selected)
        np.testing.assert_allclose(
            boost_path.betas, gbcd_path.betas, rtol=0, atol=1e-12
        )


class TestPenalizedObjective:
    def pspline_problem(self, seed=5, n=60, lam=4.0):
        rng = np.random.default_rng(seed)
        from amboost.design import SplineSpec, bspline_basis

        spec = SplineSpec(n_knots=8, degree=3)
        x = rng.uniform(0, 1, size=n)
        X = bspline_basis(x, spec)
        y = np.sin(2 * np.pi * x) + 0.2 * rng.normal(size=n)
        P = difference_penalty(spec.n_basis, 2)
        part = make_partition(
            X, [BlockSpec(tuple(range(spec.n_basis)), lam, P)]
        )
        pls = np.linalg.solve(X.T @ X + lam * P, X.T @ y)
        return part, X, y, P, lam, pls

    def test_penalized_gradient_reaches_pls(self):
        part, X, y, P, lam, pls = self.pspline_problem()
        cfg = GbcdConfig(nu=1.0, max_iter=50, gradient_of="penalized")
        path = gbcd_gsq(part, l2(), y, cfg)
        assert np.linalg.norm(path.final - pls) < 1e-6
        stat = X.T @ (X @ path.final - y) + lam * P @ path.final
        assert np.linalg.norm(stat) < 1e-8 * np.linalg.norm(X.T @ y)

    def test_penalized_loss_nonincreasing_multiblock(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(50, 6))
        specs = [
            BlockSpec((0, 1), 2.0),
            BlockSpec((2, 3), 0.5),
            BlockSpec((4, 5)),
        ]
        part = make_partition(X, specs)
        y = rng.normal(size=50)
        cfg = GbcdConfig(nu=1.0, max_iter=400, gradient_of="penalized")
        path = gbcd_gsq(part, l2(), y, cfg)
        assert np.all(np.diff(path.losses) <= 1e-12)
        # stationarity of the penalized objective at the limit point
        Pg = part.penalty_blockdiag()
        stat = X.T @ (X @ path.final - y) + Pg @ path.final
        assert np.linalg.norm(stat) < 1e-8 * np.linalg.norm(X.T @ y)

    def test_contrast_boosting_vs_penalized_descent(self):
        # lam=1 keeps the slowest contraction mode of the penalized
        # smoother fast enough to converge within the iteration budget
        part, X, y, P, lam, pls = self.pspline_problem(seed=7, lam=1.0)
        unpen = boost_limit(X, y)
        assert lam * np.linalg.norm(P @ unpen) > 0
        boost_path = run_boost(
            part, l2(), y, BoostConfig(nu=1.0, max_iter=16000, mode="greedy")
        )
        gbcd_path = gbcd_gsq(
            part,
            l2(),
            y,
            GbcdConfig(nu=1.0, max_iter=50, gradient_of="penalized"),
        )
        assert np.linalg.norm(boost_path.final - unpen) < 1e-6
        assert np.linalg.norm(gbcd_path.final - pls) < 1e-6
        assert np.linalg.norm(boost_path.final - gbcd_path.final) > 1e-2

    def test_penalized_gradient_diverges_from_boosting_at_step_two(self):
        part, X, y, P, lam, _ = self.pspline_problem(seed=8)
        report = equivalence_check(
            part, l2(), y, nu=0.5, n_steps=10, gradient_of="penalized"
        )
        assert not report.identical
        # the first update sees a zero coefficient vector, so the two
        # procedures agree there and part ways at the second iterate
        assert report.first_index == 2


class TestValidation:
    def test_singular_scaling_rejected(self):
        X = np.zeros((10, 2))
        X[:, 0] = 1.0
        part = make_partition(X, [BlockSpec((0, 1))])
        with pytest.raises(np.linalg.LinAlgError):
            gbcd_gsq(part, l2(), np.ones(10), GbcdConfig())

    def test_singular_scaling_names_block_position(self):
        X = np.ones((10, 3))
        X[:, 0] = np.arange(10.0)  # block 0 full rank, block 1 rank 1
        part = make_partition(X, [BlockSpec((0,)), BlockSpec((1, 2))])
        with pytest.raises(np.linalg.LinAlgError, match="^block 1 scaling matrix"):
            gbcd_gsq(part, l2(), np.ones(10), GbcdConfig())

    def test_config_validation(self):
        for bad in (dict(nu=0.0), dict(nu=float("nan")), dict(nu=float("inf")),
                    dict(max_iter=-1), dict(max_iter=2.5), dict(max_iter=2.0)):
            field = next(iter(bad))
            with pytest.raises(ValueError, match=field):
                GbcdConfig(**bad)
        with pytest.raises(ValueError):
            GbcdConfig(gradient_of="both")
        assert GbcdConfig(max_iter=np.int64(3)).max_iter == 3
