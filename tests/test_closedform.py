import numpy as np
import pytest

from amboost.boost import BoostConfig, run_boost
from amboost.closedform import (
    boost_limit,
    implicit_penalty,
    linear_boost_path,
    path_points,
    penalized_boost_path,
    ridge_equivalent_lambda,
    ridge_solve,
)
from amboost.design import make_partition, single_block
from amboost.losses import l2


def correlated_design(rng, n, rho):
    x1 = rng.normal(size=n)
    x2 = rho * x1 + np.sqrt(1 - rho**2) * rng.normal(size=n)
    return np.column_stack([x1, x2])


def isotropic_design(rng, n, p, scale=1.7):
    Q, _ = np.linalg.qr(rng.normal(size=(n, p)))
    return scale * Q  # X^T X = scale^2 * I


class TestLinearPath:
    def test_full_step_is_ols(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        ols = np.linalg.solve(X.T @ X, X.T @ y)
        np.testing.assert_allclose(linear_boost_path(X, y, 1.0, 1), ols, rtol=1e-12)

    def test_zero_iterations(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10, 2))
        np.testing.assert_array_equal(
            linear_boost_path(X, rng.normal(size=10), 0.5, 0), np.zeros(2)
        )

    def test_two_identity_steps(self):
        beta = linear_boost_path(np.eye(2), np.array([2.0, 4.0]), 0.5, 2)
        np.testing.assert_allclose(beta, [1.5, 3.0], rtol=1e-14)

    def test_rank_deficient_raises(self):
        X = np.ones((5, 2))
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            linear_boost_path(X, np.ones(5), 0.5, 3)


class TestPenalizedPath:
    def test_single_step_is_scaled_pls(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        P = np.eye(4)
        lam, nu = 2.5, 0.3
        pls = np.linalg.solve(X.T @ X + lam * P, X.T @ y)
        np.testing.assert_allclose(
            penalized_boost_path(X, y, P, lam, nu, 1), nu * pls, rtol=1e-12
        )

    def test_reduces_to_linear_when_unpenalized(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 5))
        y = rng.normal(size=40)
        for k in (0, 1, 7, 60, 400):
            np.testing.assert_allclose(
                penalized_boost_path(X, y, None, 0.0, 0.4, k),
                linear_boost_path(X, y, 0.4, k),
                rtol=1e-10,
                atol=1e-14,
            )

    def test_two_ridge_steps_identity(self):
        # hand recursion with smoother matrix (I+I)^{-1} I = I/2
        beta = penalized_boost_path(
            np.eye(2), np.array([2.0, 4.0]), np.eye(2), 1.0, 1.0, 2
        )
        np.testing.assert_allclose(beta, [1.5, 3.0], rtol=1e-14)

    def test_matches_engine_iterates(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(35, 6))
        y = rng.normal(size=35)
        from amboost.design import difference_penalty

        P = difference_penalty(6, 2)
        lam, nu = 3.0, 0.25
        part = make_partition(X, single_block(6, lam, P))
        path = run_boost(part, l2(), y, BoostConfig(nu=nu, max_iter=500, mode="joint"))
        for k in (0, 1, 2, 5, 20, 100, 500):
            oracle = penalized_boost_path(X, y, P, lam, nu, k)
            err = np.linalg.norm(path.betas[k] - oracle) / (
                np.linalg.norm(oracle) + 1e-300
            )
            assert err < 1e-10

    def test_singular_system_raises(self):
        X = np.zeros((4, 2))
        with pytest.raises(np.linalg.LinAlgError):
            penalized_boost_path(X, np.zeros(4), np.diag([1.0, 0.0]), 1.0, 0.5, 3)


class TestEngineOracleEquivalence:
    def test_joint_linear_every_iterate(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 4))
        y = rng.normal(size=50)
        part = make_partition(X, single_block(4))
        for nu in (0.1, 0.5, 1.0):
            path = run_boost(
                part, l2(), y, BoostConfig(nu=nu, max_iter=500, mode="joint")
            )
            ols = np.linalg.solve(X.T @ X, X.T @ y)
            ks = np.arange(501)
            delta = 1.0 - (1.0 - nu) ** ks
            oracle = delta[:, None] * ols[None, :]
            err = np.linalg.norm(path.betas - oracle, axis=1) / (
                np.linalg.norm(oracle, axis=1) + 1e-300
            )
            assert err.max() < 1e-10

    def test_fitted_values_are_linear_smoother(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        part = make_partition(X, single_block(3))
        nu = 0.3
        path = run_boost(part, l2(), y, BoostConfig(nu=nu, max_iter=40, mode="joint"))
        H = X @ np.linalg.solve(X.T @ X, X.T)
        for k in (1, 5, 40):
            delta = 1.0 - (1.0 - nu) ** k
            np.testing.assert_allclose(
                X @ path.betas[k], delta * (H @ y), rtol=1e-10, atol=1e-12
            )


class TestBoostLimit:
    def test_full_rank_limit_is_ols(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        np.testing.assert_allclose(
            boost_limit(X, y), np.linalg.solve(X.T @ X, X.T @ y), rtol=1e-10
        )

    def test_min_norm_single_row(self):
        # Lagrange oracle: min ||b|| s.t. b1 + b2 = 3 -> (1.5, 1.5)
        np.testing.assert_allclose(
            boost_limit(np.array([[1.0, 1.0]]), np.array([3.0])), [1.5, 1.5]
        )

    def test_limit_ignores_penalty(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        ref = boost_limit(X, y)
        for lam in (0.1, 1.0, 10.0):
            np.testing.assert_array_equal(boost_limit(X, y, lam, np.eye(3)), ref)

    def test_engine_approaches_min_norm_underdetermined(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(8, 14))  # n < p
        y = rng.normal(size=8)
        target = boost_limit(X, y)
        part = make_partition(X, single_block(14, 1.0))
        path = run_boost(
            part, l2(), y, BoostConfig(nu=0.5, max_iter=200, mode="joint")
        )
        dists = np.linalg.norm(path.betas - target[None, :], axis=1)
        # decreasing until it bottoms out at floating noise, tiny at the end
        above_noise = dists > 1e-12
        assert np.all(np.diff(dists[above_noise]) < 0)
        assert dists[-1] < 1e-6


class TestImplicitPenalty:
    def test_isotropic_single_step(self):
        # scalar oracle: gamma = (1-nu)^k / (1-(1-nu)^k) at sigma2=1
        X = np.eye(2)
        y = np.array([2.0, 4.0])
        ip = implicit_penalty(X, y, None, 0.0, 0.5, 1)
        np.testing.assert_allclose(ip.gamma, np.eye(2), rtol=1e-12)
        engine = linear_boost_path(X, y, 0.5, 1)
        np.testing.assert_allclose(ip.beta_check, engine, rtol=1e-12)

    def test_ridge_solve_reproduces_engine(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        P = np.eye(4)
        lam, nu = 1.5, 0.4
        part = make_partition(X, single_block(4, lam))
        path = run_boost(part, l2(), y, BoostConfig(nu=nu, max_iter=200, mode="joint"))
        for k in (1, 3, 10, 60, 200):
            ip = implicit_penalty(X, y, P, lam, nu, k)
            err = np.linalg.norm(ip.beta_check - path.betas[k]) / np.linalg.norm(
                path.betas[k]
            )
            assert err < 1e-8
            np.testing.assert_allclose(ip.gamma, ip.gamma.T, rtol=1e-9)

    def test_self_consistency_residual(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 5))
        y = rng.normal(size=40)
        part = make_partition(X, single_block(5))
        nu = 0.2
        path = run_boost(part, l2(), y, BoostConfig(nu=nu, max_iter=200, mode="joint"))
        xty = X.T @ y
        for k in (1, 5, 25, 120, 200):
            ip = implicit_penalty(X, y, None, 0.0, nu, k)
            resid = (X.T @ X + ip.gamma) @ path.betas[k] - xty
            assert np.linalg.norm(resid) / np.linalg.norm(xty) < 1e-8

    def test_gamma_vanishes_with_k(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        norms = []
        for k in (1, 5, 20, 80, 200):
            ip = implicit_penalty(X, y, None, 0.0, 0.3, k)
            norms.append(np.linalg.norm(ip.gamma, 2))
        assert all(a > b for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1e-25

    def test_gamma_entrywise_monotone_isotropic(self):
        X = 1.3 * np.eye(3)
        y = np.array([1.0, 2.0, 3.0])
        prev = None
        for k in range(1, 60):
            gamma = implicit_penalty(X, y, None, 0.0, 0.5, k).gamma
            if prev is not None:
                assert np.all(np.abs(gamma) <= np.abs(prev) + 1e-15)
            prev = gamma

    def test_huge_k_reports_conditioning(self):
        X = np.eye(2)
        ip = implicit_penalty(X, np.ones(2), None, 0.0, 0.9, 100000)
        assert ip.conditioning_warning
        np.testing.assert_array_equal(ip.gamma, np.zeros((2, 2)))

    def test_requires_full_rank_and_positive_k(self):
        with pytest.raises(np.linalg.LinAlgError):
            implicit_penalty(np.ones((4, 2)), np.ones(4), None, 0.0, 0.5, 3)
        with pytest.raises(ValueError):
            implicit_penalty(np.eye(2), np.ones(2), None, 0.0, 0.5, 0)


class TestRidgeEquivalent:
    def test_hand_value(self):
        assert ridge_equivalent_lambda(1.0, 0.5, 1) == pytest.approx(1.0, rel=1e-14)

    def test_decreasing_to_zero(self):
        for variant, lam in (("plain", None), ("ridge_boost", 2.0)):
            vals = [
                ridge_equivalent_lambda(2.0, 0.3, k, variant, lam)
                for k in (1, 2, 5, 20, 100, 1000)
            ]
            assert all(a > b for a, b in zip(vals, vals[1:]))
            assert vals[-1] < 1e-60

    def test_isotropic_path_coincides_with_ridge(self):
        rng = np.random.default_rng(13)
        X = isotropic_design(rng, 40, 3)
        y = rng.normal(size=40)
        sigma2 = 1.7**2
        for k in (1, 2, 10, 50, 300):
            lam_k = ridge_equivalent_lambda(sigma2, 0.25, k)
            ridge = ridge_solve(X, y, lam_k)
            boost = linear_boost_path(X, y, 0.25, k)
            assert np.linalg.norm(ridge - boost) / np.linalg.norm(boost) < 1e-10

    def test_ridge_boost_variant_coincides(self):
        rng = np.random.default_rng(14)
        X = isotropic_design(rng, 30, 4, scale=0.9)
        y = rng.normal(size=30)
        sigma2, lam, nu = 0.9**2, 2.0, 0.5
        for k in (1, 4, 25, 120):
            lam_k = ridge_equivalent_lambda(sigma2, nu, k, "ridge_boost", lam)
            ridge = ridge_solve(X, y, lam_k)
            boost = penalized_boost_path(X, y, np.eye(4), lam, nu, k)
            assert np.linalg.norm(ridge - boost) / np.linalg.norm(boost) < 1e-10

    def test_zero_iteration_rejected(self):
        with pytest.raises(ValueError, match="k=0"):
            ridge_equivalent_lambda(1.0, 0.5, 0)

    def test_anisotropic_paths_do_not_align(self):
        rng = np.random.default_rng(15)
        X = correlated_design(rng, 100, 0.7)
        y = X @ np.array([3.0, -2.0]) + rng.normal(size=100)
        part = make_partition(X, single_block(2))
        path = run_boost(
            part, l2(), y, BoostConfig(nu=0.1, max_iter=400, mode="joint")
        )
        grid = np.logspace(-6, 6, 200)
        ridge_path = np.array([ridge_solve(X, y, lam) for lam in grid])
        worst = 0.0
        for k in range(1, path.n_steps + 1):
            gaps = np.linalg.norm(ridge_path - path.betas[k][None, :], axis=1)
            worst = max(worst, gaps.min())
        assert worst > 1e-3


def test_path_points_grid():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    pts = path_points(X, y, 0.5, [0, 1, 4])
    assert pts.shape == (3, 3)
    np.testing.assert_allclose(pts[1], linear_boost_path(X, y, 0.5, 1), rtol=1e-12)
