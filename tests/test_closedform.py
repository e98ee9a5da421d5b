import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amboost.boost import BoostConfig, _BlockSolver, fit_block, run_boost
from amboost.closedform import (
    boost_limit,
    implicit_penalty,
    linear_boost_path,
    path_points,
    penalized_boost_path,
    ridge_equivalent_lambda,
    ridge_solve,
)
from amboost.design import DesignBlock, difference_penalty, make_partition, single_block
from amboost.gbcd import _scaling_solvers
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

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 6), st.integers(2, 30), st.integers(0, 2**32 - 1),
           st.floats(0.05, 1.0), st.integers(1, 100), st.booleans())
    def test_ridge_solve_reproduces_engine_over_random_problems(
        self, p, extra_rows, seed, nu, k, penalized
    ):
        # Both sides are one linear map of y, formed two ways: the engine
        # takes k steps through a factor of X'X + lam P, the oracle one
        # eigendecomposition of the pencil and one solve with X'X + gamma.
        # Each loses a few eps times the condition number of X'X. Over 300
        # seeded draws of this kind the largest gap was 1.2e-13 of the
        # largest coefficient; 1e-10 leaves three orders of magnitude for
        # worse-conditioned draws.
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(p + extra_rows, p)) * 10.0 ** rng.uniform(-1, 1, size=p)
        y = X @ rng.normal(size=p) + rng.normal(size=p + extra_rows)
        B = rng.normal(size=(int(rng.integers(1, p + 1)), p))  # P may be singular
        lam = float(10.0 ** rng.uniform(-2, 2)) if penalized else 0.0
        part = make_partition(X, single_block(p, lam, B.T @ B))
        path = run_boost(part, l2(), y, BoostConfig(nu=nu, max_iter=k, mode="joint"))
        ip = implicit_penalty(X, y, B.T @ B, lam, nu, k)
        scale = np.max(np.abs(path.betas[k]))
        assert np.max(np.abs(ip.beta_check - path.betas[k])) <= 1e-10 * scale

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
        for lam in (0.0, 2.0):
            vals = [
                ridge_equivalent_lambda(2.0, 0.3, k, lam)
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
            lam_k = ridge_equivalent_lambda(sigma2, nu, k, lam)
            ridge = ridge_solve(X, y, lam_k)
            boost = penalized_boost_path(X, y, np.eye(4), lam, nu, k)
            assert np.linalg.norm(ridge - boost) / np.linalg.norm(boost) < 1e-10

    def test_zero_iteration_rejected(self):
        with pytest.raises(ValueError, match="k=0"):
            ridge_equivalent_lambda(1.0, 0.5, 0)

    @pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
    def test_penalty_weight_must_be_finite_and_nonnegative(self, lam):
        with pytest.raises(ValueError, match="penalty weight"):
            ridge_equivalent_lambda(1.0, 0.5, 3, lam)

    @pytest.mark.parametrize("sigma2", [0.0, -1.0, np.nan, np.inf])
    def test_isotropy_parameter_must_be_positive_and_finite(self, sigma2):
        # NaN used to return NaN
        with pytest.raises(ValueError, match="isotropy parameter"):
            ridge_equivalent_lambda(sigma2, 0.5, 3)

    @pytest.mark.parametrize("nu", [0.1, 0.25, 0.5, 0.9])
    def test_unpenalized_is_the_plain_formula_bit_for_bit(self, nu):
        # path_matching's grid: sigma2 = 1.3^2, nu = 0.1, k = 1..500; at
        # nu = 0.9 the denominator overflows and the penalty is zero
        s = 1.3**2
        for k in range(1, 501):
            with np.errstate(over="ignore"):
                expected = float(s / np.expm1(-k * np.log(1 - nu)))
            assert ridge_equivalent_lambda(s, nu, k) == expected
            assert ridge_equivalent_lambda(s, nu, k, 0.0) == expected

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


class TestPathPoints:
    @pytest.mark.parametrize("lam, nu", [(0.0, 0.5), (2.0, 0.3), (1.0, 1.0)])
    def test_rows_equal_single_iterates_bitwise(self, lam, nu):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(25, 4))
        y = rng.normal(size=25)
        P = difference_penalty(4, 2)
        ks = range(0, 60)
        pts = path_points(X, y, nu, ks, lam, P)
        for k in ks:
            np.testing.assert_array_equal(pts[k], penalized_boost_path(X, y, P, lam, nu, k))

    def test_zero_iterations_skip_the_singular_pencil(self):
        X = np.ones((5, 2))  # rank 1, and lam = 0 leaves the system singular
        y = np.arange(5.0)
        np.testing.assert_array_equal(path_points(X, y, 0.5, [0, 0]), np.zeros((2, 2)))
        np.testing.assert_array_equal(penalized_boost_path(X, y, None, 0.0, 0.5, 0), np.zeros(2))
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            path_points(X, y, 0.5, [0, 1])

    def test_factors_once_per_call(self, monkeypatch):
        # the pencil needs two eigendecompositions; they used to be redone
        # for every k
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        rng = np.random.default_rng(18)
        X = rng.normal(size=(30, 5))
        pts = path_points(X, rng.normal(size=30), 0.5, range(1, 51), 1.0, np.eye(5))
        assert pts.shape == (50, 5)
        assert len(calls) == 2


class TestOnePenaltyReading:
    """A weight with no matrix is the ridge learner to the oracles, the engine and a block."""

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 5), st.integers(2, 20), st.integers(0, 2**32 - 1),
           st.floats(0.05, 1.0), st.floats(0.01, 20.0),
           st.lists(st.integers(0, 40), min_size=1, max_size=4))
    def test_no_matrix_is_the_identity(self, p, extra_rows, seed, nu, lam, ks):
        # the oracles used to read (lam, None) as no penalty, the engine as ridge
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(p + extra_rows, p))
        y = X @ rng.normal(size=p) + rng.normal(size=p + extra_rows)
        eye = np.eye(p)
        points = path_points(X, y, nu, ks, lam)
        np.testing.assert_array_equal(points, path_points(X, y, nu, ks, lam, eye))
        k = max(max(ks), 1)
        np.testing.assert_array_equal(penalized_boost_path(X, y, None, lam, nu, k),
                                      penalized_boost_path(X, y, eye, lam, nu, k))
        ip = implicit_penalty(X, y, None, lam, nu, k)
        ip_eye = implicit_penalty(X, y, eye, lam, nu, k)
        np.testing.assert_array_equal(ip.gamma, ip_eye.gamma)
        np.testing.assert_array_equal(ip.beta_check, ip_eye.beta_check)
        part = make_partition(X, single_block(p, lam))
        path = run_boost(part, l2(), y, BoostConfig(nu=nu, max_iter=k, mode="joint"))
        for j, closed in zip(ks, points):
            assert np.linalg.norm(path.betas[j] - closed) <= 1e-10 * np.linalg.norm(closed)
        for weight, P in ((lam, eye), (0.0, np.zeros((p, p)))):
            block = DesignBlock(X, None, weight)
            np.testing.assert_array_equal(block.P, P)
            np.testing.assert_array_equal(block.P, DesignBlock(X, P, weight).P)
            assert block.lam == weight


def conditioned_design(n, p, log_cond, seed=0):
    """An n x p design with singular values from 1 down to ``10**-log_cond``.

    ``log_cond=None`` gives an exactly rank-deficient design instead: a
    Gaussian one whose last column repeats its first.
    """
    rng = np.random.default_rng(seed)
    if log_cond is None:
        X = rng.normal(size=(n, p))
        X[:, -1] = X[:, 0]
        return X
    U, _ = np.linalg.qr(rng.normal(size=(n, p)))
    V, _ = np.linalg.qr(rng.normal(size=(p, p)))
    return (U * np.logspace(0, -log_cond, p)) @ V.T


ADMISSIBILITY_GRID = [
    (n, p, log_cond)
    for n in (5, 100)
    for p in (2, 4)
    for log_cond in (*range(2, 13), None)
]


class TestAdmissibility:
    """The unpenalized oracles admit the same designs; the engines keep theirs.

    The oracles solve in Gram space and reject a design whose condition
    number reaches ``1 / sqrt(max(n, p) eps)``, about 3.0e7 at n=5 and
    6.7e6 at n=100. The engines work on the design itself and keep every
    singular value above ``max(n, p) eps s_max``, the rank
    ``np.linalg.matrix_rank`` reports, so every grid design with a finite
    condition number up to 1e12 is full rank to them.
    """

    ORACLES = {
        "linear_boost_path": lambda X, y: linear_boost_path(X, y, 0.5, 3),
        "path_points": lambda X, y: path_points(X, y, 0.5, (3,)),
        "penalized_boost_path": lambda X, y: penalized_boost_path(X, y, None, 0.0, 0.5, 3),
        "implicit_penalty": lambda X, y: implicit_penalty(X, y, None, 0.0, 0.5, 3),
    }

    @staticmethod
    def outcome(oracle, X, y):
        try:
            oracle(X, y)
        except np.linalg.LinAlgError as exc:
            return str(exc)
        return "admitted"

    @pytest.mark.parametrize("n, p, log_cond", ADMISSIBILITY_GRID)
    def test_unpenalized_oracles_agree(self, n, p, log_cond):
        # path_points used to return an iterate 1.5e-2 off at n=100,
        # cond(X)=1e7, where linear_boost_path raises, and to call an
        # exactly rank-deficient design a singular penalized system
        X = conditioned_design(n, p, log_cond)
        y = np.random.default_rng(1).normal(size=n)
        admitted = log_cond is not None and 10.0**log_cond < 1.0 / np.sqrt(
            max(n, p) * np.finfo(float).eps
        )
        expected = "admitted" if admitted else (
            "design matrix is rank deficient; use the penalized path or the "
            "min-norm limit instead"
        )
        outcomes = {name: self.outcome(oracle, X, y) for name, oracle in self.ORACLES.items()}
        assert outcomes == dict.fromkeys(self.ORACLES, expected)

    @pytest.mark.parametrize("n, p, log_cond", ADMISSIBILITY_GRID)
    def test_engines_keep_the_design_space_rank(self, n, p, log_cond):
        X = conditioned_design(n, p, log_cond)
        y = np.random.default_rng(1).normal(size=n)
        rank = p if log_cond is not None else p - 1
        assert np.linalg.matrix_rank(X) == rank
        assert _BlockSolver(X).rank == rank
        # a direction kept or dropped against lstsq's rank moves the
        # min-norm solution by far more than its rounding, cond(X) eps
        beta, _ = fit_block(DesignBlock(X, np.zeros((p, p))), y)
        reference = np.linalg.lstsq(X, y, rcond=None)[0]
        assert np.linalg.norm(beta - reference) <= 1e-2 * np.linalg.norm(reference)
        part = make_partition(X, single_block(p))
        if rank == p:
            assert len(_scaling_solvers(part)) == 1
        else:
            with pytest.raises(np.linalg.LinAlgError, match="^block 0 scaling matrix"):
                _scaling_solvers(part)

    @pytest.mark.parametrize("log_cond", [2, 4, 6, np.log10(6e6), 7])
    def test_accuracy_against_least_squares(self, log_cond):
        # the documented error scales, with margins of 3 to 5 over the
        # worst of 100 designs: cond(X)^2 eps for the Gram-space oracle up
        # to its rejection point, cond(X) eps for the joint engine beyond it
        eps = np.finfo(float).eps
        cond = 10.0**log_cond
        for seed in range(10):
            X = conditioned_design(100, 2, log_cond, seed)
            y = np.random.default_rng(seed).normal(size=100)
            target = (1.0 - 0.5**3) * np.linalg.lstsq(X, y, rcond=None)[0]
            path = run_boost(make_partition(X, single_block(2)), l2(), y,
                             BoostConfig(nu=0.5, max_iter=3, mode="joint"))
            assert np.linalg.norm(path.betas[3] - target) <= 1e3 * cond * eps * np.linalg.norm(target)
            if cond < 6.7e6:
                beta = linear_boost_path(X, y, 0.5, 3)
                assert np.linalg.norm(beta - target) <= 10 * cond**2 * eps * np.linalg.norm(target)

    def test_singular_penalized_system_keeps_its_message(self):
        X = np.zeros((4, 2))
        with pytest.raises(np.linalg.LinAlgError, match="^singular penalized system matrix$"):
            path_points(X, np.zeros(4), 0.5, (3,), 1.0, np.diag([1.0, 0.0]))

    def test_penalized_system_held_to_the_n_scaled_cutoff(self):
        # X^T X + lam P = diag(1, 1e-14 + 1e-18): a condition number of
        # about 1e14, past n eps = 2.2e-14 at n=100 though within the
        # p eps = 4.4e-16 the penalized pencil used to allow
        X = np.zeros((100, 2))
        X[0, 0], X[1, 1] = 1.0, 1e-9
        P = np.diag([0.0, 1.0])
        with pytest.raises(np.linalg.LinAlgError, match="^singular penalized system matrix$"):
            path_points(X, np.ones(100), 0.5, (3,), 1e-14, P)
        assert np.isfinite(path_points(X, np.ones(100), 0.5, (3,), 1e-12, P)).all()


class TestBoundary:
    ORACLES = {
        "linear_boost_path": lambda X, y: linear_boost_path(X, y, 0.5, 3),
        "penalized_boost_path": lambda X, y: penalized_boost_path(
            X, y, np.eye(2), 1.0, 0.5, 3
        ),
        "implicit_penalty": lambda X, y: implicit_penalty(X, y, None, 0.0, 0.5, 3),
        "ridge_solve": lambda X, y: ridge_solve(X, y, 1.0),
        "boost_limit": lambda X, y: boost_limit(X, y),
    }

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("oracle", ORACLES)
    def test_non_finite_design_entry_named(self, oracle, bad):
        # a NaN used to fail inside LAPACK ("did not converge")
        X = np.eye(4)[:, :2] + 1.0
        X[3, 1] = bad
        with pytest.raises(ValueError, match=r"design matrix entry \(3, 1\) is not finite"):
            self.ORACLES[oracle](X, np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("oracle", ORACLES)
    def test_non_finite_outcome_named(self, oracle, bad):
        # an infinite outcome used to give NaN coefficients silently
        y = np.ones(4)
        y[2] = bad
        with pytest.raises(ValueError, match="non-finite value at index 2"):
            self.ORACLES[oracle](np.eye(4)[:, :2] + 1.0, y)

    @pytest.mark.parametrize("oracle", ORACLES)
    def test_outcome_length_checked(self, oracle):
        with pytest.raises(ValueError, match=r"outcome has shape \(3,\), expected \(4,\)"):
            self.ORACLES[oracle](np.eye(4)[:, :2] + 1.0, np.ones(3))

    @pytest.mark.parametrize(
        "P, lam, msg",
        [
            ([[1.0, np.inf], [np.inf, 1.0]], 1.0, r"penalty matrix entry \(0, 1\) is not finite"),
            ([[1.0, np.nan], [np.nan, 1.0]], 1.0, r"penalty matrix entry \(0, 1\) is not finite"),
            ([[1.0, 0.5], [0.0, 1.0]], 1.0, "penalty matrix is not symmetric"),
            (-np.eye(2), 0.1, "penalty matrix is not PSD"),
            (np.eye(3), 1.0, r"penalty has shape \(3, 3\), expected \(2, 2\)"),
            (np.eye(2), np.nan, "penalty weight nan is not finite and nonnegative"),
            (np.eye(2), np.inf, "penalty weight inf is not finite and nonnegative"),
            (np.eye(2), -1.0, "penalty weight -1.0 is not finite and nonnegative"),
        ],
        ids=["inf", "nan", "asymmetric", "not_psd", "shape", "lam_nan", "lam_inf", "lam_neg"],
    )
    @pytest.mark.parametrize("oracle", [penalized_boost_path, implicit_penalty])
    def test_penalty_checked(self, oracle, P, lam, msg):
        # all used to return NaN or a silently wrong iterate
        with pytest.raises(ValueError, match=msg):
            oracle(np.eye(4)[:, :2] + 1.0, np.ones(4), np.asarray(P), lam, 0.5, 3)

    @pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
    def test_ridge_solve_penalty_weight_checked(self, lam):
        # NaN used to return NaN coefficients, and -1.0 raised LinAlgError,
        # which reads as a numeric failure rather than an input error
        with pytest.raises(ValueError, match=f"penalty weight {lam!r} is not finite"):
            ridge_solve(np.eye(4)[:, :2] + 1.0, np.ones(4), lam)

    @pytest.mark.parametrize("nu", [0.0, 1.5, np.nan])
    def test_invalid_step_size_named(self, nu):
        msg = re.escape(f"step size nu must be in (0, 1], got {nu!r}")
        X, y = np.eye(4)[:, :2] + 1.0, np.ones(4)
        with pytest.raises(ValueError, match=msg):
            linear_boost_path(X, y, nu, 3)
        with pytest.raises(ValueError, match=msg):
            penalized_boost_path(X, y, np.eye(2), 1.0, nu, 3)
        with pytest.raises(ValueError, match=msg):
            implicit_penalty(X, y, None, 0.0, nu, 3)
        with pytest.raises(ValueError, match=msg):
            ridge_equivalent_lambda(1.0, nu, 3)
