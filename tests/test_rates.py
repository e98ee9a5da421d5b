import csv

import numpy as np
import pytest

from amboost.boost import BoostConfig, divergence_detector, run_boost
from amboost.design import BlockSpec, make_partition, single_block, singleton_blocks
from amboost.losses import binomial, l2, poisson
from amboost.rates import (
    check_bound,
    hessian_ub_check,
    lipschitz_constant,
    pl_constant,
    rate_general,
    rate_quadratic,
)
from amboost.tableio import write_csv


def equicorrelated_design(rng, n, p, rho):
    C = np.full((p, p), rho) + (1 - rho) * np.eye(p)
    return rng.normal(size=(n, p)) @ np.linalg.cholesky(C).T


class TestConstants:
    def test_explicit_spectra(self):
        assert pl_constant(np.diag([2.0, 0.0])) == 2.0
        assert pl_constant(np.eye(4)) == 1.0
        assert lipschitz_constant(np.diag([0.5, 3.0])) == 3.0

    def test_gram_matches_svd_oracle(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10, 20))  # rank deficient: n < p
        Q = X.T @ X
        sv = np.linalg.svd(X, compute_uv=False)
        expected = float(sv[sv > 1e-8].min() ** 2)
        assert pl_constant(Q) == pytest.approx(expected, rel=1e-9)
        assert lipschitz_constant(Q) == pytest.approx(float(sv.max() ** 2), rel=1e-9)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="positive eigenvalue"):
            pl_constant(np.zeros((3, 3)))

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError, match="PSD"):
            pl_constant(np.diag([1.0, -1.0]))


class TestRates:
    def test_identity_two_blocks(self):
        assert rate_quadratic(np.eye(3), 2, 1.0) == pytest.approx(0.5)

    def test_plugin_arithmetic(self):
        Q = np.diag([0.1, 1.0])
        assert rate_quadratic(Q, 5, 1.0) == pytest.approx(0.98)

    def test_general_plugin(self):
        assert rate_general(1.0, 1.0, 1, 1.0) == 0.0
        assert rate_general(1.0, 4.0, 2, 0.5) == pytest.approx(0.9375)

    def test_monotone_in_blocks_and_step(self):
        rng = np.random.default_rng(1)
        w = rng.uniform(0.1, 5.0, size=6)
        Q = np.diag(w)
        rates_b = [rate_quadratic(Q, nb, 0.7) for nb in (1, 2, 4, 8)]
        assert all(a < b for a, b in zip(rates_b, rates_b[1:]))
        rates_nu = [rate_quadratic(Q, 3, nu) for nu in (0.1, 0.4, 0.7, 1.0)]
        assert all(a >= b for a, b in zip(rates_nu, rates_nu[1:]))

    def test_monotone_in_condition_ratio(self):
        vals = [
            rate_quadratic(np.diag([r, 1.0]), 2, 1.0) for r in (0.05, 0.2, 0.5, 1.0)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_general_dominates_quadratic_rate(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            w = np.sort(rng.uniform(0.01, 4.0, size=5))
            Q = np.diag(w)
            for nu in (0.2, 0.6, 1.0):
                g_tilde = rate_general(w[0], w[-1], 3, nu)
                g = rate_quadratic(Q, 3, nu)
                assert g_tilde >= g - 1e-12

    def test_invalid_constants(self):
        with pytest.raises(ValueError):
            rate_general(0.0, 1.0, 1, 1.0)
        with pytest.raises(ValueError):
            rate_general(2.0, 1.0, 1, 1.0)
        with pytest.raises(ValueError):
            rate_quadratic(np.eye(2), 2, 0.0)


class TestCheckBound:
    def quadratic_run(self, seed=3, nu=1.0, n=40, p=6, rho=0.5, n_steps=150):
        rng = np.random.default_rng(seed)
        X = equicorrelated_design(rng, n, p, rho)
        y = rng.normal(size=n)
        part = make_partition(X, singleton_blocks(p))
        path = run_boost(part, l2(), y, BoostConfig(nu=nu, max_iter=n_steps))
        beta_star = np.linalg.lstsq(X, y, rcond=None)[0]
        loss_opt = 0.5 * float(np.sum((y - X @ beta_star) ** 2))
        gamma = rate_quadratic(X.T @ X, p, nu)
        return path, gamma, loss_opt

    def test_compliant_at_every_iteration(self):
        path, gamma, loss_opt = self.quadratic_run()
        report = check_bound(path, gamma, loss_opt)
        assert report.all_compliant
        assert report.first_violation() is None

    def test_gaps_below_initial(self):
        path, gamma, loss_opt = self.quadratic_run(seed=4, nu=0.5)
        report = check_bound(path, gamma, loss_opt)
        assert np.all(report.gaps <= report.gaps[0] + 1e-12)

    def test_misspecified_rate_detected(self):
        path, gamma, loss_opt = self.quadratic_run(seed=5, rho=0.9, p=10)
        report = check_bound(path, gamma / 2.0, loss_opt)
        assert not report.all_compliant
        assert report.first_violation() is not None

    def test_already_optimal_notice(self):
        path, gamma, loss_opt = self.quadratic_run(seed=6)
        report = check_bound(path, gamma, path.losses[0] + 1.0)
        assert report.note.startswith("already optimal")
        assert report.all_compliant

    def test_csv_export(self, tmp_path):
        path, gamma, loss_opt = self.quadratic_run(seed=7, n_steps=20)
        report = check_bound(path, gamma, loss_opt)
        out = tmp_path / "rates.csv"
        write_csv(out, *report.table())
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "gap", "bound", "compliant"]
        assert len(rows) == 22


class TestCurvatureBound:
    def glm_data(self, family, seed=8, n=100):
        rng = np.random.default_rng(seed)
        x1 = rng.normal(size=n)
        x2 = 0.5 * x1 + np.sqrt(1 - 0.25) * rng.normal(size=n)
        X = np.column_stack([x1, x2])
        f = X @ np.array([3.0, -2.0])
        if family == "binomial":
            y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-f))).astype(float)
            return X, y, binomial()
        y = rng.poisson(np.exp(np.clip(f, None, 15.0))).astype(float)
        return X, y, poisson()

    def test_binomial_never_violates(self):
        X, y, spec = self.glm_data("binomial")
        part = make_partition(X, singleton_blocks(2))
        for nu in (0.02, 0.5, 1.0):
            path = run_boost(part, spec, y, BoostConfig(nu=nu, max_iter=200))
            result = hessian_ub_check(spec, part, nu, path)
            assert result.ok

    def test_l2_never_violates(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        part = make_partition(X, singleton_blocks(3))
        path = run_boost(part, l2(), y, BoostConfig(nu=1.0, max_iter=50))
        assert hessian_ub_check(l2(), part, 1.0, path).ok

    def test_poisson_violation_before_divergence(self):
        X, y, spec = self.glm_data("poisson")
        part = make_partition(X, singleton_blocks(2))
        nu = 0.07
        cfg = BoostConfig(nu=nu, max_iter=1000, divergence_guard=True)
        path = run_boost(part, spec, y, cfg)
        result = hessian_ub_check(spec, part, nu, path)
        assert not result.ok
        assert divergence_detector(path, window=20) != "converging"
        # the curvature bound breaks strictly before the path ends
        assert result.first_violation[0] < path.n_steps

    def test_rank_deficient_block_warns(self):
        X = np.ones((10, 2))  # duplicated column: rank-1 block
        part = make_partition(X, single_block(2))
        y = np.ones(10)
        path = run_boost(part, l2(), y, BoostConfig(nu=1.0, max_iter=3, mode="joint"))
        with pytest.warns(UserWarning, match="rank deficient"):
            result = hessian_ub_check(l2(), part, 1.0, path)
        assert result.ok

    def test_rank_deficient_warning_names_block_position(self):
        X = np.ones((10, 3))
        X[:, 0] = np.arange(10.0)  # block 0 full rank, block 1 rank 1
        part = make_partition(X, [BlockSpec((0,)), BlockSpec((1, 2))])
        path = run_boost(part, l2(), np.ones(10), BoostConfig(nu=1.0, max_iter=3))
        with pytest.warns(UserWarning, match="^block 1 Gram matrix is rank deficient") as rec:
            hessian_ub_check(l2(), part, 1.0, path)
        assert rec[0].filename == __file__  # the warning points at the caller
