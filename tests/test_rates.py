import csv
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh
from test_losses import dense_cox

from amboost.boost import BoostConfig, divergence_detector, run_boost
from amboost.closedform import boost_limit
from amboost.design import BlockSpec, make_partition, single_block, singleton_blocks
from amboost.gbcd import GbcdConfig, gbcd_gsq
from amboost.losses import binomial, coxph, l2, loss_value, poisson
from amboost.rates import (
    _l2_certificate,
    check_bound,
    hessian_ub_check,
    lipschitz_constant,
    pl_constant,
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "constant",
        [pl_constant, lipschitz_constant, lambda Q: rate_quadratic(Q, 2, 0.5)],
        ids=["pl_constant", "lipschitz_constant", "rate_quadratic"],
    )
    def test_non_finite_entry_named(self, constant, bad):
        # an infinite entry used to give lipschitz_constant = nan
        Q = np.eye(3)
        Q[2, 1] = Q[1, 2] = bad
        with pytest.raises(ValueError, match=r"quadratic form entry \(1, 2\) is not finite"):
            constant(Q)


class TestRates:
    def test_identity_two_blocks(self):
        assert rate_quadratic(np.eye(3), 2, 1.0) == pytest.approx(0.5)

    def test_plugin_arithmetic(self):
        Q = np.diag([0.1, 1.0])
        assert rate_quadratic(Q, 5, 1.0) == pytest.approx(0.98)

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

    def test_invalid_constants(self):
        with pytest.raises(ValueError):
            rate_quadratic(np.eye(2), 2, 0.0)

    @pytest.mark.parametrize("nu", [0.0, 1.5, np.nan])
    def test_invalid_step_size_named(self, nu):
        msg = re.escape(f"step size nu must be in (0, 1], got {nu!r}")
        with pytest.raises(ValueError, match=msg):
            rate_quadratic(np.eye(2), 2, nu)


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

    @pytest.mark.parametrize(
        "gamma, loss_opt, match",
        [
            (1.0, 0.0, "gamma"),
            (1.5, 0.0, "gamma"),
            (-0.1, 0.0, "gamma"),
            (np.nan, 0.0, "gamma"),
            # rejected before the already-optimal early return
            (1.0, 1e300, "gamma"),
            (0.5, np.inf, "loss_opt"),
            (0.5, np.nan, "loss_opt"),
        ],
    )
    def test_rate_or_optimum_outside_its_range_rejected(self, gamma, loss_opt, match):
        # gamma 1.0 and 1.5 used to certify the path as compliant
        path, _, _ = self.quadratic_run(seed=6, n_steps=5)
        with pytest.raises(ValueError, match=match):
            check_bound(path, gamma, loss_opt)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 8),
        extra_rows=st.integers(1, 40),
        max_block=st.integers(1, 4),
        nu=st.floats(0.05, 1.0),
    )
    def test_greedy_iterates_meet_the_gap_bound_over_random_partitions(
        self, seed, p, extra_rows, max_block, nu
    ):
        rng = np.random.default_rng(seed)
        n = p + extra_rows
        X = rng.normal(size=(n, p))
        y = X @ rng.normal(size=p) + rng.normal(size=n)
        cols, specs = list(range(p)), []
        while cols:
            size = int(rng.integers(1, min(max_block, len(cols)) + 1))
            specs.append(BlockSpec(tuple(cols[:size])))
            cols = cols[size:]
        part = make_partition(X, specs)
        path = run_boost(part, l2(), y, BoostConfig(nu=nu, max_iter=60))
        beta_star = np.linalg.lstsq(X, y, rcond=None)[0]
        loss_opt = 0.5 * float(np.sum((y - X @ beta_star) ** 2))
        report = check_bound(path, rate_quadratic(X.T @ X, part.n_blocks, nu), loss_opt)
        assert report.all_compliant, f"violated at k={report.first_violation()}"

    def test_csv_export(self, tmp_path):
        path, gamma, loss_opt = self.quadratic_run(seed=7, n_steps=20)
        report = check_bound(path, gamma, loss_opt)
        out = tmp_path / "rates.csv"
        write_csv(out, *report.table())
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "gap", "bound", "compliant"]
        assert len(rows) == 22


class TestL2Certificate:
    """``rates._l2_certificate``, the one assembly of a squared-loss run's bound."""

    @staticmethod
    def run(seed, p, extra_rows, nu, shift, init):
        rng = np.random.default_rng(seed)
        n = p + extra_rows
        X = rng.normal(size=(n, p))
        y = shift + X @ rng.normal(size=p) + rng.normal(size=n)
        part = make_partition(X, singleton_blocks(p))
        path = run_boost(part, l2(), y, BoostConfig(nu=nu, max_iter=60, init=init))
        return X, y, part, path

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 6),
        extra_rows=st.integers(1, 30),
        nu=st.floats(0.05, 1.0),
        shift=st.floats(-50.0, 50.0),
    )
    def test_offset_runs_meet_the_bound(self, seed, p, extra_rows, nu, shift):
        # the gaps used to be measured from the no-offset least-squares
        # loss, which an offset run never reaches
        _, y, part, path = self.run(seed, p, extra_rows, nu, shift, "offset")
        assert path.offset == np.mean(y)
        report = _l2_certificate(part, y, path)
        assert report.all_compliant, f"violated at k={report.first_violation()}"

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 6),
        extra_rows=st.integers(1, 30),
        nu=st.floats(0.05, 1.0),
        shift=st.floats(-50.0, 50.0),
    )
    def test_zero_start_matches_the_plain_least_squares_bound(
        self, seed, p, extra_rows, nu, shift
    ):
        X, y, part, path = self.run(seed, p, extra_rows, nu, shift, "zero")
        report = _l2_certificate(part, y, path)
        loss_opt = loss_value(l2(), y, X @ boost_limit(X, y))
        plain = check_bound(path, rate_quadratic(X.T @ X, p, nu), loss_opt)
        assert report.gamma == plain.gamma
        np.testing.assert_array_equal(report.gaps, plain.gaps)
        np.testing.assert_array_equal(report.bounds, plain.bounds)

    @pytest.mark.parametrize("lam, P", [(1000.0, None), (0.5, np.array([[2.0]]))])
    def test_penalized_block_rejected_by_name(self, lam, P):
        X, y, _, _ = self.run(0, 3, 10, 0.5, 0.0, "zero")
        part = make_partition(X, [BlockSpec((0, 1)), BlockSpec((2,), lam, P)])
        path = run_boost(part, l2(), y, BoostConfig(nu=0.5, max_iter=5))
        msg = f"^the gap bound covers unpenalized learners; block 1 has penalty weight {lam:g}$"
        with pytest.raises(ValueError, match=msg):
            _l2_certificate(part, y, path)

    def test_zero_weight_is_no_penalty(self):
        X, y, _, _ = self.run(1, 3, 10, 0.5, 0.0, "zero")
        part = make_partition(X, [BlockSpec((0,), 0.0, np.eye(1)), BlockSpec((1, 2))])
        path = run_boost(part, l2(), y, BoostConfig(nu=0.5, max_iter=40))
        assert _l2_certificate(part, y, path).all_compliant


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
            result = hessian_ub_check(spec, part, path)
            assert result.ok

    def test_l2_never_violates(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        part = make_partition(X, singleton_blocks(3))
        path = run_boost(part, l2(), y, BoostConfig(nu=1.0, max_iter=50))
        assert hessian_ub_check(l2(), part, path).ok

    def test_poisson_violation_before_divergence(self):
        X, y, spec = self.glm_data("poisson")
        part = make_partition(X, singleton_blocks(2))
        nu = 0.07
        cfg = BoostConfig(nu=nu, max_iter=1000, divergence_guard=True)
        path = run_boost(part, spec, y, cfg)
        result = hessian_ub_check(spec, part, path)
        assert not result.ok
        assert divergence_detector(path, window=20) != "converging"
        # the curvature bound breaks strictly before the path ends
        assert result.first_violation[0] < path.n_steps

    def test_coxph_ratios_match_the_dense_hessian(self):
        # tied, censored times; each ratio is the largest generalized
        # eigenvalue of X_b' H X_b against X_b' X_b, with H built densely
        rng = np.random.default_rng(10)
        n = 60
        X = rng.normal(size=(n, 3))
        times = np.ceil(4.0 * rng.exponential(size=n))
        events = (rng.uniform(size=n) < 0.6).astype(float)
        spec = coxph(times, events)
        part = make_partition(X, [BlockSpec((0, 2)), BlockSpec((1,))])
        nu = 0.5
        path = run_boost(part, spec, events, BoostConfig(nu=nu, max_iter=30))
        result = hessian_ub_check(spec, part, path)
        assert result.ok and result.ratios.shape == (len(path.betas), 2)
        for k, beta in enumerate(path.betas):
            H = dense_cox(spec, path.offset + X @ beta)[2]
            for b, block in enumerate(part.blocks):
                C = block.X.T @ H @ block.X
                dense = eigh(C, block.X.T @ block.X, eigvals_only=True)[-1]
                assert abs(result.ratios[k, b] - dense) <= 1e-10 * dense

    def test_rank_deficient_block_warns(self):
        X = np.ones((10, 2))  # duplicated column: rank-1 block
        part = make_partition(X, single_block(2))
        y = np.ones(10)
        path = run_boost(part, l2(), y, BoostConfig(nu=1.0, max_iter=3, mode="joint"))
        with pytest.warns(UserWarning, match="rank deficient"):
            result = hessian_ub_check(l2(), part, path)
        assert result.ok

    def test_thinned_path_rejected(self):
        # row k of a thinned path's betas is not iterate k
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 3))
        part = make_partition(X, singleton_blocks(3))
        cfg = BoostConfig(nu=1.0, max_iter=10)
        path = run_boost(part, l2(), rng.normal(size=30), cfg, betas_at=[0, 5])
        with pytest.raises(ValueError, match="needs the coefficients of every iterate"):
            hessian_ub_check(l2(), part, path)

    def test_rank_deficient_warning_names_block_position(self):
        X = np.ones((10, 3))
        X[:, 0] = np.arange(10.0)  # block 0 full rank, block 1 rank 1
        part = make_partition(X, [BlockSpec((0,)), BlockSpec((1, 2))])
        path = run_boost(part, l2(), np.ones(10), BoostConfig(nu=1.0, max_iter=3))
        with pytest.warns(UserWarning, match="^block 1 Gram matrix is rank deficient") as rec:
            hessian_ub_check(l2(), part, path)
        assert rec[0].filename == __file__  # the warning points at the caller


class TestRecordedConfig:
    """The certificate and the curvature check read the step size and mode from the path."""

    @pytest.mark.parametrize("nu", [0.1, 1.0])
    @pytest.mark.parametrize("mode, init", [("greedy", "zero"), ("greedy", "offset"),
                                            ("joint", "offset")])
    def test_certificate_holds_a_run_to_its_own_step(self, mode, init, nu):
        # the bound the certificate took with the run's config beside the path
        rng = np.random.default_rng(12)
        X = rng.normal(size=(40, 4))
        y = 3.0 + X @ rng.normal(size=4) + rng.normal(size=40)
        part = make_partition(X, singleton_blocks(4))
        path = run_boost(part, l2(), y, BoostConfig(nu=nu, max_iter=80, mode=mode, init=init))
        fit = path.offset + X @ boost_limit(X, y - path.offset)
        plain = check_bound(path, rate_quadratic(X.T @ X, 4, nu), loss_value(l2(), y, fit))
        report = _l2_certificate(part, y, path)
        assert report.gamma == plain.gamma
        np.testing.assert_array_equal(report.gaps, plain.gaps)
        np.testing.assert_array_equal(report.bounds, plain.bounds)

    @pytest.mark.parametrize("family, nu", [("binomial", 1.0), ("poisson", 0.07)])
    def test_curvature_check_compares_against_the_recorded_step(self, family, nu):
        # the ratios do not depend on the step: a copy of the path that
        # records a tiny one gives every iterate's, and the run's own check
        # stops at the first that exceeds 1/nu
        X, y, spec = TestCurvatureBound().glm_data(family)
        part = make_partition(X, singleton_blocks(2))
        cfg = BoostConfig(nu=nu, max_iter=300, divergence_guard=True)
        path = run_boost(part, spec, y, cfg)
        tiny = dataclasses.replace(path, config=dataclasses.replace(cfg, nu=1e-6))
        full = hessian_ub_check(spec, part, tiny)
        assert full.ok and full.ratios.shape == (len(path.betas), 2)
        over = np.argwhere(full.ratios > (1.0 + 1e-9) / nu)
        result = hessian_ub_check(spec, part, path)
        assert result.ok == (over.size == 0) == (family == "binomial")
        rows = over[0][0] + 1 if over.size else len(path.betas)
        assert result.ratios.tobytes() == full.ratios[:rows].tobytes()
        assert result.first_violation == (tuple(int(i) for i in over[0]) if over.size else None)

    def test_descent_and_cyclic_paths_are_not_certified(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        part = make_partition(X, singleton_blocks(2))
        descent = gbcd_gsq(part, l2(), y, GbcdConfig(max_iter=5))
        with pytest.raises(ValueError, match="^the gap bound certifies boosting runs; "
                                             "this path's config is not a BoostConfig$"):
            _l2_certificate(part, y, descent)
        cyclic = run_boost(part, l2(), y, BoostConfig(nu=0.5, max_iter=5, mode="cyclic"))
        with pytest.raises(ValueError, match="cyclic runs are not certified$"):
            _l2_certificate(part, y, cyclic)
