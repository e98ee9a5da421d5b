import csv
import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amboost import boost, distreg, gbcd
from amboost.boost import (
    BoostConfig,
    _BlockSolver,
    _PathRecorder,
    divergence_detector,
    fit_block,
    run_boost,
    select_block,
    smoother_boost,
)
from amboost.closedform import path_points
from amboost.design import (
    BlockSpec,
    DesignBlock,
    SplineSpec,
    bspline_basis,
    difference_penalty,
    make_partition,
    pspline_block_spec,
    single_block,
    singleton_blocks,
)
from amboost.distreg import cyclic_boost_ls
from amboost.errors import NumericError
from amboost.gbcd import GbcdConfig, gbcd_gsq
from amboost.losses import (
    binomial,
    coxph,
    l2,
    loss_value,
    neg_functional_gradient,
    poisson,
)
from amboost.tableio import write_csv


def identity_block(lam=0.0, P=None):
    P = np.zeros((2, 2)) if P is None else P
    return DesignBlock(np.eye(2), P, lam)


class TestFitBlock:
    def test_identity_design(self):
        beta, sse = fit_block(identity_block(), np.array([2.0, 4.0]))
        np.testing.assert_allclose(beta, [2.0, 4.0])
        assert sse == pytest.approx(0.0, abs=1e-24)

    def test_ridge_identity(self):
        # hand oracle: (I + I) beta = y
        block = identity_block(lam=1.0, P=np.eye(2))
        beta, _ = fit_block(block, np.array([2.0, 4.0]))
        np.testing.assert_allclose(beta, [1.0, 2.0], rtol=1e-14)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(20, 4))
        yt = rng.normal(size=20)
        beta, sse = fit_block(DesignBlock(X, np.zeros((4, 4))), yt)
        oracle = np.linalg.solve(X.T @ X, X.T @ yt)
        np.testing.assert_allclose(beta, oracle, rtol=1e-10)
        assert sse == pytest.approx(float(np.sum((yt - X @ oracle) ** 2)))

    def test_min_norm_when_rank_deficient(self):
        X = np.array([[1.0, 1.0]])
        beta, _ = fit_block(DesignBlock(X, np.zeros((2, 2))), np.array([3.0]))
        np.testing.assert_allclose(beta, [1.5, 1.5], rtol=1e-12)

    def test_singular_penalized_system(self):
        X = np.zeros((3, 2))
        P_sing = np.diag([1.0, 0.0])
        block = DesignBlock(X, P_sing, lam=0.5)
        with pytest.raises(np.linalg.LinAlgError):
            fit_block(block, np.zeros(3))


class TestBlockPenalty:
    """A block is its columns, penalty weight and penalty matrix."""

    def setup_data(self):
        rng = np.random.default_rng(4)
        return rng.normal(size=(25, 5)), rng.normal(size=25)

    def test_missing_penalty_is_identity_when_penalized(self):
        X, y = self.setup_data()
        cfg = BoostConfig(nu=0.3, max_iter=12)
        default = make_partition(X, [BlockSpec((0, 1, 2), 2.5), BlockSpec((3, 4))])
        explicit = make_partition(
            X, [BlockSpec((0, 1, 2), 2.5, np.eye(3)), BlockSpec((3, 4))]
        )
        np.testing.assert_array_equal(default.blocks[0].P, np.eye(3))
        np.testing.assert_array_equal(default.blocks[1].P, np.zeros((2, 2)))
        a = run_boost(default, l2(), y, cfg)
        b = run_boost(explicit, l2(), y, cfg)
        np.testing.assert_array_equal(a.betas, b.betas)
        np.testing.assert_array_equal(a.selected, b.selected)

    def test_zero_weight_ignores_the_penalty(self):
        X, y = self.setup_data()
        cfg = BoostConfig(nu=0.3, max_iter=12)
        P = np.diag([1.0, 2.0, 3.0])
        weighted_zero = make_partition(X, [BlockSpec((0, 1, 2), 0.0, P), BlockSpec((3, 4))])
        plain = make_partition(X, [BlockSpec((0, 1, 2)), BlockSpec((3, 4))])
        a = run_boost(weighted_zero, l2(), y, cfg)
        b = run_boost(plain, l2(), y, cfg)
        np.testing.assert_array_equal(a.betas, b.betas)
        np.testing.assert_array_equal(a.selected, b.selected)
        beta, _ = fit_block(weighted_zero.blocks[0], y)
        np.testing.assert_array_equal(beta, fit_block(plain.blocks[0], y)[0])


class TestBoostConfig:
    @pytest.mark.parametrize(
        "bad",
        [dict(nu=0.0), dict(nu=1.5), dict(nu=float("nan")), dict(nu=float("inf")),
         dict(max_iter=0), dict(max_iter=2.5), dict(max_iter=2.0), dict(max_iter=True),
         dict(stop_tol=-1.0), dict(stop_tol=float("nan")), dict(stop_tol=float("inf"))],
    )
    def test_rejected_values_name_the_field(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            BoostConfig(**bad)

    def test_numpy_integer_run_length(self):
        part = make_partition(np.eye(3), singleton_blocks(3))
        cfg = BoostConfig(max_iter=np.int64(3))
        assert run_boost(part, l2(), np.ones(3), cfg).n_steps == 3


class TestBlockSolver:
    """The engine's direct LAPACK solve against ``scipy.linalg.cho_solve``."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 8),
        extra_rows=st.integers(0, 20),
        lam=st.floats(1e-3, 1e3),
    )
    def test_penalized_solve_matches_cho_solve_bitwise(self, seed, p, extra_rows, lam):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(p + extra_rows, p))
        M = rng.normal(size=(p, p))
        solver = _BlockSolver(X, M @ M.T, lam)
        assert solver.penalized
        g = rng.normal(size=p) * 10.0 ** rng.integers(-3, 4)
        ref = scipy.linalg.cho_solve((solver._chol, solver._lower), g)
        x = solver.solve_gram(g)
        np.testing.assert_array_equal(x, ref)
        # and it solves the system (backward-stable residual scale)
        A = X.T @ X + lam * (M @ M.T)
        assert np.abs(A @ x - g).max() <= 1e-10 * np.abs(A).max() * np.abs(x).max()
        for bad in (np.nan, np.inf, -np.inf):
            g_bad = g.copy()
            g_bad[rng.integers(p)] = bad
            with pytest.raises(ValueError, match="must not contain infs or NaNs"):
                scipy.linalg.cho_solve((solver._chol, solver._lower), g_bad)
            with pytest.raises(ValueError, match="must not contain infs or NaNs"):
                solver.solve_gram(g_bad)


class TestSelectBlock:
    def test_exact_fit_wins(self):
        X = np.eye(4)[:, :2]
        X2 = np.eye(4)[:, 2:]
        part = make_partition(np.hstack([X, X2]), [BlockSpec((0, 1)), BlockSpec((2, 3))])
        yt = np.array([0.0, 0.0, 1.0, 2.0])
        assert select_block(part, yt) == 1

    def test_tie_breaks_to_lowest_id(self):
        col = np.array([[1.0], [2.0], [3.0]])
        part = make_partition(np.hstack([col, col]), [BlockSpec((0,)), BlockSpec((1,))])
        assert select_block(part, np.array([1.0, 1.0, 1.0])) == 0

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            X = rng.normal(size=(15, 6))
            part = make_partition(X, [BlockSpec((0, 1)), BlockSpec((2, 3, 4)), BlockSpec((5,))])
            yt = rng.normal(size=15)
            sses = []
            for cols in [(0, 1), (2, 3, 4), (5,)]:
                Xb = X[:, cols]
                bb = np.linalg.lstsq(Xb, yt, rcond=None)[0]
                sses.append(np.sum((yt - Xb @ bb) ** 2))
            assert select_block(part, yt) == int(np.argmin(sses))


class TestRunBoost:
    def test_two_joint_steps_identity(self):
        # iterate the shrinkage recursion by hand: delta = 1 - 0.5^2
        part = make_partition(np.eye(2), single_block(2))
        cfg = BoostConfig(nu=0.5, max_iter=2, mode="joint")
        path = run_boost(part, l2(), np.array([2.0, 4.0]), cfg)
        np.testing.assert_allclose(path.final, [1.5, 3.0], rtol=1e-14)

    def test_full_step_reaches_ols_in_one(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        part = make_partition(X, single_block(3))
        path = run_boost(part, l2(), y, BoostConfig(nu=1.0, max_iter=1, mode="joint"))
        ols = np.linalg.lstsq(X, y, rcond=None)[0]
        np.testing.assert_allclose(path.final, ols, rtol=1e-10)

    def test_greedy_selects_spanning_block(self):
        X = np.hstack([np.eye(4)[:, :2], np.eye(4)[:, 2:]])
        part = make_partition(X, [BlockSpec((0, 1)), BlockSpec((2, 3))])
        y = np.array([5.0, -1.0, 0.0, 0.0])
        path = run_boost(part, l2(), y, BoostConfig(nu=0.5, max_iter=3, mode="greedy"))
        assert path.selected[0] == 0

    def test_greedy_tie_breaks_to_lowest_id(self):
        col = np.array([[1.0], [2.0], [3.0]])
        part = make_partition(np.hstack([col, col]), singleton_blocks(2))
        path = run_boost(part, l2(), np.ones(3), BoostConfig(nu=0.5, max_iter=3))
        np.testing.assert_array_equal(path.selected, [0, 0, 0])

    def test_path_shapes_and_monotone_loss(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 5))
        y = rng.normal(size=40)
        part = make_partition(X, singleton_blocks(5))
        for nu in (0.1, 0.6, 1.0):
            path = run_boost(part, l2(), y, BoostConfig(nu=nu, max_iter=50))
            assert path.betas.shape == (51, 5)
            assert len(path.losses) == 51 == len(path.grad_norms)
            assert len(path.selected) == 50
            assert np.all(np.diff(path.losses) <= 1e-12)

    def test_binomial_monotone_loss(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 3))
        y = (rng.uniform(size=60) < 0.5).astype(float)
        part = make_partition(X, singleton_blocks(3))
        for nu in (0.3, 1.0):
            path = run_boost(part, binomial(), y, BoostConfig(nu=nu, max_iter=80))
            assert np.all(np.diff(path.losses) <= 1e-12)

    def test_cyclic_round_robin(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        part = make_partition(X, singleton_blocks(3))
        path = run_boost(part, l2(), y, BoostConfig(nu=0.5, max_iter=6, mode="cyclic"))
        np.testing.assert_array_equal(path.selected, [0, 1, 2, 0, 1, 2])

    def test_stop_tol_termination(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        part = make_partition(X, single_block(2))
        cfg = BoostConfig(nu=1.0, max_iter=500, mode="joint", stop_tol=1e-12)
        path = run_boost(part, l2(), y, cfg)
        assert path.terminated_by == "tol"
        assert path.n_steps < 500

    def test_offset_init(self):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(50, 2))
        y = (rng.uniform(size=50) < 0.8).astype(float)
        part = make_partition(X, singleton_blocks(2))
        cfg = BoostConfig(nu=0.1, max_iter=1, init="offset")
        path = run_boost(part, binomial(), y, cfg)
        np.testing.assert_allclose(path.offset, np.log(np.mean(y) / (1 - np.mean(y))))
        np.testing.assert_array_equal(path.betas[0], np.zeros(2))

    def test_divergence_guard_captures_overflow(self):
        # a too-aggressive poisson run overflows; the guard records it
        rng = np.random.default_rng(17)
        X = rng.normal(size=(30, 2)) * 3.0
        f = X @ np.array([2.0, -1.5])
        y = rng.poisson(np.exp(np.clip(f, None, 20.0))).astype(float)
        part = make_partition(X, singleton_blocks(2))
        cfg = BoostConfig(nu=1.0, max_iter=300, divergence_guard=True)
        path = run_boost(part, poisson(), y, cfg)
        assert path.terminated_by == "divergence"
        cfg_raise = BoostConfig(nu=1.0, max_iter=300, divergence_guard=False)
        with pytest.raises(NumericError):
            run_boost(part, poisson(), y, cfg_raise)

    @pytest.mark.parametrize("mode", ["greedy", "cyclic", "joint"])
    @pytest.mark.parametrize(
        "X, y, nu",
        [
            # grad @ grad overflows in the recorder at step 2
            ([[14.0], [-8.0], [4.0], [-17.0]], [6.0, 16.0, 18.0, 17.0], 0.9),
            # X' y_tilde itself overflows at step 1
            ([[1e10], [1.0]], [691.0, 0.0], 1.0),
        ],
        ids=["recorded_norm", "design_gradient"],
    )
    def test_guarded_gradient_overflow_is_a_divergence_without_warning(self, mode, X, y, nu):
        part = make_partition(np.array(X), single_block(1))
        cfg = BoostConfig(nu=nu, max_iter=100, mode=mode, divergence_guard=True)
        path = run_boost(part, poisson(), np.array(y), cfg)
        assert path.terminated_by == "divergence"
        assert path.grad_norms[-1] == np.inf
        assert divergence_detector(path) == "diverging"
        # unguarded, the overflow still surfaces
        with pytest.raises(RuntimeWarning, match="overflow"):
            run_boost(part, poisson(), np.array(y), BoostConfig(nu=nu, max_iter=100, mode=mode))

    def test_squared_loss_beyond_700_is_not_a_divergence(self):
        # the exp-link overflow guard used to stop an l2 fit at |f| > 700
        rng = np.random.default_rng(19)
        X = rng.normal(size=(50, 2))
        y = X @ np.array([600.0, 600.0]) + rng.normal(size=50)
        part = make_partition(X, single_block(2))
        cfg = BoostConfig(nu=0.5, max_iter=60, mode="joint", divergence_guard=True)
        path = run_boost(part, l2(), y, cfg)
        assert path.terminated_by == "max_iter" and not path.numeric_error
        np.testing.assert_allclose(path.final, np.linalg.lstsq(X, y, rcond=None)[0], rtol=1e-12)

    @pytest.mark.parametrize("init", ["zero", "offset"])
    @pytest.mark.parametrize("guard", [False, True])
    def test_outcome_overflowing_the_squared_loss_rejected(self, guard, init):
        # it used to overflow with warnings, then raise a NumericError or,
        # with the guard, report a divergence
        part = make_partition([[1.0, 2.0], [1.0, -1.0], [1.0, 0.5]], singleton_blocks(2))
        cfg = BoostConfig(init=init, divergence_guard=guard)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^outcome of magnitude 1e\+308 overflows"):
                run_boost(part, l2(), np.array([1e308, 1e308, -1e308]), cfg)

    @pytest.mark.parametrize(
        "engine",
        [
            lambda part, y: run_boost(part, poisson(), y, BoostConfig()),
            lambda part, y: run_boost(part, poisson(), y, BoostConfig(divergence_guard=True)),
            lambda part, y: gbcd_gsq(part, poisson(), y, GbcdConfig()),
        ],
        ids=["unguarded", "guarded", "gbcd_gsq"],
    )
    def test_outcome_overflowing_the_start_gradient_rejected(self, engine):
        # X' y_tilde overflowed with a RuntimeWarning before any step,
        # outside the guard's errstate
        part = make_partition([[1e150], [1.0]], single_block(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(
                ValueError, match=r"^outcome of magnitude 1e\+200 overflows the start gradient$"
            ):
                engine(part, np.array([1e200, 0.0]))

    def test_outcome_of_finite_squared_loss_runs(self):
        part = make_partition([[1.0, 2.0], [1.0, -1.0], [1.0, 0.5]], singleton_blocks(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for init in ("zero", "offset"):
                path = run_boost(part, l2(), np.array([1e150, -1e150, 3e150]),
                                 BoostConfig(init=init, max_iter=5))
                assert path.n_steps == 5 and np.isfinite(path.losses).all()
            # the start iterate is the mean, where the loss is zero
            huge = np.full(3, 1e200)
            assert run_boost(part, l2(), huge, BoostConfig(init="offset")).losses[0] == 0.0
            with pytest.raises(ValueError, match=r"^outcome of magnitude 1e\+200 overflows "
                               "the loss at the start iterate$"):
                run_boost(part, l2(), huge, BoostConfig())
            # a mean that overflows is rejected before the loss is evaluated at it
            with pytest.raises(ValueError, match=r"^outcome of magnitude 1e\+308 overflows "
                               "the loss at the start iterate$"):
                run_boost(part, l2(), np.full(3, 1e308), BoostConfig(init="offset"))

    @pytest.mark.parametrize("action", ["error", "ignore"])
    @pytest.mark.parametrize(
        "engine, what",
        [
            (lambda: run_boost(make_partition([[100.0], [100.0]], single_block(1)), l2(),
                               [1e152, 1e152], BoostConfig()), "the start gradient"),
            (lambda: gbcd_gsq(make_partition([[100.0], [100.0]], single_block(1)), l2(),
                              [1e152, 1e152], GbcdConfig()), "the start gradient"),
            (lambda: run_boost(make_partition([[1.0], [2.0], [0.5]], single_block(1)),
                               poisson(), [1e300, 0.0, 0.0], BoostConfig()),
             "the start gradient"),
            (lambda: run_boost(make_partition([[1.0], [2.0], [0.5]], single_block(1)),
                               poisson(), [1e308, 1e308, 0.0], BoostConfig(init="offset")),
             "the loss at the start iterate"),
            # a finite offset beyond the predictor guard used to be a NumericError
            (lambda: run_boost(make_partition([[1.0], [2.0], [0.5]], single_block(1)),
                               poisson(), [1e305, 0.0, 0.0], BoostConfig(init="offset")),
             "the loss at the start iterate"),
            (lambda: cyclic_boost_ls([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]],
                                     [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]],
                                     [1e200, 0.0, 1.0], 0.1, 3), "the loss at the start iterate"),
            (lambda: smoother_boost([0.5 * np.eye(3)], [1e200, 1e200, 0.0], 2),
             "the start gradient"),
        ],
        ids=["run_boost_norm", "gbcd_gsq_norm", "poisson_norm", "poisson_offset",
             "poisson_offset_guard", "cyclic_boost_ls", "smoother_boost"],
    )
    def test_outcome_overflowing_the_start_iterate_rejected(self, engine, what, action):
        # each escaped as a RuntimeWarning; without the warning filter both
        # Poisson runs raised a NumericError, cyclic_boost_ls reported a
        # divergence and the others returned a path
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(ValueError, match=rf"^outcome of magnitude \S+ overflows {what}$"):
                engine()

    def test_coxph_outcome_other_than_events_rejected(self):
        # the outcome used to be ignored: any vector of the right length ran
        rng = np.random.default_rng(20)
        X = rng.normal(size=(12, 2))
        times, events = rng.exponential(size=12) + 0.1, np.tile([1.0, 0.0, 1.0], 4)
        part = make_partition(X, singleton_blocks(2))
        cfg = BoostConfig(nu=0.3, max_iter=5)
        with pytest.raises(ValueError, match="must be the events; it differs at index 0$"):
            run_boost(part, coxph(times, events), np.full(12, 7.5), cfg)
        assert run_boost(part, coxph(times, events), events, cfg).n_steps == 5

    @pytest.mark.parametrize("engine", [
        lambda part, y: run_boost(part, l2(), y, BoostConfig()),
        lambda part, y: gbcd_gsq(part, l2(), y, GbcdConfig()),
    ], ids=["run_boost", "gbcd_gsq"])
    def test_outcome_of_the_wrong_length_rejected(self, engine):
        # the one outcome check names both shapes; the engines' own copy did not
        part = make_partition(np.eye(4), singleton_blocks(4))
        with pytest.raises(ValueError, match=r"^outcome has shape \(3,\), expected \(4,\)$"):
            engine(part, np.ones(3))

    def test_to_csv_schema(self, tmp_path):
        rng = np.random.default_rng(18)
        X = rng.normal(size=(10, 2))
        y = rng.normal(size=10)
        part = make_partition(X, singleton_blocks(2))
        path = run_boost(part, l2(), y, BoostConfig(nu=0.5, max_iter=4))
        out = tmp_path / "path.csv"
        write_csv(out, *path.table())
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "loss", "selected_block", "grad_norm", "beta_1", "beta_2"]
        assert len(rows) == 6
        assert rows[1][2] == ""  # no selection at the start iterate
        np.testing.assert_allclose(float(rows[-1][1]), path.losses[-1])

    def test_table_index_picks_iterates(self):
        rng = np.random.default_rng(18)
        X = rng.normal(size=(10, 2))
        y = rng.normal(size=10)
        part = make_partition(X, singleton_blocks(2))
        path = run_boost(part, l2(), y, BoostConfig(nu=0.5, max_iter=4))
        _, full = path.table()
        _, rows = path.table([0, 2, 4])
        assert rows == [full[0], full[2], full[4]]
        assert full[2] == [2, path.losses[2], int(path.selected[1]),
                           path.grad_norms[2], *path.betas[2]]

    def test_table_rejects_what_is_not_an_iterate(self):
        # -1 must not wrap round to the final row, nor 5 be a bare IndexError
        rng = np.random.default_rng(18)
        X = rng.normal(size=(20, 3))
        part = make_partition(X, singleton_blocks(3))
        cfg = BoostConfig(nu=0.5, max_iter=4)
        path = run_boost(part, l2(), rng.normal(size=20), cfg)
        for bad in (-1, 5, 2.0, True, None):
            with pytest.raises(ValueError, match=rf"^index {bad!r} is not an iterate of this "
                                                 r"4-step path$"):
                path.table([0, bad])
        thinned = run_boost(part, l2(), rng.normal(size=20), cfg, betas_at=[1, 3])
        assert [row[0] for row in thinned.table()[1]] == [1, 3, 4]
        for bad in (0, 2):
            with pytest.raises(ValueError, match=rf"^iterate {bad} is not among the "
                                                 "coefficients this path kept$"):
                thinned.table([bad])
        with pytest.raises(ValueError, match="^index 5 is not an iterate"):
            thinned.table([5])


class TestGradNorms:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        grads=st.lists(
            st.lists(st.floats(-1e100, 1e100), min_size=1, max_size=40),
            min_size=1,
            max_size=4,
        )
    )
    def test_recorder_matches_linalg_norm_bitwise(self, grads):
        grads = [np.array(g) for g in grads]
        rec = _PathRecorder(np.zeros(1), 0.0, grads[0], GbcdConfig(max_iter=len(grads) - 1))
        for g in grads[1:]:
            rec.record(np.zeros(1), 0, 0.0, g)
        norms = rec.path().grad_norms
        np.testing.assert_array_equal(norms, [np.linalg.norm(g) for g in grads])

    def test_start_norm_is_linalg_norm_of_design_gradient(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(25, 4))
        y = rng.normal(size=25)
        part = make_partition(X, singleton_blocks(4))
        path = run_boost(part, l2(), y, BoostConfig(nu=0.5, max_iter=2))
        # from a zero fit the L2 working response is y itself
        assert path.grad_norms[0] == np.linalg.norm(X.T @ y)


class ListRecorder:
    """A path recorder built from lists, the oracle for the engine's arrays.

    Each step appends a copy of ``beta`` and the Python floats, and
    ``path`` stacks them with ``np.asarray``.
    """

    def __init__(self, beta, loss, grad, config, betas_at=None):
        assert betas_at is None
        self.config = config
        self.betas = [beta.copy()]
        self.losses = [loss]
        self.grad_norms = [math.sqrt(grad @ grad)]
        self.selected = []

    def record(self, beta, selected, loss, grad):
        self.betas.append(beta.copy())
        self.selected.append(selected)
        self.losses.append(loss)
        self.grad_norms.append(math.sqrt(grad @ grad))

    def path(self, terminated_by="max_iter", offset=0.0, numeric_error=False):
        return boost.BoostPath(
            betas=np.asarray(self.betas),
            losses=np.asarray(self.losses),
            selected=np.asarray(self.selected, dtype=int),
            grad_norms=np.asarray(self.grad_norms),
            terminated_by=terminated_by,
            config=self.config,
            offset=offset,
            numeric_error=numeric_error,
        )


def with_list_recorder(run):
    """``run()`` with :class:`ListRecorder` in place of every engine's recorder."""
    with mock.patch.object(boost, "_PathRecorder", ListRecorder), \
            mock.patch.object(gbcd, "_PathRecorder", ListRecorder), \
            mock.patch.object(distreg, "_PathRecorder", ListRecorder):
        return run()


def assert_path_bitwise(path, reference):
    """Same fields, bit for bit, in arrays of exactly the path's rows that own their data."""
    for field in ("betas", "losses", "selected", "grad_norms"):
        got, want = getattr(path, field), getattr(reference, field)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.flags.owndata
    assert len(path.betas) == len(path.losses) == len(path.grad_norms) == path.n_steps + 1
    assert len(path.selected) == path.n_steps
    assert (path.terminated_by, path.offset, path.numeric_error) == (
        reference.terminated_by, reference.offset, reference.numeric_error
    )
    assert path.iterates is None


def growing_recorder():
    """A zero reservation budget: every recorder starts small and doubles."""
    return mock.patch.object(boost, "_RESERVE_BYTES", 0)


class TestPathArrays:
    """The recorder's arrays against lists, reserved whole and grown by doubling."""

    def data(self, seed=5, n=30, p=4):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p))
        return X, X @ rng.normal(size=p) + rng.normal(size=n)

    @pytest.mark.parametrize("mode", ["greedy", "joint"])
    def test_long_run_matches_lists(self, mode):
        X, y = self.data()
        specs = singleton_blocks(2) + [BlockSpec([2, 3], 1.0, difference_penalty(2, 1))]
        part = make_partition(X, specs)
        cfg = BoostConfig(nu=0.01, max_iter=2500, mode=mode)
        ref = with_list_recorder(lambda: run_boost(part, l2(), y, cfg))
        # reserved whole, and grown twice from 1,024 rows
        assert_path_bitwise(run_boost(part, l2(), y, cfg), ref)
        with growing_recorder():
            path = run_boost(part, l2(), y, cfg)
        assert path.n_steps == 2500 > 2 * boost._FIRST_ROWS
        assert_path_bitwise(path, ref)

    @pytest.mark.parametrize("max_iter", [0, 2500])
    def test_gbcd_matches_lists(self, max_iter):
        X, y = self.data()
        part = make_partition(X, [BlockSpec([0, 1], 1.0, difference_penalty(2, 1)),
                                  BlockSpec([2, 3], 0.0, None)])
        cfg = GbcdConfig(nu=0.01, max_iter=max_iter, gradient_of="penalized")
        path = gbcd_gsq(part, l2(), y, cfg)
        assert path.n_steps == max_iter
        assert_path_bitwise(path, with_list_recorder(lambda: gbcd_gsq(part, l2(), y, cfg)))

    def test_guarded_poisson_divergence_matches_lists(self):
        # the data of test_divergence_guard_captures_overflow
        rng = np.random.default_rng(17)
        X = rng.normal(size=(30, 2)) * 3.0
        f = X @ np.array([2.0, -1.5])
        y = rng.poisson(np.exp(np.clip(f, None, 20.0))).astype(float)
        part = make_partition(X, singleton_blocks(2))
        cfg = BoostConfig(nu=1.0, max_iter=3000, divergence_guard=True)
        ref = with_list_recorder(lambda: run_boost(part, poisson(), y, cfg))
        # cut from the 3,001 reserved rows, and from the first 1,024 of a grown run
        assert_path_bitwise(run_boost(part, poisson(), y, cfg), ref)
        with growing_recorder():
            path = run_boost(part, poisson(), y, cfg)
        assert path.terminated_by == "divergence" and path.n_steps < boost._FIRST_ROWS
        assert_path_bitwise(path, ref)

    def test_cyclic_boost_ls_divergence_matches_lists(self):
        # the heteroscedastic data of TestCyclicBoosting in test_distreg.py
        rng = np.random.default_rng(42)
        x = rng.normal(size=200)
        X = Z = np.column_stack([np.ones(200), x])
        y = X @ np.array([1.0, 2.0]) + np.exp(Z @ np.array([-0.3, 0.8])) * rng.normal(size=200)
        res = cyclic_boost_ls(X, Z, y, 0.5, 3000)
        ref = with_list_recorder(lambda: cyclic_boost_ls(X, Z, y, 0.5, 3000))
        assert res.mean_path.terminated_by == "divergence"
        assert_path_bitwise(res.mean_path, ref.mean_path)
        assert_path_bitwise(res.scale_path, ref.scale_path)

    def test_growth_stops_at_max_iter_plus_one_rows(self):
        # 1,024 rows double to 2,048 only up to the 1,501 a full run needs,
        # and the full arrays become the path's without a copy
        with growing_recorder():
            rec = _PathRecorder(np.zeros(2), 0.0, np.zeros(2), BoostConfig(max_iter=1500))
        assert len(rec.betas) == len(rec.selected) + 1 == boost._FIRST_ROWS
        for k in range(1, 1501):
            rec.record(np.full(2, float(k)), k % 2, float(k), np.ones(2))
        assert len(rec.betas) == len(rec.losses) == len(rec.selected) + 1 == 1501
        path = rec.path()
        for field in ("betas", "losses", "selected", "grad_norms"):
            assert getattr(path, field) is getattr(rec, field)
        np.testing.assert_array_equal(path.betas[:, 0], np.arange(1501.0))
        np.testing.assert_array_equal(path.selected, np.arange(1, 1501) % 2)

    def test_reserves_a_path_that_fits_the_budget(self):
        # the size of a pspline_unpenalized path, 6.0 MB: one allocation of
        # 50,001 rows, handed to the path whole
        rec = _PathRecorder(np.zeros(12), 0.0, np.zeros(12), BoostConfig(max_iter=50_000))
        arrays = (rec.betas, rec.losses, rec.selected, rec.grad_norms)
        assert [len(a) for a in arrays] == [50_001, 50_001, 50_000, 50_001]
        for k in range(1, 50_001):
            rec.record(np.full(12, float(k)), k % 3, float(k), np.ones(12))
        path = rec.path()
        got = (path.betas, path.losses, path.selected, path.grad_norms)
        assert all(a is b for a, b in zip(got, arrays))
        np.testing.assert_array_equal(path.losses, np.arange(50_001.0))
        np.testing.assert_array_equal(path.selected, np.arange(1, 50_001) % 3)
        # at p=2,000 a row takes 16,024 bytes: 1,047 rows fit 16 MiB, 1,048 do not
        z = np.zeros(2000)
        assert len(_PathRecorder(z, 0.0, z, BoostConfig(max_iter=1046)).betas) == 1047
        assert len(_PathRecorder(z, 0.0, z, BoostConfig(max_iter=1047)).betas) == boost._FIRST_ROWS

    def test_huge_max_iter_allocates_for_the_steps_taken(self):
        # rows up front for max_iter + 1 iterates would be a MemoryError
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.normal(size=20)
        part = make_partition(X, singleton_blocks(3))
        path = run_boost(part, l2(), y, BoostConfig(nu=0.1, max_iter=10**15, stop_tol=1e-8))
        assert path.terminated_by == "tol" and 100 < path.n_steps < boost._FIRST_ROWS
        # capped at 10,000 the run is reserved whole; lowered, the budget
        # makes it grow as the 10**15 run does
        cfg = BoostConfig(nu=0.1, max_iter=10_000, stop_tol=1e-8)
        assert_path_bitwise(path, run_boost(part, l2(), y, cfg))
        with growing_recorder():
            assert_path_bitwise(path, run_boost(part, l2(), y, cfg))


def thinning_case(name):
    """``(partition, loss, y, config)`` of one run the thinning property covers."""
    if name in ("joint", "greedy", "cyclic"):
        X, specs, y = mixed_design(23, ["singleton", "ridge", "singleton", "pspline"])
        cfg = BoostConfig(nu=0.3, max_iter=60, mode=name, init="offset")
        return make_partition(X, specs), l2(), y, cfg
    if name == "stop_tol":  # stops on tol after 50 steps
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 4))
        y = X @ rng.normal(size=4) + rng.normal(size=30)
        cfg = BoostConfig(nu=0.3, max_iter=200, stop_tol=1e-2)
        return make_partition(X, singleton_blocks(4)), l2(), y, cfg
    if name == "loss_growth":  # the guard stops it after 8 steps
        rng = np.random.default_rng(3)
        x1 = rng.normal(size=40)
        X = np.column_stack([x1, 0.5 * x1 + np.sqrt(0.75) * rng.normal(size=40)])
        y = rng.poisson(np.exp(np.clip(X @ np.array([3.0, -2.0]), None, 15.0))).astype(float)
        cfg = BoostConfig(nu=0.1, max_iter=300, divergence_guard=True)
        return make_partition(X, singleton_blocks(2)), poisson(), y, cfg
    # the data of test_divergence_guard_captures_overflow: a numeric error at step 1
    rng = np.random.default_rng(17)
    X = rng.normal(size=(30, 2)) * 3.0
    y = rng.poisson(np.exp(np.clip(X @ np.array([2.0, -1.5]), None, 20.0))).astype(float)
    cfg = BoostConfig(nu=1.0, max_iter=50, divergence_guard=True)
    return make_partition(X, singleton_blocks(2)), poisson(), y, cfg


class TestThinnedPaths:
    """A path that keeps some coefficient rows against the full path of the same run."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(),
           name=st.sampled_from(["joint", "greedy", "cyclic", "stop_tol", "loss_growth",
                                 "numeric_error"]))
    def test_thinned_path_matches_the_full_path(self, data, name):
        part, loss, y, cfg = thinning_case(name)
        betas_at = sorted(data.draw(st.sets(st.integers(0, cfg.max_iter), max_size=30)))
        full = run_boost(part, loss, y, cfg)
        thinned = run_boost(part, loss, y, cfg, betas_at=betas_at)
        kept = [k for k in betas_at if k <= full.n_steps]
        kept += [] if kept[-1:] == [full.n_steps] else [full.n_steps]
        assert thinned.iterates.tolist() == kept
        assert repr(thinned.table()) == repr(full.table(kept))
        assert thinned.betas.tobytes() == full.betas[kept].tobytes()
        assert thinned.final.tobytes() == full.final.tobytes()
        for field in ("losses", "grad_norms", "selected"):
            got, want = getattr(thinned, field), getattr(full, field)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert (thinned.n_steps, thinned.terminated_by, thinned.numeric_error,
                thinned.offset) == (full.n_steps, full.terminated_by, full.numeric_error,
                                    full.offset)
        assert all(getattr(thinned, f).flags.owndata
                   for f in ("betas", "losses", "grad_norms", "selected", "iterates"))

    def test_cases_stop_as_named(self):
        stops = {name: run_boost(*thinning_case(name))
                 for name in ("stop_tol", "loss_growth", "numeric_error")}
        assert [(p.terminated_by, p.n_steps, p.numeric_error) for p in stops.values()] == [
            ("tol", 50, False), ("divergence", 8, False), ("divergence", 0, True)]

    @pytest.mark.parametrize("betas_at, message", [
        ([3, 1], r"^betas_at\[1\]=1 is not an integer in \[4, 4\]"),
        ([1, 1], r"^betas_at\[1\]=1 is not an integer in \[2, 4\]"),
        ([-1, 2], r"^betas_at\[0\]=-1 is not an integer in \[0, 4\]"),
        ([0, 5], r"^betas_at\[1\]=5 is not an integer in \[1, 4\]"),
        ([0, 2.0], r"^betas_at\[1\]=2\.0 is not an integer"),
        ([True], r"^betas_at\[0\]=True is not an integer"),
    ], ids=["decreasing", "repeated", "negative", "beyond_max_iter", "float", "bool"])
    def test_malformed_betas_at_rejected(self, betas_at, message):
        rng = np.random.default_rng(18)
        part = make_partition(rng.normal(size=(10, 2)), singleton_blocks(2))
        with pytest.raises(ValueError, match=message):
            run_boost(part, l2(), rng.normal(size=10), BoostConfig(max_iter=4),
                      betas_at=betas_at)

    def test_kept_rows_never_grow_while_the_rest_does(self):
        # 1,024 rows of losses double past 2,048; the two coefficient rows stay
        with growing_recorder():
            rec = _PathRecorder(np.zeros(2), 0.0, np.zeros(2), BoostConfig(max_iter=2500),
                                betas_at=[3])
        betas = rec.betas
        assert betas.shape == (2, 2) and len(rec.losses) == boost._FIRST_ROWS
        for k in range(1, 2501):
            rec.record(np.full(2, float(k)), k % 2, float(k), np.ones(2))
        assert rec.betas is betas and len(rec.losses) == 2501
        path = rec.path()
        assert path.iterates.tolist() == [3, 2500] and path.n_steps == 2500
        np.testing.assert_array_equal(path.betas, [[3.0, 3.0], [2500.0, 2500.0]])
        np.testing.assert_array_equal(path.losses, np.arange(2501.0))
        # the budget counts only the rows that grow: at p=2,000 a full path of
        # 1,048 rows does not fit 16 MiB, a thinned one reserves them all
        z = np.zeros(2000)
        assert len(_PathRecorder(z, 0.0, z, BoostConfig(max_iter=1047), []).losses) == 1048

    def test_long_thinned_run_matches_the_full_run(self):
        X, specs, y = mixed_design(23, ["singleton", "ridge", "singleton"])
        part = make_partition(X, specs)
        cfg = BoostConfig(nu=0.01, max_iter=2500)
        full = run_boost(part, l2(), y, cfg)
        with growing_recorder():
            thinned = run_boost(part, l2(), y, cfg, betas_at=[0, 1023, 1024, 2048, 2500])
        assert thinned.iterates.tolist() == [0, 1023, 1024, 2048, 2500]
        assert thinned.betas.tobytes() == full.betas[thinned.iterates].tobytes()
        for field in ("losses", "grad_norms", "selected"):
            assert getattr(thinned, field).tobytes() == getattr(full, field).tobytes()


def mixed_design(seed, kinds, n=30):
    """Design and specs with one block of each requested kind.

    ``singleton`` is one linear column, ``ridge`` two ridge-penalized
    columns, ``pspline`` a penalized cubic B-spline basis and
    ``deficient`` three unpenalized columns of rank two.
    """
    rng = np.random.default_rng(seed)
    cols, specs = [], []
    for kind in kinds:
        start = sum(c.shape[1] for c in cols)
        if kind == "singleton":
            cols.append(rng.normal(size=(n, 1)))
            specs.append(BlockSpec((start,)))
        elif kind == "ridge":
            cols.append(rng.normal(size=(n, 2)))
            specs.append(BlockSpec((start, start + 1), rng.uniform(0.1, 10.0)))
        elif kind == "pspline":
            spec = SplineSpec(n_knots=4, degree=3)
            cols.append(bspline_basis(rng.uniform(size=n), spec))
            idx = range(start, start + spec.n_basis)
            specs.append(pspline_block_spec(idx, spec, rng.uniform(0.1, 10.0)))
        else:
            a, b = rng.normal(size=(2, n))
            cols.append(np.column_stack([a, b, a - 2.0 * b]))
            specs.append(BlockSpec((start, start + 1, start + 2)))
    X = np.hstack(cols)
    y = X @ rng.normal(size=X.shape[1]) + rng.normal(size=n)
    return X, specs, y


def test_each_engine_records_the_config_it_ran_with():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(30, 3))
    y = X @ np.array([1.0, -1.0, 0.5]) + rng.normal(size=30)
    part = make_partition(X, singleton_blocks(3))
    for mode in boost.MODES:
        cfg = BoostConfig(nu=0.3, max_iter=5, mode=mode, init="offset")
        assert run_boost(part, l2(), y, cfg).config is cfg
    cfg = GbcdConfig(nu=0.3, max_iter=5, gradient_of="penalized")
    assert gbcd_gsq(part, l2(), y, cfg).config is cfg
    # each half-step of the two-model run is a guarded joint one-block step
    res = cyclic_boost_ls(X, X[:, :2], y, 0.3, 5)
    joint = BoostConfig(nu=0.3, max_iter=5, mode="joint", divergence_guard=True)
    assert res.mean_path.config == res.scale_path.config == joint


class TestGreedyMatchesResidualOracle:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kinds=st.lists(
            st.sampled_from(["singleton", "ridge", "pspline", "deficient"]),
            min_size=1,
            max_size=5,
        ),
        nu=st.sampled_from([0.1, 0.3, 0.5]),
    )
    def test_selection_and_increment(self, seed, kinds, nu):
        X, specs, y = mixed_design(seed, kinds)
        part = make_partition(X, specs)
        path = run_boost(part, l2(), y, BoostConfig(nu=nu, max_iter=8))
        for k, sel in enumerate(path.selected):
            y_tilde = y - X @ path.betas[k]
            sse = np.array([fit_block(b, y_tilde)[1] for b in part.blocks])
            oracle = select_block(part, y_tilde)
            assert sel == oracle or sse[sel] - sse[oracle] <= 1e-9 * sse.max()
            cols = part.column_map[sel]
            inc = (path.betas[k + 1] - path.betas[k])[cols] / nu
            ref, _ = fit_block(part.blocks[sel], y_tilde)
            assert np.abs(inc - ref).max() <= 1e-10 * np.abs(ref).max()


class TestOneBlockModes:
    """On one block, joint mode is the one-block case of the shared update."""

    @pytest.mark.parametrize("lam, penalty", [(0.0, None), (2.0, None), (0.7, "diff")])
    @pytest.mark.parametrize("loss", [l2(), binomial()], ids=["l2", "binomial"])
    def test_joint_greedy_and_cyclic_agree_bitwise(self, lam, penalty, loss):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(40, 5))
        y = X @ rng.normal(size=5) + rng.normal(size=40)
        if loss.family == "binomial":
            y = (y > 0).astype(float)
        P = difference_penalty(5, 2) if penalty == "diff" else None
        part = make_partition(X, single_block(5, lam, P))
        paths = {
            mode: run_boost(part, loss, y, BoostConfig(nu=0.4, max_iter=30, mode=mode))
            for mode in ("joint", "greedy", "cyclic")
        }
        for mode in ("greedy", "cyclic"):
            for field in ("betas", "losses", "grad_norms"):
                np.testing.assert_array_equal(
                    getattr(paths[mode], field), getattr(paths["joint"], field)
                )
            np.testing.assert_array_equal(paths[mode].selected, np.zeros(30))
        np.testing.assert_array_equal(paths["joint"].selected, np.full(30, -1))


def per_block_path(partition, loss, y, config):
    """Greedy or cyclic boosting from zero with one ``_BlockSolver`` per block.

    The engine's step with every block, one-column ones included, solved
    and scored by its own solver in one loop over the blocks, the first
    strictly best score winning. Returns the betas, the selections and the
    losses, or ``None`` where the engine would raise a ``NumericError``.
    """
    X = partition.X
    solvers = [_BlockSolver(b.X, b.P, b.lam) for b in partition.blocks]
    beta, f = np.zeros(partition.p), np.zeros(partition.n)
    try:
        value, g = loss_value(loss, y, f), X.T @ neg_functional_gradient(loss, y, f)
        betas, selected, losses = [beta.copy()], [], [value]
        for k in range(config.max_iter):
            if config.mode == "greedy":
                best, best_score, best_inc = 0, -np.inf, None
                for b, (solver, cols) in enumerate(zip(solvers, partition.column_map)):
                    inc = solver.solve_gram(g[cols])
                    score = solver.decrease(g[cols], inc)
                    if score > best_score:
                        best, best_score, best_inc = b, score, inc
            else:
                best = k % len(solvers)
                best_inc = solvers[best].solve_gram(g[partition.column_map[best]])
            beta[partition.column_map[best]] += config.nu * best_inc
            f += config.nu * np.dot(partition.blocks[best].X, best_inc)
            value, g = loss_value(loss, y, f), X.T @ neg_functional_gradient(loss, y, f)
            betas.append(beta.copy())
            selected.append(best)
            losses.append(value)
    except NumericError:
        return None
    return np.asarray(betas), np.asarray(selected, dtype=int), np.asarray(losses)


def engine_path(partition, loss, y, config):
    try:
        path = run_boost(partition, loss, y, config)
    except NumericError:
        return None
    return path.betas, path.selected, path.losses


def assert_same_paths(path, reference):
    """Betas, selections and losses equal bit for bit (signed zeros included)."""
    assert (path is None) == (reference is None)
    for got, want in zip(path or (), reference or ()):
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


SINGLETON_KINDS = (
    "singleton", "zero", "duplicate", "huge", "tiny", "zero_penalty",
    "ridge_singleton", "block", "ridge_block",
)


@st.composite
def mixed_singleton_runs(draw):
    """A partition mixing unpenalized singletons with per-block learners, and a run.

    The unpenalized singletons include an all-zero column, a copy of an
    earlier column, columns scaled by 1e140 and 1e-140 (where LAPACK's
    SVD rescales) and a positive weight with a zero penalty. Penalized
    singletons and blocks of two or three columns are solved per block.
    The blocks are in column order or reversed.
    """
    n = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(SINGLETON_KINDS), min_size=1, max_size=10))
    cols, specs = [], []
    for kind in kinds:
        start = sum(c.shape[1] for c in cols)
        width, lam, P = 1, 0.0, None
        if kind == "zero":
            x = np.zeros((n, 1))
        elif kind == "duplicate" and cols:
            x = cols[rng.integers(len(cols))][:, :1].copy()
        elif kind == "huge":
            x = rng.normal(size=(n, 1)) * 1e140
        elif kind == "tiny":
            x = rng.normal(size=(n, 1)) * 1e-140
        elif kind == "block":
            width = int(rng.integers(2, 4))
            x = rng.normal(size=(n, width))
        elif kind == "ridge_block":
            width, lam = 2, rng.uniform(0.1, 10.0)
            x = rng.normal(size=(n, 2))
        else:
            x = rng.normal(size=(n, 1)) * 10.0 ** rng.uniform(-2, 2)
            if kind == "zero_penalty":
                lam, P = 1.0, np.zeros((1, 1))
            elif kind == "ridge_singleton":
                lam = rng.uniform(0.1, 10.0)
        cols.append(x)
        specs.append(BlockSpec(tuple(range(start, start + width)), lam, P))
    if draw(st.booleans()):
        specs.reverse()
    X = np.hstack(cols)
    loss = draw(st.sampled_from([l2(), binomial(), poisson()]))
    if loss.family == "l2":
        y = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 2)
    elif loss.family == "binomial":
        y = (rng.uniform(size=n) < 0.5).astype(float)
    else:
        y = rng.poisson(2.0, size=n).astype(float)
    config = BoostConfig(
        nu=draw(st.sampled_from([0.1, 0.5, 1.0])),
        max_iter=draw(st.integers(1, 25)),
        mode=draw(st.sampled_from(["greedy", "cyclic"])),
    )
    # columns per batched factorization: one, three, or every run in one
    stack = draw(st.sampled_from([n, 3 * n, boost._STACK_ELEMENTS]))
    return make_partition(X, specs), loss, y, config, stack


class TestBatchedSingletons:
    """Unpenalized one-column blocks factored in batches and scored in one array operation."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(mixed_singleton_runs())
    def test_paths_equal_per_block_solvers_bit_for_bit(self, run):
        partition, loss, y, config, stack = run
        # A diverging run over a 1e140 column can overflow X'r or its norm
        # before the loss does; both sides then go on with the same infs.
        with np.errstate(over="ignore", invalid="ignore"):
            with mock.patch.object(boost, "_STACK_ELEMENTS", stack):
                path = engine_path(partition, loss, y, config)
            reference = per_block_path(partition, loss, y, config)
        assert_same_paths(path, reference)

    def test_tie_between_duplicated_columns_goes_to_the_lower_index(self):
        rng = np.random.default_rng(4)
        x0, x1 = rng.normal(size=(2, 12))
        X = np.column_stack([x1, x0, x0, x0, np.zeros(12), x0])
        y = 3.0 * x0 + 0.1 * x1
        # the duplicated columns' gradients are equal, so their scores tie
        g = X.T @ y
        assert g[1] == g[2] == g[3] == g[5]
        specs = singleton_blocks(6)
        path = run_boost(make_partition(X, specs), l2(), y, BoostConfig(max_iter=3))
        np.testing.assert_array_equal(path.selected, [1, 1, 1])
        # ties with a block solved on its own, [x0, 0], which scores as x0
        # does, before and after the singletons
        pair = BlockSpec((3, 4))
        for order, first in (
            ([BlockSpec((0,)), pair, BlockSpec((1,)), BlockSpec((2,)), BlockSpec((5,))], 1),
            ([BlockSpec((0,)), BlockSpec((5,)), BlockSpec((2,)), pair, BlockSpec((1,))], 1),
            ([pair, BlockSpec((5,)), BlockSpec((0,)), BlockSpec((1,)), BlockSpec((2,))], 0),
        ):
            part = make_partition(X, order)
            path = run_boost(part, l2(), y, BoostConfig(max_iter=3))
            assert path.selected[0] == first
            assert_same_paths((path.betas, path.selected, path.losses),
                              per_block_path(part, l2(), y, BoostConfig(max_iter=3)))

    def test_nan_singleton_score_never_wins(self):
        # a subnormal column's s^-2 overflows to inf; its gradient is exactly
        # zero, so its score is inf * 0 = NaN on every step
        d = 1e-320
        X = np.array([[d, 0.0], [d, 0.0], [0.0, 1.0], [0.0, 2.0]])
        y = np.array([1.0, -1.0, 3.0, 1.0])
        part = make_partition(X, singleton_blocks(2))
        cfg = BoostConfig(nu=0.5, max_iter=5)
        with np.errstate(over="ignore", invalid="ignore"):
            path = run_boost(part, l2(), y, cfg)
            reference = per_block_path(part, l2(), y, cfg)
        np.testing.assert_array_equal(path.selected, np.ones(5))
        assert_same_paths((path.betas, path.selected, path.losses), reference)


class TestJointMatchesClosedForm:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 6),
        extra_rows=st.integers(3, 30),
        nu=st.floats(0.05, 1.0),
        lam=st.floats(0.0, 20.0),
        penalty=st.sampled_from(["ridge", "diff"]),
        ks=st.lists(st.integers(0, 60), min_size=1, max_size=4),
    )
    def test_engine_iterates_match_path_points(self, seed, p, extra_rows, nu, lam, penalty, ks):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(p + extra_rows, p))
        y = rng.normal(size=p + extra_rows)
        P = difference_penalty(p, 1) if penalty == "diff" and p > 1 else np.eye(p)
        part = make_partition(X, single_block(p, lam, P))
        path = run_boost(part, l2(), y, BoostConfig(nu=nu, max_iter=max(max(ks), 1), mode="joint"))
        for k, closed in zip(ks, path_points(X, y, nu, ks, lam, P)):
            err = np.linalg.norm(path.betas[k] - closed)
            assert err <= 1e-10 * np.linalg.norm(closed), (k, err)


def list_smoother_path(smoothers, y, n_steps, rule, seed):
    """``smoother_boost``'s steps appended to lists, the oracle for its arrays."""
    rng = np.random.default_rng(seed)
    f = np.zeros_like(y)
    fitted, selected, res_norms = [f.copy()], [], [float(np.linalg.norm(y))]
    for k in range(n_steps):
        r = y - f
        if rule == "greedy":
            m = int(np.argmin([np.linalg.norm(r - S @ r) for S in smoothers]))
        elif rule == "cyclic":
            m = k % len(smoothers)
        else:
            m = int(rng.integers(len(smoothers)))
        f = f + smoothers[m] @ r
        fitted.append(f.copy())
        selected.append(m)
        res_norms.append(float(np.linalg.norm(y - f)))
    return np.asarray(fitted), np.asarray(selected, dtype=int), np.asarray(res_norms)


class TestSmootherBoost:
    @pytest.mark.parametrize("n_steps", [0, 40])
    @pytest.mark.parametrize("rule", ["greedy", "cyclic", "random"])
    def test_arrays_match_lists_bitwise(self, rule, n_steps):
        rng = np.random.default_rng(23)
        smoothers = []
        for _ in range(3):
            Q, _ = np.linalg.qr(rng.normal(size=(9, 9)))
            smoothers.append(Q @ np.diag(rng.uniform(0.05, 1.0, size=9)) @ Q.T)
        y = rng.normal(size=9)
        sp = smoother_boost(smoothers, y, n_steps, rule=rule, seed=8)
        got = (sp.fitted, sp.selected, sp.residual_norms)
        for a, b in zip(got, list_smoother_path(smoothers, y, n_steps, rule, 8)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_identity_smoother_one_step(self):
        y = np.array([1.0, -2.0, 0.5])
        sp = smoother_boost([np.eye(3)], y, 1)
        np.testing.assert_allclose(sp.fitted[1], y)

    def test_half_identity_geometric_residual(self):
        y = np.array([4.0, 0.0, -3.0, 1.0])
        sp = smoother_boost([0.5 * np.eye(4)], y, 12)
        expected = 0.5 ** np.arange(13) * np.linalg.norm(y)
        np.testing.assert_allclose(sp.residual_norms, expected, rtol=1e-12)

    @pytest.mark.parametrize("rule", ["greedy", "cyclic", "random"])
    def test_contraction_bound(self, rule):
        rng = np.random.default_rng(19)
        n = 12
        smoothers = []
        eig_bound = 0.0
        for _ in range(2):
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            e = rng.uniform(0.05, 1.0, size=n)
            smoothers.append(Q @ np.diag(e) @ Q.T)
            eig_bound = max(eig_bound, 1.0 - e.min())
        y = rng.normal(size=n)
        sp = smoother_boost(smoothers, y, 60, rule=rule, seed=5)
        assert sp.contraction == pytest.approx(eig_bound, rel=1e-9)
        bound = eig_bound ** np.arange(61) * np.linalg.norm(y)
        assert np.all(sp.residual_norms <= bound * (1 + 1e-9) + 1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 15), st.integers(1, 4), st.integers(0, 2**32 - 1),
           st.sampled_from(["greedy", "cyclic", "random"]))
    def test_every_step_contracts_by_the_factor(self, n, m, seed, rule):
        # The residual y - f is rounded to the ulps of f's entries, so its
        # norm carries an absolute error of order eps ||y||, whatever the
        # factor. Over 900 seeded runs of this kind the largest excess over
        # contraction * ||r_k|| was 0.36 eps ||y||; 1e-14 ||y|| is 45 eps.
        rng = np.random.default_rng(seed)
        smoothers = []
        for _ in range(m):
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            smoothers.append(Q @ np.diag(rng.uniform(0.01, 1.0, size=n)) @ Q.T)
        y = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
        sp = smoother_boost(smoothers, y, 30, rule=rule, seed=seed)
        r = sp.residual_norms
        assert np.all(r[1:] <= sp.contraction * r[:-1] + 1e-14 * r[0])

    def test_invalid_smoother_rejected(self):
        y = np.zeros(3)
        with pytest.raises(ValueError, match="eigenvalues"):
            smoother_boost([1.5 * np.eye(3)], y, 1)
        with pytest.raises(ValueError, match="eigenvalues"):
            smoother_boost([np.zeros((3, 3))], y, 1)
        with pytest.raises(ValueError, match="n_steps"):
            smoother_boost([np.eye(3)], y, -1)
        with pytest.raises(ValueError, match="selection rule"):
            smoother_boost([np.eye(3)], y, 1, rule="joint")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_smoother_entry_named(self, bad):
        # an infinite entry used to pass the checks and run to NaN
        S = 0.5 * np.eye(3)
        S[0, 2] = S[2, 0] = bad
        with pytest.raises(ValueError, match=r"smoother 1 entry \(0, 2\) is not finite"):
            smoother_boost([np.eye(3), S], np.ones(3), 2)

    def test_asymmetric_smoother_rejected(self):
        S = 0.5 * np.eye(3)
        S[0, 1] = 0.1
        with pytest.raises(ValueError, match="smoother 0 is not symmetric"):
            smoother_boost([S], np.ones(3), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_outcome_named(self, bad):
        # used to return NaN residual norms without an error
        y = np.ones(4)
        y[3] = bad
        with pytest.raises(ValueError, match="non-finite value at index 3"):
            smoother_boost([0.5 * np.eye(4)], y, 2)


class TestDivergenceDetector:
    def _path(self, losses, betas, numeric_error=False):
        from amboost.boost import BoostPath

        losses = np.asarray(losses, dtype=float)
        betas = np.asarray(betas, dtype=float)
        k = len(losses) - 1
        return BoostPath(
            betas=betas,
            losses=losses,
            selected=np.zeros(k, dtype=int),
            grad_norms=np.zeros(k + 1),
            terminated_by="max_iter",
            config=BoostConfig(),
            numeric_error=numeric_error,
        )

    def test_decreasing_is_converging(self):
        losses = np.exp(-0.1 * np.arange(30))
        betas = (1.0 - np.exp(-0.1 * np.arange(30)))[:, None]
        path = self._path(losses, betas)
        assert divergence_detector(path, window=10) == "converging"

    @pytest.mark.parametrize("cycle", [(5.0, 4.0), (4942.8, 668.1, 997.3)])
    def test_loss_cycle_of_any_period_is_oscillating(self, cycle):
        # the second is the period-3 Poisson cycle of expfam_convergence at
        # nu=0.1, which the per-coefficient sign test called converging
        losses = np.resize(cycle, 40)
        path = self._path(losses, np.zeros((40, 1)))
        assert divergence_detector(path, window=20) == "oscillating"

    def test_flat_loss_with_alternating_coefficients_is_converging(self):
        # the removed sign test called this path oscillating
        betas = np.array([[0.7 * (-1) ** k] for k in range(20)])
        path = self._path(np.full(20, 3.0), betas)
        assert divergence_detector(path, window=8) == "converging"

    def test_rounding_rises_after_a_descent_to_zero_are_converging(self):
        # rises of a tenth of a loss of 1e-30 are rounding of the start loss
        # of 1, not a cycle; the damped coefficient bounce is not one either
        jitter = 1e-30 * (1.0 + 0.1 * np.resize([0.0, 1.0], 20))
        losses = np.concatenate([np.logspace(0, -30, 31), jitter])
        betas = np.cumsum((-0.6) ** np.arange(51))[:, None]
        path = self._path(losses, betas)
        # a scale taken from the window alone would call these rises a cycle
        assert np.diff(losses[-21:]).max() > 1e-12 * losses[-21:].max()
        assert divergence_detector(path, window=20) == "converging"

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 6),
        extra_rows=st.integers(0, 10),
        nu=st.floats(0.0, 1.0, exclude_min=True),
        mode=st.sampled_from(boost.MODES),
        lam=st.sampled_from([0.0, 0.5, 100.0]),
    )
    # interpolating runs whose losses near 1e-32 rise by a tenth of
    # themselves, which a tolerance scaled by the window alone calls a cycle
    @example(seed=4079487078, p=2, extra_rows=0, nu=0.5670558183853956, mode="greedy", lam=0.0)
    @example(seed=2632959285, p=4, extra_rows=0, nu=0.9895368240333908, mode="greedy", lam=0.5)
    def test_every_l2_run_is_converging(self, seed, p, extra_rows, nu, mode, lam):
        # an l2 run at nu <= 1 never raises its loss; at extra_rows = 0 the
        # loss falls to rounding of zero, where its jitter is no cycle
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(p + extra_rows, p))
        y = rng.normal(size=p + extra_rows)
        specs = singleton_blocks(p) if lam == 0.0 else [
            BlockSpec(tuple(range(j, min(j + 2, p))), lam) for j in range(0, p, 2)]
        path = run_boost(make_partition(X, specs), l2(), y,
                         BoostConfig(nu=nu, max_iter=200, mode=mode))
        assert divergence_detector(path, window=20) == "converging"

    def test_loss_blowup_is_diverging(self):
        losses = np.concatenate([np.ones(10), [1e3]])
        betas = np.zeros((11, 1))
        path = self._path(losses, betas)
        assert divergence_detector(path, window=5) == "diverging"

    def test_numeric_error_is_diverging(self):
        path = self._path(np.ones(3), np.zeros((3, 1)), numeric_error=True)
        assert divergence_detector(path, window=2) == "diverging"

    def test_window_validation(self):
        path = self._path(np.ones(3), np.zeros((3, 1)))
        with pytest.raises(ValueError):
            divergence_detector(path, window=1)
