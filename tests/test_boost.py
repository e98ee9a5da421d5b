import csv

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

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
from amboost.design import (
    BlockSpec,
    DesignBlock,
    SplineSpec,
    bspline_basis,
    make_partition,
    pspline_block_spec,
    single_block,
    singleton_blocks,
)
from amboost.errors import NumericError
from amboost.losses import binomial, l2, poisson
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
         dict(max_iter=0), dict(max_iter=2.5), dict(max_iter=2.0),
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
        rec = _PathRecorder(np.zeros(1), 0.0, grads[0])
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


class TestSmootherBoost:
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
            numeric_error=numeric_error,
        )

    def test_decreasing_is_converging(self):
        losses = np.exp(-0.1 * np.arange(30))
        betas = (1.0 - np.exp(-0.1 * np.arange(30)))[:, None]
        path = self._path(losses, betas)
        assert divergence_detector(path, window=10) == "converging"

    def test_sign_alternation_is_oscillating(self):
        a = 0.7
        betas = np.array([[a * (-1) ** k] for k in range(20)])
        losses = np.full(20, 3.0)
        path = self._path(losses, betas)
        assert divergence_detector(path, window=8) == "oscillating"

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
