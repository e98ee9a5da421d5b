import copy
import pickle
import re
import warnings

import numpy as np
import pytest
from scipy.interpolate import BSpline

from amboost.boost import BoostConfig, divergence_detector, run_boost, smoother_boost
from amboost.closedform import (
    implicit_penalty,
    linear_boost_path,
    path_points,
    penalized_boost_path,
    ridge_equivalent_lambda,
)
from amboost import design
from amboost.design import (
    BlockSpec,
    DesignBlock,
    SplineSpec,
    bspline_basis,
    bspline_knots,
    difference_matrix,
    difference_penalty,
    make_partition,
    single_block,
    singleton_blocks,
)
from amboost.distreg import biconvexity_check, cyclic_boost_ls
from amboost.gbcd import GbcdConfig
from amboost.losses import l2
from amboost.rates import rate_general, rate_quadratic


def scipy_basis(x, spec):
    """Independent reference evaluation via scipy's B-spline implementation."""
    t = bspline_knots(spec)
    cols = []
    for j in range(spec.n_basis):
        c = np.zeros(spec.n_basis)
        c[j] = 1.0
        # extrapolate=False keeps evaluation strictly on the knot span;
        # the right endpoint needs the closed-interval convention.
        b = BSpline(t, c, spec.degree, extrapolate=False)
        vals = b(x)
        vals = np.where(np.isnan(vals), 0.0, vals)
        cols.append(vals)
    B = np.column_stack(cols)
    hi = spec.domain[1]
    at_hi = x == hi
    if at_hi.any():
        eps = 1e-9 * (hi - spec.domain[0])
        B[at_hi] = scipy_basis(np.full(at_hi.sum(), hi - eps), spec)
    return B


class TestBsplineBasis:
    def test_partition_of_unity(self):
        rng = np.random.default_rng(0)
        for degree in (1, 2, 3, 4):
            spec = SplineSpec(n_knots=8, degree=degree, domain=(-1.0, 2.0))
            x = rng.uniform(-1.0, 2.0, size=200)
            x[:2] = (-1.0, 2.0)  # include both endpoints
            B = bspline_basis(x, spec)
            np.testing.assert_allclose(B.sum(axis=1), 1.0, atol=1e-12)

    def test_basis_dimension(self):
        spec = SplineSpec(n_knots=10, degree=3)
        B = bspline_basis(np.linspace(0, 1, 5), spec)
        assert B.shape == (5, 12)

    def test_degree_zero_is_interval_indicator(self):
        # Brute-force interval lookup oracle on interval midpoints.
        spec = SplineSpec(n_knots=7, degree=0, diff_order=1, domain=(0.0, 1.0))
        grid = np.linspace(0.0, 1.0, 7)
        mids = 0.5 * (grid[:-1] + grid[1:])
        B = bspline_basis(mids, spec)
        assert B.shape == (6, 6)
        expected = np.zeros((6, 6))
        for i, m in enumerate(mids):
            expected[i, np.searchsorted(grid, m) - 1] = 1.0
        np.testing.assert_array_equal(B, expected)

    def test_matches_independent_reference(self):
        rng = np.random.default_rng(42)
        spec = SplineSpec(n_knots=9, degree=3, domain=(0.0, 4.0))
        x = rng.uniform(0.0, 4.0, size=100)
        np.testing.assert_allclose(
            bspline_basis(x, spec), scipy_basis(x, spec), atol=1e-12
        )

    def test_matches_reference_other_degrees(self):
        rng = np.random.default_rng(1)
        for degree in (1, 2, 4):
            spec = SplineSpec(n_knots=6, degree=degree, diff_order=1, domain=(-2.0, 1.0))
            x = rng.uniform(-2.0, 1.0, size=50)
            np.testing.assert_allclose(
                bspline_basis(x, spec), scipy_basis(x, spec), atol=1e-12
            )

    def test_out_of_domain_raises(self):
        spec = SplineSpec(n_knots=5)
        with pytest.raises(ValueError, match="outside"):
            bspline_basis(np.array([0.5, 1.2]), spec)

    def test_degenerate_domain_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            SplineSpec(n_knots=5, domain=(1.0, 1.0))


class TestDifferencePenalty:
    def test_first_difference_row(self):
        D = difference_matrix(5, 2)
        np.testing.assert_array_equal(D[0], [1.0, -2.0, 1.0, 0.0, 0.0])

    def test_penalty_entries(self):
        P = difference_penalty(5, 2)
        assert P[0, 0] == 1.0
        assert P[0, 1] == -2.0
        assert P[1, 1] == 5.0
        np.testing.assert_array_equal(P, P.T)

    def test_rank_deficiency(self):
        for p in (5, 9, 13):
            P = difference_penalty(p, 2)
            assert np.linalg.matrix_rank(P) == p - 2

    def test_psd_with_exactly_d_zero_eigenvalues(self):
        for p, d in [(6, 1), (8, 2), (9, 3)]:
            w = np.linalg.eigvalsh(difference_penalty(p, d))
            tol = 1e-9 * w[-1]
            assert np.all(w > -tol)
            assert np.sum(np.abs(w) < tol) == d

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            difference_penalty(4, 4)


class TestPartition:
    def test_two_linear_blocks(self):
        X = np.arange(20.0).reshape(5, 4)
        part = make_partition(X, [BlockSpec((0, 1)), BlockSpec((2, 3))])
        assert part.n_blocks == 2
        np.testing.assert_array_equal(part.blocks[1].X, X[:, 2:])

    def test_joint_single_block(self):
        X = np.ones((4, 3))
        part = make_partition(X, single_block(3))
        assert part.n_blocks == 1
        assert part.blocks[0].p == 3

    def test_non_covering_raises(self):
        X = np.ones((4, 3))
        with pytest.raises(ValueError, match="not covered"):
            make_partition(X, [BlockSpec((0, 1))])

    def test_overlap_raises(self):
        X = np.ones((4, 3))
        with pytest.raises(ValueError, match="overlap"):
            make_partition(X, [BlockSpec((0, 1)), BlockSpec((1, 2))])

    def test_empty_design_rejected(self):
        with pytest.raises(ValueError, match="no rows"):
            make_partition(np.empty((0, 2)), singleton_blocks(2))
        # used to build a partition on which run_boost raised IndexError
        with pytest.raises(ValueError, match="no columns"):
            make_partition(np.ones((3, 0)), [])

    def test_spec_must_be_block_spec(self):
        with pytest.raises(TypeError, match="block spec 1 is a tuple"):
            make_partition(np.ones((4, 2)), [BlockSpec((0,)), ((1,),)])

    @pytest.mark.parametrize("bad", [1.7, 1.0, np.float64(1.0), "1"])
    def test_non_integer_column_rejected(self, bad):
        # 1.7 used to be truncated to column 1
        msg = re.escape(f"block spec 1 column {bad!r} is not an integer")
        with pytest.raises(ValueError, match=msg):
            make_partition(np.ones((4, 2)), [BlockSpec((0,)), BlockSpec((bad,))])

    def test_bool_column_rejected(self):
        # bool is an Integral: these specs used to build blocks over columns 1 and 0
        with pytest.raises(ValueError, match="block spec 0 column True is not an integer"):
            make_partition(
                np.arange(6.0).reshape(3, 2), [BlockSpec((True,)), BlockSpec((False,))]
            )
        with pytest.raises(ValueError, match="block spec 1 column False is not an integer"):
            make_partition(np.ones((3, 2)), [BlockSpec((1,)), BlockSpec((False,))])

    def test_numpy_integer_columns_accepted(self):
        part = make_partition(np.ones((4, 2)), [BlockSpec((np.int64(1), np.int32(0)))])
        np.testing.assert_array_equal(part.column_map[0], [1, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_named(self, bad):
        # a NaN used to surface only later, as "SVD did not converge"
        X = np.ones((4, 3))
        X[2, 1] = bad
        X[3, 0] = bad
        with pytest.raises(ValueError, match=r"entry \(2, 1\) is not finite"):
            make_partition(X, singleton_blocks(3))

    def test_overflowing_column_named_with_its_block(self):
        # with l2 boosting its gradient used to overflow to inf, and the run
        # stalled at max_iter with only RuntimeWarnings
        X = np.array([[1e300, 1.0], [1e300, -1.0], [-1e300, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^block 0 column 0 has a sum of squares "
                               "beyond the largest float"):
                make_partition(X, singleton_blocks(2))
            with pytest.raises(ValueError, match="^block 1 column 0 has a sum"):
                make_partition(X, [BlockSpec((1,)), BlockSpec((0,))])
            with pytest.raises(ValueError, match="^block feature matrix column 1 has a sum"):
                DesignBlock(X[:, ::-1], np.zeros((2, 2)))
            # near the largest float, but the sum of squares still fits
            make_partition(np.array([[1e154, 1.0], [1e153, 2.0]]), singleton_blocks(2))

    def test_design_checked_in_one_pass(self, monkeypatch):
        # the design's column sums were taken twice, then once more per block
        shapes = []
        column_squares = design._column_squares
        monkeypatch.setattr(design, "_column_squares",
                            lambda X: shapes.append(X.shape) or column_squares(X))
        X = np.random.default_rng(5).normal(size=(6, 5))
        specs = [BlockSpec((0, 1), 2.0), BlockSpec((3,)), BlockSpec((4, 2), 0.5, 2 * np.eye(2))]
        part = make_partition(X, specs)
        # the other calls check the penalties, whose rows are not the design's
        assert [shape for shape in shapes if shape[0] == 6] == [(6, 5)]
        for block, s in zip(part.blocks, specs):
            alone = DesignBlock(X[:, list(s.columns)], block.P, s.lam)
            np.testing.assert_array_equal(block.X, alone.X)
            np.testing.assert_array_equal(block.P, alone.P)
            assert block.lam == alone.lam
        # the penalty's shape is still checked per block
        with pytest.raises(ValueError, match=r"penalty has shape \(3, 3\), expected \(2, 2\)"):
            make_partition(X, [BlockSpec((0, 1), 1.0, np.eye(3)), BlockSpec((2, 3, 4))])

    def test_only_a_supplied_penalty_is_checked(self, monkeypatch):
        # the zero or identity penalty of a spec without one is symmetric PSD
        # by construction; its eigenvalue check was most of the build time
        # of a partition of many singletons
        calls = []
        psd_spectrum = design._psd_spectrum
        monkeypatch.setattr(design, "_psd_spectrum",
                            lambda M, what: calls.append(what) or psd_spectrum(M, what))
        X = np.random.default_rng(5).normal(size=(6, 5))
        make_partition(X, singleton_blocks(5))
        make_partition(X, [BlockSpec((0, 1), 2.0), BlockSpec((2,), 0.5), BlockSpec((3, 4))])
        assert calls == []
        make_partition(X, [BlockSpec((0, 1), 2.0, 2 * np.eye(2)), BlockSpec((2,)),
                           BlockSpec((3,), 0.0, np.ones((1, 1))),
                           BlockSpec((4,), 1.0, np.zeros((1, 1)))])
        assert calls == ["penalty matrix"] * 3
        part = make_partition(X, [BlockSpec((0, 1), 2.0), BlockSpec((2, 3, 4))])
        np.testing.assert_array_equal(part.blocks[0].P, np.eye(2))
        np.testing.assert_array_equal(part.blocks[1].P, np.zeros((3, 3)))

    def test_singleton_blocks(self):
        X = np.random.default_rng(3).normal(size=(6, 4))
        part = make_partition(X, singleton_blocks(4))
        assert part.n_blocks == 4
        assert all(b.p == 1 for b in part.blocks)

    def test_contiguous_blocks_are_read_only_views(self):
        X = np.random.default_rng(3).normal(size=(6, 4))
        part = make_partition(X, singleton_blocks(4))
        assert part.X is X
        for j, block in enumerate(part.blocks):
            assert np.shares_memory(block.X, X)
            assert not block.X.flags.writeable
            np.testing.assert_array_equal(block.X, X[:, [j]])
        assert X.flags.writeable

    def test_boosted_partition_pickles_and_deep_copies(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 5))
        y = X @ rng.normal(size=5) + rng.normal(size=30)
        part = make_partition(X, [BlockSpec((0, 1), 2.0), BlockSpec((2,)), BlockSpec((4, 3))])
        cfg = BoostConfig(nu=0.3, max_iter=20)
        path = run_boost(part, l2(), y, cfg)
        run_boost(part, l2(), y, BoostConfig(nu=0.3, max_iter=2, mode="joint"))
        copies = [
            pickle.loads(pickle.dumps(part)),
            pickle.loads(pickle.dumps(pickle.loads(pickle.dumps(part)))),
            copy.deepcopy(part),
        ]
        for clone in copies:
            again = run_boost(clone, l2(), y, cfg)
            for field in ("betas", "losses", "grad_norms", "selected"):
                np.testing.assert_array_equal(getattr(again, field), getattr(path, field))
            # contiguous blocks are views of the copy's one design again
            assert np.shares_memory(clone.blocks[0].X, clone.X)
            assert np.shares_memory(clone.blocks[1].X, clone.X)
            assert not np.shares_memory(clone.blocks[2].X, clone.X)
        assert len(pickle.dumps(part)) < 1.5 * X.nbytes

    def test_non_contiguous_blocks_are_copied(self):
        X = np.arange(20.0).reshape(5, 4)
        part = make_partition(X, [BlockSpec((0, 2)), BlockSpec((3, 1))])
        np.testing.assert_array_equal(part.blocks[0].X, X[:, [0, 2]])
        np.testing.assert_array_equal(part.blocks[1].X, X[:, [3, 1]])
        assert not np.shares_memory(part.blocks[1].X, X)

    def test_penalty_blockdiag(self):
        X = np.ones((4, 3))
        P = np.eye(2)
        part = make_partition(
            X, [BlockSpec((0, 1), 2.0, P), BlockSpec((2,))]
        )
        G = part.penalty_blockdiag()
        np.testing.assert_array_equal(G[:2, :2], 2.0 * np.eye(2))
        assert G[2, 2] == 0.0

    @pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
    def test_penalty_weight_must_be_finite_and_nonnegative(self, lam):
        # NaN used to give a silently unpenalized block in greedy mode
        with pytest.raises(ValueError, match="is not finite and nonnegative"):
            make_partition(np.ones((3, 2)), [BlockSpec((0, 1), lam)])

    def test_non_psd_penalty_rejected(self):
        with pytest.raises(ValueError, match="PSD"):
            DesignBlock(np.ones((3, 2)), -np.eye(2), lam=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_penalty_entry_named(self, bad):
        # an infinite entry used to be accepted (its symmetry tolerance became
        # infinite) and a NaN one was reported as "not symmetric"
        P = np.eye(2)
        P[1, 0] = P[0, 1] = bad
        with pytest.raises(ValueError, match=r"penalty matrix entry \(0, 1\) is not finite"):
            make_partition(np.ones((3, 2)), [BlockSpec((0, 1), 1.0, P)])

    def test_asymmetric_penalty_rejected(self):
        P = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="penalty matrix is not symmetric"):
            DesignBlock(np.ones((3, 2)), P, lam=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_block_non_finite_entry_named(self, bad):
        X = np.ones((4, 2))
        X[3, 0] = bad
        X[1, 1] = bad
        with pytest.raises(ValueError, match=r"block feature matrix entry \(1, 1\) is not finite"):
            DesignBlock(X, np.zeros((2, 2)))

    @pytest.mark.parametrize("shape", [(0, 2), (3, 0)])
    def test_empty_block_rejected(self, shape):
        with pytest.raises(ValueError, match="empty"):
            DesignBlock(np.ones(shape), np.zeros((shape[1], shape[1])))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            DesignBlock(np.ones((3, 2)), np.eye(3), lam=1.0)


def _short_path():
    part = make_partition(np.eye(3), singleton_blocks(3))
    return run_boost(part, l2(), np.ones(3), BoostConfig(max_iter=3))


def _ls_data():
    rng = np.random.default_rng(4)
    return rng.normal(size=(6, 2)), rng.normal(size=(6, 1)), rng.normal(size=6)


_X2, _Y4 = np.eye(4)[:, :2] + 1.0, np.ones(4)


class TestCountRule:
    """Every count argument goes through ``design._check_count``."""

    # name in the message, smallest valid value, call with the count
    COUNTS = {
        "BoostConfig.max_iter": ("max_iter", 1, lambda v: BoostConfig(max_iter=v)),
        "GbcdConfig.max_iter": ("max_iter", 0, lambda v: GbcdConfig(max_iter=v)),
        "cyclic_boost_ls.max_iter": (
            "max_iter", 1, lambda v: cyclic_boost_ls(*_ls_data(), 0.1, v)),
        "smoother_boost.n_steps": (
            "n_steps", 0, lambda v: smoother_boost([np.eye(3)], np.ones(3), v)),
        "divergence_detector.window": (
            "window", 2, lambda v: divergence_detector(_short_path(), window=v)),
        "linear_boost_path.k": ("k", 0, lambda v: linear_boost_path(_X2, _Y4, 0.5, v)),
        "penalized_boost_path.k": (
            "k", 0, lambda v: penalized_boost_path(_X2, _Y4, np.eye(2), 1.0, 0.5, v)),
        "path_points.k": ("k", 0, lambda v: path_points(_X2, _Y4, 0.5, (3, v))),
        "implicit_penalty.k": (
            "k", 1, lambda v: implicit_penalty(_X2, _Y4, None, 0.0, 0.5, v)),
        "ridge_equivalent_lambda.k": (
            "k", 1, lambda v: ridge_equivalent_lambda(1.0, 0.5, v)),
        "rate_quadratic.n_blocks": (
            "n_blocks", 1, lambda v: rate_quadratic(np.eye(2), v, 0.5)),
        "rate_general.n_blocks": ("n_blocks", 1, lambda v: rate_general(1.0, 2.0, v, 0.5)),
        "biconvexity_check.trials": (
            "trials", 1, lambda v: biconvexity_check(*_ls_data(), trials=v)),
        "SplineSpec.n_knots": ("n_knots", 2, lambda v: SplineSpec(n_knots=v)),
        "SplineSpec.degree": ("degree", 0, lambda v: SplineSpec(n_knots=10, degree=v)),
        "SplineSpec.diff_order": (
            "diff_order", 1, lambda v: SplineSpec(n_knots=10, diff_order=v)),
        "difference_matrix.d": ("d", 1, lambda v: difference_matrix(4, v)),
    }

    @pytest.mark.parametrize("bad", ["fraction", "bool", "nan", "below"])
    @pytest.mark.parametrize("site", COUNTS)
    def test_non_count_rejected_by_name(self, site, bad):
        # 2.5 used to give a non-existent iterate, a wrong report or an
        # IndexError deep inside; NaN compared false against every bound
        name, minimum, call = self.COUNTS[site]
        value = {"fraction": 2.5, "bool": True, "nan": np.nan, "below": minimum - 1}[bad]
        msg = rf"\b{name}={re.escape(repr(value))} is not an integer >= {minimum}$"
        with pytest.raises(ValueError, match=msg):
            call(value)

    @pytest.mark.parametrize("site", COUNTS)
    def test_numpy_integer_accepted(self, site):
        _, minimum, call = self.COUNTS[site]
        call(np.int64(max(minimum, 2)))
