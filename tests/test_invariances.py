"""Invariances the theory predicts, checked as metamorphic relations.

Each test runs the engine twice, on an input and on a transformed copy
whose answer the theory fixes, and compares the two paths; no oracle is
needed. The partial likelihood sees the times only through their order
(Cox, JRSS-B 1972), no loss depends on the order of the rows, and a base
learner is seen only through its hat matrix (Buhlmann and Yu, JASA 2003),
which neither a column's scale nor a change of a block's basis, its
penalty carried along, changes. The binomial loss of ``1 - y`` at ``-f``
is that of ``y`` at ``f``, so flipped labels negate a path from the zero
start. Every operation of an ``l2`` run is homogeneous in the outcome,
so a power-of-two scale of it scales the path exactly, up to where the
start iterate overflows.
"""

import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from amboost.boost import BoostConfig, run_boost
from amboost.design import BlockSpec, difference_penalty, make_partition, singleton_blocks
from amboost.gbcd import GbcdConfig, gbcd_gsq
from amboost.losses import binomial, coxph, l2, poisson


@st.composite
def tied_cox_runs(draw):
    """A censored survival design with tied times, and an engine config."""
    n = draw(st.integers(8, 60))
    p = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-1, 1, size=p)
    # few distinct times, so most subjects share theirs with others
    times = rng.integers(1, draw(st.integers(2, 8)) + 1, size=n) * draw(st.floats(0.01, 100.0))
    events = (rng.uniform(size=n) < 0.6).astype(float)
    events[rng.integers(n)] = 1.0
    cfg = BoostConfig(
        nu=draw(st.floats(0.05, 0.5)),
        max_iter=draw(st.integers(1, 30)),
        mode=draw(st.sampled_from(["greedy", "cyclic", "joint"])),
    )
    return X, times, events, cfg, rng


def cox_path(X, times, events, cfg):
    part = make_partition(X, singleton_blocks(X.shape[1]))
    return run_boost(part, coxph(times, events), events, cfg)


class TestCoxInvariances:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(tied_cox_runs())
    def test_doubled_times_give_a_bit_identical_path(self, run):
        # doubling is exact in floating point, so the order and the ties of
        # the times, and with them every sum the loss makes, are unchanged
        X, times, events, cfg, _ = run
        path = cox_path(X, times, events, cfg)
        doubled = cox_path(X, 2.0 * times, events, cfg)
        for field in ("betas", "losses", "selected", "grad_norms"):
            np.testing.assert_array_equal(getattr(doubled, field), getattr(path, field))
        assert doubled.terminated_by == path.terminated_by

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(tied_cox_runs())
    def test_row_permutation_keeps_the_path(self, run):
        # Rounding is why the betas are compared within 1e-12 and not bit for
        # bit: a permutation reorders the terms of X'r, of each tie group's
        # risk sum and of the loss, and floating-point addition is not
        # associative. Each step moves a few units in the last place, and
        # 30 steps of that stay far below 1e-12 of the largest coefficient.
        X, times, events, cfg, rng = run
        path = cox_path(X, times, events, cfg)
        perm = rng.permutation(times.size)
        permuted = cox_path(X[perm], times[perm], events[perm], cfg)
        np.testing.assert_array_equal(permuted.selected, path.selected)
        scale = np.max(np.abs(path.betas))
        assert np.max(np.abs(permuted.betas - path.betas)) <= 1e-12 * scale


@st.composite
def singleton_runs(draw):
    """A design of singleton blocks, an outcome of each family and a run."""
    n = draw(st.integers(5, 40))
    p = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-1, 1, size=p)
    eta = 0.3 * X @ rng.normal(size=p)
    loss = draw(st.sampled_from([l2(), binomial(), poisson()]))
    if loss.family == "l2":
        y = eta + rng.normal(size=n)
    elif loss.family == "binomial":
        y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    else:
        y = rng.poisson(np.exp(eta)).astype(float)
    cfg = BoostConfig(
        nu=draw(st.floats(0.05, 0.5)),
        max_iter=draw(st.integers(1, 30)),
        mode=draw(st.sampled_from(["greedy", "cyclic"])),
        divergence_guard=True,
    )
    column = draw(st.integers(0, p - 1))
    c = draw(st.sampled_from([-1.0, 1.0])) * 2.0 ** draw(st.integers(-30, 30))
    return X, y, loss, cfg, column, c


class TestColumnScaling:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(singleton_runs())
    def test_scaled_column_keeps_selections_and_divides_its_coefficient(self, run):
        # Scaling by a power of two is exact, and so is every product and
        # quotient the engine forms from the scaled column. Only the
        # column's singular value, from LAPACK's QR and SVD, may differ:
        # their norms may rescale a vector by a factor chosen from its
        # magnitude, which can move s by an ulp and each later step by a
        # few. 1e-12 of the largest coefficient bounds 30 steps of that.
        X, y, loss, cfg, j, c = run
        scaled = X.copy()
        scaled[:, j] *= c
        # a diverging Poisson run can overflow X'r or its norm before the
        # guard trips, on both sides alike
        with np.errstate(over="ignore", invalid="ignore"):
            path = run_boost(make_partition(X, singleton_blocks(X.shape[1])), loss, y, cfg)
            other = run_boost(
                make_partition(scaled, singleton_blocks(X.shape[1])), loss, y, cfg
            )
        np.testing.assert_array_equal(other.selected, path.selected)
        assert other.terminated_by == path.terminated_by
        unscaled = other.betas.copy()
        unscaled[:, j] *= c
        scale = np.max(np.abs(path.betas))
        assert np.max(np.abs(unscaled - path.betas)) <= 1e-12 * scale


@st.composite
def shifted_l2_runs(draw):
    """A singleton design, an ``l2`` outcome, a shift of it and an offset-start run."""
    n = draw(st.integers(5, 40))
    p = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-1, 1, size=p)
    y = 0.3 * X @ rng.normal(size=p) + rng.normal(size=n)
    c = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3.0, 3.0))
    cfg = BoostConfig(
        nu=draw(st.floats(0.05, 0.5)),
        max_iter=draw(st.integers(1, 30)),
        mode=draw(st.sampled_from(["greedy", "cyclic", "joint"])),
        init="offset",
    )
    return X, y, c, cfg


class TestOutcomeShift:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(shifted_l2_runs())
    def test_offset_start_absorbs_a_shifted_outcome(self, run):
        # The offset is the outcome mean, so y + c starts from the same
        # working response up to rounding: y_i + c, its mean and every
        # predictor offset + f round to the ulp of |c| + |y|, which moves
        # each step's residual by a few ulps of that. The betas are linear
        # in the residual, so they move by a multiple of eps (1 + |c| / r0)
        # times the largest one, r0 the largest centred outcome. Over 3,000
        # seeded runs of this kind the multiple was at most 266; 1e-12 is
        # 4,500 eps.
        X, y, c, cfg = run
        part = make_partition(X, singleton_blocks(X.shape[1]))
        path = run_boost(part, l2(), y, cfg)
        shifted = run_boost(part, l2(), y + c, cfg)
        np.testing.assert_array_equal(shifted.selected, path.selected)
        assert shifted.terminated_by == path.terminated_by
        r0 = np.max(np.abs(y - y.mean()))
        scale = np.max(np.abs(path.betas))
        assert np.max(np.abs(shifted.betas - path.betas)) <= 1e-12 * (1.0 + abs(c) / r0) * scale


def well_conditioned(rng, q):
    """A random q x q matrix with singular values in [0.5, 2], so condition <= 4."""
    U, _ = np.linalg.qr(rng.normal(size=(q, q)))
    V, _ = np.linalg.qr(rng.normal(size=(q, q)))
    return U @ np.diag(rng.uniform(0.5, 2.0, size=q)) @ V


@st.composite
def reparametrized_l2_runs(draw):
    """An unpenalized and a penalized three-column block, a singleton and a run."""
    n = draw(st.integers(8, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, 7)) * 10.0 ** rng.uniform(-1, 1, size=7)
    y = X @ rng.normal(size=7) + rng.normal(size=n)
    cfg = BoostConfig(
        nu=draw(st.floats(0.05, 1.0)),
        max_iter=draw(st.integers(1, 30)),
        mode=draw(st.sampled_from(["greedy", "cyclic", "joint"])),
    )
    return X, y, draw(st.floats(0.5, 5.0)), well_conditioned(rng, 3), well_conditioned(rng, 3), cfg


class TestBlockReparametrization:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(reparametrized_l2_runs())
    def test_block_basis_change_keeps_selections_and_fit(self, run):
        # A block is seen only through its hat matrix, which X_b -> X_b A
        # keeps, and with P -> A'P A its penalized hat matrix too. The
        # engine factors X_b A, not X_b, so each step's block fit is the
        # same least-squares solve in another basis, equal up to a few eps
        # times the block's condition number (columns scaled over 10^+-1,
        # A's condition at most 4) times |r| <= |y|. Over 1,200 seeded runs
        # of this kind the largest gap in the fitted values was 588 eps
        # max|y|; 1e-11 max|y| is 45,000 eps.
        X, y, lam, A, B, cfg = run
        P = difference_penalty(3, 2)
        changed = X.copy()
        changed[:, 0:3] = X[:, 0:3] @ A
        changed[:, 3:6] = X[:, 3:6] @ B
        specs = [BlockSpec((0, 1, 2)), BlockSpec((3, 4, 5), lam, P), BlockSpec((6,))]
        path = run_boost(make_partition(X, specs), l2(), y, cfg)
        specs[1] = BlockSpec((3, 4, 5), lam, B.T @ P @ B)
        other = run_boost(make_partition(changed, specs), l2(), y, cfg)
        np.testing.assert_array_equal(other.selected, path.selected)
        assert other.terminated_by == path.terminated_by
        gap = np.max(np.abs(other.betas @ changed.T - path.betas @ X.T))
        assert gap <= 1e-11 * np.max(np.abs(y))


@st.composite
def binomial_runs(draw):
    """A singleton design, a binomial outcome and a run from the zero start."""
    n = draw(st.integers(5, 40))
    p = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-1, 1, size=p)
    eta = 0.5 * X @ rng.normal(size=p)
    y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    cfg = BoostConfig(
        nu=draw(st.floats(0.05, 1.0)),
        max_iter=draw(st.integers(1, 30)),
        mode=draw(st.sampled_from(["greedy", "cyclic", "joint"])),
        init="zero",
    )
    return X, y, cfg


class TestBinomialLabelFlip:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(binomial_runs())
    def test_flipped_labels_negate_the_path(self, run):
        # From a zero start, 1 - y and -f give the same binomial loss and the
        # negated working response: 1 - y - expit(-f) = -(y - expit(f)). The
        # two sides differ only in the rounding of expit(-f) against
        # 1 - expit(f), an ulp of 1 per entry, which moves each step's
        # increment by a few eps relative. Over 1,200 seeded runs of this
        # kind the largest gap was 46 eps of the largest coefficient; 1e-12
        # of it is 4,500 eps.
        X, y, cfg = run
        part = make_partition(X, singleton_blocks(X.shape[1]))
        path = run_boost(part, binomial(), y, cfg)
        flipped = run_boost(part, binomial(), 1.0 - y, cfg)
        np.testing.assert_array_equal(flipped.selected, path.selected)
        assert flipped.terminated_by == path.terminated_by
        scale = np.max(np.abs(path.betas))
        assert np.max(np.abs(flipped.betas + path.betas)) <= 1e-12 * scale


@st.composite
def penalized_l2_problems(draw):
    """A partition with a penalized three-column block, an ``l2`` outcome and a step size."""
    n = draw(st.integers(8, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, 5))
    y = X @ rng.normal(size=5) + rng.normal(size=n)
    specs = [
        BlockSpec((0, 1, 2), draw(st.floats(0.5, 5.0)), difference_penalty(3, 2)),
        BlockSpec((3,)),
        BlockSpec((4,)),
    ]
    return make_partition(X, specs), y, draw(st.floats(0.05, 1.0))


# powers of two well inside the float range, then a window across the
# powers where the start loss or gradient of these outcomes overflows
SCALE_POWERS = [-60, -1, 1, 60, *range(496, 517)]


class TestOutcomeScaling:
    @settings(max_examples=5, deadline=None, derandomize=True, database=None)
    @given(penalized_l2_problems())
    def test_power_of_two_outcome_scales_the_path_or_is_rejected(self, problem):
        # Multiplying by 2**k is exact, and so is every sum, product and
        # solve the engines form from the outcome, until a value overflows
        # (or, near k = -1000, underflows). So each run on 2**k y matches
        # the run on y, betas times 2**k and the same selections, bit for
        # bit, or its start iterate overflows and it is rejected, for that
        # k and every larger one. Any other error, or a RuntimeWarning,
        # fails the test.
        part, y, nu = problem
        engines = {
            f"{mode}/{init}": lambda y, mode=mode, init=init: run_boost(
                part, l2(), y, BoostConfig(nu=nu, max_iter=10, mode=mode, init=init)
            )
            for mode in ("joint", "greedy", "cyclic")
            for init in ("zero", "offset")
        }
        engines["gbcd_gsq"] = lambda y: gbcd_gsq(part, l2(), y, GbcdConfig(nu=nu, max_iter=10))
        for name, engine in engines.items():
            path = engine(y)
            rejected_at = None
            for k in SCALE_POWERS:
                try:
                    scaled = engine(np.ldexp(y, k))
                except ValueError as exc:
                    assert re.match(r"outcome of magnitude \S+ overflows ", str(exc)), exc
                    rejected_at = k if rejected_at is None else rejected_at
                    continue
                assert rejected_at is None, f"{name}: 2**{k} y runs, 2**{rejected_at} y did not"
                np.testing.assert_array_equal(scaled.selected, path.selected)
                np.testing.assert_array_equal(scaled.betas, np.ldexp(path.betas, k))
                assert scaled.terminated_by == path.terminated_by
            # the window crosses the edge: the last power is rejected, the first runs
            assert rejected_at is not None and rejected_at > SCALE_POWERS[0], name
