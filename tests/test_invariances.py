"""Invariances the theory predicts, checked as metamorphic relations.

Each test runs the engine twice, on an input and on a transformed copy
whose answer the theory fixes, and compares the two paths; no oracle is
needed. The partial likelihood sees the times only through their order
(Cox, JRSS-B 1972), and no loss depends on the order of the rows.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from amboost.boost import BoostConfig, run_boost
from amboost.design import make_partition, singleton_blocks
from amboost.losses import coxph


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
