"""Tests of the benchmark itself.

Each workload runs at a tiny size with every check on; negative controls
show that each check rejects a perturbed result; the tracer's
bookkeeping and the command's output are checked against
``BENCHMARK.json``.

    python -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import amboost  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(W.WORKLOADS))
def tiny_run(request, tmp_path_factory):
    """Set-up and two repetitions of a workload at the tiny size."""
    wl = W.WORKLOADS[request.param]
    state = wl.setup(3, "tiny", tmp_path_factory.mktemp(wl.name))
    memo = {}
    reps = []
    for _ in range(2):
        outcome = wl.body(state)
        reps.append((outcome, wl.check(state, outcome, memo)))
    return wl, state, reps


def test_tiny_workload_passes_every_check(tiny_run):
    wl, _, reps = tiny_run
    for outcome, failures in reps:
        assert outcome.attempted > 0
        assert outcome.failed == 0, outcome.errors
        assert failures == []


def _tiny(name, tmp_path, seed=3):
    wl = W.WORKLOADS[name]
    state = wl.setup(seed, "tiny", tmp_path)
    return state, wl.body(state)


# -- paper_experiments ------------------------------------------------------

@pytest.fixture(scope="module")
def paper(tmp_path_factory):
    return _tiny("paper_experiments", tmp_path_factory.mktemp("paper"))


def test_pspline_check_rejects_nudged_coefficient(paper):
    _, outcome = paper
    lam = W.PSPLINE["tiny"]["lams"][0]
    beta = W.read_final_coefficients(
        outcome.data["dir"] / "pspline_unpenalized" / f"boost_path_lam_{lam:g}.csv"
    )
    reference = W.pspline_reference(**W.PSPLINE["tiny"])
    assert W.check_pspline({lam: beta}, reference) == []
    nudged = beta.copy()
    nudged[2] *= 1.0 + 1e-4
    assert W.check_pspline({lam: nudged}, reference)


def test_manifest_check_rejects_failed_check(paper):
    _, outcome = paper
    manifest = json.loads((outcome.data["dir"] / "rates_sweep" / "manifest.json").read_text())
    assert W.check_manifests({"rates_sweep": manifest}) == []
    manifest["checks"][0]["passed"] = False
    assert W.check_manifests({"rates_sweep": manifest})


def test_csv_identity_check_rejects_changed_file(paper):
    _, outcome = paper
    digests = W.csv_digests(outcome.data["dir"])
    assert len(digests) > 10
    changed = dict(digests)
    changed[sorted(changed)[0]] = "0" * 64
    assert W.check_same_csv(digests, dict(digests)) == []
    assert W.check_same_csv(digests, changed)


def test_failing_cli_call_counts_as_failed_operation(tmp_path):
    outcome = W.Outcome()
    outcome.attempt("rates", W._cli, ["rates", "--config", str(tmp_path / "missing.ini")])
    assert (outcome.attempted, outcome.failed) == (1, 1)
    assert "exit code 1" in outcome.errors[0]


# -- greedy_wide ------------------------------------------------------------

@pytest.fixture(scope="module")
def greedy(tmp_path_factory):
    return _tiny("greedy_wide", tmp_path_factory.mktemp("greedy"))


def test_greedy_checks_reject_swapped_selection(greedy):
    state, outcome = greedy
    path, gsq = outcome.data["l2"], outcome.data["gsq"]
    def residuals(b):
        return state.y - state.X @ b

    swapped = path.selected.copy()
    swapped[1] = (swapped[1] + 1) % state.partition.n_blocks
    assert W.check_greedy_steps(state.X, residuals, path.betas, path.selected, W.NU) == []
    assert W.check_greedy_steps(state.X, residuals, path.betas, swapped, W.NU)
    assert W.check_same_path(swapped, path.betas, gsq.selected, gsq.betas)


def test_step_check_rejects_nudged_binomial_coefficient(greedy):
    state, outcome = greedy
    path = outcome.data["binomial"]
    def working(b):
        return state.y_bin - W.expit(state.X @ b)

    assert W.check_greedy_steps(state.X, working, path.betas, path.selected, W.NU) == []
    nudged = path.betas.copy()
    nudged[3:, path.selected[2]] *= 1.0 + 1e-7
    assert W.check_greedy_steps(state.X, working, nudged, path.selected, W.NU)


def test_equivalence_check_rejects_nudged_coefficient(greedy):
    _, outcome = greedy
    path, gsq = outcome.data["l2"], outcome.data["gsq"]
    assert W.check_same_path(path.selected, path.betas, gsq.selected, gsq.betas) == []
    nudged = gsq.betas.copy()
    j = gsq.selected[-1]
    nudged[-1, j] *= 1.0 + 1e-9
    assert W.check_same_path(path.selected, path.betas, gsq.selected, nudged)


def test_gap_bound_check_rejects_stalled_step(greedy):
    state, outcome = greedy
    losses = outcome.data["l2"].losses
    loss_opt, gamma = W.l2_reference(state.X, state.y, state.partition.n_blocks, W.NU)
    assert 0.0 < gamma < 1.0
    assert W.check_gap_bound(losses, loss_opt, gamma) == []
    stalled = losses.copy()
    stalled[1] = stalled[0]
    assert W.check_gap_bound(stalled, loss_opt, gamma)


def test_binomial_checks_reject_nudged_and_rising_losses(greedy):
    state, outcome = greedy
    path = outcome.data["binomial"]
    assert W.check_binomial(state.X, state.y_bin, path.betas, path.losses) == []
    nudged = path.losses.copy()
    nudged[-1] *= 1.0 + 1e-7
    assert W.check_binomial(state.X, state.y_bin, path.betas, nudged)
    rising = path.losses.copy()
    rising[[1, 2]] = rising[[2, 1]]
    assert W.check_binomial(state.X, state.y_bin, path.betas, rising)


# -- cox_survival -----------------------------------------------------------

@pytest.fixture(scope="module")
def cox(tmp_path_factory):
    return _tiny("cox_survival", tmp_path_factory.mktemp("cox"))


def _dense_breslow(f, times, events):
    """Loss over explicit risk sets: every subject still at risk at t_i."""
    ev = events.astype(bool)
    at_risk = times[None, :] >= times[ev, None]
    log_risk = np.log(np.where(at_risk, np.exp(f)[None, :], 0.0).sum(axis=1))
    return float(np.sum(log_risk - f[ev]))


def test_tiny_cox_data_has_ties_and_both_outcomes(cox):
    state, _ = cox
    assert np.unique(state.times).size < state.times.size / 2
    assert 0 < state.events.sum() < state.events.size


def test_breslow_reference_matches_explicit_risk_sets(cox):
    state, outcome = cox
    f = state.X @ outcome.data["path"].final
    loss, _ = W.breslow(f, state.times, state.events)
    assert loss == pytest.approx(_dense_breslow(f, state.times, state.events), rel=1e-12)


def test_cox_check_rejects_loss_over_wrong_risk_set(cox):
    state, outcome = cox
    path = outcome.data["path"]
    f = state.X @ path.final
    ref_loss, ref_response = W.breslow(f, state.times, state.events)
    response = amboost.neg_functional_gradient(state.loss, state.events, f)
    assert W.check_cox(path.losses, response, ref_loss, ref_response) == []
    # break the ties, so a tied subject drops out of the others' risk sets
    jittered = state.times + 1e-9 * np.arange(state.times.size)
    wrong_loss, wrong_response = W.breslow(f, jittered, state.events)
    wrong_losses = path.losses.copy()
    wrong_losses[-1] = wrong_loss
    assert W.check_cox(wrong_losses, response, ref_loss, ref_response)
    assert W.check_cox(path.losses, wrong_response, ref_loss, ref_response)


def test_cox_check_rejects_loss_that_does_not_fall(cox):
    state, outcome = cox
    path = outcome.data["path"]
    f = state.X @ path.final
    ref_loss, ref_response = W.breslow(f, state.times, state.events)
    flat = path.losses.copy()
    flat[0] = flat[-1]
    assert W.check_cox(flat, ref_response, ref_loss, ref_response)


# -- tracer -----------------------------------------------------------------

def _small_l2():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 3))
    return amboost.make_partition(X, amboost.singleton_blocks(3)), X @ [1.0, 0.0, -1.0]


def test_tracer_installs_everywhere_and_uninstalls():
    original = amboost.run_boost
    tr = tracer.Tracer()
    tr.install()
    try:
        assert amboost.run_boost is not original
        assert amboost.run_boost is amboost.gbcd.run_boost is amboost.experiments.run_boost
    finally:
        tr.uninstall()
    assert amboost.run_boost is original is amboost.boost.run_boost is amboost.gbcd.run_boost


def test_traced_round_counts_and_self_times():
    part, y = _small_l2()
    tr = tracer.Tracer()
    tr.install()
    try:
        with tr.span(tracer.SETUP_SPAN):
            pass
        with tr.span(tracer.BODY_SPAN):
            amboost.run_boost(part, amboost.l2(), y, amboost.BoostConfig(max_iter=3))
        metrics, self_sum = tracer.layer_metrics(tr, 0, len(tr), tr.take_counts())
    finally:
        tr.uninstall()
    assert metrics["boost.steps"] == 3
    assert metrics["losses.evaluate_calls"] == 4
    assert metrics["losses.unread_weights_calls"] == 4
    # once by run_boost, then by loss_value and neg_functional_gradient per evaluation
    assert metrics["losses.validate_outcome_calls"] == 1 + 2 * 4
    assert metrics["losses.evaluate_s"] >= metrics["losses.loss_value_s"] > 0
    total = metrics["trace.setup_s"] + metrics["trace.body_s"]
    assert self_sum == pytest.approx(total, rel=1e-9)
    assert 0 < metrics["trace.outside_s"] < total
    assert set(metrics) == set(tracer.LAYER_METRICS) - {"trace.overhead_s"}


def test_engine_clock_counts_steps():
    part, y = _small_l2()
    clock = tracer.EngineClock()
    clock.install()
    try:
        amboost.gbcd_gsq(part, amboost.l2(), y, amboost.GbcdConfig(max_iter=4))
        amboost.gbcd.equivalence_check(part, amboost.l2(), y, 0.5, 2)
    finally:
        clock.uninstall()
    assert clock.steps == 4 + 2 + 2
    assert clock.seconds > 0


# -- the command ------------------------------------------------------------

def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_command_prints_declared_metrics(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0.5",
                "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_benchmark_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS) == list(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "greedy_wide", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
