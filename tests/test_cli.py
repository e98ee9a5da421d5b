import csv
import json
from pathlib import Path

import numpy as np
import pytest

from amboost.cli import main
from amboost.closedform import linear_boost_path
from amboost.experiments import synth_glm_data

SAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "sample_config.ini"


def write_ini(tmp_path, text):
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    return str(path)


class TestFit:
    def test_gaussian_fit(self, tmp_path, capsys):
        cfg = write_ini(
            tmp_path,
            "[experiment]\nseed = 4\n\n"
            "[data]\nn = 60\np = 3\nrho = 0.3\nbeta_true = 1,-1,0.5\n"
            "family = gaussian\n\n"
            "[run]\nnu = 0.5\nmax_iter = 40\nmode = greedy\nblocks = singleton\n",
        )
        code = main(["fit", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "fit_path.csv").exists()
        assert "terminated by max_iter" in capsys.readouterr().out

    def test_grouped_blocks_with_ridge(self, tmp_path):
        cfg = write_ini(
            tmp_path,
            "[data]\nn = 50\np = 4\nbeta_true = 1,1,1,1\nfamily = gaussian\n\n"
            "[run]\nnu = 1.0\nmax_iter = 10\nblocks = 2+2\npenalty = ridge\n"
            "lam = 0.5\n",
        )
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_gaussian_fit_beyond_700(self, tmp_path, capsys):
        # the exp-link overflow guard used to stop this fit with exit 2
        cfg = write_ini(
            tmp_path,
            "[data]\nn = 50\np = 2\nbeta_true = 600,600\nfamily = gaussian\n\n"
            "[run]\nmode = joint\n",
        )
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert "terminated by max_iter" in capsys.readouterr().out

    def test_bad_family_is_config_error(self, tmp_path, capsys):
        cfg = write_ini(
            tmp_path, "[data]\nfamily = gamma\n\n[run]\nmax_iter = 5\n"
        )
        code = main(["fit", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("args, text", [(["--seed", "-1"], ""),
                                            ([], "[experiment]\nseed = -2\n")])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, args, text):
        cfg = write_ini(tmp_path, text + "[data]\nn = 30\n")
        out = tmp_path / "o"
        assert main(["fit", "--config", cfg, "--out", str(out), *args]) == 1
        assert "config key experiment.seed must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["fit", "--out", str(tmp_path)]) == 1

    def test_singular_penalized_system_is_exit_two(self, tmp_path, capsys):
        # LinAlgError is a ValueError; it must still report as numeric
        cfg = write_ini(
            tmp_path,
            "[data]\nn = 1\np = 3\nbeta_true = 1,1,1\n\n"
            "[run]\nblocks = 3\npenalty = diff2\nlam = 1\n",
        )
        code = main(["fit", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "numeric error: singular penalized system" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, key",
        [
            ("[run]\nmax_iters = 5\n", "run.max_iters"),
            ("[data]\nfamilly = poisson\n", "data.familly"),
            ("[experiment]\nseed = 1\nname = path_matching\n", "experiment.name"),
            ("[oracle]\nk = 1,2\n", "oracle.k"),
        ],
    )
    def test_unknown_key_is_config_error(self, tmp_path, capsys, text, key):
        cfg = write_ini(tmp_path, text)
        out = tmp_path / "o"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 1
        assert f"unknown config key {key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, key",
        [
            ("[run]\nnu = 0.1,0.2\n", "run.nu"),
            ("[run]\nmax_iter = 2.5\n", "run.max_iter"),
            ("[run]\ndivergence_guard = maybe\n", "run.divergence_guard"),
            ("[data]\nn = many\n", "data.n"),
            ("[oracle]\nks = 1,x\n", "oracle.ks"),
            # block sizes used to fail naming no key
            ("[run]\nblocks = a+b\n", "run.blocks"),
            ("[run]\nblocks = 1+1+1\n", "run.blocks"),
            ("[run]\nblocks = 3+-1\n", "run.blocks"),
        ],
    )
    def test_mistyped_value_is_config_error(self, tmp_path, capsys, text, key):
        cfg = write_ini(tmp_path, text)
        out = tmp_path / "o"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 1
        assert f"config error: config key {key} " in capsys.readouterr().err
        assert not out.exists()

    def test_empty_data_is_config_error(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "[data]\nn = 0\n")
        out = tmp_path / "o"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 1
        assert "n=0" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_section_is_config_error(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "[runs]\nmax_iter = 5\n")
        assert main(["rates", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "unknown config section [runs]" in capsys.readouterr().err

    def test_malformed_file_is_config_error(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "max_iter = 5\n")
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "malformed config file" in capsys.readouterr().err

    def test_numeric_overflow_is_exit_two(self, tmp_path, capsys):
        # aggressive poisson boosting overflows without the guard
        cfg = write_ini(
            tmp_path,
            "[experiment]\nseed = 3\n\n"
            "[data]\nn = 100\np = 2\nrho = 0.5\nbeta_true = 3,-2\n"
            "family = poisson\n\n"
            "[run]\nnu = 1.0\nmax_iter = 500\nmode = greedy\n",
        )
        code = main(["fit", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "numeric error" in capsys.readouterr().err

    def test_text_key_keeps_its_text(self, tmp_path, capsys):
        # mode = yes used to be read as a flag and reported as 'True'
        cfg = write_ini(tmp_path, "[run]\nmode = yes\n")
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "unknown mode 'yes'" in capsys.readouterr().err


class TestOracle:
    def test_path_points_and_penalty_export(self, tmp_path):
        cfg = write_ini(
            tmp_path,
            "[experiment]\nseed = 2\n\n"
            "[data]\nn = 40\np = 3\nbeta_true = 1,0,-1\nfamily = gaussian\n\n"
            "[oracle]\nnu = 0.5\nlam = 0\nks = 0,1,5,50\ngamma_ks = 1,5\n",
        )
        out = tmp_path / "o"
        assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "oracle_path.csv").exists()
        assert (out / "implicit_penalty_k1.csv").exists()
        assert (out / "implicit_penalty_k5.csv").exists()

    def test_unpenalized_path_matches_the_linear_oracle(self, tmp_path):
        # the sample config's oracle is penalized; lam = 0 takes the
        # unpenalized branch of path_points
        cfg = write_ini(
            tmp_path,
            "[data]\nn = 50\np = 3\nrho = 0.3\n\n[oracle]\nlam = 0\nks = 0,1,5,40\n",
        )
        out = tmp_path / "o"
        assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
        X, y = synth_glm_data(50, 3, 0.3, (1.0, 1.0, 1.0), "gaussian", 0)
        with open(out / "oracle_path.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [int(row[0]) for row in rows] == [0, 1, 5, 40]
        for row in rows:
            np.testing.assert_allclose(
                [float(v) for v in row[1:]], linear_boost_path(X, y, 0.1, int(row[0])),
                rtol=1e-10,
            )

    def test_no_penalty_ignores_the_weight(self, tmp_path):
        # [run] took penalty = none, but [oracle] used to reject it
        paths = []
        for i, text in enumerate(("penalty = none\nlam = 1\n", "lam = 0\n")):
            cfg = write_ini(tmp_path, f"[data]\nn = 30\np = 3\n\n[oracle]\n{text}")
            out = tmp_path / f"o{i}"
            assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
            paths.append((out / "oracle_path.csv").read_bytes())
        assert paths[0] == paths[1]

    def test_diff2_on_two_coefficients_names_the_key(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "[oracle]\npenalty = diff2\nlam = 1\n")
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert ("config error: config key oracle.penalty = diff2 needs a learner of "
                "at least 3 coefficients, got 2") in capsys.readouterr().err

    def test_unpenalized_rank_deficient_design_is_exit_two(self, tmp_path, capsys):
        # it used to be reported as a singular penalized system
        cfg = write_ini(tmp_path, "[data]\nn = 3\np = 4\n\n[oracle]\nlam = 0\n")
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "numeric error: design matrix is rank deficient" in capsys.readouterr().err

    def test_non_gaussian_rejected(self, tmp_path):
        cfg = write_ini(
            tmp_path, "[data]\nfamily = poisson\nbeta_true = 1,1\n"
        )
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "text, key",
        [
            # a non-integral iteration count used to be truncated to k=2
            ("[oracle]\ngamma_ks = 2.5\n", "oracle.gamma_ks"),
            # text among the coefficients used to fail without naming the key
            ("[data]\np = 4\nbeta_true = 2,x,0.5,0\n", "data.beta_true"),
        ],
    )
    def test_mistyped_list_value_is_config_error(self, tmp_path, capsys, text, key):
        cfg = write_ini(tmp_path, text)
        out = tmp_path / "o"
        assert main(["oracle", "--config", cfg, "--out", str(out)]) == 1
        assert f"config error: config key {key} " in capsys.readouterr().err
        assert not out.exists()


class TestRates:
    def test_compliant_run(self, tmp_path, capsys):
        cfg = write_ini(
            tmp_path,
            "[experiment]\nseed = 6\n\n"
            "[data]\nn = 80\np = 4\nrho = 0.4\nbeta_true = 1,-1,2,0\n"
            "family = gaussian\n\n"
            "[run]\nnu = 1.0\nmax_iter = 120\nmode = greedy\n",
        )
        out = tmp_path / "o"
        assert main(["rates", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "rate_report.csv").exists()
        assert "compliant" in capsys.readouterr().out

    @staticmethod
    def sample_with(tmp_path, run_lines):
        """The sample config with ``run_lines`` added to its ``[run]`` section."""
        text = SAMPLE_CONFIG.read_text().replace("[run]\n", f"[run]\n{run_lines}", 1)
        return write_ini(tmp_path, text)

    def test_offset_run_is_compliant(self, tmp_path, capsys):
        # the gaps were measured from the no-offset fit's loss, so this run
        # used to exit 3, violated first at k=163
        cfg = self.sample_with(tmp_path, "init = offset\n")
        assert main(["rates", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert "gap bound: compliant" in capsys.readouterr().out

    def test_penalized_learner_is_config_error(self, tmp_path, capsys):
        # the bound covers unpenalized learners; this used to exit 3 at k=74
        cfg = self.sample_with(tmp_path, "lam = 1000\npenalty = ridge\n")
        out = tmp_path / "o"
        assert main(["rates", "--config", cfg, "--out", str(out)]) == 1
        assert ("config error: the gap bound covers unpenalized learners; "
                "block 0 has penalty weight 1000") in capsys.readouterr().err
        assert not out.exists()

    def test_weight_without_penalty_is_unpenalized(self, tmp_path, capsys):
        cfg = self.sample_with(tmp_path, "lam = 5\npenalty = none\n")
        assert main(["rates", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert "gap bound: compliant" in capsys.readouterr().out

    def test_cyclic_run_is_config_error(self, tmp_path, capsys):
        # the greedy per-step bound does not cover a cyclic step, which may
        # take a block whose gradient is near zero; this used to exit 3 at k=1
        text = (SAMPLE_CONFIG.read_text().replace("mode = greedy", "mode = cyclic")
                .replace("rho = 0.4", "rho = 0.0")
                .replace("beta_true = 2,-1,0.5,0", "beta_true = 0,0,0,2"))
        out = tmp_path / "o"
        assert main(["rates", "--config", write_ini(tmp_path, text), "--out", str(out)]) == 1
        assert ("config error: the gap bound is a per-step bound for greedy and joint "
                "updates") in capsys.readouterr().err
        assert not out.exists()


class TestExperimentAndReport:
    def test_experiment_then_report(self, tmp_path, capsys):
        cfg = write_ini(
            tmp_path,
            "[experiment]\nname = gsq_equivalence\nseed = 3\n\n"
            "[run]\nn_partitions = 3\nn_steps = 40\n",
        )
        out = str(tmp_path / "art")
        assert main(["experiment", "gsq_equivalence", "--config", cfg,
                     "--out", out]) == 0
        capsys.readouterr()
        code = main(["report", "--out", out + "/gsq_equivalence"])
        assert code == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_report_exit_three_on_failed_check(self, tmp_path, capsys):
        cfg = write_ini(
            tmp_path,
            "[experiment]\nname = gsq_equivalence\nseed = 3\n\n"
            "[run]\nn_partitions = 2\nn_steps = 30\n",
        )
        out = tmp_path / "art"
        assert main(["experiment", "gsq_equivalence", "--config", cfg,
                     "--out", str(out)]) == 0
        manifest_path = out / "gsq_equivalence" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["checks"].append(
            {"name": "injected", "passed": False, "detail": "forced"}
        )
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["report", "--out", str(out / "gsq_equivalence")]) == 3

    def test_gsq_equivalence_full_horizon_at_seed_1(self, tmp_path, capsys):
        # boosting and descent score blocks identically, so no trial may
        # stop early on a selection tie at converged-noise scale
        out = tmp_path / "art"
        assert main(["experiment", "gsq_equivalence", "--seed", "1",
                     "--out", str(out)]) == 0
        with open(out / "gsq_equivalence" / "equivalence.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 20
        for row in rows:
            assert row["identical"] == "True"
            assert int(row["n_compared"]) == 200 + 1

    @pytest.mark.parametrize(
        "line, message",
        [
            ("n_steps = 1,2", "config key run.n_steps takes one value"),
            # an empty list used to crash the scenario with ZeroDivisionError
            ("nus = ,", "config key run.nus needs at least one value"),
        ],
    )
    def test_mistyped_value_is_config_error(self, tmp_path, capsys, line, message):
        cfg = write_ini(tmp_path, f"[run]\n{line}\n")
        out = tmp_path / "art"
        assert main(["experiment", "gsq_equivalence", "--config", cfg,
                     "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "lines, message",
        [
            # n = 3 used to exit 2 from a singular block scaling matrix,
            # p_min > p_max to name no key, p_max = 0 to find no columns
            ("n = 3", "config key data.n is below min(4, data.p_max)"),
            ("p_min = 8\np_max = 5", "config keys data.p_min and data.p_max need"),
            ("p_min = 0\np_max = 0", "config keys data.p_min and data.p_max need"),
            ("n = 4", None),
        ],
    )
    def test_gsq_sizes_name_their_key(self, tmp_path, capsys, lines, message):
        cfg = write_ini(tmp_path, f"[data]\n{lines}\n\n[run]\nn_partitions = 3\nn_steps = 20\n")
        out = tmp_path / "art"
        code = main(["experiment", "gsq_equivalence", "--config", cfg, "--out", str(out)])
        if message is None:
            assert code == 0
        else:
            assert code == 1
            assert f"config error: {message}" in capsys.readouterr().err
            assert not out.exists()

    def test_period_three_poisson_cycle_is_non_converging(self, tmp_path, capsys):
        # the Poisson loss cycles 4942.8, 668.1, 997.3; the per-coefficient
        # sign test called this path converging, so the check used to fail
        cfg = write_ini(tmp_path, "[run]\nnus = 0.1\n")
        assert main(["experiment", "expfam_convergence", "--config", cfg,
                     "--out", str(tmp_path / "art")]) == 0
        assert "[PASS] poisson_fails_for_some_rate  (non-converging rates: [0.1])" in (
            capsys.readouterr().out
        )

    @pytest.mark.parametrize("rho", ["1.5", "-0.5", "nan"])
    def test_invalid_correlation_is_config_error(self, tmp_path, capsys, rho):
        # the scenario drew its design unchecked: 1.5 and -0.5 (p >= 4) used
        # to exit 2 from the Cholesky factor, nan to name a design entry
        cfg = write_ini(tmp_path, f"[data]\nrho = {rho}\n")
        out = tmp_path / "art"
        assert main(["experiment", "gsq_equivalence", "--config", cfg,
                     "--out", str(out)]) == 1
        assert f"config error: correlation {rho} invalid for p=" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("out", ["007", "1e3", "runs,2026"])
    def test_text_key_keeps_its_text(self, tmp_path, monkeypatch, out):
        # out = 007 used to write under 7/, and runs,2026 to be a list
        cfg = write_ini(
            tmp_path,
            f"[experiment]\nname = gsq_equivalence\nout = {out}\n\n"
            "[run]\nn_partitions = 2\nn_steps = 10\n",
        )
        monkeypatch.chdir(tmp_path)
        assert main(["experiment", "gsq_equivalence", "--config", cfg]) == 0
        assert (tmp_path / out / "gsq_equivalence" / "manifest.json").exists()

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "art"
        assert main(["experiment", "gsq_equivalence", "--seed", "-1",
                     "--out", str(out)]) == 1
        assert "config key experiment.seed must be nonnegative, got -1" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_report_on_missing_dir_is_config_error(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "void")]) == 1

    @pytest.mark.parametrize(
        "change, message",
        [
            (None, None),
            # these used to escape as a bare AttributeError or KeyError
            ({"files": [{"path": "a.csv", "rows": 1}]}, "files is not an object"),
            ({"files": {"a": {"rows": 1}}}, "file 'a' lacks path"),
            ({"files": {"a": {"path": "a.csv"}}}, "file 'a' lacks rows"),
            ({"files": {"a": "a.csv"}}, "file 'a' lacks path, rows"),
            ({"files": {"a": {"path": 5, "rows": 1}}}, "file 'a' path is not a string"),
            # a directory used to pass as a listed file
            ({"files": {"a": {"path": ".", "rows": 1}}}, "references missing file ."),
            ({"checks": {"c": True}}, "checks is not a list"),
            ({"checks": [{"name": "c"}]}, "check 0 lacks passed"),
            ({"checks": [{"passed": True}]}, "check 0 lacks name"),
            ({"checks": ["c"]}, "check 0 lacks name, passed"),
            ({"svgs": ["a.svg"]}, "svgs is not an object"),
        ],
    )
    def test_malformed_manifest_is_integrity_error(self, tmp_path, capsys, change, message):
        manifest = {
            "experiment": "x", "seed": 0, "version": "0", "rng": "r",
            "files": {"a": {"path": "a.csv", "rows": 1}},
            "checks": [{"name": "c", "passed": True}],
        }
        (tmp_path / "a.csv").write_text("x\n1\n")
        (tmp_path / "manifest.json").write_text(json.dumps(manifest | (change or {})))
        code = main(["report", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        if change is None:
            assert code == 0 and err == ""
        else:
            assert code == 1
            assert err.startswith("config error: manifest ") and err.endswith(f"{message}\n")

    def test_unknown_experiment_rejected_by_parser(self, capsys):
        # a usage error is a configuration error (1), never numeric (2)
        assert main(["experiment", "not_a_scenario"]) == 1
        assert "invalid choice: 'not_a_scenario'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "oracle", "rates"])
def test_svg_rejected_outside_experiment(tmp_path, command, capsys):
    cfg = write_ini(tmp_path, "[data]\nn = 30\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--svg"]) == 1
    assert "unrecognized arguments: --svg" in capsys.readouterr().err


def test_missing_command_is_config_error(capsys):
    assert main([]) == 1
    assert "the following arguments are required: command" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: amboost" in capsys.readouterr().out


def test_svg_accepted_by_experiment(tmp_path):
    cfg = write_ini(tmp_path, "[run]\nn_partitions = 2\nn_steps = 20\n")
    out = tmp_path / "art"
    assert main(["experiment", "gsq_equivalence", "--config", cfg,
                 "--out", str(out), "--svg"]) == 0
    manifest = json.loads((out / "gsq_equivalence" / "manifest.json").read_text())
    assert manifest["config"]["svg"] is True


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("fit", "[run]\nnu = 2\n", "run.nu: step size nu must be in (0, 1], got 2.0"),
        ("rates", "[run]\nnu = 2\n", "run.nu: step size nu must be in (0, 1], got 2.0"),
        ("oracle", "[oracle]\nnu = 2\n", "oracle.nu: step size nu must be in (0, 1], got 2.0"),
        ("fit", "[run]\nmode = yes\n", "run.mode: unknown mode 'yes'"),
        ("rates", "[run]\nmax_iter = 0\n", "run.max_iter: max_iter=0 is not an integer >= 1"),
        ("fit", "[data]\nfamily = foo\n", "data.family names an unknown family 'foo'; "
                                           "choose from gaussian, binomial, poisson"),
    ],
)
def test_out_of_range_value_names_its_key(tmp_path, capsys, command, text, message):
    # these used to print the library's message, which names no key
    cfg = write_ini(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"config error: config key {message}\n"


@pytest.mark.parametrize("command, section", [("fit", "run"), ("oracle", "oracle")])
def test_unknown_penalty_is_config_error(tmp_path, capsys, command, section):
    cfg = write_ini(tmp_path, f"[{section}]\npenalty = lasso\nlam = 1\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "unknown penalty 'lasso'" in capsys.readouterr().err


@pytest.mark.parametrize("command, section", [("fit", "run"), ("oracle", "oracle")])
def test_unknown_penalty_without_a_weight_is_config_error(tmp_path, capsys, command, section):
    # at the default lam = 0 a penalty name used to go unread
    cfg = write_ini(tmp_path, f"[{section}]\npenalty = lasso\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert (f"config error: config key {section}.penalty names an unknown penalty 'lasso'"
            in capsys.readouterr().err)
