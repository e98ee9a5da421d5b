import csv
import json

import pytest

from amboost.cli import main


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

    def test_unknown_experiment_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["experiment", "not_a_scenario"])


@pytest.mark.parametrize("command", ["fit", "oracle", "rates"])
def test_svg_rejected_outside_experiment(tmp_path, command, capsys):
    cfg = write_ini(tmp_path, "[data]\nn = 30\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--svg"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --svg" in capsys.readouterr().err


def test_svg_accepted_by_experiment(tmp_path):
    cfg = write_ini(tmp_path, "[run]\nn_partitions = 2\nn_steps = 20\n")
    out = tmp_path / "art"
    assert main(["experiment", "gsq_equivalence", "--config", cfg,
                 "--out", str(out), "--svg"]) == 0
    manifest = json.loads((out / "gsq_equivalence" / "manifest.json").read_text())
    assert manifest["config"]["svg"] is True


@pytest.mark.parametrize("command, section", [("fit", "run"), ("oracle", "oracle")])
def test_unknown_penalty_is_config_error(tmp_path, capsys, command, section):
    cfg = write_ini(tmp_path, f"[{section}]\npenalty = lasso\nlam = 1\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "unknown penalty 'lasso'" in capsys.readouterr().err
