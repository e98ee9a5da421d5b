import csv
import dataclasses
import json

import numpy as np
import pytest

from amboost import distreg, experiments, gbcd, rates
from amboost.boost import BoostConfig, divergence_detector, run_boost
from amboost.closedform import ridge_equivalent_lambda
from amboost.distreg import GaussianLSModel, gauss_ls_eval
from amboost.errors import ConfigError, IntegrityError, NumericError
from amboost.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    emit_report,
    load_artifact,
    load_config,
    run_experiment,
    synth_glm_data,
    synth_survival_data,
)
from amboost.rates import hessian_ub_check, rate_quadratic


class TestSynthData:
    def test_deterministic(self):
        a = synth_glm_data(50, 2, 0.5, (3.0, -2.0), "poisson", seed=11)
        b = synth_glm_data(50, 2, 0.5, (3.0, -2.0), "poisson", seed=11)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_poisson_counts_valid(self):
        X, y = synth_glm_data(100, 2, 0.5, (3.0, -2.0), "poisson", seed=5)
        assert np.all(y >= 0)
        assert np.all(y == np.round(y))

    def test_uncorrelated_band(self):
        X, _ = synth_glm_data(100, 2, 0.0, (1.0, 1.0), "gaussian", seed=0)
        rho_hat = np.corrcoef(X[:, 0], X[:, 1])[0, 1]
        assert abs(rho_hat) < 0.3

    def test_requested_correlation_reached(self):
        X, _ = synth_glm_data(4000, 2, 0.7, (1.0, 1.0), "gaussian", seed=1)
        rho_hat = np.corrcoef(X[:, 0], X[:, 1])[0, 1]
        assert abs(rho_hat - 0.7) < 0.05

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            synth_glm_data(10, 2, 1.5, (1.0, 1.0), "gaussian", 0)
        with pytest.raises(ConfigError):
            synth_glm_data(10, 2, 0.5, (1.0, 1.0), "gamma", 0)
        with pytest.raises(ConfigError):
            synth_glm_data(10, 3, 0.5, (1.0, 1.0), "gaussian", 0)
        with pytest.raises(ConfigError, match="n=0"):
            synth_glm_data(0, 2, 0.5, (1.0, 1.0), "gaussian", 0)
        with pytest.raises(ConfigError, match="n=0"):
            synth_survival_data(0, 2, (1.0, 1.0), 0)

    def test_binomial_outcomes(self):
        _, y = synth_glm_data(60, 2, 0.5, (1.0, -1.0), "binomial", seed=2)
        assert set(np.unique(y)) <= {0.0, 1.0}

    def test_survival_data(self):
        X, times, events = synth_survival_data(50, 4, (1.0, -1.0, 0.5, 0.0), 3)
        assert np.all(times > 0)
        assert set(np.unique(events)) <= {0.0, 1.0}
        assert events.sum() > 5


class TestRunExperiment:
    def small_gsq(self, tmp_path, seed=3):
        return ExperimentConfig(
            experiment="gsq_equivalence",
            seed=seed,
            out_dir=str(tmp_path),
            run={"n_partitions": 4, "n_steps": 60},
        )

    def test_artifact_structure(self, tmp_path):
        artifact = run_experiment(self.small_gsq(tmp_path))
        assert (artifact.out_dir / "manifest.json").exists()
        assert artifact.all_passed
        for name, path in artifact.files.items():
            assert path.exists()
            assert path.stat().st_size > 0
        manifest = json.loads((artifact.out_dir / "manifest.json").read_text())
        assert manifest["rng"].startswith("numpy.random.default_rng")
        assert manifest["experiment"] == "gsq_equivalence"

    def test_determinism_byte_identical(self, tmp_path):
        a = run_experiment(self.small_gsq(tmp_path / "a"))
        b = run_experiment(self.small_gsq(tmp_path / "b"))
        for name in a.files:
            assert a.files[name].read_bytes() == b.files[name].read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a = run_experiment(self.small_gsq(tmp_path / "a", seed=1))
        b = run_experiment(self.small_gsq(tmp_path / "b", seed=2))
        assert (
            a.files["equivalence"].read_bytes() != b.files["equivalence"].read_bytes()
        )

    @pytest.mark.parametrize("name", ["nope", ["path_matching"]])
    def test_unknown_experiment_rejected(self, tmp_path, name):
        # an unhashable name is a ConfigError, not a TypeError from a dict lookup
        with pytest.raises(ConfigError, match="unknown experiment"):
            ExperimentConfig(experiment=name, out_dir=str(tmp_path))

    @pytest.mark.parametrize("section", ["data", "run"])
    def test_unknown_parameter_rejected(self, tmp_path, section):
        with pytest.raises(ConfigError, match=rf"{section}\.n_steps_typo"):
            ExperimentConfig(
                experiment="gsq_equivalence",
                out_dir=str(tmp_path),
                **{section: {"n_steps_typo": 5}},
            )

    @pytest.mark.parametrize(
        "section, values, match",
        [
            ("run", {"max_iter": 2.5}, r"run\.max_iter must be an integer"),
            ("run", {"nu": "fast"}, r"run\.nu must be a number"),
            ("run", {"nu": True}, r"run\.nu must be a number"),
            ("run", {"nu": (0.1, 0.2)}, r"run\.nu takes one value"),
            ("data", {"beta_true": ()}, r"data\.beta_true needs at least one value"),
            ("data", {"beta_true": (1.0, "x")}, r"data\.beta_true must be a number"),
        ],
    )
    def test_mistyped_parameter_rejected(self, tmp_path, section, values, match):
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig(
                experiment="path_matching", out_dir=str(tmp_path), **{section: values}
            )

    def test_param_takes_the_default_type(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="pspline_unpenalized",
            out_dir=str(tmp_path),
            data={"n": 50.0, "noise": 1},
            run={"lams": 2},
        )
        n, noise = cfg.params["data"]["n"], cfg.params["data"]["noise"]
        lams = cfg.params["run"]["lams"]
        assert (n, noise, lams) == (50, 1.0, (2.0,))
        assert (type(n), type(noise), type(lams[0])) == (int, float, float)
        assert cfg.params["run"]["max_iter"] == 50000
        assert cfg.run == {"lams": 2}

    def test_seed_and_svg_are_typed(self, tmp_path):
        # a numpy integer seed used to crash json.dump and leave a
        # truncated manifest behind the written CSVs
        cfg = ExperimentConfig("gsq_equivalence", seed=np.int64(1),
                               out_dir=str(tmp_path),
                               run={"n_partitions": 2, "n_steps": 10})
        assert type(cfg.seed) is int
        artifact = run_experiment(cfg)
        with open(artifact.out_dir / "manifest.json") as fh:
            assert json.load(fh)["seed"] == 1
        with pytest.raises(ConfigError, match=r"experiment\.svg must be true or false"):
            ExperimentConfig("gsq_equivalence", svg="yes")

    def test_manifest_echoes_typed_overrides(self, tmp_path):
        # a numpy integer override used to crash json.dump and leave a
        # truncated manifest behind the written CSVs
        overrides = {"n_partitions": np.int64(2), "n_steps": 10}
        cfg = ExperimentConfig("gsq_equivalence", out_dir=str(tmp_path),
                               run=dict(overrides))
        artifact = run_experiment(cfg)
        with open(artifact.out_dir / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["config"]["run"] == {"n_partitions": 2, "n_steps": 10}
        assert cfg.run == overrides

    @pytest.mark.parametrize("svg", [True, False])
    def test_inventory_matches_written_files(self, tmp_path, svg):
        artifact = run_experiment(
            ExperimentConfig(
                experiment="distreg_divergence",
                out_dir=str(tmp_path),
                svg=svg,
                run={"max_iter": 50, "trials": 5},
            )
        )
        manifest = artifact.manifest
        assert set(manifest["files"]) == {
            "paired_path_large", "paired_path_small", "curvature"
        }
        for name, path in artifact.files.items():
            with open(path, newline="") as fh:
                n_data_rows = len(list(csv.reader(fh))) - 1
            assert manifest["files"][name]["rows"] == n_data_rows
        if svg:
            assert manifest["svgs"] == {"scale_loss": "scale_loss.svg"}
            for rel in manifest["svgs"].values():
                assert (artifact.out_dir / rel).stat().st_size > 0
        else:
            assert manifest["svgs"] == {}
            assert not list(artifact.out_dir.glob("*.svg"))

    def test_pspline_scenario_small(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="pspline_unpenalized",
            seed=0,
            out_dir=str(tmp_path),
            data={"n": 200},
            run={"max_iter": 8000, "lams": (1.0,)},
        )
        artifact = run_experiment(cfg)
        assert artifact.all_passed

    def test_distreg_scenario(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="distreg_divergence",
            seed=0,
            out_dir=str(tmp_path),
            run={"max_iter": 200, "trials": 20},
        )
        artifact = run_experiment(cfg)
        assert artifact.all_passed
        assert "paired_path_large" in artifact.files

    @pytest.mark.parametrize(
        "data, tested",
        [({"n": 1}, None), ({"p_grid": 5}, None), ({"p_grid": (10, 5)}, "p=5 against p=10")],
        ids=["n_1", "one_point_grid", "descending_grid"],
    )
    def test_rates_sweep_needs_two_dimensions_within_n(self, tmp_path, data, tested):
        # n=1 raised "max() arg is an empty sequence"; a one-point grid and
        # a descending one checked p against itself and failed the claim
        cfg = ExperimentConfig(experiment="rates_sweep", out_dir=str(tmp_path), data=data,
                               run={"check_instances": 1})
        if tested is None:
            with pytest.raises(ConfigError, match=r"^data\.p_grid .* data\.n = "):
                run_experiment(cfg)
            assert not (tmp_path / "rates_sweep").exists()
        else:
            check = next(c for c in run_experiment(cfg).checks
                         if c["name"] == "gamma_rises_with_dimension")
            assert check["passed"] and tested in check["detail"]


class TestDistregNegativeControls:
    """Each divergence check of ``distreg_divergence`` fails on a broken run.

    The scenario runs at the small config of ``test_distreg_scenario``
    with one ingredient replaced (``cyclic_boost_ls``'s evaluation, the
    Hessian blocks or the reference instance), and only the check that
    the replacement targets may fail.
    """

    @staticmethod
    def checks(tmp_path):
        cfg = ExperimentConfig(experiment="distreg_divergence", seed=0, out_dir=str(tmp_path),
                               run={"max_iter": 200, "trials": 20})
        return {c["name"]: c["passed"] for c in run_experiment(cfg).checks}

    def test_large_step_check_fails_when_the_loss_never_moves(self, tmp_path, monkeypatch):
        # every evaluation returns the start loss and gradients, so the large
        # step neither grows the loss nor raises a NumericError
        def at_start(model, y):
            start = GaussianLSModel(model.X, model.Z, 0.0 * model.beta, 0.0 * model.xi)
            return gauss_ls_eval(start, y)

        monkeypatch.setattr(distreg, "gauss_ls_eval", at_start)
        checks = self.checks(tmp_path)
        assert checks.pop("large_step_scale_model_diverges") is False
        assert all(checks.values()), checks

    def test_small_step_check_fails_when_every_step_raises(self, tmp_path, monkeypatch):
        # every evaluation after the start raises; the start evaluation must
        # succeed, as a start that fails is an input error and stops the run
        def diverging(model, y):
            if model.beta.any() or model.xi.any():
                raise NumericError("non-finite log-scale at index 0", index=0)
            return gauss_ls_eval(model, y)

        monkeypatch.setattr(distreg, "gauss_ls_eval", diverging)
        checks = self.checks(tmp_path)
        assert checks.pop("small_step_stays_stable") is False
        assert all(checks.values()), checks

    def test_psd_check_fails_for_a_negated_mean_block(self, tmp_path, monkeypatch):
        # the full Hessian of the reference instance stays indefinite
        hessian = distreg.gauss_ls_hessian

        def negated(model, y):
            H_bb, H_bx, H_xb, H_xx = hessian(model, y)
            return -H_bb, H_bx, H_xb, H_xx

        monkeypatch.setattr(distreg, "gauss_ls_hessian", negated)
        checks = self.checks(tmp_path)
        assert checks.pop("diagonal_blocks_psd") is False
        assert all(checks.values()), checks

    def test_unbounded_check_fails_for_a_bounded_scale_curvature(self, tmp_path, monkeypatch):
        # H_xx / (1 + trace H_xx) stays PSD, with every eigenvalue below 1
        hessian = distreg.gauss_ls_hessian

        def bounded(model, y):
            H_bb, H_bx, H_xb, H_xx = hessian(model, y)
            return H_bb, H_bx, H_xb, H_xx / (1.0 + np.trace(H_xx))

        monkeypatch.setattr(distreg, "gauss_ls_hessian", bounded)
        checks = self.checks(tmp_path)
        assert checks.pop("scale_curvature_unbounded") is False
        assert all(checks.values()), checks

    def test_indefinite_check_fails_for_an_exact_fit_instance(self, tmp_path, monkeypatch):
        # with a zero residual the cross and scale blocks vanish: the full
        # Hessian is diag(exp(-2 xi), 0), PSD
        model, y = distreg.reference_indefinite_instance()
        exact_fit = dataclasses.replace(model, beta=y.copy())
        monkeypatch.setattr(distreg, "reference_indefinite_instance", lambda: (exact_fit, y))
        checks = self.checks(tmp_path)
        assert checks.pop("reference_counterexample_indefinite") is False
        assert all(checks.values()), checks


class TestAnalyticNegativeControls:
    """Each analytic check fails when the ingredient it certifies is wrong.

    A scenario runs at a small override config with one function replaced
    through ``monkeypatch``; the check that the replacement targets must
    fail and the scenario's other checks must pass.
    """

    SMALL = {
        "path_matching": ({}, {"max_iter": 200, "grid_points": 20, "isotropic_k": 20}),
        "rates_sweep": ({"n": 60, "p_grid": (2, 5, 10), "rho_grid": (0.0, 0.9)},
                        {"check_instances": 3, "check_iters": 60}),
        # one converging rate with a compliant curvature, one that is neither
        "expfam_convergence": ({}, {"nus": (0.02, 0.07), "max_iter": 100}),
        "gsq_equivalence": ({}, {"n_partitions": 4, "n_steps": 60}),
    }

    @classmethod
    def checks(cls, tmp_path, name):
        data, run = cls.SMALL[name]
        cfg = ExperimentConfig(experiment=name, out_dir=str(tmp_path), data=data, run=run)
        return {c["name"]: c["passed"] for c in run_experiment(cfg).checks}

    def assert_only_failure(self, checks, name):
        assert checks.pop(name) is False
        assert checks and all(checks.values()), checks

    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_small_configs_pass_unchanged(self, tmp_path, name):
        assert all(self.checks(tmp_path, name).values())

    def test_ridge_match_fails_for_a_scaled_lambda(self, tmp_path, monkeypatch):
        def scaled(*args):
            return 1.01 * ridge_equivalent_lambda(*args)

        monkeypatch.setattr(experiments, "ridge_equivalent_lambda", scaled)
        self.assert_only_failure(self.checks(tmp_path, "path_matching"), "isotropic_matches_ridge")

    def test_dimension_check_fails_for_a_constant_rate(self, tmp_path, monkeypatch):
        # the loosest rate in [0, 1): the gap bound it certifies still holds
        def constant(Q, n_blocks, nu):
            mu, lmax, _ = rates._quadratic_constants(Q, n_blocks, nu)
            return mu, lmax, 1.0 - 1e-12

        monkeypatch.setattr(rates, "rate_quadratic", lambda Q, n_blocks, nu: 1.0 - 1e-12)
        monkeypatch.setattr(experiments, "_quadratic_constants", constant)
        self.assert_only_failure(self.checks(tmp_path, "rates_sweep"), "gamma_rises_with_dimension")

    def test_rates_sweep_decomposes_each_quadratic_form_once(self, tmp_path, monkeypatch):
        # the grid's three constants used to take three decompositions each
        shapes = []
        spectrum = rates._psd_spectrum

        def counted(M, what):
            shapes.append(M.shape)
            return spectrum(M, what)

        monkeypatch.setattr(rates, "_psd_spectrum", counted)
        assert all(self.checks(tmp_path, "rates_sweep").values())
        data, run = self.SMALL["rates_sweep"]
        grid = [(p, p) for _ in data["rho_grid"] for p in data["p_grid"]]
        # then one rate per bound-compliance instance
        assert shapes[: len(grid)] == grid
        assert len(shapes) == len(grid) + run["check_instances"]

    def test_unit_interval_check_fails_for_a_shifted_rate(self, tmp_path, monkeypatch):
        # a shift keeps every difference, so the rates still rise with dimension
        def shifted(Q, n_blocks, nu):
            mu, lmax, gamma = rates._quadratic_constants(Q, n_blocks, nu)
            return mu, lmax, gamma + 1.0

        monkeypatch.setattr(experiments, "_quadratic_constants", shifted)
        self.assert_only_failure(self.checks(tmp_path, "rates_sweep"), "gamma_in_unit_interval")

    def test_gap_bound_fails_for_a_halved_rate(self, tmp_path, monkeypatch):
        def halved(Q, n_blocks, nu):
            return 0.5 * rate_quadratic(Q, n_blocks, nu)

        monkeypatch.setattr(rates, "rate_quadratic", halved)
        self.assert_only_failure(self.checks(tmp_path, "rates_sweep"), "gap_bound_holds")

    def test_curvature_check_fails_when_every_rate_is_compliant(self, tmp_path, monkeypatch):
        def compliant(loss, partition, nu, path):
            check = hessian_ub_check(loss, partition, nu, path)
            return dataclasses.replace(check, ok=True, first_violation=None)

        monkeypatch.setattr(experiments, "hessian_ub_check", compliant)
        checks = self.checks(tmp_path, "expfam_convergence")
        self.assert_only_failure(checks, "curvature_compliant_rates_converge")

    def test_binomial_check_fails_when_a_binomial_path_oscillates(self, tmp_path, monkeypatch):
        # the binomial runs come first; their curvature is marked violated so
        # that the compliant-rates check does not fail with them
        nus = self.SMALL["expfam_convergence"][1]["nus"]
        verdicts = iter(["oscillating"] * len(nus))

        def binomial_oscillates(path, window):
            return next(verdicts, None) or divergence_detector(path, window)

        def binomial_violated(loss, partition, nu, path):
            check = hessian_ub_check(loss, partition, nu, path)
            if loss.family != "binomial":
                return check
            return dataclasses.replace(check, ok=False, first_violation=(0, 0))

        monkeypatch.setattr(experiments, "divergence_detector", binomial_oscillates)
        monkeypatch.setattr(experiments, "hessian_ub_check", binomial_violated)
        checks = self.checks(tmp_path, "expfam_convergence")
        self.assert_only_failure(checks, "binomial_converges_at_every_rate")

    def test_poisson_check_fails_when_every_path_converges(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "divergence_detector", lambda path, window: "converging")
        checks = self.checks(tmp_path, "expfam_convergence")
        self.assert_only_failure(checks, "poisson_fails_for_some_rate")

    def test_equivalence_fails_for_cyclic_descent(self, tmp_path, monkeypatch):
        # the descent's scaled block update with blocks taken in turn
        def cyclic(partition, loss, y, config):
            return run_boost(partition, loss, y,
                             BoostConfig(nu=config.nu, max_iter=config.max_iter, mode="cyclic"))

        monkeypatch.setattr(gbcd, "gbcd_gsq", cyclic)
        checks = self.checks(tmp_path, "gsq_equivalence")
        assert checks == {"greedy_boosting_equals_quadratic_norm_descent": False}


class TestReport:
    def test_report_lists_files_with_rows(self, tmp_path):
        artifact = run_experiment(
            ExperimentConfig(
                experiment="gsq_equivalence",
                seed=3,
                out_dir=str(tmp_path),
                run={"n_partitions": 3, "n_steps": 40},
            )
        )
        text = emit_report(artifact)
        assert "equivalence.csv: 3 rows" in text
        assert "overall: PASS" in text

    def test_failed_check_marked(self, tmp_path):
        artifact = run_experiment(
            ExperimentConfig(
                experiment="gsq_equivalence",
                seed=3,
                out_dir=str(tmp_path),
                run={"n_partitions": 3, "n_steps": 40},
            )
        )
        artifact.manifest["checks"].append(
            {"name": "injected_violation", "passed": False, "detail": "k=7"}
        )
        text = emit_report(artifact)
        assert "[FAIL] injected_violation  (k=7)" in text
        assert "overall: FAIL" in text

    def test_missing_csv_is_integrity_error(self, tmp_path):
        artifact = run_experiment(
            ExperimentConfig(
                experiment="gsq_equivalence",
                seed=3,
                out_dir=str(tmp_path),
                run={"n_partitions": 3, "n_steps": 40},
            )
        )
        csv_path = next(iter(artifact.files.values()))
        csv_path.unlink()
        with pytest.raises(IntegrityError, match="missing file"):
            load_artifact(artifact.out_dir)
        csv_path.write_text("")
        with pytest.raises(IntegrityError, match="empty file"):
            load_artifact(artifact.out_dir)

    def test_empty_dir_is_integrity_error(self, tmp_path):
        with pytest.raises(IntegrityError, match="no manifest"):
            load_artifact(tmp_path)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("{not json", "is not a JSON object$"),
            ("[]", "is not a JSON object$"),
            ("{}", "lacks experiment, seed, version, rng, files, checks$"),
            ('{"seed": 0, "version": "0", "rng": "r", "files": {}, "checks": []}',
             "lacks experiment$"),
        ],
    )
    def test_damaged_manifest_is_integrity_error(self, tmp_path, text, match):
        # these used to escape as a JSONDecodeError or a KeyError
        (tmp_path / "manifest.json").write_text(text)
        with pytest.raises(IntegrityError, match=match):
            load_artifact(tmp_path)


class TestLoadConfig:
    def test_ini_round_trip(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text(
            "[experiment]\n"
            "name = expfam_convergence\n"
            "seed = 9\n"
            "svg = true\n"
            "\n"
            "[data]\n"
            "n = 80\n"
            "beta_true = 2,-1\n"
            "\n"
            "[run]\n"
            "max_iter = 50\n"
            "nus = 0.02,0.05\n"
        )
        cfg = load_config(ini)
        assert cfg.experiment == "expfam_convergence"
        assert cfg.seed == 9
        assert cfg.svg is True
        assert cfg.data["n"] == 80
        assert cfg.data["beta_true"] == (2, -1)
        assert cfg.run["nus"] == (0.02, 0.05)

    def test_overrides_win(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[experiment]\nname = gsq_equivalence\nseed = 1\n")
        cfg = load_config(ini, seed=7, out_dir="elsewhere")
        assert cfg.seed == 7
        assert cfg.out_dir == "elsewhere"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.ini")

    def test_missing_name(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[experiment]\nseed = 1\n")
        with pytest.raises(ConfigError, match="no experiment name"):
            load_config(ini)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("[experiment]\nname = gsq_equivalence\n\n[run]\nn_step = 5\n",
             r"run\.n_step"),
            ("[experiment]\nname = gsq_equivalence\n\n[data]\nbeta_true = 1,2\n",
             r"data\.beta_true"),
            ("[experiment]\nname = gsq_equivalence\nsvgs = true\n",
             r"experiment\.svgs"),
            ("[experiment]\nname = gsq_equivalence\n\n[oracle]\nnu = 0.5\n",
             r"section \[oracle\]"),
            # path_matching draws p from beta_true and is always gaussian
            ("[experiment]\nname = path_matching\n\n[data]\np = 3\n",
             r"data\.p;"),
            ("[experiment]\nname = path_matching\n\n[data]\nfamily = poisson\n",
             r"data\.family"),
        ],
    )
    def test_unknown_key_rejected(self, tmp_path, text, match):
        ini = tmp_path / "cfg.ini"
        ini.write_text(text)
        with pytest.raises(ConfigError, match=match):
            load_config(ini)

    @pytest.mark.parametrize(
        "line, match",
        [
            ("svg = maybe", r"experiment\.svg must be true or false"),
            ("seed = 1.5", r"experiment\.seed must be an integer"),
        ],
    )
    def test_mistyped_value_rejected(self, tmp_path, line, match):
        ini = tmp_path / "cfg.ini"
        ini.write_text(f"[experiment]\nname = gsq_equivalence\n{line}\n")
        with pytest.raises(ConfigError, match=match):
            load_config(ini)

    def test_malformed_file(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text("name = gsq_equivalence\n")
        with pytest.raises(ConfigError, match="malformed"):
            load_config(ini)

    def test_no_file_gives_defaults(self):
        cfg = load_config(None, experiment="rates_sweep")
        assert (cfg.seed, cfg.out_dir, cfg.svg) == (0, ".", False)
        assert (cfg.data, cfg.run) == ({}, {})


def test_experiment_names_stable():
    assert set(EXPERIMENTS) == {
        "path_matching",
        "pspline_unpenalized",
        "rates_sweep",
        "expfam_convergence",
        "distreg_divergence",
        "gsq_equivalence",
    }
