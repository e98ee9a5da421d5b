import numpy as np
import pytest

from amboost.distreg import (
    GaussianLSModel,
    biconvexity_check,
    cyclic_boost_ls,
    full_hessian,
    gauss_ls_eval,
    gauss_ls_hessian,
    reference_indefinite_instance,
)
from amboost.errors import NumericError
from amboost.tableio import write_csv


def random_model(rng, n=12, p=3, q=2):
    X = rng.normal(size=(n, p))
    Z = rng.normal(size=(n, q))
    model = GaussianLSModel(X, Z, rng.normal(size=p), 0.4 * rng.normal(size=q))
    y = rng.normal(size=n)
    return model, y


def fd_gradient(fun, theta, h=1e-6):
    g = np.zeros_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h * (1.0 + abs(theta[i]))
        g[i] = (fun(theta + e) - fun(theta - e)) / (2.0 * e[i])
    return g


class TestDerivatives:
    def test_scale_gradient_at_zero_residual(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10, 2))
        Z = rng.normal(size=(10, 3))
        beta = rng.normal(size=2)
        y = X @ beta  # residuals identically zero
        model = GaussianLSModel(X, Z, beta, rng.normal(size=3))
        _, _, grad_xi = gauss_ls_eval(model, y)
        np.testing.assert_allclose(grad_xi, Z.sum(axis=0), rtol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            model, y = random_model(rng)
            nll, gb, gx = gauss_ls_eval(model, y)

            def nll_beta(b):
                return gauss_ls_eval(
                    GaussianLSModel(model.X, model.Z, b, model.xi), y
                )[0]

            def nll_xi(x):
                return gauss_ls_eval(
                    GaussianLSModel(model.X, model.Z, model.beta, x), y
                )[0]

            np.testing.assert_allclose(
                gb, fd_gradient(nll_beta, model.beta), rtol=1e-6, atol=1e-8
            )
            np.testing.assert_allclose(
                gx, fd_gradient(nll_xi, model.xi), rtol=1e-6, atol=1e-8
            )

    def test_unit_scale_reduces_to_least_squares(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(15, 3))
        Z = rng.normal(size=(15, 2))
        beta = rng.normal(size=3)
        y = rng.normal(size=15)
        model = GaussianLSModel(X, Z, beta, np.zeros(2))
        _, gb, _ = gauss_ls_eval(model, y)
        np.testing.assert_allclose(gb, -X.T @ (y - X @ beta), rtol=1e-12)

    def test_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        model, y = random_model(rng, n=9, p=2, q=2)
        H = full_hessian(model, y)
        theta0 = np.concatenate([model.beta, model.xi])
        p = model.beta.size

        def grad(theta):
            m = GaussianLSModel(model.X, model.Z, theta[:p], theta[p:])
            _, gb, gx = gauss_ls_eval(m, y)
            return np.concatenate([gb, gx])

        h = 1e-6
        fd = np.zeros_like(H)
        for i in range(theta0.size):
            e = np.zeros_like(theta0)
            e[i] = h
            fd[:, i] = (grad(theta0 + e) - grad(theta0 - e)) / (2 * h)
        np.testing.assert_allclose(H, fd, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(H, H.T, atol=1e-12)

    def test_scale_overflow_reports_index(self):
        model = GaussianLSModel(
            np.ones((2, 1)), np.array([[1.0], [500.0]]), np.zeros(1), np.ones(1)
        )
        with pytest.raises(NumericError) as err:
            gauss_ls_eval(model, np.zeros(2))
        assert err.value.index == 1

    @pytest.mark.parametrize("evaluate", [gauss_ls_eval, gauss_ls_hessian])
    def test_nan_log_scale_is_numeric_error(self, evaluate):
        # the log-scale guard used to compare magnitudes only, so a NaN
        # passed it and came back as a NaN loss and NaN Hessian blocks
        model = GaussianLSModel(np.ones((2, 1)), np.eye(2), np.zeros(1), np.array([np.nan, 0.0]))
        with pytest.raises(NumericError, match="^non-finite log-scale at index 0$") as err:
            evaluate(model, np.zeros(2))
        assert err.value.index == 0

    def test_diverging_mean_iterate_is_numeric_error(self):
        # coefficients are not boundary input: a blown-up iterate is a finding
        model = GaussianLSModel(
            np.ones((2, 1)), np.ones((2, 1)), np.array([np.inf]), np.zeros(1)
        )
        with pytest.raises(NumericError, match="non-finite residual at index 0"):
            gauss_ls_eval(model, np.zeros(2))


class TestModelBoundary:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "call",
        [
            lambda X, Z, y: gauss_ls_eval(GaussianLSModel(X, Z, np.zeros(2), np.zeros(1)), y),
            lambda X, Z, y: gauss_ls_hessian(
                GaussianLSModel(X, Z, np.zeros(2), np.zeros(1)), y
            ),
            lambda X, Z, y: cyclic_boost_ls(X, Z, y, 0.1, 5),
            lambda X, Z, y: biconvexity_check(X, Z, y, trials=2),
        ],
        ids=["gauss_ls_eval", "gauss_ls_hessian", "cyclic_boost_ls", "biconvexity_check"],
    )
    def test_non_finite_outcome_is_input_error(self, call, bad):
        # used to raise NumericError, the class of a diverging iterate
        rng = np.random.default_rng(4)
        X, Z = rng.normal(size=(6, 2)), rng.normal(size=(6, 1))
        y = rng.normal(size=6)
        y[3] = bad
        with pytest.raises(ValueError, match="non-finite value at index 3"):
            call(X, Z, y)

    def test_outcome_length_checked(self):
        model = GaussianLSModel(np.ones((3, 1)), np.ones((3, 1)), np.zeros(1), np.zeros(1))
        with pytest.raises(ValueError, match=r"outcome has shape \(2,\), expected \(3,\)"):
            gauss_ls_eval(model, np.zeros(2))

    @pytest.mark.parametrize("shape", [(0, 2), (3, 0), (3,)])
    @pytest.mark.parametrize("which", ["mean", "scale"])
    def test_empty_or_non_matrix_design_rejected(self, shape, which):
        designs = {"mean": np.ones((3, 2)), "scale": np.ones((3, 2))}
        designs[which] = np.ones(shape)
        with pytest.raises(ValueError, match=f"{which} design must be a non-empty matrix"):
            GaussianLSModel(designs["mean"], designs["scale"], np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["mean", "scale"])
    def test_non_finite_design_entry_named(self, bad, which):
        designs = {"mean": np.ones((5, 3)), "scale": np.ones((5, 3))}
        designs[which][1, 0] = np.nan
        designs[which][3, 2] = bad
        designs[which][4, 1] = bad
        with pytest.raises(ValueError, match=rf"^{which} design entry \(1, 0\) is not finite$"):
            GaussianLSModel(designs["mean"], designs["scale"], np.zeros(3), np.zeros(3))
        designs[which][1, 0] = 1.0
        with pytest.raises(ValueError, match=rf"^{which} design entry \(3, 2\) is not finite$"):
            GaussianLSModel(designs["mean"], designs["scale"], np.zeros(3), np.zeros(3))

    @pytest.mark.parametrize("which", ["mean", "scale"])
    def test_cyclic_boost_ls_names_the_bad_design(self, which):
        # both designs used to be reported as "design matrix entry ..."
        designs = {"mean": np.ones((5, 2)), "scale": np.ones((5, 1))}
        designs[which][2, 0] = np.nan
        with pytest.raises(ValueError, match=rf"^{which} design entry \(2, 0\) is not finite$"):
            cyclic_boost_ls(designs["mean"], designs["scale"], np.zeros(5), 0.1, 5)


class TestCurvatureStructure:
    def test_diagonal_blocks_psd(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            model, y = random_model(rng)
            H_bb, _, _, H_xx = gauss_ls_hessian(model, y)
            assert np.linalg.eigvalsh(H_bb)[0] >= -1e-9
            assert np.linalg.eigvalsh(H_xx)[0] >= -1e-9

    def test_reference_instance_indefinite(self):
        model, y = reference_indefinite_instance()
        w = np.linalg.eigvalsh(full_hessian(model, y))
        assert w[0] < 0 < w[-1]
        # closed form: exp(-2) * [[1, 2], [2, 2]]
        expected = np.exp(-2.0) * np.array([[1.0, 2.0], [2.0, 2.0]])
        np.testing.assert_allclose(full_hessian(model, y), expected, rtol=1e-12)

    def test_biconvexity_report(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 2))
        Z = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        report = biconvexity_check(X, Z, y, trials=100, seed=1)
        assert report.diag_blocks_psd
        assert report.min_eig_mean_block >= -1e-9
        assert report.min_eig_scale_block >= -1e-9
        # scale-block curvature grows without bound as the scale shrinks
        assert report.ray_unbounded
        assert np.all(np.diff(report.ray_eigs) > 0)
        assert report.counterexample_indefinite

    def test_biconvexity_check_validation(self):
        with pytest.raises(ValueError):
            biconvexity_check(np.ones((3, 1)), np.ones((3, 1)), np.ones(3), trials=0)
        # the curvature ray runs along ones, which this scale design maps to zero
        Z = np.array([[1.0, -1.0], [2.0, -2.0], [0.5, -0.5]])
        with pytest.raises(ValueError, match="null space"):
            biconvexity_check(np.ones((3, 1)), Z, np.ones(3), trials=1)


class TestCyclicBoosting:
    def make_data(self, rng, n=200, heteroscedastic=True):
        x = rng.normal(size=n)
        X = np.column_stack([np.ones(n), x])
        Z = np.column_stack([np.ones(n), x])
        xi_true = np.array([-0.3, 0.8]) if heteroscedastic else np.array([0.2, 0.0])
        sigma = np.exp(Z @ xi_true)
        y = X @ np.array([1.0, 2.0]) + sigma * rng.normal(size=n)
        return X, Z, y

    def test_small_step_monotone_on_homoscedastic_data(self):
        rng = np.random.default_rng(42)
        X, Z, y = self.make_data(rng, heteroscedastic=False)
        res = cyclic_boost_ls(X, Z, y, 0.01, 500)
        assert res.mean_verdict == "converging"
        assert res.scale_verdict == "converging"
        assert np.all(np.diff(res.mean_path.losses) <= 1e-10)
        assert np.all(np.diff(res.scale_path.losses) <= 1e-10)

    def test_large_step_diverges_on_heteroscedastic_data(self):
        rng = np.random.default_rng(42)
        X, Z, y = self.make_data(rng, heteroscedastic=True)
        res = cyclic_boost_ls(X, Z, y, 0.5, 500)
        assert res.scale_verdict == "diverging"
        assert res.scale_path.n_steps <= 10  # within a few iterations
        res_small = cyclic_boost_ls(X, Z, y, 0.01, 500)
        assert res_small.scale_verdict != "diverging"

    def test_schedule_validation(self):
        X, Z, y = self.make_data(np.random.default_rng(9), n=20)
        for nu, max_iter, field in ((0.0, 5, "nu"), (float("nan"), 5, "nu"),
                                    (0.1, 0, "max_iter"), (0.1, 2.5, "max_iter")):
            with pytest.raises(ValueError, match=field):
                cyclic_boost_ls(X, Z, y, nu, max_iter)

    def test_paired_csv(self, tmp_path):
        rng = np.random.default_rng(8)
        X, Z, y = self.make_data(rng, n=50, heteroscedastic=False)
        res = cyclic_boost_ls(X, Z, y, 0.05, 10)
        out = tmp_path / "paired.csv"
        write_csv(out, *res.table())
        import csv as csvmod

        with open(out) as fh:
            rows = list(csvmod.reader(fh))
        assert rows[0][:3] == ["k", "model", "loss"]
        models = {row[1] for row in rows[1:]}
        assert models == {"mean", "scale"}
        assert len(rows) == 1 + 11 + 11
