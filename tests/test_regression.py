import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unbcount.datasets import Dataset
from unbcount.distributions import UnbParams, unb_dlogpmf_dp_kernel, unb_pmf, unb_sample
from unbcount.errors import (DataError, DegenerateDataError, DegenerateVuongError,
                             DomainError, RankDeficientError)
from unbcount import distributions, estimation
from unbcount.estimation import _FAMILIES, fit_mle, unb_loglik
from unbcount.regression import (
    RegressionSpec,
    build_design,
    fit_nb_regression,
    fit_unb_regression,
    fit_up_regression,
    per_observation_pmf,
    unb_reg_loglik,
    vuong_test,
)

from conftest import fd_hessian

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402


def make_dataset(yv, **covs):
    cols = {"y": np.asarray(yv, dtype=float)}
    cols.update({k: np.asarray(v, dtype=float) for k, v in covs.items()})
    return Dataset(column_names=tuple(cols), columns=cols, n=len(yv))


def simulate_reg(rng, n, beta, r_true, covariate_maker):
    covs = covariate_maker(rng, n)
    design = np.column_stack([np.ones(n)] + [covs[k] for k in sorted(covs)])
    eta = design @ beta
    mu = np.exp(eta)
    p = r_true / (2.0 * mu + r_true)
    lam = rng.gamma(r_true, (1.0 - p) / p)
    y = rng.integers(0, rng.poisson(lam) + 1)
    return make_dataset(y, **covs), y


class TestSpecValidation:
    def test_duplicate_covariates(self):
        with pytest.raises(DataError):
            RegressionSpec(response="y", covariates=("a", "a"))

    def test_response_among_covariates(self):
        with pytest.raises(DataError):
            RegressionSpec(response="y", covariates=("a", "y"))

    def test_missing_column(self):
        data = make_dataset([1, 2, 3], a=[0.0, 1.0, 2.0])
        with pytest.raises(DataError):
            build_design(data, RegressionSpec(response="y", covariates=("b",)))


class TestRegLoglik:
    def test_single_observation(self):
        # mu = 1.5, r = 3 gives p = 0.5; pmf at 0 is 0.375
        design = np.array([[1.0]])
        beta = np.array([math.log(1.5)])
        val = unb_reg_loglik(beta, 3.0, design, np.array([0]))
        assert val == pytest.approx(math.log(0.375), abs=1e-12)

    def test_intercept_only_reduction(self):
        y = unb_sample(UnbParams(3.0, 0.5), 500, 3)
        design = np.ones((500, 1))
        mu = 2.2
        r = 3.0
        p = r / (2.0 * mu + r)
        expected = unb_loglik(UnbParams(r, p), y)
        got = unb_reg_loglik(np.array([math.log(mu)]), r, design, y)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_termwise_oracle(self, rng):
        n = 60
        design = np.column_stack([np.ones(n), rng.normal(0, 1, n)])
        beta = np.array([0.1, 0.8])  # eta range wide enough to cross q = 0.75
        r = 1.6
        y = rng.integers(0, 8, n)
        mu = np.exp(design @ beta)
        p = r / (2.0 * mu + r)
        expected = sum(math.log(unb_pmf(UnbParams(r, pi), int(xi)))
                       for pi, xi in zip(p, y))
        assert unb_reg_loglik(beta, r, design, y) == pytest.approx(
            expected, abs=1e-10 * n)

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            unb_reg_loglik(np.array([0.0]), 2.0, np.ones((3, 1)), np.array([0, 1]))

    @pytest.mark.parametrize("y", [[0, 1, 2, 0, -1], [0, 1, 2, 0, 1.5]])
    def test_response_must_be_counts(self, y):
        with pytest.raises(DataError, match="non-negative integers"):
            unb_reg_loglik([0.1, 0.2], 2.0, np.ones((5, 2)), np.array(y))

    @pytest.mark.parametrize("r", [math.inf, math.nan, 0.0, -1.0])
    def test_r_must_be_positive_and_finite(self, r):
        with pytest.raises(DomainError, match="r must be a positive finite real"):
            unb_reg_loglik([0.1, 0.2], r, np.ones((5, 2)), np.array([0, 1, 2, 0, 1]))

    def test_beta_needs_one_entry_per_design_column(self):
        with pytest.raises(DataError, match="one entry per design column"):
            unb_reg_loglik([0.1], 2.0, np.ones((5, 2)), np.array([0, 1, 2, 0, 1]))


class TestGradient:
    def test_beta_gradient_vs_finite_difference(self, rng):
        # 50-row synthetic design spanning both kernel regimes
        n = 50
        design = np.column_stack([np.ones(n), rng.normal(0.0, 1.0, n),
                                  rng.uniform(0.0, 1.0, n)])
        y = rng.integers(0, 6, n)
        beta = np.array([0.2, 0.3, -0.2])
        r = 1.3
        eta = design @ beta
        mu = np.exp(eta)
        p = r / (2.0 * mu + r)
        g_eta = -p * (1.0 - p) * unb_dlogpmf_dp_kernel(r, p, y)
        analytic = design.T @ g_eta
        h = 1e-6
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd = (unb_reg_loglik(beta + e, r, design, y)
                  - unb_reg_loglik(beta - e, r, design, y)) / (2.0 * h)
            assert abs(analytic[k] - fd) <= 1e-5 * max(1.0, abs(fd))


class TestUnbRegressionFit:
    def test_simulation_recovery(self):
        rng = np.random.default_rng(42)
        data, _ = simulate_reg(
            rng, 4000, np.array([0.3, 0.5, -0.4]), 1.5,
            lambda rg, n: {"z1": rg.normal(0, 1, n),
                           "z2": rg.integers(0, 2, n).astype(float)})
        fit = fit_unb_regression(data, RegressionSpec("y", ("z1", "z2")))
        assert fit.converged
        assert abs(fit.beta[0] - 0.3) <= 0.15
        assert abs(fit.beta[1] - 0.5) <= 0.1
        assert abs(fit.beta[2] + 0.4) <= 0.15
        assert abs(fit.r - 1.5) <= 0.4

    def test_newton_shifts_a_hessian_that_is_not_negative_definite(self):
        # From beta = 0 with log r on its upper bound the log-likelihood's
        # Hessian has a positive eigenvalue; the shifted steps still reach
        # the optimum of the default start.
        rng = np.random.default_rng(42)
        data, _ = simulate_reg(
            rng, 2000, np.array([0.3, 0.5]), 1.5,
            lambda rg, n: {"z1": rg.normal(0, 1, n)})
        spec = RegressionSpec("y", ("z1",))
        design, y, _ = build_design(data, spec)
        family, start = _FAMILIES["unb"], np.array([0.0, 0.0, 8.0])
        *_, h_ee, h_es, h_ss = family.logpmf_grad(design @ start[:2], math.exp(8.0), y)
        cross = design.T @ h_es
        hess = np.block([[design.T @ (design * h_ee[:, None]), cross[:, None]],
                         [cross[None, :], np.sum(h_ss)]])
        assert np.max(np.linalg.eigvalsh(hess)) > 0.0
        theta, _, loglik, converged, _, diag = estimation._fit(
            family, design, y, np.ones(y.size), start)
        assert converged and diag["hessian_shifts"] > 0
        fit = fit_unb_regression(data, spec)
        assert loglik == pytest.approx(fit.log_likelihood, rel=1e-12)
        assert theta == pytest.approx(np.append(fit.beta, fit.r), rel=1e-6)

    def test_intercept_only_recovery(self):
        # mean exp(0.4), r = 2; the intercept should land near 0.4
        rng = np.random.default_rng(7)
        n = 50_000
        mu = math.exp(0.4)
        r_true = 2.0
        p = r_true / (2.0 * mu + r_true)
        lam = rng.gamma(r_true, (1.0 - p) / p, n)
        y = rng.integers(0, rng.poisson(lam) + 1)
        data = make_dataset(y)
        fit = fit_unb_regression(data, RegressionSpec("y", ()))
        assert fit.converged
        assert abs(fit.beta[0] - 0.4) <= 0.05

    def test_covariate_permutation(self):
        rng = np.random.default_rng(3)
        data, _ = simulate_reg(
            rng, 1500, np.array([0.2, 0.4, -0.3]), 2.0,
            lambda rg, n: {"z1": rg.normal(0, 1, n), "z2": rg.uniform(0, 1, n)})
        f12 = fit_unb_regression(data, RegressionSpec("y", ("z1", "z2")))
        f21 = fit_unb_regression(data, RegressionSpec("y", ("z2", "z1")))
        assert f12.log_likelihood == pytest.approx(f21.log_likelihood, abs=1e-6)
        assert f12.beta[1] == pytest.approx(f21.beta[2], abs=1e-5)
        assert f12.beta[2] == pytest.approx(f21.beta[1], abs=1e-5)

    def test_covariate_scaling_invariance(self):
        rng = np.random.default_rng(5)
        data, _ = simulate_reg(
            rng, 1200, np.array([0.2, 0.5]), 2.0,
            lambda rg, n: {"z1": rg.normal(0, 1, n)})
        scaled = make_dataset(data.columns["y"], z1=10.0 * data.columns["z1"])
        f1 = fit_unb_regression(data, RegressionSpec("y", ("z1",)))
        f2 = fit_unb_regression(scaled, RegressionSpec("y", ("z1",)))
        assert f1.log_likelihood == pytest.approx(f2.log_likelihood, abs=1e-6)
        assert f2.beta[1] * 10.0 == pytest.approx(f1.beta[1], abs=1e-5)

    def test_intercept_only_matches_distribution_fit(self):
        y = unb_sample(UnbParams(2.0, 0.45), 2000, 5)
        data = make_dataset(y)
        rfit = fit_unb_regression(data, RegressionSpec("y", ()))
        mfit = fit_mle(y)
        assert abs(rfit.log_likelihood - mfit.log_likelihood) <= 1e-6
        implied_p = rfit.r / (2.0 * math.exp(rfit.beta[0]) + rfit.r)
        assert implied_p == pytest.approx(mfit.params.p, abs=1e-5)

    def test_rank_deficient(self):
        y = [0, 1, 2, 0, 1, 3, 0, 2]
        data = make_dataset(y, ones=[1.0] * 8)
        with pytest.raises(RankDeficientError):
            fit_unb_regression(data, RegressionSpec("y", ("ones",)))

    def test_wald_identity(self):
        rng = np.random.default_rng(9)
        data, _ = simulate_reg(
            rng, 1000, np.array([0.3, 0.4]), 1.8,
            lambda rg, n: {"z1": rg.normal(0, 1, n)})
        fit = fit_unb_regression(data, RegressionSpec("y", ("z1",)))
        est = np.append(fit.beta, fit.r)
        mask = fit.std_errors > 0
        assert np.allclose(fit.wald_t[mask], est[mask] / fit.std_errors[mask],
                           rtol=1e-12)
        assert np.all((fit.p_values >= 0.0) & (fit.p_values <= 1.0))

    def test_aic_counts_parameters(self):
        rng = np.random.default_rng(13)
        data, _ = simulate_reg(
            rng, 800, np.array([0.1, 0.3]), 2.0,
            lambda rg, n: {"z1": rg.normal(0, 1, n)})
        spec = RegressionSpec("y", ("z1",))
        f_unb = fit_unb_regression(data, spec)
        f_nb = fit_nb_regression(data, spec)
        f_up = fit_up_regression(data, spec)
        # s = 1 covariate: s+2 params for unb/nb, s+1 for up
        assert f_unb.aic == pytest.approx(-2.0 * f_unb.log_likelihood + 2.0 * 3)
        assert f_nb.aic == pytest.approx(-2.0 * f_nb.log_likelihood + 2.0 * 3)
        assert f_up.aic == pytest.approx(-2.0 * f_up.log_likelihood + 2.0 * 2)


REGRESSION_FITS = {"unb": fit_unb_regression, "nb": fit_nb_regression,
                   "up": fit_up_regression}


class TestPassBudget:
    def test_nmes_shaped_fits_within_pass_budget(self, monkeypatch):
        # Every UNB kernel pass of the fit counts: the start's moment fit,
        # the optimiser's, and no separate information step.
        calls = {"n": 0}
        real = distributions.unb_logpmf_kernel

        def counted(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(distributions, "unb_logpmf_kernel", counted)
        covs, y = gen.nmes_dataset(0)
        data = make_dataset(y, **{c: covs[:, j] for j, c in enumerate(gen.COVARIATES)})
        spec = RegressionSpec("y", gen.COVARIATES)
        for model, budget in (("unb", 30), ("nb", 15), ("up", 15)):
            fit = REGRESSION_FITS[model](data, spec)
            assert fit.converged and fit.diagnostics["grad_norm"] <= 1e-8, model
            assert fit.diagnostics["evaluations"] <= budget, model
        assert calls["n"] <= 30


class TestObservedInformation:
    @pytest.mark.parametrize("model", list(REGRESSION_FITS))
    def test_std_errors_match_loglik_stencil(self, model):
        rng = np.random.default_rng(17)
        data, _ = simulate_reg(
            rng, 1500, np.array([0.3, 0.4, -0.3, 0.2]), 1.8,
            lambda rg, n: {"z1": rg.normal(0, 1, n),
                           "z2": rg.integers(0, 2, n).astype(float),
                           "z3": rg.uniform(-1, 1, n)})
        spec = RegressionSpec("y", ("z1", "z2", "z3"))
        fit = REGRESSION_FITS[model](data, spec)
        assert fit.converged
        design, y, _ = build_design(data, spec)
        family, k = _FAMILIES[model], design.shape[1]
        theta = np.append(fit.beta, [] if fit.r is None else [fit.r])

        def loglik(t):
            r = t[k] if family.n_shape else family.fixed_r
            return float(np.sum(family.logpmf(design @ t[:k], r, y)[0]))

        hess = fd_hessian(loglik, theta, 1e-4 * np.maximum(1.0, np.abs(theta)))
        se = np.sqrt(np.diag(np.linalg.inv(-hess)))
        assert fit.std_errors == pytest.approx(se, rel=1e-4)

    def test_information_costs_linear_in_parameters(self, monkeypatch):
        # No kernel call after the optimiser: the observed information is
        # the Hessian of its last kernel pass.  A stencil of log-likelihood
        # values would take 2 p^2 + 1 (163 at p = 9).
        calls = {"n": 0, "at_minimize": 0}
        for name in ("unb_logpmf_kernel", "unb_dlogpmf_dp_kernel"):
            def counted(*args, _real=getattr(distributions, name), **kwargs):
                calls["n"] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(distributions, name, counted)
        real_minimize = estimation._opt.minimize

        def minimize(*args, **kwargs):
            res = real_minimize(*args, **kwargs)
            calls["at_minimize"] = calls["n"]
            return res

        monkeypatch.setattr(estimation._opt, "minimize", minimize)
        rng = np.random.default_rng(23)
        for s in (1, 4, 7):
            names = tuple(f"z{j}" for j in range(s))
            data, _ = simulate_reg(
                rng, 600, np.append(0.4, np.full(s, 0.1)), 2.0,
                lambda rg, n: {z: rg.normal(0, 0.5, n) for z in names})
            fit_unb_regression(data, RegressionSpec("y", names))
            assert calls["n"] - calls["at_minimize"] == 0

    def test_one_kernel_pass_per_optimizer_evaluation(self, monkeypatch):
        # The value and the whole gradient, log r included, come from one
        # pass: no finite-difference log r, no separate dp-kernel call.
        calls = {"unb_logpmf_kernel": 0, "unb_dlogpmf_dp_kernel": 0}
        for name in calls:
            def counted(*args, _real=getattr(distributions, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(distributions, name, counted)
        real_minimize = estimation._opt.minimize
        stages = []

        def minimize(*args, **kwargs):
            before = dict(calls)
            res = real_minimize(*args, **kwargs)
            stages.append((res.nfev, {k: calls[k] - before[k] for k in calls}))
            return res

        monkeypatch.setattr(estimation._opt, "minimize", minimize)
        rng = np.random.default_rng(29)
        data, _ = simulate_reg(rng, 800, np.array([0.4, 0.2, -0.1]), 1.5,
                               lambda rg, n: {"z1": rg.normal(0, 0.5, n),
                                              "z2": rg.uniform(-1, 1, n)})
        fit_unb_regression(data, RegressionSpec("y", ("z1", "z2")))
        fit_mle(unb_sample(UnbParams(0.5, 0.3), 5000, 3))
        assert stages
        for nfev, used in stages:
            assert used == {"unb_logpmf_kernel": nfev, "unb_dlogpmf_dp_kernel": 0}


class TestComparatorRegressions:
    def test_nb_intercept_only_mean(self):
        y = unb_sample(UnbParams(3.0, 0.5), 4000, 15)
        data = make_dataset(y)
        fit = fit_nb_regression(data, RegressionSpec("y", ()))
        assert math.exp(fit.beta[0]) == pytest.approx(float(np.mean(y)), abs=1e-6)

    def test_up_intercept_only_mean(self):
        y = unb_sample(UnbParams(3.0, 0.5), 4000, 15)
        data = make_dataset(y)
        fit = fit_up_regression(data, RegressionSpec("y", ()))
        # The UP likelihood is not mean-matching: its intercept score is
        # lam * sum pois(x)/surv - n, which does not vanish at lam = 2*mean
        # (checked on 2e6 exact uniform-Poisson draws: gap ~1e-4).  The
        # fitted mean lam/2 = exp(beta0) still sits near the sample mean
        # (the gap here also carries model misspecification, the data being
        # a uniform-negative-binomial draw).
        assert math.exp(fit.beta[0]) == pytest.approx(float(np.mean(y)), abs=0.1)
        # and the fit is a genuine stationary point of its own likelihood
        from unbcount.estimation import fit_up_mle
        direct = fit_up_mle(y)
        assert fit.log_likelihood == pytest.approx(direct.log_likelihood, abs=1e-6)

    def test_nb_simulation_recovery(self):
        rng = np.random.default_rng(21)
        n = 6000
        z = rng.normal(0, 1, n)
        mu = np.exp(0.5 + 0.3 * z)
        r_true = 2.0
        y = rng.negative_binomial(r_true, r_true / (mu + r_true))
        data = make_dataset(y, z1=z)
        fit = fit_nb_regression(data, RegressionSpec("y", ("z1",)))
        assert fit.converged
        assert abs(fit.beta[0] - 0.5) <= 0.1
        assert abs(fit.beta[1] - 0.3) <= 0.05
        assert abs(fit.r - 2.0) <= 0.3

    @pytest.mark.parametrize("model", list(REGRESSION_FITS))
    def test_all_zero_response_raises(self, model):
        # The likelihood rises as the intercept falls: no estimate exists.
        z = np.random.default_rng(3).normal(0.0, 1.0, 500)
        with pytest.raises(DegenerateDataError, match="all responses are zero"):
            REGRESSION_FITS[model](make_dataset(np.zeros(500), z=z),
                                   RegressionSpec("y", ("z",)))

    @pytest.mark.parametrize("model", ["unb", "nb", "up", "geometric"])
    def test_floored_pmfs_are_counted(self, model):
        family = _FAMILIES[model]
        r = 2.0 if family.n_shape else family.fixed_r
        y = np.array([0.0, 1.0, 500.0])
        lp, floored = family.logpmf(np.full(3, math.log(1e-3)), r, y)
        assert floored == 1
        assert np.all(np.isfinite(lp))


class TestVuong:
    def test_antisymmetry(self, rng):
        p1 = rng.uniform(0.01, 0.9, 200)
        p2 = np.clip(p1 * rng.uniform(0.8, 1.25, 200), 1e-6, 1.0)
        a = vuong_test(p1, p2)
        b = vuong_test(p2, p1)
        assert a.z == pytest.approx(-b.z, rel=1e-12)
        assert a.p_value == pytest.approx(b.p_value, rel=1e-12)
        assert a.omega == pytest.approx(b.omega, rel=1e-12)

    def test_degenerate_identical(self):
        p = np.full(50, 0.3)
        with pytest.raises(DegenerateVuongError):
            vuong_test(p, p)

    def test_degenerate_constant_ratio(self):
        p = np.linspace(0.01, 0.5, 50)
        with pytest.raises(DegenerateVuongError):
            vuong_test(p, 0.5 * p)

    def test_needs_two_observations(self):
        with pytest.raises(DataError):
            vuong_test([0.5], [0.4])

    def test_rejects_out_of_range(self):
        with pytest.raises(DataError):
            vuong_test([0.5, 0.0], [0.4, 0.2])
        with pytest.raises(DataError):
            vuong_test([0.5, 1.5], [0.4, 0.2])

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.floats(1e-4, 1.0), st.floats(1e-4, 1.0)),
                    min_size=3, max_size=40))
    def test_two_sided_p_value(self, pairs):
        p1 = np.array([a for a, _ in pairs])
        p2 = np.array([b for _, b in pairs])
        try:
            res = vuong_test(p1, p2)
        except DegenerateVuongError:
            return
        from scipy.stats import norm
        assert res.p_value == pytest.approx(2.0 * norm.sf(abs(res.z)), rel=1e-9)

    def test_generating_model_preferred(self):
        # 5 seeded replications; the UNB-generated data should mostly give
        # positive z against the negative binomial (realised 5/5 here)
        positive = 0
        for k in range(5):
            rng = np.random.default_rng(5000 + k)
            n = 3000
            z = rng.normal(0.0, 1.0, n)
            mu = np.exp(0.2 + 0.4 * z)
            r_true = 0.9
            p = r_true / (2.0 * mu + r_true)
            lam = rng.gamma(r_true, (1.0 - p) / p)
            y = rng.integers(0, rng.poisson(lam) + 1)
            data = make_dataset(y, z1=z)
            spec = RegressionSpec("y", ("z1",))
            f_unb = fit_unb_regression(data, spec)
            f_nb = fit_nb_regression(data, spec)
            v = vuong_test(per_observation_pmf(f_unb, data, spec),
                           per_observation_pmf(f_nb, data, spec))
            positive += v.z > 0
        assert positive >= 3
