import collections
import itertools
import math
import sys
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as ssp

from unbcount.datasets import Dataset, write_counts
from unbcount.distributions import UnbParams, unb_dlogpmf_dp_kernel, unb_pmf, unb_sample
from unbcount.errors import (DataError, DegenerateDataError, DegenerateVuongError,
                             DomainError, RankDeficientError)
from unbcount import cli, distributions, estimation, regression
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

    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e400", "nan"])
    def test_non_finite_covariate_is_named(self, tmp_path, capsys, cell):
        # An input error naming the column, not a rank deficiency of the
        # design or numpy's SVD failure.
        y, x = [1, 0, 2, 1, 3], [0.5, 1.5, 0.2, 0.1, 0.7]
        z = ["0.1", cell, "0.3", "0.2", "0.4"]
        data = make_dataset(y, x=x, z=[float(c) for c in z])
        with pytest.raises(DataError, match="^column 'z' holds a non-finite value"):
            fit_unb_regression(data, RegressionSpec("y", ("x", "z")))
        if cell == "nan":  # a CSV's nan cell is a missing value
            return
        path = tmp_path / "t.csv"
        path.write_text("y,x,z\n" + "".join(f"{a},{b},{c}\n" for a, b, c in zip(y, x, z)))
        code = cli.main(["regress", "--input", str(path), "--response", "y",
                         "--covariates", "x,z"])
        assert code == 2
        assert "error: column 'z' holds a non-finite value" in capsys.readouterr().err


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

    @pytest.mark.parametrize("design, message", [
        ([[1.0, 0.5], [1.0, -0.5]], None),
        (np.ones(2), "design must be 2-D, got 1"),
        (np.array([[1.0, 0.5], [1.0, np.nan]]), "non-finite"),
        (np.array([[1.0, 0.5], [1.0, np.inf]]), "non-finite"),
    ])
    def test_design_is_a_finite_2d_array(self, design, message):
        y = np.array([0, 1])
        if message is None:  # a nested list reads as its array
            assert unb_reg_loglik([0.1, 0.2], 2.0, design, y) == unb_reg_loglik(
                [0.1, 0.2], 2.0, np.array(design), y)
            return
        with pytest.raises(DataError, match=message):
            unb_reg_loglik([0.1, 0.2], 2.0, design, y)


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
        theta, _, loglik, converged, _, diag, _ = estimation._fit(
            family, estimation._Setup(design, y, np.ones(y.size)), start)
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

    def test_rank_check_decides_as_matrix_rank(self, monkeypatch):
        # Designs [1, z0, z1, z2] with planted singular values, the smallest
        # 1e-18 to 1e-8 of the largest: the setup raises exactly where
        # numpy's matrix_rank of the design is below k, on both sides of
        # its tolerance.
        class Passed(Exception):
            pass

        def passed(*args):
            raise Passed

        monkeypatch.setattr(regression, "_Setup", passed)
        rng = np.random.default_rng(12)
        n, k = 60, 4
        y = rng.integers(0, 5, n)
        decisions = collections.Counter()
        for _ in range(300):
            # q's first column is the unit vector along the intercept, and
            # v keeps the intercept apart, so that the design is q diag(s) v'
            q = np.linalg.qr(np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))]))[0]
            q[:, 0] = abs(q[:, 0])
            v = np.linalg.qr(rng.normal(size=(k - 1, k - 1)))[0]
            s = math.sqrt(n) * np.r_[10.0 ** rng.uniform(-18.0, -8.0),
                                     np.linspace(0.5, 2.0, k - 2)]
            covs = q[:, 1:] @ np.diag(s) @ v.T
            data = make_dataset(y, **{f"z{j}": covs[:, j] for j in range(k - 1)})
            spec = RegressionSpec("y", tuple(f"z{j}" for j in range(k - 1)))
            deficient = np.linalg.matrix_rank(build_design(data, spec)[0]) < k
            with pytest.raises(RankDeficientError if deficient else Passed):
                regression._setup(data, spec)
            decisions[deficient] += 1
        assert decisions[True] > 50 and decisions[False] > 50

    def test_wald_identity(self):
        rng = np.random.default_rng(9)
        data, _ = simulate_reg(
            rng, 1000, np.array([0.3, 0.4]), 1.8,
            lambda rg, n: {"z1": rg.normal(0, 1, n)})
        fit = fit_unb_regression(data, RegressionSpec("y", ("z1",)))
        # beta only: r gets no Wald test against r = 0, outside its space
        se = fit.std_errors[:fit.beta.size]
        assert fit.wald_t.shape == fit.p_values.shape == fit.beta.shape
        mask = se > 0
        assert np.allclose(fit.wald_t[mask], fit.beta[mask] / se[mask],
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
        # Every UNB kernel pass of the fit counts: the optimiser's, and no
        # separate information step; the start takes no kernel pass.
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
            calls["n"] = 0
            fit = REGRESSION_FITS[model](data, spec)
            assert fit.converged and fit.diagnostics["grad_norm"] <= 1e-8, model
            assert fit.diagnostics["evaluations"] <= budget, model
            # NB and UP run no UNB kernel pass, UNB one per evaluation
            expected = fit.diagnostics["evaluations"] if model == "unb" else 0
            assert calls["n"] == expected, model

    @pytest.mark.parametrize("index", range(6))
    def test_start_at_the_poisson_beta_takes_few_passes(self, index):
        covs, y = gen.nmes_dataset(index)
        data = make_dataset(y, **{c: covs[:, j] for j, c in enumerate(gen.COVARIATES)})
        spec = RegressionSpec("y", gen.COVARIATES)
        for model, fit in REGRESSION_FITS.items():
            result = fit(data, spec)
            assert result.converged and result.diagnostics["evaluations"] <= 5, model

    def test_design_without_a_poisson_maximum_starts_in_bounded_steps(self):
        # y = 0 wherever the binary b is 1: no Poisson maximum exists, and
        # the start runs b's slope down until the gradient test stops it.
        rng = np.random.default_rng(26)
        n = 2000
        b = (rng.random(n) < 0.3).astype(float)
        z = rng.normal(0.0, 1.0, n)
        y = rng.poisson(np.exp(0.2 + 0.3 * z) * rng.gamma(1.5, 1 / 1.5, n)) * (b == 0.0)
        data = make_dataset(y, b=b, z=z)
        fits = {model: fit(data, RegressionSpec("y", ("b", "z")))
                for model, fit in REGRESSION_FITS.items()}
        for model, fit in fits.items():
            assert fit.diagnostics["start_steps"] <= 50, model
            assert fit.diagnostics["evaluations"] <= 12, model
            assert math.isfinite(fit.log_likelihood), model
        assert fits["up"].converged, fits["up"].diagnostics["messages"]

    @pytest.mark.parametrize("seed", range(10))
    def test_covariate_on_a_wide_scale_converges(self, seed):
        # A covariate on [0, 1000]: from slopes 0 the UNB fits of seeds 1
        # and 3 ran all 200 Newton steps on shifted Hessians and stopped
        # unconverged, tens of nats below the optimum.
        rng = np.random.default_rng([2026, seed])
        n = 1000
        a = rng.uniform(0, 1000, n)
        b = rng.normal(0, 1, n)
        mu = np.exp(-1.0 + 0.002 * a + 0.3 * b)
        data = make_dataset(rng.poisson(rng.gamma(1.5, mu / 1.5)), a=a, b=b)
        for fit in (fit_unb_regression, fit_nb_regression):
            result = fit(data, RegressionSpec("y", ("a", "b")))
            assert result.converged, result.diagnostics["messages"]
            assert result.diagnostics["evaluations"] <= 8


# tracemalloc peak of one per-row pass with derivatives at the UNB and NB
# fits of gen.nmes_dataset(0), before the shared-p pass took one k-table:
# helpers the two passes share must bring no larger temporaries in here.
PER_ROW_PEAK_KB = {"unb": 1704, "nb": 483}


@pytest.mark.parametrize("model", list(PER_ROW_PEAK_KB))
def test_per_row_pass_working_set(model):
    covs, y = gen.nmes_dataset(0)
    data = make_dataset(y, **{c: covs[:, j] for j, c in enumerate(gen.COVARIATES)})
    spec = RegressionSpec("y", gen.COVARIATES)
    fit = REGRESSION_FITS[model](data, spec)
    design, counts, _ = build_design(data, spec)
    eta, family = design @ fit.beta, _FAMILIES[model]
    family.logpmf_grad(eta, fit.r, counts)  # scipy's import and first-call caches
    tracemalloc.start()
    try:
        family.logpmf_grad(eta, fit.r, counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * PER_ROW_PEAK_KB[model] * 1024, peak / 1024


def test_per_row_tail_takes_the_terms_each_row_needs(monkeypatch):
    # At the UNB optimum of gen.nmes_dataset(0), 174 rows take the tail sum.
    # Each sums the terms its decay bound asks for, 23 to 82 of them, not a
    # first block of 32 for every row and then 64 more for most (9472 terms).
    covs, y = gen.nmes_dataset(0)
    data = make_dataset(y, **{c: covs[:, j] for j, c in enumerate(gen.COVARIATES)})
    spec = RegressionSpec("y", gen.COVARIATES)
    fit = fit_unb_regression(data, spec)
    design, counts, _ = build_design(data, spec)
    terms = []

    def count(r, lq, lt, *rest, real=distributions._tail_block):
        terms.append(lt.size)
        return real(r, lq, lt, *rest)

    monkeypatch.setattr(distributions, "_tail_block", count)
    _FAMILIES["unb"].logpmf_grad(design @ fit.beta, fit.r, counts)
    assert 0 < sum(terms) <= 6300, terms


def test_up_family_at_count_0_against_mpmath():
    # pmf(0) = (1 - e^-lam)/lam and its eta-derivatives, lam = 2 e^eta,
    # within 1e-12 relative; where P(N > 0) underflows PMF_FLOOR, the
    # family's floored values: log(PMF_FLOOR / lam), with a = lam e^-lam /
    # PMF_FLOOR in d/d eta = a - 1 and d2/d eta^2 = a (1 - lam - a).
    eta = np.array([-700.0, -40.0, -5.0, 0.0, 3.0, 6.0])
    lam = 2.0 * np.exp(eta)
    lp, floored, d_e, _, d_ee, _, _ = _FAMILIES["up"].logpmf_grad(eta, None, np.zeros(eta.size))
    assert floored == 1
    with mp.workdps(50):
        for i, l in enumerate(map(mp.mpf, lam)):
            kept = max(-mp.expm1(-l), mp.mpf(distributions.PMF_FLOOR))
            a = l * mp.exp(-l) / kept
            for got, want in zip((lp[i], d_e[i], d_ee[i]),
                                 (mp.log(kept / l), a - 1, a * (1 - l - a))):
                assert abs(got - float(want)) <= 1e-12 * abs(float(want)), (eta[i], got, want)


@pytest.mark.parametrize("model", ["nb", "up", "geometric", "poisson"])
def test_per_count_factors_match_the_elementwise_formulas(model):
    # The factors of the count alone are taken once per distinct count and
    # gathered: the pass must equal the formulas evaluated row by row.
    rng = np.random.default_rng(30)
    y = rng.integers(0, 60, 3000) * (rng.random(3000) < 0.4)
    eta = rng.normal(0.0, 1.5, y.size)
    family = _FAMILIES[model]
    r = 1.7 if family.n_shape else family.fixed_r
    if model == "up":
        lam = 2.0 * np.exp(eta)
        surv = np.where(y == 0, -np.expm1(-lam), ssp.gammainc(y + 1.0, lam))  # P(N > 0) closed
        a = lam * np.exp(y * np.log(lam) - lam - ssp.gammaln(y + 1.0)) / np.maximum(
            surv, distributions.PMF_FLOOR)
        want = (np.maximum(np.log(surv) - np.log(lam), distributions._LOG_FLOOR - np.log(lam)),
                int(np.count_nonzero(surv < distributions.PMF_FLOOR)),
                a - 1.0, None, a * (1.0 + y - lam - a), None, None)
    elif model == "poisson":
        mu = np.exp(eta)
        lp = y * eta - mu - ssp.gammaln(y + 1.0)
        want = (np.maximum(lp, distributions._LOG_FLOOR),
                int(np.count_nonzero(lp < distributions._LOG_FLOOR)),
                y - mu, None, -mu, None, None)
    else:
        p, q = family.link(eta, r)
        lp = (ssp.gammaln(r + y) - math.lgamma(r) - ssp.gammaln(y + 1.0)
              + r * np.log(p) + y * np.log(q))
        want = (np.maximum(lp, distributions._LOG_FLOOR),
                int(np.count_nonzero(lp < distributions._LOG_FLOOR)),
                *estimation._eta_logr(r, r * q - y * p,
                                      ssp.digamma(r + y) - ssp.digamma(r) + np.log(p),
                                      -p * q * (r + y), q,
                                      ssp.zeta(2.0, r + y) - ssp.zeta(2.0, r)))
    setup = estimation._Setup(np.ones((y.size, 1)), y, np.ones(y.size))
    assert setup.distinct[0].size == 60
    for distinct in (None, setup.distinct):
        got = family.logpmf_grad(eta, r, y, distinct)
        for d, (g, w) in enumerate(zip(got, want)):
            assert (g is None and w is None) or np.array_equal(g, w), (d, distinct is None)


def test_nb_pass_memory_is_linear_in_rows():
    # 999 small counts and one of 10^7: the factors are taken at the
    # distinct counts, never from a table over 0..max(y) (80 MB a column).
    y = np.append(np.random.default_rng(4).integers(0, 5, 999), 10 ** 7)
    setup = estimation._Setup(np.ones((y.size, 1)), y, np.ones(y.size))
    eta, family = np.full(y.size, 0.3), _FAMILIES["nb"]
    family.logpmf_grad(eta, 1.5, setup.y, setup.distinct)
    tracemalloc.start()
    try:
        lp = family.logpmf_grad(eta, 1.5, setup.y, setup.distinct)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 ** 2, peak
    assert np.all(np.isfinite(lp))


def nmes_columns(index=0):
    covs, y = gen.nmes_dataset(index)
    return {"y": y.astype(float), **{c: covs[:, j] for j, c in enumerate(gen.COVARIATES)}}


def dataset_of(columns):
    """A fresh dataset over copies of the columns."""
    return make_dataset(columns["y"], **{c: columns[c] for c in gen.COVARIATES})


def assert_same_fit(got, want):
    for name in ("beta", "r", "std_errors", "log_likelihood", "log_pmf", "coef_names"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for key in ("start", "start_steps", "evaluations", "hessian", "grad_norm"):
        assert np.array_equal(got.diagnostics[key], want.diagnostics[key]), key


class TestSharedSetup:
    """The fits of every family on one dataset and spec share one setup:
    the design, its checks and the Poisson start."""

    SPEC = RegressionSpec("y", gen.COVARIATES)

    def test_setup_runs_once_per_dataset(self, monkeypatch):
        calls = collections.Counter()
        for module, name in ((regression, "build_design"), (np.linalg, "matrix_rank"),
                             (estimation, "_newton")):
            def counted(*args, real=getattr(module, name), name=name, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        data = dataset_of(nmes_columns())
        for fit in REGRESSION_FITS.values():
            fit(data, self.SPEC)
        assert calls == {"build_design": 1, "matrix_rank": 1, "_newton": 1}
        setup = regression._setup(data, self.SPEC)[1]
        for a in (setup.design, setup.y, setup.w, setup.beta, *setup.distinct):
            assert not a.flags.writeable

    @pytest.mark.parametrize("order", list(itertools.permutations(REGRESSION_FITS)))
    def test_any_family_order_fits_as_on_fresh_data(self, order):
        columns = nmes_columns()
        data = dataset_of(columns)
        for model in order:
            assert_same_fit(REGRESSION_FITS[model](data, self.SPEC),
                            REGRESSION_FITS[model](dataset_of(columns), self.SPEC))

    def test_a_replaced_column_is_read_afresh(self):
        columns = nmes_columns()
        data = dataset_of(columns)
        before = fit_nb_regression(data, self.SPEC)
        columns["AGE"] = columns["AGE"] * 2.0
        data.columns["AGE"] = columns["AGE"]
        after = fit_nb_regression(data, self.SPEC)
        assert_same_fit(after, fit_nb_regression(dataset_of(columns), self.SPEC))
        assert not np.array_equal(after.beta, before.beta)

    @pytest.mark.parametrize("model", list(REGRESSION_FITS))
    def test_writing_into_a_fit_leaves_the_next_unchanged(self, model):
        columns = nmes_columns()
        data = dataset_of(columns)
        first = REGRESSION_FITS[model](data, self.SPEC)
        for a in (first.beta, first.diagnostics["start"], first.log_pmf):
            a[:] = 0.0
        assert_same_fit(REGRESSION_FITS[model](data, self.SPEC),
                        REGRESSION_FITS[model](dataset_of(columns), self.SPEC))

    def test_a_column_a_kept_setup_read_is_read_only(self):
        # In place, the write would leave the kept setup stale, and the next
        # fit would silently return the old coefficients.
        data = dataset_of(nmes_columns())
        before = fit_nb_regression(data, self.SPEC)
        for name in ("y", *gen.COVARIATES):
            with pytest.raises(ValueError, match="read-only"):
                data.columns[name] *= 10
        assert_same_fit(fit_nb_regression(data, self.SPEC), before)

    @pytest.mark.parametrize("response", [np.float64, np.int64])
    def test_a_write_through_the_callers_array_reaches_neither_columns_nor_fit(
            self, response):
        # After a fit, the dataset's columns and its kept setup stay one: a
        # write through an array passed in as a column changes neither, so
        # the next fit is the fit of what data.columns shows.
        cols = nmes_columns()
        cols["y"] = cols["y"].astype(response)
        data = Dataset(column_names=tuple(cols), columns=dict(cols), n=cols["y"].size)
        before = fit_nb_regression(data, self.SPEC)
        cols["y"] *= 10
        cols["AGE"] *= 10
        after = fit_nb_regression(data, self.SPEC)
        assert_same_fit(after, fit_nb_regression(dataset_of(data.columns), self.SPEC))
        assert_same_fit(after, before)

    def test_a_new_spec_keeps_one_design(self):
        data = dataset_of(nmes_columns())
        old = regression._setup(data, self.SPEC)[1].design
        regression._setup(data, RegressionSpec("y", ("AGE",)))
        assert not any(np.shares_memory(a, old) for a in data.columns.values())

    def test_failed_checks_raise_on_every_call(self):
        deficient = make_dataset([0, 1, 2, 0, 1, 3, 0, 2], ones=[1.0] * 8)
        z = np.random.default_rng(3).normal(0.0, 1.0, 500)
        zero = make_dataset(np.zeros(500), z=z)
        for fit in [*REGRESSION_FITS.values()] * 2:
            with pytest.raises(RankDeficientError):
                fit(deficient, RegressionSpec("y", ("ones",)))
            with pytest.raises(DegenerateDataError) as err:
                fit(zero, RegressionSpec("y", ("z",)))
            assert str(err.value) == ("all responses are zero: the likelihood increases "
                                      "as the mean goes to 0 and no maximum exists")


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
            return float(np.sum(family.logpmf_grad(design @ t[:k], r, y)[0]))

        hess = fd_hessian(loglik, theta, 1e-4 * np.maximum(1.0, np.abs(theta)))
        se = np.sqrt(np.diag(np.linalg.inv(-hess)))
        assert fit.std_errors == pytest.approx(se, rel=1e-4)

    def test_information_costs_linear_in_parameters(self, monkeypatch, tmp_path):
        # No kernel call after the optimiser: the observed information is
        # the Hessian of its last kernel pass, and the per-observation pmfs
        # of a regression and of compare's marginal fits are that pass's
        # log pmf.  A stencil of log-likelihood values would take 2 p^2 + 1
        # (163 at p = 9).
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
            spec = RegressionSpec("y", names)
            per_observation_pmf(fit_unb_regression(data, spec), data, spec)
            assert calls["n"] - calls["at_minimize"] == 0
        path = tmp_path / "y.txt"
        write_counts(path, unb_sample(UnbParams(0.5, 0.3), 2000, 3))
        config = cli._build_parser().parse_args(
            ["compare", "--input", str(path), "--models", "unb,nb,up,geometric"])
        cli._fit_models(config, pmfs=True)
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
        lp, floored = family.logpmf_grad(np.full(3, math.log(1e-3)), r, y)[:2]
        assert floored == 1
        assert np.all(np.isfinite(lp))


class TestPerObservationPmf:
    @staticmethod
    def _data():
        rng = np.random.default_rng(31)
        return simulate_reg(rng, 500, np.array([0.3, 0.4, -0.2]), 1.5,
                            lambda rg, n: {"z1": rg.normal(0, 1, n),
                                           "z2": rg.uniform(0, 1, n)})[0]

    @pytest.mark.parametrize("model", list(REGRESSION_FITS))
    def test_is_the_last_kernel_pass(self, model):
        data, spec = self._data(), RegressionSpec("y", ("z1",))
        fit = REGRESSION_FITS[model](data, spec)
        pmf = per_observation_pmf(fit, data, spec)
        design, y, _ = build_design(data, spec)
        lp = _FAMILIES[model].logpmf_grad(design @ fit.beta, fit.r, y)[0]
        assert np.array_equal(pmf, np.exp(fit.log_pmf))
        assert np.array_equal(fit.log_pmf, lp)

    def test_rejects_data_other_than_the_fits(self):
        data, spec = self._data(), RegressionSpec("y", ("z1",))
        fit = fit_unb_regression(data, spec)
        short = make_dataset(data.columns["y"][:-1], z1=data.columns["z1"][:-1])
        for other_data, other_spec in ((short, spec),
                                       (data, RegressionSpec("y", ("z2",))),
                                       (data, RegressionSpec("y", ("z1", "z2")))):
            with pytest.raises(DataError, match="the fit's own dataset and spec"):
                per_observation_pmf(fit, other_data, other_spec)


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
        with pytest.raises(DataError):
            vuong_test([0.5, math.nan, 0.2], [0.5, 0.4, 0.3])

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
