import math
import warnings
from dataclasses import astuple

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mp_logpmf, mp_logpmf_mpf, score_r_theta
from unbcount import distributions as dist
from unbcount import estimation
from unbcount.datasets import Dataset
from unbcount.distributions import UnbParams, unb_sample
from unbcount.errors import (
    DataError,
    DegenerateDataError,
    NonConvergenceError,
    UnderDispersionError,
)
from unbcount.estimation import (
    _FAMILIES,
    _fit,
    fit_geometric,
    fit_mle,
    fit_mm,
    fit_nb_mle,
    fit_up_mle,
    lr_test_geometric,
    sample_moments,
    unb_loglik,
    unb_score_p,
    unb_score_r,
)
from unbcount.regression import (
    RegressionSpec,
    fit_nb_regression,
    fit_unb_regression,
    fit_up_regression,
    unb_reg_loglik,
)

LN2 = math.log(2.0)


def population_moments(r, p):
    q = 1.0 - p
    m1 = r * q / (2.0 * p)
    m2 = (3.0 * r * q / p + 2.0 * r * (r + 1.0) * q * q / (p * p)) / 6.0
    return m1, m2


class TestSampleMoments:
    def test_all_zero(self):
        m = sample_moments([0, 0, 0])
        assert m.m1 == 0.0 and m.m2 == 0.0 and m.zero_proportion == 1.0

    def test_small_sample(self):
        m = sample_moments([1, 2, 3])
        assert m.m1 == pytest.approx(2.0)
        assert m.m2 == pytest.approx(14.0 / 3.0)
        assert m.zero_proportion == 0.0

    def test_large_sample_mean(self):
        draws = unb_sample(UnbParams(3.0, 0.5), 100_000, 3)
        m = sample_moments(draws)
        assert abs(m.m1 - 1.5) <= 3.0 * math.sqrt(3.25 / 100_000)

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            sample_moments([])

    def test_rejects_non_integer(self):
        with pytest.raises(DataError):
            sample_moments([1.5, 2.0])

    def test_rejects_negative(self):
        with pytest.raises(DataError):
            sample_moments([-1, 2])


class TestFitMm:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(r=st.floats(0.2, 25.0), p=st.floats(0.05, 0.95))
    def test_population_moment_round_trip(self, r, p):
        m1, m2 = population_moments(r, p)
        denom = 3.0 * (m2 - m1) - 4.0 * m1 ** 2
        r_hat = 4.0 * m1 ** 2 / denom
        p_hat = r_hat / (2.0 * m1 + r_hat)
        assert abs(r_hat - r) <= 1e-12 * max(1.0, r)
        assert abs(p_hat - p) <= 1e-12

    def test_exact_example(self):
        # population moments of (r=3, p=0.5) are m1=1.5, m2=5.5
        assert population_moments(3.0, 0.5) == (1.5, 5.5)

    def test_under_dispersion(self):
        # m1 = 1, m2 = 1 makes the denominator -4
        with pytest.raises(UnderDispersionError):
            fit_mm([1, 1, 1])

    def test_degenerate(self):
        with pytest.raises(DegenerateDataError):
            fit_mm([0, 0, 0, 0])

    def test_monte_carlo_consistency(self):
        draws = unb_sample(UnbParams(2.0, 0.4), 200_000, 11)
        fit = fit_mm(draws)
        assert abs(fit.params.r - 2.0) <= 0.15
        assert abs(fit.params.p - 0.4) <= 0.15
        assert fit.method == "moments"
        assert fit.std_errors is None
        assert fit.aic == pytest.approx(-2.0 * fit.log_likelihood + 4.0)


class TestLoglik:
    def test_single_zero(self):
        assert unb_loglik(UnbParams(3.0, 0.5), [0]) == pytest.approx(
            math.log(0.375), abs=1e-12)

    def test_all_zero_geometric(self):
        assert unb_loglik(UnbParams(2.0, 0.5), [0] * 10) == pytest.approx(
            10.0 * math.log(0.5), abs=1e-12)

    def test_termwise_oracle(self):
        from unbcount.distributions import unb_pmf
        params = UnbParams(2.5, 0.35)
        data = [0, 1, 1, 3, 7, 2, 0, 5]
        expected = sum(math.log(unb_pmf(params, x)) for x in data)
        assert unb_loglik(params, data) == pytest.approx(expected, abs=1e-10)


class TestScores:
    def test_p_score_vs_finite_difference(self):
        params = UnbParams(3.0, 0.5)
        data = [0, 1, 2, 5]
        h = 1e-6
        fd = (unb_loglik(UnbParams(3.0, 0.5 + h), data)
              - unb_loglik(UnbParams(3.0, 0.5 - h), data)) / (2.0 * h)
        assert abs(unb_score_p(params, data) - fd) <= 1e-5

    def test_p_score_geometric_reduction(self):
        # at r=2 the family is geometric: d/dp loglik = n/p - sum x/(1-p)
        data = unb_sample(UnbParams(2.0, 0.3), 400, 5)
        params = UnbParams(2.0, 0.3)
        expected = data.size / 0.3 - data.sum() / 0.7
        assert unb_score_p(params, data) == pytest.approx(expected, abs=1e-8)

    def test_r_score_modes_agree(self):
        # the kernel's exact r-score against the theta series and against
        # central differences of the log-likelihood
        params = UnbParams(3.0, 0.5)
        data = [0, 1, 2, 5]
        h = 1e-6 * 3.0
        fd = (unb_loglik(UnbParams(3.0 + h, 0.5), data)
              - unb_loglik(UnbParams(3.0 - h, 0.5), data)) / (2.0 * h)
        score = unb_score_r(params, data)
        assert abs(score - score_r_theta(params, data)) <= 1e-5
        assert abs(score - fd) <= 1e-5

    def test_r_score_closed_form_at_zero(self):
        # d/dr log p(0) at (r=2, p=0.5) is log 2 - 1
        val = unb_score_r(UnbParams(2.0, 0.5), [0])
        assert val == pytest.approx(LN2 - 1.0, abs=1e-12)

    def test_scores_vanish_at_mle(self):
        data = unb_sample(UnbParams(3.0, 0.5), 5000, 21)
        fit = fit_mle(data)
        assert abs(unb_score_p(fit.params, data)) < 1e-4 * data.size
        assert abs(unb_score_r(fit.params, data)) < 1e-4 * data.size


class TestFitMle:
    def test_recovers_truth(self):
        data = unb_sample(UnbParams(3.0, 0.5), 20_000, 7)
        fit = fit_mle(data)
        assert fit.converged
        assert abs(fit.params.r - 3.0) <= 0.5
        assert abs(fit.params.p - 0.5) <= 0.05
        assert fit.method == "mle"

    def test_ascent_over_moment_start(self):
        data = unb_sample(UnbParams(3.0, 0.5), 5000, 9)
        mm = fit_mm(data)
        fit = fit_mle(data)
        assert fit.log_likelihood >= mm.log_likelihood - 1e-9

    def test_geometric_identifiability(self):
        data = unb_sample(UnbParams(2.0, 0.5), 20_000, 99)
        fit = fit_mle(data)
        assert 1.8 <= fit.params.r <= 2.2

    def test_permutation_invariance(self):
        data = unb_sample(UnbParams(2.5, 0.4), 2000, 17)
        fit1 = fit_mle(data)
        rng = np.random.default_rng(0)
        fit2 = fit_mle(rng.permutation(data))
        assert fit1.params == fit2.params
        assert fit1.log_likelihood == fit2.log_likelihood

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_mle([0] * 50)

    def test_ci_construction(self):
        from scipy.special import logit
        from scipy.stats import norm
        data = unb_sample(UnbParams(3.0, 0.5), 3000, 23)
        fit = fit_mle(data, level=0.9)
        z = norm.ppf(0.95)
        # r on the log scale, p on the logit scale, with se / r and se / (p q)
        (r_lo, r_hi), (p_lo, p_hi) = fit.conf_intervals
        (se_r, se_p), (r, p) = fit.std_errors, (fit.params.r, fit.params.p)
        for lo, hi, est, se in ((math.log(r_lo), math.log(r_hi), math.log(r), se_r / r),
                                (logit(p_lo), logit(p_hi), logit(p), se_p / (p * (1.0 - p)))):
            assert (hi - lo) / 2.0 == pytest.approx(z * se, rel=1e-12)
            assert (hi + lo) / 2.0 == pytest.approx(est, rel=1e-12)

    def test_ci_inside_parameter_space_on_the_log_r_bound(self):
        # r = e^8 with a standard error of 2.3e5: a Wald interval on r
        # itself runs to -4.5e5
        fit = fit_mle([0] * 39 + [1] * 9 + [2] * 2)
        (r_lo, r_hi), (p_lo, p_hi) = fit.conf_intervals
        assert fit.std_errors[0] > fit.params.r
        assert 0.0 < r_lo < fit.params.r < r_hi
        assert 0.0 < p_lo < fit.params.p <= p_hi <= 1.0

    def test_hessian_negative_semidefinite(self):
        data = unb_sample(UnbParams(3.0, 0.5), 3000, 29)
        fit = fit_mle(data)
        assert fit.converged
        eig = np.linalg.eigvalsh(fit.diagnostics["hessian"])
        assert np.all(eig <= 1e-6)

    def test_explicit_init_honoured(self):
        data = unb_sample(UnbParams(3.0, 0.5), 2000, 31)
        fit = fit_mle(data, init=UnbParams(1.2, 0.3))
        assert fit.converged

    def test_one_start_one_newton_run(self):
        fit = fit_mle(unb_sample(UnbParams(3.0, 0.5), 2000, 31))
        diag = fit.diagnostics
        assert len(diag["messages"]) == 1
        # one kernel pass at the start, then one per trial point
        assert diag["evaluations"] == 1 + fit.iterations + diag["step_halvings"]

    def test_non_finite_start_raises(self):
        # p = 1e-300 puts the intercept at 691, where the log-likelihood
        # is not finite; no other start stands behind it.
        with pytest.raises(NonConvergenceError, match="NON-FINITE START"):
            fit_mle(unb_sample(UnbParams(2.0, 0.5), 500, 3), init=UnbParams(2.0, 1e-300))

    def test_far_start_grows_the_trust_radius(self):
        # r = 1e-300 puts the intercept at -691 and log r on its bound -8,
        # where a step capped at a change of 4 crawled: 178 steps and 180
        # kernel passes.  The radius doubles to 16 after capped steps taken
        # whole: 53 passes, which the bound of 60 keeps; it is not the 20
        # passes such a start should take (ROADMAP item 4).
        y = unb_sample(UnbParams(2.0, 0.5), 500, 3)
        far = fit_mle(y, init=UnbParams(1e-300, 0.5))
        assert far.converged and far.diagnostics["evaluations"] <= 60
        assert far.log_likelihood == pytest.approx(fit_mle(y).log_likelihood, rel=1e-12)

    def test_single_start_matches_the_geometric_start(self):
        # The moment (or geometric) start reaches an optimum at least as
        # high as a Newton run from the geometric submodel at the mean.
        rng, fitted = np.random.default_rng(2024), 0
        for k in range(60):
            r, p = math.exp(rng.uniform(-3.0, 4.0)), rng.uniform(0.02, 0.95)
            y = unb_sample(UnbParams(r, p), (50, 2000)[k % 2], 500 + k)
            if not np.any(y):  # all zero: no estimate to compare
                continue
            fit, fitted = fit_mle(y), fitted + 1
            xs, w = np.unique(y, return_counts=True)
            start = np.array([math.log(np.mean(y)), math.log(2.0)])
            _, _, loglik, *_ = _fit(_FAMILIES["unb"], np.ones((xs.size, 1)),
                                    xs.astype(float), w.astype(float), start)
            assert fit.log_likelihood >= loglik - 1e-12 * abs(loglik), (r, p, k)
        assert fitted >= 50

    def test_lone_outlier_converges_without_simplex(self):
        # One count of 200 far past the rest of a q = 0.8 sample: its pmf is
        # 5e-21 of pmf(0), where a subtraction from pmf(0) cancels.
        data = np.append(unb_sample(UnbParams(1.5, 0.2), 2000, seed=7), 200)
        fit = fit_mle(data)
        assert fit.converged
        # every start's Newton run ends on the gradient test
        assert all(m.startswith("CONVERGENCE") for m in fit.diagnostics["messages"])
        assert fit.diagnostics["pmf_floored"] == 0
        xs, counts = np.unique(data, return_counts=True)
        r, p = fit.params.r, fit.params.p
        oracle = sum(int(c) * mp_logpmf(r, p, int(x)) for x, c in zip(xs, counts))
        assert fit.log_likelihood == pytest.approx(oracle, rel=1e-9)


class TestLrTest:
    def test_nesting(self):
        data = unb_sample(UnbParams(4.0, 0.5), 3000, 37)
        res = lr_test_geometric(data)
        assert res.restricted_loglik <= res.full_loglik + 1e-8
        assert res.statistic >= -1e-8
        assert res.df == 1
        assert 0.0 <= res.p_value <= 1.0

    def test_size_under_null(self):
        # realised 4/100 rejections with these seeds; the nominal level is 5%
        rejections = 0
        for k in range(100):
            data = unb_sample(UnbParams(2.0, 0.5), 10_000, 3000 + k)
            rejections += lr_test_geometric(data).p_value < 0.05
        assert rejections <= 7

    def test_power_under_alternative(self):
        rejections = 0
        for k in range(100):
            data = unb_sample(UnbParams(6.0, 0.5), 10_000, 4000 + k)
            rejections += lr_test_geometric(data).p_value < 0.05
        assert rejections >= 90


class TestComparatorFits:
    def test_geometric_closed_form(self):
        data = unb_sample(UnbParams(2.0, 0.5), 10_000, 41)
        fit = fit_geometric(data)
        m1 = float(np.mean(data))
        assert fit.params.p == pytest.approx(1.0 / (1.0 + m1), rel=1e-12)
        assert fit.converged

    def test_nb_recovery(self):
        rng = np.random.default_rng(43)
        data = rng.negative_binomial(3, 0.5, 20_000)
        fit = fit_nb_mle(data)
        assert fit.converged
        assert abs(fit.params.r - 3.0) <= 0.3
        assert abs(fit.params.p - 0.5) <= 0.03

    def test_up_marginal_fit_ends_in_one_stage(self):
        # The intercept is bounded at the eta clamp, where the bound is
        # exact; unbounded, both L-BFGS-B stages ended ABNORMAL and the fit
        # finished in Nelder-Mead.
        fit = fit_up_mle(unb_sample(UnbParams(3.0, 0.5), 20_000, 1000))
        assert fit.converged
        assert len(fit.diagnostics["messages"]) == 1
        assert fit.diagnostics["messages"][0].startswith("CONVERGENCE")

    def test_up_mean_matching(self):
        data = unb_sample(UnbParams(3.0, 0.5), 5000, 47)
        fit = fit_up_mle(data)
        assert fit.converged
        # the UP maximum likelihood rate need not equal 2*mean exactly,
        # but should sit near it
        assert abs(fit.params.lam - 2.0 * float(np.mean(data))) <= 0.5


def mp_family_logpmf(model, eta, r, y):
    """Exact log pmf of a family at eta, with p and q from the mean at
    enough digits that p = 1 - q is not rounded to 1."""
    with mpmath.workdps(40 + int(abs(eta) / 2)):
        mu, r = mpmath.exp(mpmath.mpf(eta)), mpmath.mpf(r)
        if model == "up":  # P(N > y) / lam with N ~ Poisson(lam = 2 mu)
            return (mpmath.log(mpmath.gammainc(y + 1, 0, 2 * mu, regularized=True))
                    - mpmath.log(2 * mu))
        kappa = 2 if model == "unb" else 1
        p, q = r / (kappa * mu + r), kappa * mu / (kappa * mu + r)
        if model == "unb":
            return mp_logpmf_mpf(r, p, y, q=q)
        return (mpmath.loggamma(r + y) - mpmath.loggamma(r) - mpmath.loggamma(y + 1)
                + r * mpmath.log(p) + y * mpmath.log(q))


# Values of the marginal fits on unb_sample(UnbParams(3, 0.5), 20000, 1000),
# recorded before the marginal fits ran on the regression engine: estimates,
# log-likelihood, standard errors.
RECORDED_FITS = {
    "unb": ((2.8956167205282375, 0.49205420668428235), -33542.862854984814,
            (0.11407281619742196, 0.010010698451179512)),
    "nb": ((1.2350555513736998, 0.4524583879076883), -33543.690783447055,
           (0.026413399580272404, 0.005710475505549247)),
    "up": ((3.1217381323102744,), -34238.633254827946, (0.022149529114594637,)),
    "geometric": ((0.40086587027980436,), -33595.3362734669,
                  (0.002194047947221061,)),
}
MARGINAL_FITS = {"unb": fit_mle, "nb": fit_nb_mle, "up": fit_up_mle,
                 "geometric": fit_geometric}
REGRESSION_FITS = {"unb": fit_unb_regression, "nb": fit_nb_regression,
                   "up": fit_up_regression}


class TestOneEngine:
    @pytest.mark.parametrize("model", ["unb", "nb"])
    def test_link_is_exact_inside_eta_clamp(self, model):
        # Below eta ~ log r - 37, p = r/(kappa mu + r) rounds to 1; q comes
        # from the mean, so the log pmf and its eta-derivative stay exact.
        family = _FAMILIES[model]
        y = np.array([0, 1, 3])
        h = mpmath.mpf("1e-6")
        for eta in (-40.0, -100.0, -700.0):
            for r in (0.5, 2.0, 20.0):
                etas = np.full(3, eta)
                lp, floored = family.logpmf(etas, r, y)
                deta = family.logpmf_grad(etas, r, y)[2]
                oracle = [mp_family_logpmf(model, eta, r, int(x)) for x in y]
                assert np.all(np.isfinite(lp)) and np.all(np.isfinite(deta))
                expect = np.maximum([float(v) for v in oracle], math.log(dist.PMF_FLOOR))
                assert lp == pytest.approx(expect, abs=1e-10)
                assert floored == sum(float(v) < math.log(dist.PMF_FLOOR) for v in oracle)
                if model == "unb":
                    p, q = family.link(etas, r)
                    exact = dist._unb_logpmf(r, p, y, q=q)
                    assert exact == pytest.approx([float(v) for v in oracle], abs=1e-10)
                for i, x in enumerate(y):
                    fd = float((mp_family_logpmf(model, eta + h, r, int(x))
                                - mp_family_logpmf(model, eta - h, r, int(x))) / (2 * h))
                    assert deta[i] == pytest.approx(fd, rel=1e-6)
        assert math.isfinite(unb_reg_loglik(np.array([-40.0]), 2.0, np.ones((3, 1)),
                                            np.array([0, 0, 1])))

    @pytest.mark.parametrize("model", ["unb", "nb"])
    def test_eta_derivative_finite_where_q_underflows_m(self, model):
        # q = 2 e^-699 / (2 e^-699 + e^8) is near 1e-307, so m/q overflows
        # for y = 100; the fused form p m - r q stays exact.
        eta, r, y = -699.0, math.exp(8.0), 100
        h = mpmath.mpf("1e-6")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            g_eta = _FAMILIES[model].logpmf_grad(np.array([eta]), r, np.array([y]))[2]
        fd = float((mp_family_logpmf(model, eta + h, r, y)
                    - mp_family_logpmf(model, eta - h, r, y)) / (2 * h))
        assert np.isfinite(g_eta[0])
        assert g_eta[0] == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("model", ["unb", "nb", "up", "geometric"])
    def test_second_derivatives_in_eta_and_log_r(self, model):
        # Against a nine-point central-difference stencil of the mpmath log
        # pmf in (eta, log r); the up and geometric laws have eta alone.
        family = _FAMILIES[model]
        y = np.array([0, 1, 4, 30])
        h = mpmath.mpf("1e-12")
        for eta in (-40.0, -1.0, 0.5, 3.0):
            for r in ((0.3, 2.0, 50.0) if family.n_shape else (family.fixed_r or 1.0,)):
                got = family.logpmf_grad(np.full(y.size, eta), r, y)[4:]
                for i, x in enumerate(y):
                    with mpmath.workdps(50):
                        v = {(a, b): mp_family_logpmf(model, eta + a * h, r * mpmath.exp(b * h),
                                                      int(x))
                             for a in (-1, 0, 1) for b in (-1, 0, 1)}
                        exact = [(v[1, 0] - 2 * v[0, 0] + v[-1, 0]) / h ** 2,
                                 (v[1, 1] - v[1, -1] - v[-1, 1] + v[-1, -1]) / (4 * h * h),
                                 (v[0, 1] - 2 * v[0, 0] + v[0, -1]) / h ** 2]
                    for g, e in zip(got, exact[:1 + 2 * family.n_shape]):
                        assert g[i] == pytest.approx(float(e), rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("model", ["unb", "nb"])
    def test_log_r_derivative_vs_central_difference(self, model):
        family = _FAMILIES[model]
        y = np.array([0, 1, 5, 30])
        h = mpmath.mpf("1e-8")
        for eta in (-2.0, 0.5, 3.0):
            for r in (0.3, 2.0, 50.0):
                g_logr = family.logpmf_grad(np.full(y.size, eta), r, y)[3]
                for i, x in enumerate(y):
                    fd = float((mp_family_logpmf(model, eta, r * mpmath.exp(h), int(x))
                                - mp_family_logpmf(model, eta, r * mpmath.exp(-h), int(x)))
                               / (2 * h))
                    assert g_logr[i] == pytest.approx(fd, rel=1e-8, abs=1e-10)

    def test_stage_below_gate_is_final_whatever_its_message(self, monkeypatch):
        # The gate alone judges a Newton run: one that reports failure at a
        # point already below the gate ends the fit, converged.  The fit
        # calls the optimiser once.
        real_minimize = estimation._opt.minimize
        calls = []

        def abnormal(*args, **kwargs):
            calls.append(1)
            res = real_minimize(*args, **kwargs)
            res.success, res.message = False, "ABNORMAL: "
            return res

        monkeypatch.setattr(estimation._opt, "minimize", abnormal)
        fit = fit_nb_mle(unb_sample(UnbParams(2.0, 0.45), 2000, 5))
        assert len(calls) == 1
        assert fit.diagnostics["messages"] == ["ABNORMAL: "]
        assert fit.converged and fit.diagnostics["grad_norm"] < 1e-6

    def test_nb_marginal_mle_converges(self):
        # One L-BFGS-B stage from a start clipped to logit p in [-8, 8]
        # stopped this fit unconverged; Newton's method finishes it.
        fit = fit_nb_mle(unb_sample(UnbParams(1.0, 0.6), 200_000, 809))
        assert fit.converged
        assert fit.diagnostics["grad_norm"] < 1e-6

    def test_every_fit_carries_the_diagnostics(self):
        keys = {"grad_norm", "messages", "pmf_floored", "eta_clamped", "hessian"}
        y = unb_sample(UnbParams(2.0, 0.45), 500, 3)
        for fit in MARGINAL_FITS.values():
            assert keys <= set(fit(y).diagnostics)
        z = np.random.default_rng(3).normal(0.0, 1.0, y.size)
        data = Dataset(column_names=("y", "z"),
                       columns={"y": y.astype(float), "z": z}, n=y.size)
        for fit in REGRESSION_FITS.values():
            assert keys <= set(fit(data, RegressionSpec("y", ("z",))).diagnostics)

    def test_up_marginal_counts_floored_outlier(self):
        # P(N > 500) for N ~ Poisson(3) is far below 1e-300
        data = np.append(unb_sample(UnbParams(3.0, 0.5), 2000, 5), 500)
        fit = fit_up_mle(data)
        assert fit.diagnostics["pmf_floored"] >= 1
        assert math.isfinite(fit.log_likelihood)

    @pytest.mark.parametrize("model", ["unb", "nb", "up", "geometric"])
    def test_marginal_fit_is_intercept_only_regression(self, model):
        y = unb_sample(UnbParams(2.0, 0.45), 2000, 5)
        family = _FAMILIES[model]
        if model == "geometric":
            theta, _, loglik, converged, _, _ = _fit(
                family, np.ones((y.size, 1)), y, np.ones(y.size),
                np.array([math.log(np.mean(y))]))
        else:
            data = Dataset(column_names=("y",), columns={"y": y.astype(float)},
                           n=y.size)
            rfit = REGRESSION_FITS[model](data, RegressionSpec("y", ()))
            theta = np.append(rfit.beta, [] if rfit.r is None else [rfit.r])
            loglik, converged = rfit.log_likelihood, rfit.converged
        mfit = MARGINAL_FITS[model](y)
        assert converged and mfit.converged
        assert mfit.log_likelihood == pytest.approx(loglik, rel=1e-9)
        assert astuple(mfit.params) == pytest.approx(astuple(family.law(theta)[0]),
                                                     rel=1e-6)

    @pytest.mark.parametrize("model", list(RECORDED_FITS))
    def test_marginal_fits_match_recorded_values(self, model):
        estimates, loglik, std_errors = RECORDED_FITS[model]
        fit = MARGINAL_FITS[model](unb_sample(UnbParams(3.0, 0.5), 20_000, 1000))
        assert fit.converged
        assert fit.log_likelihood == pytest.approx(loglik, rel=1e-9)
        assert astuple(fit.params) == pytest.approx(estimates, rel=1e-6)
        assert fit.std_errors == pytest.approx(std_errors, rel=1e-4)


class TestFitTrace:
    def test_lone_outlier_trace(self):
        data = np.append(unb_sample(UnbParams(1.5, 0.2), 2000, seed=7), 200)
        fit = fit_mle(data)
        diag = fit.diagnostics
        # one kernel pass at each start, then one per trial point
        assert diag["evaluations"] == (len(diag["messages"]) + fit.iterations
                                       + diag["step_halvings"])
        assert diag["evaluations"] <= 12 and diag["hessian_shifts"] == 0
        assert diag["condition"] == pytest.approx(np.linalg.cond(diag["hessian"]), rel=1e-12)
        assert 1.0 < diag["condition"] < 1e3

    def test_fit_on_the_log_r_bound(self):
        # Poisson counts are less dispersed than any UNB law: r runs to the
        # box's e^8, where the log r gradient still points out of the box.
        fit = fit_mle(np.random.default_rng(11).poisson(4.0, 2000))
        diag = fit.diagnostics
        assert fit.params.r == pytest.approx(math.exp(8.0), rel=1e-12)
        assert diag["messages"] == ["CONVERGENCE: NORM OF PROJECTED GRADIENT <= GTOL"]
        assert not fit.converged and diag["grad_norm"] > 1e-6
        assert diag["evaluations"] <= 12 and diag["step_halvings"] == 0
        assert diag["condition"] > 1e9

    def test_gradient_stop_takes_a_point_the_rounding_rejects(self):
        # 50 counts too little dispersed for a moment start also run r to
        # e^8.  The full step lands where the free gradient meets the stop
        # test, but the value's rounding there fails the decrease test, and
        # halving from there cycles to the step limit: the point is taken
        # on its gradient.
        fit = fit_mle([0] * 39 + [1] * 9 + [2] * 2)
        diag = fit.diagnostics
        assert fit.params.r == pytest.approx(math.exp(8.0), rel=1e-12)
        assert diag["messages"] == ["CONVERGENCE: NORM OF PROJECTED GRADIENT <= GTOL"]
        assert not fit.converged
        assert diag["evaluations"] <= 12 and diag["step_halvings"] == 0

    @pytest.mark.parametrize("model", list(MARGINAL_FITS))
    def test_all_zero_input_raises(self, model):
        with pytest.raises(DegenerateDataError):
            MARGINAL_FITS[model]([0] * 50)
