import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mp_logpmf
from unbcount.distributions import UnbParams, unb_sample
from unbcount.errors import (
    DataError,
    DegenerateDataError,
    DomainError,
    UnderDispersionError,
)
from unbcount.estimation import (
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
        params = UnbParams(3.0, 0.5)
        data = [0, 1, 2, 5]
        fd = unb_score_r(params, data, mode="finite_difference")
        th = unb_score_r(params, data, mode="theta_series")
        assert abs(fd - th) <= 1e-5

    def test_r_score_closed_form_at_zero(self):
        # d/dr log p(0) at (r=2, p=0.5) is log 2 - 1
        val = unb_score_r(UnbParams(2.0, 0.5), [0])
        assert val == pytest.approx(LN2 - 1.0, abs=1e-7)

    def test_scores_vanish_at_mle(self):
        data = unb_sample(UnbParams(3.0, 0.5), 5000, 21)
        fit = fit_mle(data)
        assert abs(unb_score_p(fit.params, data)) < 1e-4 * data.size
        assert abs(unb_score_r(fit.params, data)) < 1e-4 * data.size

    def test_unknown_mode(self):
        with pytest.raises(DomainError):
            unb_score_r(UnbParams(2.0, 0.5), [0, 1], mode="nope")


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
        from scipy.stats import norm
        data = unb_sample(UnbParams(3.0, 0.5), 3000, 23)
        fit = fit_mle(data, level=0.9)
        z = norm.ppf(0.95)
        for (lo, hi), se, est in zip(fit.conf_intervals, fit.std_errors,
                                     (fit.params.r, fit.params.p)):
            assert (hi - lo) / 2.0 == pytest.approx(z * se, rel=1e-12)
            assert (hi + lo) / 2.0 == pytest.approx(est, rel=1e-12)

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

    def test_lone_outlier_converges_without_simplex(self):
        # One count of 200 far past the rest of a q = 0.8 sample: its pmf is
        # 5e-21 of pmf(0), where a subtraction from pmf(0) cancels.
        data = np.append(unb_sample(UnbParams(1.5, 0.2), 2000, seed=7), 200)
        fit = fit_mle(data)
        assert fit.converged
        # one successful L-BFGS-B stage per start: no retry, no Nelder-Mead
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

    def test_up_mean_matching(self):
        data = unb_sample(UnbParams(3.0, 0.5), 5000, 47)
        fit = fit_up_mle(data)
        assert fit.converged
        # the UP maximum likelihood rate need not equal 2*mean exactly,
        # but should sit near it
        assert abs(fit.params.lam - 2.0 * float(np.mean(data))) <= 0.5
