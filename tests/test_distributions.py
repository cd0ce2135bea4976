import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as ssp
from scipy import stats as sps

from conftest import (GRID, hyp_cdf, hyp_pmf, hyp_up_pmf, mp_logpmf, mp_logpmf_mpf,
                      nb_tail_cutoff)
from unbcount import distributions as _dist
from unbcount.distributions import (
    GeomParams,
    NbParams,
    UnbParams,
    UpParams,
    _trigamma,
    _unb_logpmf,
    geom_pmf,
    nb_cdf,
    nb_pmf,
    unb_cdf,
    unb_dispersion_index,
    unb_dlogpmf_dp_kernel,
    unb_logpmf,
    unb_logpmf_kernel,
    unb_mean,
    unb_mgf,
    unb_pgf,
    unb_pmf,
    unb_pmf_vector,
    unb_sample,
    unb_variance,
    up_logpmf,
    up_pmf,
)
from unbcount.errors import DomainError
from unbcount.specfun import lerch_phi

LN2 = math.log(2.0)

params_strategy = st.tuples(st.floats(0.2, 25.0), st.floats(0.05, 0.95))


def mixture_pmf_oracle(r, p, x, terms=6000):
    """Brute-force uniform mixture over the negative binomial."""
    n = np.arange(x, x + terms)
    return float(np.sum(sps.nbinom.pmf(n, r, p) / (n + 1.0)))


class TestParams:
    @pytest.mark.parametrize("r,p", [(0.0, 0.5), (-1.0, 0.5), (2.0, 0.0),
                                     (2.0, 1.0), (2.0, -0.1), (math.inf, 0.5)])
    def test_unb_invalid(self, r, p):
        with pytest.raises(DomainError):
            UnbParams(r, p)

    def test_q_derived(self):
        assert UnbParams(2.0, 0.3).q == 0.7

    def test_up_invalid(self):
        with pytest.raises(DomainError):
            UpParams(0.0)

    def test_geom_invalid(self):
        with pytest.raises(DomainError):
            GeomParams(1.0)


class TestUnbPmf:
    def test_geometric_reduction_value(self):
        # r = 2 collapses to the geometric law p(1-p)^x
        assert unb_pmf(UnbParams(2.0, 0.5), 3) == pytest.approx(0.0625, abs=1e-14)

    def test_zero_closed_form(self):
        # p(0) = (p - p^r) / ((1-p)(r-1))
        assert unb_pmf(UnbParams(3.0, 0.5), 0) == pytest.approx(0.375, abs=1e-13)
        oracle = mixture_pmf_oracle(3.0, 0.5, 0)
        assert unb_pmf(UnbParams(3.0, 0.5), 0) == pytest.approx(oracle, abs=1e-12)

    def test_r1_lerch_value(self):
        assert unb_pmf(UnbParams(1.0, 0.5), 0) == pytest.approx(LN2, abs=1e-12)

    @pytest.mark.parametrize("r,p,x", [
        (3.0, 0.5, 5), (0.5, 0.1, 7), (20.0, 0.1, 12), (5.0, 0.9, 3),
        (2.0, 0.9, 10), (1.3, 0.8, 4), (7.0, 0.3, 0), (0.7, 0.6, 25),
    ])
    def test_vs_mixture_oracle(self, r, p, x):
        assert unb_pmf(UnbParams(r, p), x) == pytest.approx(
            mixture_pmf_oracle(r, p, x), rel=1e-11)

    def test_negative_x_rejected(self):
        with pytest.raises(DomainError):
            unb_pmf(UnbParams(2.0, 0.5), -1)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(rp=params_strategy, x=st.integers(0, 60))
    def test_in_unit_interval(self, rp, x):
        v = unb_pmf(UnbParams(*rp), x)
        assert 0.0 < v < 1.0


class TestPmfVector:
    @pytest.mark.parametrize("r,p", GRID)
    def test_matches_hypergeometric_route(self, r, p):
        vec = unb_pmf_vector(UnbParams(r, p), 30)
        direct = np.array([hyp_pmf(UnbParams(r, p), k) for k in range(31)])
        assert np.max(np.abs(vec - direct)) <= 1e-12

    def test_agreement_example(self):
        vec = unb_pmf_vector(UnbParams(3.0, 0.5), 30)
        direct = np.array([unb_pmf(UnbParams(3.0, 0.5), k) for k in range(31)])
        assert np.max(np.abs(vec - direct)) <= 1e-12

    @pytest.mark.parametrize("r,p", GRID)
    def test_strictly_decreasing(self, r, p):
        vec = unb_pmf_vector(UnbParams(r, p), 30)
        # where the analytic decrement p^r q^x C(r+x-1, r-1)/(x+1) is under
        # a few ulps of p(x), equality of doubles is the best representable
        # result
        live = vec > 1e-12
        v = vec[live]
        assert np.all(np.diff(v) <= 0.0)
        lq = math.log(1.0 - p)
        for k in range(len(v) - 1):
            log_delta = (r * math.log(p) + k * lq + math.lgamma(r + k)
                         - math.lgamma(r) - math.lgamma(k + 1.0)
                         - math.log(k + 1.0))
            if math.exp(log_delta) > 8e-16 * v[k]:
                assert v[k + 1] < v[k]

    def test_geometric_reduction_entries(self):
        vec = unb_pmf_vector(UnbParams(2.0, 0.5), 10)
        expect = 0.5 ** (np.arange(11) + 1)
        assert np.max(np.abs(vec - expect)) <= 1e-13

    def test_r_equal_one_start(self):
        vec = unb_pmf_vector(UnbParams(1.0, 0.5), 0)
        assert vec[0] == pytest.approx(LN2, abs=1e-14)


class TestCdf:
    def test_at_zero_equals_pmf(self):
        assert unb_cdf(UnbParams(3.0, 0.5), 0) == pytest.approx(0.375, abs=1e-13)

    def test_partial_sum_oracle(self):
        params = UnbParams(3.0, 0.5)
        partial = sum(unb_pmf(params, k) for k in range(9))
        assert unb_cdf(params, 8) == pytest.approx(partial, abs=1e-12)

    def test_total_mass(self):
        assert unb_cdf(UnbParams(3.0, 0.5), 200) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("r,p", GRID)
    def test_matches_hypergeometric_route(self, r, p):
        params = UnbParams(r, p)
        for x in range(31):
            assert abs(unb_cdf(params, x) - hyp_cdf(params, x)) <= 1e-12, x

    @pytest.mark.parametrize("r", [0.05, 0.5, 1.0, 3.0, 20.0, 300.0])
    def test_against_mpmath_partial_sums(self, r):
        # At r = 300, p = 0.01 the 2F1 of the source's form overflows.
        xs = (0, 1, 5, 30, 60)
        for p in (0.01, 0.3, 0.5, 0.9):
            with mpmath.workdps(30):
                pmf = [mpmath.exp(mp_logpmf_mpf(r, p, k)) for k in range(xs[-1] + 1)]
                exact = np.array([float(mpmath.fsum(pmf[:x + 1])) for x in xs])
            got = np.array([unb_cdf(UnbParams(r, p), x) for x in xs])
            assert np.max(np.abs(got - exact)) <= 1e-12, (r, p)

    @pytest.mark.parametrize("r,p", [(0.5, 0.1), (20.0, 0.1), (2.0, 0.9)])
    def test_monotone(self, r, p):
        params = UnbParams(r, p)
        vals = [unb_cdf(params, x) for x in range(0, 30, 3)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)


class TestRecurrences:
    @pytest.mark.parametrize("r,p", GRID)
    def test_probability_ratio_identity(self, r, p):
        # p(x+1)/p(x) = q ((r+x)/(x+2)) F(1, r+x+1; 3+x) / F(1, r+x; 2+x)
        from unbcount.specfun import gauss_2f1
        params = UnbParams(r, p)
        q = 1.0 - p
        for x in (0, 1, 4, 9):
            lhs = unb_pmf(params, x + 1) / unb_pmf(params, x)
            rhs = (q * (r + x) / (x + 2.0)
                   * gauss_2f1(1.0, r + x + 1.0, 3.0 + x, q)
                   / gauss_2f1(1.0, r + x, 2.0 + x, q))
            assert abs(lhs - rhs) <= 1e-10

    @pytest.mark.parametrize("r", [1.5, 3.0, 7.0])
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_three_term_shape_recurrence(self, r, p):
        q = 1.0 - p
        for x in range(0, 21, 4):
            lhs = unb_pmf(UnbParams(r, p), x)
            rhs = (r / ((r - 1.0) * (r + x) * p)) * (
                (2.0 * r + x - (r + x) * q) * unb_pmf(UnbParams(r + 1.0, p), x)
                - (r + 1.0) * unb_pmf(UnbParams(r + 2.0, p), x))
            assert abs(lhs - rhs) <= 1e-10


class TestReductions:
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_geometric_at_r2(self, p):
        params = UnbParams(2.0, p)
        geom = GeomParams(p)
        for x in range(0, 40, 5):
            assert abs(unb_pmf(params, x) - geom_pmf(geom, x)) <= 1e-13

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_lerch_at_r1(self, p):
        params = UnbParams(1.0, p)
        q = 1.0 - p
        for x in range(0, 30, 4):
            lerch = p * q ** x * lerch_phi(q, x + 1.0)
            assert abs(unb_pmf(params, x) - lerch) <= 1e-12

    def test_uniform_poisson_limit(self):
        lam = 2.0
        sups = []
        for r in (50.0, 200.0, 800.0):
            p = 1.0 / (1.0 + lam / r)
            sup = max(abs(unb_pmf(UnbParams(r, p), x) - up_pmf(UpParams(lam), x))
                      for x in range(51))
            sups.append(sup)
        assert sups[0] > sups[1] > sups[2]

    def test_uniform_poisson_limit_at_r400(self):
        lam, r = 2.0, 400.0
        p = r / (r + lam)
        sup = max(abs(unb_pmf(UnbParams(r, p), x) - up_pmf(UpParams(lam), x))
                  for x in range(51))
        assert sup < 2e-3


class TestMoments:
    def test_closed_forms_at_3_half(self):
        params = UnbParams(3.0, 0.5)
        assert unb_mean(params) == pytest.approx(1.5, rel=1e-14)
        assert unb_variance(params) == pytest.approx(3.25, rel=1e-14)
        assert unb_dispersion_index(params) == pytest.approx(13.0 / 6.0, rel=1e-14)

    def test_geometric_mean_at_r2(self):
        params = UnbParams(2.0, 0.5)
        assert unb_mean(params) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("r,p", GRID)
    def test_series_oracle(self, r, p):
        params = UnbParams(r, p)
        cutoff = min(nb_tail_cutoff(NbParams(r, p), 1e-14) + 50, 2000)
        xs = np.arange(cutoff + 1, dtype=float)
        pmf = np.array([hyp_pmf(params, int(x)) for x in xs])
        m1 = float(np.sum(xs * pmf))
        m2 = float(np.sum(xs ** 2 * pmf))
        assert abs(unb_mean(params) - m1) <= 1e-9 * max(1.0, unb_mean(params))
        var = m2 - m1 ** 2
        assert abs(unb_variance(params) - var) <= 1e-9 * max(1.0, unb_variance(params))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(rp=params_strategy)
    def test_always_overdispersed(self, rp):
        assert unb_dispersion_index(UnbParams(*rp)) > 1.0


class TestGeneratingFunctions:
    def test_normalisation(self):
        params = UnbParams(3.0, 0.5)
        assert unb_mgf(params, 0.0) == pytest.approx(1.0, abs=1e-9)
        assert unb_pgf(params, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_mean_by_differentiation(self):
        params = UnbParams(3.0, 0.5)
        h = 1e-5
        fd = (unb_mgf(params, h) - unb_mgf(params, -h)) / (2.0 * h)
        assert fd == pytest.approx(1.5, abs=1e-4)

    def test_pgf_series_oracle(self):
        params = UnbParams(3.0, 0.5)
        s = 0.3
        series = sum(s ** x * unb_pmf(params, x) for x in range(200))
        assert unb_pgf(params, s) == pytest.approx(series, abs=1e-10)

    @pytest.mark.parametrize("r,p", [(3.0, 0.5), (1.0, 0.5), (0.7, 0.3), (5.0, 0.8)])
    def test_mgf_pgf_consistency(self, r, p):
        params = UnbParams(r, p)
        q = 1.0 - p
        for s in np.linspace(q + 0.05, 1.0 / q - 0.05, 7):
            if s <= 0:
                continue
            assert abs(unb_mgf(params, math.log(s)) - unb_pgf(params, s)) <= 1e-11

    def test_domains(self):
        params = UnbParams(3.0, 0.5)
        with pytest.raises(DomainError):
            unb_mgf(params, -math.log(params.q) + 0.1)
        with pytest.raises(DomainError):
            unb_pgf(params, 2.5)


def mp_pgf(r, p, s):
    """The mixture's p^r [g(p) - g(1 - q s)] / (q (s - 1)), g(u) =
    (1 - u^(1-r)) / (r - 1), at 60 digits; 1 at s = 1."""
    with mpmath.workdps(60):
        r, p, s = mpmath.mpf(r), mpmath.mpf(p), mpmath.mpf(s)
        if s == 1:
            return mpmath.mpf(1)
        q = 1 - p

        def g(u):
            return mpmath.log(u) if r == 1 else (1 - u ** (1 - r)) / (r - 1)

        return p ** r * (g(p) - g(1 - q * s)) / (q * (s - 1))


class TestPgfClosedForm:
    R = (1e-3, 0.05, 0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.0, 3.0, 50.0, 300.0)
    P = (1e-6, 1e-4, 0.01, 0.1, 0.3, 0.5, 0.9, 0.999)

    def test_matches_mpmath_across_the_domain(self):
        worst, finite = 0.0, 0
        for r in self.R:
            for p in self.P:
                params = UnbParams(r, p)
                edge = 0.999 / params.q
                for s in (-edge, -0.5, 0.0, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, edge):
                    ref, value = float(mp_pgf(r, p, s)), unb_pgf(params, s)
                    if math.isinf(ref):  # E[s^X] past the largest double
                        assert value == math.inf, (r, p, s)
                        continue
                    err = abs(value - ref) / ref
                    worst, finite = max(worst, err), finite + 1
                    assert err <= 1e-11, (r, p, s, err)
        assert finite >= 600 and worst > 0.0

    def test_near_one_without_summing_the_pmf(self):
        # Summing the pmf to its tail cutoff at (50, 1e-6) would take 1.2e8
        # terms; the closed form holds through s = 1.
        t0 = time.perf_counter()
        value = unb_pgf(UnbParams(50.0, 1e-6), 1.0 - 1e-7)
        assert time.perf_counter() - t0 < 0.1
        assert value == pytest.approx(float(mp_pgf(50.0, 1e-6, 1.0 - 1e-7)), rel=1e-11)


class TestSampling:
    def test_deterministic(self):
        params = UnbParams(3.0, 0.5)
        a = unb_sample(params, 1000, 7)
        b = unb_sample(params, 1000, 7)
        assert np.array_equal(a, b)

    def test_mean_close(self):
        params = UnbParams(3.0, 0.5)
        draws = unb_sample(params, 100_000, 11)
        tol = 3.0 * math.sqrt(3.25 / 100_000)
        assert abs(draws.mean() - 1.5) <= tol

    def test_gof_chi_square(self):
        params = UnbParams(3.0, 0.5)
        draws = unb_sample(params, 100_000, 13)
        edges = list(range(10))
        pmf = unb_pmf_vector(params, 9)
        expected = np.append(pmf, 1.0 - pmf.sum()) * draws.size
        observed = np.array([(draws == k).sum() for k in edges]
                            + [(draws >= 10).sum()], dtype=float)
        stat = float(np.sum((observed - expected) ** 2 / expected))
        assert stat < sps.chi2.ppf(0.99, len(edges))  # 11 cells, 10 dof

    def test_invalid_n(self):
        with pytest.raises(DomainError):
            unb_sample(UnbParams(3.0, 0.5), 0, 1)


class TestUniformPoisson:
    def test_normalisation(self):
        total = sum(up_pmf(UpParams(1.0), x) for x in range(101))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_poisson_mixture_oracle_at_zero(self):
        lam = 2.0
        # sum_n e^-lam lam^n/n! / (n+1) = (1 - e^-lam)/lam
        assert up_pmf(UpParams(lam), 0) == pytest.approx(
            (1.0 - math.exp(-lam)) / lam, rel=1e-13)

    @pytest.mark.parametrize("lam", [750.0, 1000.0])
    def test_at_zero_where_the_confluent_form_overflows(self, lam):
        assert abs(up_pmf(UpParams(lam), 0) - (1.0 - math.exp(-lam)) / lam) <= 1e-13

    @pytest.mark.parametrize("r,p", GRID)
    def test_matches_confluent_route(self, r, p):
        params = UpParams(r * (1.0 - p) / p)  # the NB mean, the UNB's r -> inf limit
        for x in range(31):
            assert abs(up_pmf(params, x) - hyp_up_pmf(params, x)) <= 1e-12, x

    def test_poisson_mixture_oracle(self):
        lam = 3.0
        n = np.arange(0, 300)
        for x in (1, 4, 9):
            oracle = float(np.sum(sps.poisson.pmf(n[n >= x], lam) / (n[n >= x] + 1.0)))
            assert up_pmf(UpParams(lam), x) == pytest.approx(oracle, rel=1e-11)

    def test_logpmf_identity(self):
        assert up_logpmf(UpParams(2.0), 3) == pytest.approx(
            math.log(up_pmf(UpParams(2.0), 3)), abs=1e-12)


class TestComparators:
    def test_nb_geometric_at_r1(self):
        p = 0.4
        for x in range(6):
            assert nb_pmf(NbParams(1.0, p), x) == pytest.approx(
                p * (1 - p) ** x, rel=1e-13)

    def test_nb_product_oracle(self):
        r, p, x = 2.5, 0.4, 3
        # C(r+x-1, x) = prod_{k=0}^{x-1}(r+k)/x!
        coef = r * (r + 1.0) * (r + 2.0) / 6.0
        oracle = coef * p ** r * (1 - p) ** x
        assert nb_pmf(NbParams(r, p), x) == pytest.approx(oracle, rel=1e-13)

    def test_nb_cdf_sums(self):
        params = NbParams(2.5, 0.4)
        partial = sum(nb_pmf(params, k) for k in range(8))
        assert nb_cdf(params, 7) == pytest.approx(partial, rel=1e-12)

    def test_nb_cdf_where_p_to_the_r_underflows(self):
        # p^r = 1e-600: a sum started from the pmf at 0 stays at 0
        with mpmath.workdps(30):
            exact = float(mpmath.betainc(300, 40_001, 0, mpmath.mpf(0.01),
                                         regularized=True))
        assert abs(nb_cdf(NbParams(300.0, 0.01), 40_000) - exact) <= 1e-12

    def test_geom_pmf_value(self):
        assert geom_pmf(GeomParams(0.5), 2) == 0.125

    def test_tail_cutoff_property(self):
        params = NbParams(3.0, 0.5)
        x_star = nb_tail_cutoff(params, 1e-12)
        assert 1.0 - nb_cdf(params, x_star - 1) < 1e-12

    def test_tail_cutoff_where_p_to_the_r_underflows(self):
        # p^r = 0.01^300 underflows, so a sum of the pmf up from it stays 0
        start = time.perf_counter()
        assert unb_mgf(UnbParams(300.0, 0.01), 0.0) == pytest.approx(1.0, abs=1e-9)
        assert time.perf_counter() - start < 0.5
        x = nb_tail_cutoff(NbParams(300.0, 0.01), 1e-14)
        assert ssp.betainc(x, 300.0, 0.99) < 1e-14 <= ssp.betainc(x - 1, 300.0, 0.99)


class TestNormalization:
    @pytest.mark.parametrize("r,p", GRID)
    def test_mass_captured_by_tail_bound(self, r, p):
        params = UnbParams(r, p)
        x_star = nb_tail_cutoff(NbParams(r, p), 1e-12)
        total = sum(unb_pmf(params, x) for x in range(x_star + 1))
        assert total >= 1.0 - 1e-9


class TestMonotoneDecrease:
    @pytest.mark.parametrize("r,p", GRID)
    def test_pmf_decreasing_to_200(self, r, p):
        # p(x+1) < p(x) everywhere; where the analytic decrement
        # p^r q^x C(r+x-1, r-1)/(x+1) is below a few ulps of p(x), double
        # precision can only represent equality, which is accepted
        params = UnbParams(r, p)
        lp, lq = math.log(p), math.log(1.0 - p)
        prev = unb_pmf(params, 0)
        for x in range(1, 201):
            cur = unb_pmf(params, x)
            if prev == 0.0 and cur == 0.0:
                break  # underflowed to zero deep in the tail
            log_delta = (r * lp + (x - 1) * lq + math.lgamma(r + x - 1.0)
                         - math.lgamma(r) - math.lgamma(float(x))
                         - math.log(float(x)))
            if log_delta > math.log(8e-16) + math.log(max(prev, 5e-324)):
                assert cur < prev, (x, cur, prev)
            else:
                assert cur <= prev, (x, cur, prev)
            prev = cur


class TestKernels:
    def test_trigamma_against_scipy_zeta(self):
        x = np.exp(np.linspace(-9.0, 14.0, 400))
        assert np.max(np.abs(_trigamma(x) / ssp.zeta(2.0, x) - 1.0)) <= 2e-15

    @pytest.mark.parametrize("r", [0.7, 1.0, 2.5, 6.0])
    def test_logpmf_kernel_matches_scalar(self, r, rng):
        ps = rng.uniform(0.05, 0.95, 50)
        xs = rng.integers(0, 40, 50)
        kernel, floored = unb_logpmf_kernel(r, ps, xs)
        scalar = np.array([unb_logpmf(UnbParams(r, p), int(x))
                           for p, x in zip(ps, xs)])
        assert floored == 0
        assert np.max(np.abs(kernel - scalar)) <= 1e-10

    @pytest.mark.parametrize("r", [0.7, 2.5])
    def test_dlogpmf_kernel_vs_finite_difference(self, r, rng):
        ps = rng.uniform(0.1, 0.9, 30)
        xs = rng.integers(0, 25, 30)
        der = unb_dlogpmf_dp_kernel(r, ps, xs)
        h = 1e-6
        fd = np.array([
            (unb_logpmf(UnbParams(r, p + h), int(x))
             - unb_logpmf(UnbParams(r, p - h), int(x))) / (2.0 * h)
            for p, x in zip(ps, xs)])
        assert np.max(np.abs(der - fd) / np.maximum(1.0, np.abs(fd))) <= 1e-5

    @pytest.mark.parametrize("r", [0.4, 1.0, 3.0, 25.0])
    def test_per_row_table_matches_scalar_pass(self, r, rng, monkeypatch):
        # A p per row takes the per-row pass, whose k-factors come from one
        # table over k that starts at max(x) + 1 = 3001 and grows block by
        # block as the tails at q = 0.99 run past it; each row must give
        # what the scalar-p pass gives at its own (p, x).  With blocks of
        # 1000 k the table's first build and the head's weights run in
        # several blocks.
        monkeypatch.setattr(_dist, "_BLOCK_MAX", 1000)
        grown = []
        upto = _dist._KTable.upto

        def record(table, n):
            if n > table.lg.size:
                grown.append(n)
            return upto(table, n)

        monkeypatch.setattr(_dist._KTable, "upto", record)
        x = np.concatenate([[0, 1, 2999, 3000], rng.integers(0, 3001, 56)])
        q = np.concatenate([[0.99, 0.99, 0.99, 0.98], rng.uniform(0.05, 0.99, 56)])
        rows = _unb_logpmf(r, 1.0 - q, x, grad=True, q=q)
        assert grown[0] == 3001 and len(grown) >= 3 and grown[-1] > 5000
        for i, (xi, qi) in enumerate(zip(x, q)):
            one = _unb_logpmf(r, 1.0 - qi, np.array([xi]), grad=True, q=qi)
            for d, (got, want) in enumerate(zip(rows, one)):
                assert abs(got[i] - want[0]) <= 1e-12 * abs(want[0]), (i, d)

    def test_per_row_head_ends_where_the_tail_takes_over(self):
        # A count of 10^6 among 999 small ones: its head sum passes
        # 1 - 1/_HEAD_LOSS within a few dozen terms, where the row takes the
        # tail form, so the per-row pass does not run 10^6 head terms.
        rng = np.random.default_rng(14)
        x = np.append(rng.integers(0, 20, 999), 10 ** 6)
        p = rng.uniform(0.3, 0.7, x.size)
        start = time.process_time()
        rows = _unb_logpmf(1.5, p, x, grad=True)
        assert time.process_time() - start < 2.0
        one = _unb_logpmf(1.5, p[-1], x[-1:], grad=True)
        for d, (got, want) in enumerate(zip(rows, one)):
            assert abs(got[-1] - want[0]) <= 1e-12 * abs(want[0]), d


R_SCORE_R = (0.05, 0.3, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 3.0, 20.0, 300.0)
R_SCORE_P = (0.01, 0.5, 0.999)
R_SCORE_X = np.array([0, 1, 5, 20, 150])
HESS_R = (math.exp(-8.0), 0.5, 1.0 - 1e-6, 1.0 + 1e-6, 3.0, 50.0)
HESS_ETA = (-700.0, -40.0, 0.0, 5.0)
ORACLE_R = (0.2, 0.7, 1.0, 1.5, 3.7, 12.0, 50.0)
ORACLE_P = (0.01, 0.05, 0.2, 0.5, 0.8, 0.95)
ORACLE_X = np.array([0, 1, 2, 5, 17, 60, 150, 400, 1000])


def mp_logit_r_derivatives(r, eta, x):
    """First and second derivatives of the mpmath log pmf in (logit p, r)
    at logit p = log(r/2) - eta, from a nine-point central-difference
    stencil with relative steps 1e-12 at 50 digits."""
    with mpmath.workdps(50):
        r = mpmath.mpf(r)
        ell = mpmath.log(r / 2) - eta
        hl, hr = mpmath.mpf("1e-12") * max(1, abs(ell)), mpmath.mpf("1e-12") * r

        def f(i, j):
            lg = ell + i * hl
            return mp_logpmf_mpf(r + j * hr, 1 / (1 + mpmath.exp(-lg)), x,
                                 q=1 / (1 + mpmath.exp(lg)))

        v = {(i, j): f(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)}
        return [float(d) for d in (
            (v[1, 0] - v[-1, 0]) / (2 * hl), (v[0, 1] - v[0, -1]) / (2 * hr),
            (v[1, 0] - 2 * v[0, 0] + v[-1, 0]) / hl ** 2,
            (v[1, 1] - v[1, -1] - v[-1, 1] + v[-1, -1]) / (4 * hl * hr),
            (v[0, 1] - 2 * v[0, 0] + v[0, -1]) / hr ** 2)]


class TestExactLogPmf:
    """The one log-pmf routine against mpmath over r in [0.2, 50],
    p in [0.01, 0.95], x <= 1000, through every entry point."""

    @pytest.mark.parametrize("r", ORACLE_R)
    def test_against_mpmath(self, r):
        # The row-by-row legs carry an extra row with another p, which keeps
        # the rows from being collapsed into the shared-p pass; it is dropped
        # from the comparison.
        log_floor = math.log(1e-300)
        n = ORACLE_X.size
        xs = np.append(ORACLE_X, 3)
        for p in ORACLE_P:
            exact = np.array([mp_logpmf(r, p, int(x)) for x in ORACLE_X])
            ps = np.append(np.full(n, p), 0.77)
            shared = _unb_logpmf(r, p, ORACLE_X)
            rows = _unb_logpmf(r, ps, xs)[:n]
            scalar = np.array([unb_logpmf(UnbParams(r, p), int(x)) for x in ORACLE_X])
            for got in (shared, rows, scalar):
                assert np.max(np.abs(got - exact)) <= 1e-10, (r, p)
            for p_arg, x_arg in ((p, ORACLE_X), (ps, xs)):
                kernel, floored = unb_logpmf_kernel(r, p_arg, x_arg)
                kernel = kernel[:n]
                above = exact > log_floor
                assert np.max(np.abs(kernel[above] - exact[above])) <= 1e-10, (r, p)
                assert np.all(kernel[~above] == log_floor)
                assert floored == np.count_nonzero(~above)

    def test_deep_tail_at_large_q(self):
        # pmf(150) is 4e-16 of pmf(0) here: a subtraction from pmf(0)
        # cancels to noise, the tail sum does not.
        kernel, floored = unb_logpmf_kernel(1.5, np.array([0.2]), np.array([150]))
        assert floored == 0
        assert kernel[0] == pytest.approx(mp_logpmf(1.5, 0.2, 150), abs=1e-10)

    @pytest.mark.parametrize("r", [0.3, 1.0, 2.5, 20.0])
    def test_dp_kernel_vs_central_difference_at_large_q(self, r):
        xs = np.array([0, 1, 3, 10, 40, 120, 300])
        for p in (0.05, 0.12, 0.24):
            h = 1e-6 * p
            fd = np.array([(unb_logpmf(UnbParams(r, p + h), int(x))
                            - unb_logpmf(UnbParams(r, p - h), int(x))) / (2.0 * h)
                           for x in xs])
            # an extra row with another p keeps the rows apart, as above
            rows = (np.append(np.full(xs.size, p), 0.77), np.append(xs, 3))
            for p_arg, x_arg in ((p, xs), rows):
                der = unb_dlogpmf_dp_kernel(r, p_arg, x_arg)[:xs.size]
                assert np.max(np.abs(der - fd) / np.maximum(1.0, np.abs(fd))) <= 1e-6

    @pytest.mark.parametrize("r", R_SCORE_R)
    def test_derivatives_against_mpmath(self, r):
        # d log pmf / dr at fixed p and d log pmf / d logit p from the sums
        # of the log pmf, on the shared-p pass and on the row-by-row one (an
        # extra row with another p keeps the rows from being collapsed),
        # through the head form and the tail sum.
        for p in R_SCORE_P:
            with mpmath.workdps(40):
                mp_p = mpmath.mpf(p)
                exact_r = np.array([float(mpmath.diff(
                    lambda s: mp_logpmf_mpf(s, p, int(x)), mpmath.mpf(r)))
                    for x in R_SCORE_X])
                exact_logit = np.array([float(mp_p * (1 - mp_p) * mpmath.diff(
                    lambda s: mp_logpmf_mpf(r, s, int(x)), mp_p)) for x in R_SCORE_X])
            shared = _unb_logpmf(r, p, R_SCORE_X, grad=True)
            rows = [v[:-1] for v in _unb_logpmf(
                r, np.append(np.full(R_SCORE_X.size, p), 0.77), np.append(R_SCORE_X, 3),
                grad=True)]
            for _, d_logit, d_r, *_ in (shared, rows):
                for got, exact in ((d_r, exact_r), (d_logit, exact_logit)):
                    err = np.abs(got - exact) / np.maximum(1.0, np.abs(exact))
                    assert np.max(err) <= 1e-10, (r, p, err)

    @pytest.mark.parametrize("r", HESS_R)
    def test_second_derivatives_against_mpmath(self, r):
        # (d/d logit p, d/dr, d2/d logit p^2, d2/d logit p dr, d2/dr^2) at
        # p = r/(2 e^eta + r), the UNB regression's link, against a
        # nine-point central-difference stencil of the mpmath log pmf in
        # (logit p, r), on both passes and through both forms.  At r = e^-8
        # and eta = 5 (p = 1.1e-6) the tail is cut after 2^20 terms and the
        # log pmf itself is 1e-4 off, so that corner is left out.
        xs = np.array([0, 2, 15, 300])
        for eta in HESS_ETA:
            if r < 1e-3 and eta > 0.0:
                continue
            p, q = r / (2.0 * math.exp(eta) + r), 2.0 * math.exp(eta) / (2.0 * math.exp(eta) + r)
            exact = np.array([mp_logit_r_derivatives(r, eta, int(x)) for x in xs]).T
            shared = _unb_logpmf(r, p, xs, grad=True, q=q)[1:]
            rows = [v[:-1] for v in _unb_logpmf(
                r, np.append(np.full(xs.size, p), 0.77), np.append(xs, 3), grad=True,
                q=np.append(np.full(xs.size, q), 0.23))[1:]]
            for got in (shared, rows):
                for d, (g, e) in enumerate(zip(got, exact)):
                    assert np.all(np.abs(g - e) <= np.maximum(1e-9, 1e-7 * np.abs(e))), (
                        eta, d, g, e)

    def test_kernel_gradient_is_the_unfloored_derivatives(self):
        p, xs = np.array([0.3, 0.6]), np.array([2, 4000])
        lp, floored, *derivs = unb_logpmf_kernel(2.0, p, xs, grad=True)
        exact, *e_derivs = _unb_logpmf(2.0, p, xs, grad=True)
        assert floored == 1 and lp[1] == math.log(1e-300) and exact[1] < lp[1]
        assert len(derivs) == 5
        assert all(np.array_equal(d, e) for d, e in zip(derivs, e_derivs))

    # Error in log pmf against mpmath at the box corners: r = e^-8 with p
    # near 0 has a k^-2 tail, cut after 2^20 terms (measured 4.5e-7 at x = 1,
    # 4.5e-3 at x = 10^4); elsewhere it is within 1e-10.
    CORNER_ERR = {(-8, "lo", 1): 1e-6, (-8, "lo", 10_000): 1e-2,
                  (-8, "clamp", 1): 1e-6, (-8, "clamp", 10_000): 1e-2}

    @pytest.mark.parametrize("log_r", [-8, 8])
    @pytest.mark.parametrize("p_name", ["lo", "hi", "clamp"])
    def test_box_corners_bounded(self, log_r, p_name):
        r = math.exp(log_r)
        p = {"lo": ssp.expit(-35.0), "hi": ssp.expit(35.0),
             "clamp": r / (2.0 * math.exp(700.0) + r)}[p_name]
        for x in (0, 1, 10_000):
            exact = mp_logpmf(r, p, x)
            for p_arg in (p, np.array([p])):
                start = time.perf_counter()
                got = float(_unb_logpmf(r, p_arg, np.array([x]))[0])
                assert time.perf_counter() - start < 1.0, (x, p_arg)
                assert math.isfinite(got)
                tol = self.CORNER_ERR.get((log_r, p_name, x), 1e-10)
                assert abs(got - exact) <= tol, (x, got, exact)
        for p_arg in (p, np.array([p])):
            tracemalloc.start()
            _unb_logpmf(r, p_arg, np.array([10_000]))
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 32e6, peak
