import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unbcount import specfun
from unbcount.distributions import _KTable
from unbcount.errors import DomainError, NonConvergenceError
from unbcount.specfun import (
    ThetaArgs,
    confluent_1f1,
    confluent_1f1_eval,
    digamma,
    gauss_2f1,
    gauss_2f1_eval,
    kampe_theta1,
    kampe_theta1_eval,
    lerch_phi,
    lerch_phi_eval,
    series_2f1_euler,
    series_2f1_raw,
)

LN2 = math.log(2.0)


class TestDigamma:
    @pytest.mark.parametrize("x", [0.5, 1.0, 3.7])
    def test_recurrence(self, x):
        assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-12)

    def test_at_one_vs_finite_difference(self):
        h = 1e-5
        fd = (math.lgamma(1.0 + h) - math.lgamma(1.0 - h)) / (2.0 * h)
        assert digamma(1.0) == pytest.approx(fd, abs=1e-8)
        assert digamma(1.0) == pytest.approx(-0.5772156649015329, abs=1e-12)

    def test_at_ten_vs_finite_difference(self):
        h = 1e-5
        fd = (math.lgamma(10.0 + h) - math.lgamma(10.0 - h)) / (2.0 * h)
        assert digamma(10.0) == pytest.approx(fd, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma(-2.0)


def _trigamma(x):
    """psi'(x) as the k-table's first entry at r = x."""
    return float(_KTable(x, True).upto(1).tri[0])


class TestTrigamma:
    """The package's own trigamma, the k-table's psi'(r + k), against digamma."""

    def test_recurrence(self):
        tri = _KTable(2.0, True).upto(2).tri
        assert tri[1] - tri[0] == pytest.approx(-1.0 / 2.0 ** 2, abs=1e-12)

    def test_at_one_vs_finite_difference(self):
        h = 1e-4
        fd = (digamma(1.0 + h) - digamma(1.0 - h)) / (2.0 * h)
        assert _trigamma(1.0) == pytest.approx(fd, abs=1e-6)
        assert _trigamma(1.0) == pytest.approx(1.6449340668482264, abs=1e-12)

    @pytest.mark.parametrize("x", [0.1, 0.9, 2.5, 17.0, 300.0])
    def test_positive(self, x):
        assert _trigamma(x) > 0.0


class TestGauss2F1:
    def test_at_zero(self):
        assert gauss_2f1(1.2, 3.4, 5.6, 0.0) == 1.0

    def test_geometric_collapse(self):
        # 2F1(1, a; a; q) = 1/(1-q)
        assert gauss_2f1(1.0, 3.5, 3.5, 0.5) == pytest.approx(2.0, rel=1e-13)

    def test_log_closed_form(self):
        # 2F1(1, 1; 2; z) = -log(1-z)/z
        assert gauss_2f1(1.0, 1.0, 2.0, 0.5) == pytest.approx(2.0 * LN2, rel=1e-13)

    @pytest.mark.parametrize("z", [1.0, -1.0, 1.5])
    def test_domain_z(self, z):
        with pytest.raises(DomainError):
            gauss_2f1(1.0, 2.0, 3.0, z)

    def test_domain_c(self):
        with pytest.raises(DomainError):
            gauss_2f1(1.0, 2.0, -3.0, 0.5)

    def test_non_convergence(self):
        # terms (1 - 1e-9)^n / (n + 1): far more than the 100 000 allowed
        with pytest.raises(NonConvergenceError):
            gauss_2f1(1.0, 1.0, 2.0, 1.0 - 1e-9)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a=st.floats(0.1, 5.0), b=st.floats(0.1, 5.0),
           c=st.floats(0.4, 6.0), z=st.floats(-0.9, 0.9))
    def test_symmetry_in_a_b(self, a, b, c, z):
        f_ab = gauss_2f1(a, b, c, z)
        f_ba = gauss_2f1(b, a, c, z)
        assert abs(f_ab - f_ba) <= 1e-12 * abs(f_ab)

    def test_dz_identity(self, rng):
        # d/dz 2F1(a,b;c;z) = (ab/c) 2F1(a+1,b+1;c+1;z)
        for _ in range(20):
            a = rng.uniform(0.3, 2.5)
            b = rng.uniform(0.3, 2.5)
            c = rng.uniform(1.0, 4.0)
            z = rng.uniform(0.02, 0.9)
            h = 1e-5 * (1.0 - z)
            fd = (gauss_2f1(a, b, c, z + h) - gauss_2f1(a, b, c, z - h)) / (2.0 * h)
            analytic = (a * b / c) * gauss_2f1(a + 1, b + 1, c + 1, z)
            assert abs(fd - analytic) <= 1e-6 * max(1.0, abs(analytic))

    @pytest.mark.parametrize("a,b,c,z", [
        (1.0, 5.3, 4.1, 0.9),
        (2.0, 3.0, 4.0, 0.8),
        (0.7, 2.2, 3.0, 0.85),
        (1.0, 3.5, 4.5, 0.95),
    ])
    def test_euler_vs_direct(self, a, b, c, z):
        direct = series_2f1_raw(a, b, c, z).value
        euler = series_2f1_euler(a, b, c, z).value
        assert abs(direct - euler) <= 1e-10 * abs(direct)

    def test_term_counts_reported(self):
        ev = gauss_2f1_eval(1.0, 2.0, 3.0, 0.5)
        assert 0 < ev.terms <= specfun._MAX_TERMS
        ev = confluent_1f1_eval(1.0, 2.0, 1.0)
        assert 0 < ev.terms <= specfun._MAX_TERMS
        ev = lerch_phi_eval(0.5, 1.0)
        assert 0 < ev.terms <= specfun._MAX_TERMS


class TestConfluent1F1:
    def test_at_zero(self):
        assert confluent_1f1(2.3, 4.5, 0.0) == 1.0

    def test_exponential_collapse(self):
        assert confluent_1f1(2.0, 2.0, 1.0) == pytest.approx(math.e, rel=1e-13)

    def test_expm1_closed_form(self):
        # 1F1(1; 2; z) = (e^z - 1)/z
        assert confluent_1f1(1.0, 2.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-13)

    def test_domain_c(self):
        with pytest.raises(DomainError):
            confluent_1f1(1.0, 0.0, 0.5)

    def test_non_convergence(self):
        # ratios 1e9 / (1e9 + n): about 250 000 terms to fall below 1e-14
        with pytest.raises(NonConvergenceError):
            confluent_1f1(1.0, 1e9, 1e9)


class TestLerchPhi:
    def test_at_zero(self):
        assert lerch_phi(0.0, 4.0) == 0.25

    def test_log_closed_form(self):
        # sum z^k/(k+1) = -log(1-z)/z
        assert lerch_phi(0.5, 1.0) == pytest.approx(2.0 * LN2, rel=1e-13)

    def test_unb_r1_connection(self):
        # p q^x Phi(q, x+1) equals the r=1 pmf; at (p=0.5, x=0) it is log 2
        p, x = 0.5, 0
        q = 1.0 - p
        val = p * q ** x * lerch_phi(q, x + 1.0)
        assert val == pytest.approx(LN2, rel=1e-12)

    @pytest.mark.parametrize("z,a", [(1.0, 1.0), (-1.2, 1.0), (0.5, 0.0)])
    def test_domain(self, z, a):
        with pytest.raises(DomainError):
            lerch_phi(z, a)


def _db_pattern(a, b, c, z):
    return ThetaArgs(a1=1.0, a2=1.0, b1=b, b2=b + 1.0, b3=a + 1.0,
                     c1=b + 1.0, d1=2.0, d2=c + 1.0, x1=z, x2=z)


class TestKampeTheta1:
    def test_at_zero_arguments(self):
        args = ThetaArgs(1.0, 1.0, 2.3, 3.3, 2.0, 3.3, 2.0, 5.0, 0.0, 0.0)
        assert kampe_theta1(args) == 1.0

    @pytest.mark.parametrize("a,b,c,z", [
        (1.0, 2.3, 4.0, 0.3),
        (1.0, 2.884, 4.0, 0.5),
    ])
    def test_b_derivative_vs_finite_difference(self, a, b, c, z):
        h = 1e-5
        fd = (gauss_2f1(a, b + h, c, z) - gauss_2f1(a, b - h, c, z)) / (2.0 * h)
        analytic = (z * a / c) * kampe_theta1(_db_pattern(a, b, c, z))
        assert abs(fd - analytic) <= 1e-6

    def test_invalid_args(self):
        with pytest.raises(DomainError):
            ThetaArgs(1.0, 1.0, 2.0, 3.0, 2.0, -1.0, 2.0, 5.0, 0.3, 0.3)
        with pytest.raises(DomainError):
            ThetaArgs(1.0, 1.0, 2.0, 3.0, 2.0, 3.0, 2.0, 5.0, 1.0, 0.3)

    def test_terms_reported(self):
        ev = kampe_theta1_eval(_db_pattern(1.0, 2.3, 4.0, 0.3))
        assert 0 < ev.terms <= specfun._MAX_TERMS


class TestSeriesControl:
    def test_defaults(self):
        # the one truncation policy of every series
        assert (specfun._REL_TOL, specfun._ABS_TOL, specfun._MAX_TERMS,
                specfun._THETA_CAP) == (1e-14, 1e-300, 100_000, 4096)
