import math

import mpmath
import numpy as np
import pytest
from scipy import special as ssp

from unbcount.datasets import NMES_ENV_VAR, load_nmes, nmes_path_from_env
from unbcount.specfun import (ThetaArgs, confluent_1f1, digamma, gauss_2f1, kampe_theta1,
                              series_2f1_raw)

# The (r, p) grid used by the distribution-level property tests.
GRID_R = (0.5, 1.0, 2.0, 5.0, 20.0)
GRID_P = (0.1, 0.3, 0.5, 0.7, 0.9)
GRID = tuple((r, p) for r in GRID_R for p in GRID_P)


def hyp_pmf(params, x: int) -> float:
    """UNB pmf through its 2F1 form and specfun.gauss_2f1: a route apart from
    the library's sums over nb(k)/(k+1), the second leg of the dual-route
    checks."""
    r, p = params.r, params.p
    q = 1.0 - p
    log_base = (x * math.log(q) + r * math.log(p) - math.log(1.0 + x)
                + math.lgamma(r + x) - math.lgamma(r) - math.lgamma(x + 1.0))
    return math.exp(log_base) * gauss_2f1(1.0, r + x, 2.0 + x, q)


def hyp_cdf(params, x: int) -> float:
    """UNB cdf through the source's 2F1 form, F_NB(x) + ((r+x)/(x+2))
    C(r+x-1, x) p^r q^(x+1) 2F1(1, r+x+1; x+3; q), with F_NB summed term by
    term: a route apart from the library's incomplete-beta form."""
    r, p = params.r, params.p
    q = 1.0 - p
    term = f_nb = p ** r
    for k in range(x):
        term *= q * (r + k) / (k + 1.0)
        f_nb += term
    log_coef = (math.log(r + x) - math.log(x + 2.0)
                + math.lgamma(r + x) - math.lgamma(r) - math.lgamma(x + 1.0)
                + r * math.log(p) + (x + 1.0) * math.log(q))
    return f_nb + math.exp(log_coef) * gauss_2f1(1.0, r + x + 1.0, x + 3.0, q)


def hyp_up_pmf(params, x: int) -> float:
    """Uniform-Poisson pmf through the source's 1F1 form
    lam^x e^(-lam) / (x+1)! 1F1(1; x+2; lam): a route apart from the
    library's Poisson survival identity."""
    lam = params.lam
    log_base = x * math.log(lam) - lam - math.lgamma(x + 2.0)
    return math.exp(log_base) * confluent_1f1(1.0, x + 2.0, lam)


def nb_tail_cutoff(params, tail: float = 1e-12) -> int:
    """Smallest x with negative-binomial survival P(N >= x) < tail, where
    P(N >= x) = I_q(x, r) for x >= 1 and 1 at x = 0: doubling, then
    bisection.  The tests sum pmfs up to it."""
    def above(x):
        return x == 0 or ssp.betainc(x, params.r, params.q) >= tail

    lo, hi = 0, 1
    while above(hi):
        lo, hi = hi, 2 * hi
        assert hi <= 2 ** 60, "tail cutoff search did not terminate"
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return hi


def score_r_theta(params, data) -> float:
    """The r-score of a UNB sample as n log p + sum psi(r+x_i) - n psi(r)
    + the theta correction term, from the theta1 double series (specfun): a
    route apart from the log-pmf kernel's sums, the oracle of unb_score_r."""
    xs, w = np.unique(np.asarray(data), return_counts=True)
    r, p = params.r, params.p
    q = 1.0 - p
    n = int(w.sum())
    total = n * math.log(p) - n * digamma(r)
    for x, wt in zip(xs.astype(float), w):
        f1 = series_2f1_raw(1.0, r + x, 2.0 + x, q).value
        theta = kampe_theta1(ThetaArgs(
            a1=1.0, a2=1.0, b1=r + x, b2=r + x + 1.0, b3=2.0,
            c1=r + x + 1.0, d1=2.0, d2=x + 3.0, x1=q, x2=q))
        total += wt * (digamma(r + x) + (q / (2.0 + x)) * theta / f1)
    return total


def mp_logpmf(r, p, x, q=None):
    """log pmf through mpmath's hyp2f1, at 30 digits, or enough more that
    q = 1 - p is not rounded to 1.  ``q``, when given, is 1 - p to more
    digits than p carries (p near 1).

    A float ``q`` must be 1 - p to p's own relative digits, because
    hyp2f1(1, r+x, 2+x, q) reads p from 1 - q: at p near 1e-15, a float
    q = 1/(1 + e^logit) put the result 2.8 nats off.  Where p is small,
    leave q out, so that it is formed from p in mpmath."""
    return float(mp_logpmf_mpf(r, p, x, q))


def mp_logpmf_mpf(r, p, x, q=None):
    """mp_logpmf as an mpmath number, at no fewer digits than the caller's
    (mpmath.diff raises them to difference it)."""
    dps = max(mpmath.mp.dps, 30 + max(0, int(-math.log10(p))))
    with mpmath.workdps(dps):
        r, p = mpmath.mpf(r), mpmath.mpf(p)
        q = 1 - p if q is None else mpmath.mpf(q)
        return (x * mpmath.log(q) + r * mpmath.log(p) - mpmath.log(1 + x)
                + mpmath.loggamma(r + x) - mpmath.loggamma(r)
                - mpmath.loggamma(x + 1)
                + mpmath.log(mpmath.hyp2f1(1, r + x, 2 + x, q)))


def fd_hessian(f, theta, steps):
    """Symmetric central-difference Hessian of a scalar function from its
    values alone, 2k^2 + 1 of them: the oracle for the fitting engine's
    observed information, its kernel's analytic Hessian."""
    k = len(theta)
    hess = np.empty((k, k))
    f0 = f(theta)
    for i in range(k):
        ei = np.zeros(k)
        ei[i] = steps[i]
        hess[i, i] = (f(theta + ei) - 2.0 * f0 + f(theta - ei)) / steps[i] ** 2
        for j in range(i + 1, k):
            ej = np.zeros(k)
            ej[j] = steps[j]
            hess[i, j] = hess[j, i] = (
                f(theta + ei + ej) - f(theta + ei - ej) - f(theta - ei + ej)
                + f(theta - ei - ej)) / (4.0 * steps[i] * steps[j])
    return hess


NMES_SKIP_NOTICE = (
    "NMES file not available: run scripts/fetch_nmes.py and set "
    f"{NMES_ENV_VAR} to its output directory")


@pytest.fixture(scope="session")
def nmes_dataset():
    path = nmes_path_from_env()
    if path is None or not path.is_file():
        pytest.skip(NMES_SKIP_NOTICE)
    return load_nmes(path)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
