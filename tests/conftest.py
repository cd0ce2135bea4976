import math

import mpmath
import numpy as np
import pytest

from unbcount.datasets import NMES_ENV_VAR, load_nmes, nmes_path_from_env
from unbcount.specfun import gauss_2f1

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


def mp_logpmf(r, p, x, q=None):
    """log pmf through mpmath's hyp2f1, at 30 digits, or enough more that
    q = 1 - p is not rounded to 1.  ``q``, when given, is 1 - p to more
    digits than p carries (p near 1)."""
    dps = 30 + max(0, int(-math.log10(p)))
    with mpmath.workdps(dps):
        r, p = mpmath.mpf(r), mpmath.mpf(p)
        q = 1 - p if q is None else mpmath.mpf(q)
        return float(x * mpmath.log(q) + r * mpmath.log(p) - mpmath.log(1 + x)
                     + mpmath.loggamma(r + x) - mpmath.loggamma(r)
                     - mpmath.loggamma(x + 1)
                     + mpmath.log(mpmath.hyp2f1(1, r + x, 2 + x, q)))


def fd_hessian(f, theta, steps):
    """Symmetric central-difference Hessian of a scalar function from its
    values alone, 2k^2 + 1 of them: the oracle for the fitting engine's
    observed information, which differences the score instead."""
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
    if path is None:
        pytest.skip(NMES_SKIP_NOTICE)
    return load_nmes(path)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
