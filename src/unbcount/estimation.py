"""Fitting the UNB law to an i.i.d. count sample.

Method of moments inverts the closed-form mean and second moment; maximum
likelihood runs a quasi-Newton ascent on the unconstrained coordinates
(log r, logit p) with an analytic p-gradient and a finite-difference
r-gradient, falling back to a simplex search when line searches fail.
Standard errors come from the observed information (central-difference
Hessian of the log-likelihood at the optimum, in the original
coordinates).

Convergence is judged on the gradient of the per-observation mean
log-likelihood: an absolute 1e-6 gate on the total-sample gradient is
below double-precision finite-difference noise once n is in the tens of
thousands, while the mean-scaled gate is parameterisation-stable.

Comparator fits (geometric, negative binomial, uniform-Poisson) for the
covariate-free model comparison live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import optimize as _opt
from scipy import special as _sps
from scipy import stats as _stats

from . import distributions as _dist
from .distributions import GeomParams, NbParams, UnbParams, UpParams
from .errors import (
    DataError,
    DegenerateDataError,
    DomainError,
    UnderDispersionError,
)
from .specfun import ThetaArgs, digamma, kampe_theta1, series_2f1_raw

__all__ = [
    "MomentSummary",
    "FitResult",
    "LrTestResult",
    "sample_moments",
    "fit_mm",
    "unb_loglik",
    "unb_score_p",
    "unb_score_r",
    "fit_mle",
    "lr_test_geometric",
    "fit_geometric",
    "fit_nb_mle",
    "fit_up_mle",
]


@dataclass(frozen=True)
class MomentSummary:
    n: int
    m1: float
    m2: float
    sample_variance: float
    dispersion_index: Optional[float]
    zero_proportion: float


@dataclass
class FitResult:
    """Estimates plus inference byproducts from a marginal fit.

    ``params`` holds the fitted parameter object (UnbParams for the UNB
    fits, NbParams / UpParams / GeomParams for the comparators).
    ``std_errors``, ``cov_matrix`` and ``conf_intervals`` are None for the
    method-of-moments fit.
    """

    params: object
    log_likelihood: float
    std_errors: Optional[tuple]
    cov_matrix: Optional[np.ndarray]
    conf_intervals: Optional[tuple]
    aic: float
    converged: bool
    iterations: int
    method: str
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class LrTestResult:
    statistic: float
    df: int
    p_value: float
    restricted_loglik: float
    full_loglik: float


def _as_counts(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.size == 0:
        raise DataError("data must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise DataError("data contains non-finite values")
    rounded = np.rint(arr)
    if np.any(np.abs(arr - rounded) > 1e-9) or np.any(rounded < 0):
        raise DataError("data must consist of non-negative integers")
    return rounded.astype(np.int64)


def sample_moments(data) -> MomentSummary:
    """First two raw sample moments plus the usual descriptive extras."""
    x = _as_counts(data)
    n = x.size
    m1 = float(np.mean(x))
    m2 = float(np.mean(x.astype(float) ** 2))
    var = float(np.var(x, ddof=1)) if n > 1 else 0.0
    disp = var / m1 if m1 > 0 else None
    zero = float(np.mean(x == 0))
    return MomentSummary(n=n, m1=m1, m2=m2, sample_variance=var,
                         dispersion_index=disp, zero_proportion=zero)


def fit_mm(data) -> FitResult:
    """Method-of-moments estimates r = 4 m1^2 / (3(m2 - m1) - 4 m1^2),
    p = r / (2 m1 + r)."""
    mom = sample_moments(data)
    if mom.m1 == 0.0:
        raise DegenerateDataError("all observations are zero; moments carry no signal")
    denom = 3.0 * (mom.m2 - mom.m1) - 4.0 * mom.m1 ** 2
    if denom <= 0.0:
        raise UnderDispersionError(
            "3(m2 - m1) - 4 m1^2 <= 0: no admissible moment solution "
            f"(m1={mom.m1:.6g}, m2={mom.m2:.6g})")
    r_hat = 4.0 * mom.m1 ** 2 / denom
    p_hat = r_hat / (2.0 * mom.m1 + r_hat)
    params = UnbParams(r_hat, p_hat)
    ll = unb_loglik(params, data)
    return FitResult(params=params, log_likelihood=ll, std_errors=None,
                     cov_matrix=None, conf_intervals=None,
                     aic=-2.0 * ll + 4.0, converged=True, iterations=0,
                     method="moments")


def _compress(data):
    x = _as_counts(data)
    xs, w = np.unique(x, return_counts=True)
    return xs.astype(float), w.astype(float), x.size


def _loglik_rp(r: float, p: float, xs, w) -> float:
    lp, _ = _dist.unb_logpmf_kernel(r, p, xs)
    return float(np.dot(w, lp))


def unb_loglik(params: UnbParams, data) -> float:
    """Sum of log pmf values over the sample."""
    xs, w, _ = _compress(data)
    return _loglik_rp(params.r, params.p, xs, w)


def unb_score_p(params: UnbParams, data) -> float:
    """Analytic derivative of the log-likelihood in p:

    -sum x_i/(1-p) + n r/p
    - sum ((r+x_i)/(2+x_i)) 2F1(2, r+x_i+1; 3+x_i; q) / 2F1(1, r+x_i; 2+x_i; q).
    """
    xs, w, n = _compress(data)
    r, p = params.r, params.p
    q = 1.0 - p
    total = -float(np.dot(w, xs)) / q + n * r / p
    for x, wt in zip(xs, w):
        f1 = series_2f1_raw(1.0, r + x, 2.0 + x, q).value
        f2 = series_2f1_raw(2.0, r + x + 1.0, 3.0 + x, q).value
        total -= wt * ((r + x) / (2.0 + x)) * (f2 / f1)
    return total


def _score_r_theta(params: UnbParams, data) -> float:
    xs, w, n = _compress(data)
    r, p = params.r, params.p
    q = 1.0 - p
    total = n * math.log(p) - n * digamma(r)
    for x, wt in zip(xs, w):
        f1 = series_2f1_raw(1.0, r + x, 2.0 + x, q).value
        theta = kampe_theta1(ThetaArgs(
            a1=1.0, a2=1.0, b1=r + x, b2=r + x + 1.0, b3=2.0,
            c1=r + x + 1.0, d1=2.0, d2=x + 3.0, x1=q, x2=q))
        total += wt * (digamma(r + x) + (q / (2.0 + x)) * theta / f1)
    return total


def unb_score_r(params: UnbParams, data, mode: str = "finite_difference") -> float:
    """Derivative of the log-likelihood in r.

    ``finite_difference`` (default) central-differences the log-likelihood;
    ``theta_series`` evaluates the double-series form
    n log p + sum psi(r+x_i) - n psi(r) + the theta correction term, and is
    kept as a validation oracle for the finite-difference route.
    """
    if mode == "theta_series":
        return _score_r_theta(params, data)
    if mode != "finite_difference":
        raise DomainError(f"unknown score mode {mode!r}")
    xs, w, _ = _compress(data)
    r, p = params.r, params.p
    h = 1e-6 * max(1.0, r)
    h = min(h, 0.5 * r)
    return (_loglik_rp(r + h, p, xs, w) - _loglik_rp(r - h, p, xs, w)) / (2.0 * h)


def _hessian_fd(f, theta, steps):
    """Symmetric central-difference Hessian of a scalar function."""
    k = len(theta)
    hess = np.empty((k, k))
    f0 = f(theta)
    for i in range(k):
        ei = np.zeros(k)
        ei[i] = steps[i]
        fpp = f(theta + ei)
        fmm = f(theta - ei)
        hess[i, i] = (fpp - 2.0 * f0 + fmm) / steps[i] ** 2
        for j in range(i + 1, k):
            ej = np.zeros(k)
            ej[j] = steps[j]
            fa = f(theta + ei + ej)
            fb = f(theta + ei - ej)
            fc = f(theta - ei + ej)
            fd_ = f(theta - ei - ej)
            hess[i, j] = hess[j, i] = (fa - fb - fc + fd_) / (4.0 * steps[i] * steps[j])
    return hess


def _z_quantile(level: float) -> float:
    return float(_stats.norm.ppf(0.5 * (1.0 + level)))


_LOGR_BOUNDS = (-8.0, 8.0)
_LOGITP_BOUNDS = (-35.0, 35.0)


def fit_mle(data, init: Optional[UnbParams] = None, level: float = 0.95) -> FitResult:
    """Maximum likelihood over (r, p) by ascent on (log r, logit p).

    The initialiser defaults to the moment estimate when admissible, else
    (r = 2, p = 1/(1 + mean)); the geometric-submodel start is always tried
    as well and the better optimum kept.  Standard errors and confidence
    intervals come from the inverse observed information at the optimum.
    """
    if not (0.0 < level < 1.0):
        raise DomainError(f"level must lie in (0, 1), got {level}")
    xs, w, n = _compress(data)
    m1 = float(np.dot(w, xs)) / n
    if m1 == 0.0:
        raise DegenerateDataError(
            "all observations are zero: the likelihood increases towards the "
            "p -> 1 boundary and no interior maximum exists")

    starts = []
    if init is not None:
        starts.append(init)
    else:
        try:
            starts.append(fit_mm(data).params)
        except DataError:
            starts.append(UnbParams(2.0, 1.0 / (1.0 + m1)))
    geo_start = UnbParams(2.0, 1.0 / (1.0 + m1))
    if all(abs(s.r - geo_start.r) > 1e-12 or abs(s.p - geo_start.p) > 1e-12
           for s in starts):
        starts.append(geo_start)

    floor_count = [0]

    def neg_mean_loglik(u):
        lp, floored = _dist.unb_logpmf_kernel(math.exp(u[0]), _sps.expit(u[1]), xs)
        floor_count[0] += floored
        return -float(np.dot(w, lp)) / n

    def neg_mean_grad(u):
        r = math.exp(u[0])
        p = _sps.expit(u[1])
        dp = float(np.dot(w, _dist.unb_dlogpmf_dp_kernel(r, p, xs))) / n
        h = 1e-6
        gr = (-_loglik_rp(math.exp(u[0] + h), p, xs, w)
              + _loglik_rp(math.exp(u[0] - h), p, xs, w)) / (2.0 * h * n)
        return np.array([gr, -dp * p * (1.0 - p)])

    bounds = [_LOGR_BOUNDS, _LOGITP_BOUNDS]
    best = None
    iterations = 0
    messages = []
    for s in starts:
        u0 = np.array([math.log(s.r), _sps.logit(s.p)])
        u0 = np.clip(u0, [b[0] for b in bounds], [b[1] for b in bounds])
        res = _opt.minimize(neg_mean_loglik, u0, jac=neg_mean_grad,
                            method="L-BFGS-B", bounds=bounds,
                            options={"maxiter": 500, "ftol": 1e-13, "gtol": 1e-9})
        iterations += res.nit
        messages.append(str(res.message))
        if not res.success:
            retry = _opt.minimize(neg_mean_loglik, res.x, jac=neg_mean_grad,
                                  method="L-BFGS-B", bounds=bounds,
                                  options={"maxiter": 500, "ftol": 1e-14,
                                           "gtol": 1e-10})
            iterations += retry.nit
            messages.append(str(retry.message))
            if retry.fun <= res.fun:
                res = retry
        if not res.success:
            simplex = _opt.minimize(neg_mean_loglik, res.x, method="Nelder-Mead",
                                    options={"maxiter": 2000, "xatol": 1e-10,
                                             "fatol": 1e-13})
            iterations += simplex.nit
            messages.append(str(simplex.message))
            if simplex.fun < res.fun:
                res = simplex
        if best is None or res.fun < best.fun:
            best = res

    grad_norm = float(np.linalg.norm(neg_mean_grad(best.x)))
    converged = grad_norm < 1e-6
    r_hat = math.exp(best.x[0])
    p_hat = float(_sps.expit(best.x[1]))
    params = UnbParams(r_hat, p_hat)
    ll = _loglik_rp(r_hat, p_hat, xs, w)

    theta = np.array([r_hat, p_hat])
    steps = np.array([
        min(1e-4 * max(1.0, r_hat), 0.5 * r_hat),
        min(1e-4 * max(1.0, p_hat), 0.5 * p_hat, 0.5 * (1.0 - p_hat)),
    ])
    hess = _hessian_fd(lambda t: _loglik_rp(t[0], t[1], xs, w), theta, steps)
    diag = {"grad_norm": grad_norm, "messages": messages, "hessian": hess,
            "pmf_floored": floor_count[0]}
    try:
        cov = np.linalg.inv(-hess)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(-hess)
        diag["singular_hessian"] = True
    se = tuple(math.sqrt(max(v, 0.0)) for v in np.diag(cov))
    z = _z_quantile(level)
    cis = tuple((est - z * s, est + z * s) for est, s in zip(theta, se))
    return FitResult(params=params, log_likelihood=ll, std_errors=se,
                     cov_matrix=cov, conf_intervals=cis,
                     aic=-2.0 * ll + 4.0, converged=converged,
                     iterations=iterations, method="mle", diagnostics=diag)


def fit_geometric(data, level: float = 0.95) -> FitResult:
    """Closed-form geometric MLE p = 1/(1 + mean), with observed-information
    standard error."""
    xs, w, n = _compress(data)
    m1 = float(np.dot(w, xs)) / n
    if m1 == 0.0:
        raise DegenerateDataError("all observations are zero")
    p_hat = 1.0 / (1.0 + m1)
    q_hat = 1.0 - p_hat
    ll = n * (math.log(p_hat) + m1 * math.log(q_hat))
    info = n / (p_hat ** 2 * q_hat)
    se = math.sqrt(1.0 / info)
    z = _z_quantile(level)
    return FitResult(params=GeomParams(p_hat), log_likelihood=ll,
                     std_errors=(se,), cov_matrix=np.array([[1.0 / info]]),
                     conf_intervals=((p_hat - z * se, p_hat + z * se),),
                     aic=-2.0 * ll + 2.0, converged=True, iterations=0,
                     method="mle")


def lr_test_geometric(data) -> LrTestResult:
    """Deviance test of the geometric submodel (r = 2) inside the UNB family:
    2 (sup UNB loglik - sup geometric loglik) against an upper-tail
    chi-square with one degree of freedom."""
    full = fit_mle(data)
    restricted = fit_geometric(data)
    stat = 2.0 * (full.log_likelihood - restricted.log_likelihood)
    p_value = float(_stats.chi2.sf(max(stat, 0.0), 1))
    return LrTestResult(statistic=stat, df=1, p_value=p_value,
                        restricted_loglik=restricted.log_likelihood,
                        full_loglik=full.log_likelihood)


def _nb_loglik(r, p, xs, w, n):
    return float(np.dot(w, (_sps.gammaln(r + xs) - math.lgamma(r)
                            - _sps.gammaln(xs + 1.0)
                            + r * math.log(p) + xs * math.log(1.0 - p))))


def fit_nb_mle(data, level: float = 0.95) -> FitResult:
    """Negative binomial MLE over (r, p), same machinery as the UNB fit."""
    xs, w, n = _compress(data)
    m1 = float(np.dot(w, xs)) / n
    if m1 == 0.0:
        raise DegenerateDataError("all observations are zero")
    var = float(np.dot(w, (xs - m1) ** 2)) / max(n - 1, 1)
    r0 = m1 ** 2 / (var - m1) if var > m1 else 2.0
    r0 = min(max(r0, 1e-2), 1e3)
    u0 = np.array([math.log(r0), _sps.logit(1.0 / (1.0 + m1 / r0))])

    def nll(u):
        r = math.exp(u[0])
        p = _sps.expit(u[1])
        return -_nb_loglik(r, p, xs, w, n) / n

    def grad(u):
        r = math.exp(u[0])
        p = _sps.expit(u[1])
        q = 1.0 - p
        dll_dr = float(np.dot(w, _sps.digamma(r + xs))) - n * _sps.digamma(r) \
            + n * math.log(p)
        dll_dp = n * r / p - float(np.dot(w, xs)) / q
        return np.array([-dll_dr * r, -dll_dp * p * q]) / n

    bounds = [_LOGR_BOUNDS, _LOGITP_BOUNDS]
    res = _opt.minimize(nll, np.clip(u0, -8, 8), jac=grad, method="L-BFGS-B",
                        bounds=bounds,
                        options={"maxiter": 500, "ftol": 1e-13, "gtol": 1e-9})
    r_hat = math.exp(res.x[0])
    p_hat = float(_sps.expit(res.x[1]))
    ll = _nb_loglik(r_hat, p_hat, xs, w, n)
    theta = np.array([r_hat, p_hat])
    steps = np.array([
        min(1e-4 * max(1.0, r_hat), 0.5 * r_hat),
        min(1e-4 * max(1.0, p_hat), 0.5 * p_hat, 0.5 * (1.0 - p_hat)),
    ])
    hess = _hessian_fd(lambda t: _nb_loglik(t[0], t[1], xs, w, n), theta, steps)
    try:
        cov = np.linalg.inv(-hess)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(-hess)
    se = tuple(math.sqrt(max(v, 0.0)) for v in np.diag(cov))
    z = _z_quantile(level)
    cis = tuple((est - z * s, est + z * s) for est, s in zip(theta, se))
    converged = bool(res.success) and float(np.linalg.norm(grad(res.x))) < 1e-6
    return FitResult(params=NbParams(r_hat, p_hat), log_likelihood=ll,
                     std_errors=se, cov_matrix=cov, conf_intervals=cis,
                     aic=-2.0 * ll + 4.0, converged=converged,
                     iterations=res.nit, method="mle")


def _up_loglik(lam, xs, w):
    return float(np.dot(w, np.log(np.maximum(_sps.gammainc(xs + 1.0, lam), 1e-300))
                        - math.log(lam)))


def fit_up_mle(data, level: float = 0.95) -> FitResult:
    """Uniform-Poisson MLE for the latent rate, one-dimensional search
    initialised at twice the sample mean (the distribution mean is lam/2)."""
    xs, w, n = _compress(data)
    m1 = float(np.dot(w, xs)) / n
    if m1 == 0.0:
        raise DegenerateDataError("all observations are zero")
    res = _opt.minimize_scalar(
        lambda u: -_up_loglik(math.exp(u), xs, w) / n,
        bracket=(math.log(2.0 * m1) - 1.0, math.log(2.0 * m1) + 1.0),
        method="brent", options={"xtol": 1e-12})
    lam_hat = math.exp(res.x)
    ll = _up_loglik(lam_hat, xs, w)
    h = 1e-4 * max(1.0, lam_hat)
    d2 = (_up_loglik(lam_hat + h, xs, w) - 2.0 * ll
          + _up_loglik(lam_hat - h, xs, w)) / h ** 2
    var = -1.0 / d2 if d2 < 0 else math.nan
    se = math.sqrt(var) if var == var and var > 0 else math.nan
    z = _z_quantile(level)
    h_s = 1e-5 * max(1.0, lam_hat)
    score = (_up_loglik(lam_hat + h_s, xs, w)
             - _up_loglik(lam_hat - h_s, xs, w)) / (2.0 * h_s)
    return FitResult(params=UpParams(lam_hat), log_likelihood=ll,
                     std_errors=(se,),
                     cov_matrix=np.array([[var]]),
                     conf_intervals=((lam_hat - z * se, lam_hat + z * se),),
                     aic=-2.0 * ll + 2.0,
                     converged=abs(score) / n < 1e-6,
                     iterations=getattr(res, "nit", 0) or 0, method="mle")
