"""Fitting the UNB law and its comparators to an i.i.d. count sample,
and the one fitting engine that the regressions share.

Method of moments inverts the closed-form mean and second moment.  Every
maximum-likelihood fit, marginal or regression, runs on ``_fit``: a
family (UNB, negative binomial, uniform-Poisson, geometric) with log-link
mean mu = exp(eta), eta = design @ beta, fitted over (beta, log r) by one
run of ``_newton``, the package's own damped Newton method, from one start
on the log-likelihood, its gradient and its Hessian, all three from one
kernel pass per evaluation; a start where they are not finite raises
NonConvergenceError.  A marginal fit is the intercept-only fit on the
distinct counts with their frequencies as weights; its law's parameters
((r, p), lam or p) and their standard errors follow from (intercept, r)
by the delta method.  Standard errors invert the observed information at
the optimum, the last pass's Hessian.

Convergence is judged on the gradient of the per-observation mean
log-likelihood, a gate that is parameterisation-stable and does not
shrink with n as the total-sample gradient's rounding grows.
"""

from __future__ import annotations

import math
import types
from dataclasses import astuple, dataclass, field, fields
from typing import Optional

import numpy as np
from scipy import special as _sps

from . import distributions as _dist
from .datasets import _rounded_counts
from .distributions import GeomParams, NbParams, UnbParams, UpParams
from .errors import (
    DataError,
    DegenerateDataError,
    DomainError,
    NonConvergenceError,
    UnderDispersionError,
)
# These are unused here, but perfbench/tracing.py wraps the specfun names by
# their attribute on this module, so they stay importable.
from .specfun import digamma, kampe_theta1, series_2f1_raw  # noqa: F401

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
    method-of-moments fit.  The maximum-likelihood fits' ``diagnostics``
    hold ``grad_norm``, ``messages`` (the one run's), ``evaluations``
    (kernel passes), ``hessian_shifts`` (steps whose Hessian was not
    negative definite), ``step_halvings``, ``pmf_floored``,
    ``eta_clamped`` (both summed over evaluations), ``hessian`` in the
    engine's (intercept, r) coordinates and its 2-norm ``condition``.
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
    rounded, bad = _rounded_counts(arr)
    if np.any(bad):
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


def _moment_r(m1: float, m2: float) -> float:
    """Moment estimate r = 4 m1^2 / (3(m2 - m1) - 4 m1^2); its law has mean m1."""
    denom = 3.0 * (m2 - m1) - 4.0 * m1 ** 2
    if denom <= 0.0:
        raise UnderDispersionError(
            "3(m2 - m1) - 4 m1^2 <= 0: no admissible moment solution "
            f"(m1={m1:.6g}, m2={m2:.6g})")
    return 4.0 * m1 ** 2 / denom


def fit_mm(data) -> FitResult:
    """Method-of-moments estimates r = 4 m1^2 / (3(m2 - m1) - 4 m1^2),
    p = r / (2 m1 + r)."""
    mom = sample_moments(data)
    if mom.m1 == 0.0:
        raise DegenerateDataError("all observations are zero; moments carry no signal")
    r_hat = _moment_r(mom.m1, mom.m2)
    params = UnbParams(r_hat, r_hat / (2.0 * mom.m1 + r_hat))
    ll = unb_loglik(params, data)
    return FitResult(params=params, log_likelihood=ll, std_errors=None,
                     cov_matrix=None, conf_intervals=None,
                     aic=-2.0 * ll + 4.0, converged=True, iterations=0,
                     method="moments")


def _compress(data):
    x = _as_counts(data)
    xs, w = np.unique(x, return_counts=True)
    return xs.astype(float), w.astype(float), x.size


def unb_loglik(params: UnbParams, data) -> float:
    """Sum of log pmf values over the sample."""
    xs, w, _ = _compress(data)
    return float(np.dot(w, _dist.unb_logpmf_kernel(params.r, params.p, xs)[0]))


def unb_score_p(params: UnbParams, data) -> float:
    """Analytic derivative of the log-likelihood in p, sum r/p - m_i/q with
    m_i = E_t[k | k >= x_i] from the log-pmf kernel's sums (equal to
    -sum x_i/q + n r/p
    - sum ((r+x_i)/(2+x_i)) 2F1(2, r+x_i+1; 3+x_i; q) / 2F1(1, r+x_i; 2+x_i; q))."""
    xs, w, _ = _compress(data)
    return float(np.dot(w, _dist.unb_dlogpmf_dp_kernel(params.r, params.p, xs)))


def unb_score_r(params: UnbParams, data) -> float:
    """Exact derivative of the log-likelihood in r at fixed p, from the
    log-pmf kernel's pass (the r-derivative every fit uses)."""
    xs, w, _ = _compress(data)
    return float(np.dot(w, _dist.unb_logpmf_kernel(params.r, params.p, xs, grad=True)[3]))


# ---------------------------------------------------------------------------
# Families with log-link mean mu = exp(eta) (Cameron & Trivedi, Regression
# Analysis of Count Data, 2nd ed., ch. 3):
#   UNB        p = r/(2 mu + r), q = 2 mu/(2 mu + r)   (mean r q / 2p)
#   NB         p = r/(mu + r),   q = mu/(mu + r)       (mean r q / p)
#   geometric  NB with r fixed at 1
#   UP         lam = 2 mu                              (mean lam / 2)
# The kernels are looked up on their module at each call, where
# perfbench/tracing.py wraps them.

_ETA_CLAMP = 700.0
_LOG_FLOOR = math.log(_dist.PMF_FLOOR)
_LOGR_BOUND = 8.0  # log r in [-8, 8]
_GRAD_GATE = 1e-6  # on the gradient of the mean log-likelihood
# The trust radius each Newton run starts at and falls back to: the largest
# change of a linear predictor or of log r in one step.  A step on a shifted
# Hessian can run far (log r from 2 to -4.6 in one step of a 2000-row fit),
# where p near 0 makes the UNB tail sums slow.  The radius grows to at most
# _MAX_RADIUS: without that ceiling a marginal fit started at intercept -691
# jumped to +329, where p is near 0, and took 200 times as long as with it.
_MAX_SPAN = 4.0
_MAX_RADIUS = 16.0


class _Family:
    """A law of the table above.  ``n_shape`` is 1 when r is free (fitted as
    log r after the coefficients), 0 otherwise; ``fixed_r`` is the r of a
    law that fixes it.  ``logpmf(eta, r, y)`` gives the log pmf at the
    counts y floored at log PMF_FLOOR and the number of entries floored;
    ``logpmf_grad(eta, r, y)`` gives those and, in the same pass, the
    unfloored log pmf's derivatives d/d eta, d/d log r, d2/d eta^2,
    d2/d eta d log r and d2/d log r^2 (None for those in log r of a law
    without r).  ``law(theta)`` gives the law at theta = (eta[, r]) with
    the Jacobian of its parameters in theta, and ``eta_of(params)`` the
    inverse, (eta, r)."""

    def __init__(self, name: str, params_type, kappa: float = 1.0, fixed_r=None):
        self.name, self.params_type = name, params_type
        self.kappa, self.fixed_r = kappa, fixed_r

    @property
    def n_shape(self) -> int:
        return int(self.fixed_r is None)

    def link(self, eta, r):
        """p = r/(kappa mu + r) and q = kappa mu/(kappa mu + r), UNB's kappa 2,
        NB's 1: q keeps its digits where p rounds to 1."""
        s = self.kappa * np.exp(eta)
        return r / (s + r), s / (s + r)

    def law(self, theta):
        r = theta[1] if self.n_shape else self.fixed_r
        p, q = self.link(theta[0], r)
        if self.n_shape:  # dp/deta = -p q, dp/dr = p q / r
            return (self.params_type(float(r), float(p)),
                    np.array([[0.0, 1.0], [-p * q, p * q / r]]))
        return self.params_type(float(p)), np.array([[-p * q]])

    def eta_of(self, params):
        r = params.r if self.n_shape else self.fixed_r
        return math.log(r * (1.0 - params.p) / (self.kappa * params.p)), r


def _eta_logr(r, d_l, d_r, d_ll, d_lr, d_rr):
    """Derivatives in (logit p, r at fixed p) as derivatives in (eta, log r),
    with logit p = log(r / kappa) - eta: d/d eta = -d/d logit p and d/d log r
    = d/d logit p + r d/dr."""
    return (-d_l, r * d_r + d_l, d_ll, -(d_ll + r * d_lr),
            d_ll + r * (2.0 * d_lr + d_r + r * d_rr))


class _Unb(_Family):
    def logpmf(self, eta, r, y):
        p, q = self.link(eta, r)
        return _dist.unb_logpmf_kernel(r, p, y, q=q)

    def logpmf_grad(self, eta, r, y):
        p, q = self.link(eta, r)
        lp, floored, *derivs = _dist.unb_logpmf_kernel(r, p, y, q=q, grad=True)
        return (lp, floored, *_eta_logr(r, *derivs))


class _Nb(_Family):
    def logpmf(self, eta, r, y):
        p, q = self.link(eta, r)
        lp = _dist._nb_logpmf(r, p, y, q)
        return np.maximum(lp, _LOG_FLOOR), int(np.count_nonzero(lp < _LOG_FLOOR))

    def logpmf_grad(self, eta, r, y):
        """The UNB sums collapsed to their one term k = y."""
        p, q = self.link(eta, r)
        derivs = (r * q - y * p, _sps.digamma(r + y) - _sps.digamma(r) + np.log(p),
                  -p * q * (r + y), q, _dist._trigamma(r + y) - _dist._trigamma(r))
        return (*self.logpmf(eta, r, y), *_eta_logr(r, *derivs))


class _Up(_Family):
    """pmf(x) = P(N > x) / lam with N ~ Poisson(lam); P(N > x) is floored.
    With a = lam pois(x; lam) / P(N > x), d/d eta = a - 1 and d2/d eta^2 =
    a (1 + x - lam - a), since d P(N > x) / d lam = pois(x; lam)."""

    n_shape = 0

    def logpmf(self, eta, r, y):
        return self.logpmf_grad(eta, r, y)[:2]

    def logpmf_grad(self, eta, r, y):
        lam = 2.0 * np.exp(eta)
        lp, surv = _dist._up_logpmf(lam, y)
        kept = np.maximum(surv, _dist.PMF_FLOOR)
        log_pois = y * np.log(lam) - lam - _sps.gammaln(y + 1.0)
        a = lam * np.exp(log_pois) / kept
        return (np.maximum(lp, _LOG_FLOOR - np.log(lam)),
                int(np.count_nonzero(surv < _dist.PMF_FLOOR)),
                a - 1.0, None, a * (1.0 + y - lam - a), None, None)

    def law(self, theta):
        lam = 2.0 * math.exp(theta[0])
        return self.params_type(lam), np.array([[lam]])

    def eta_of(self, params):
        return math.log(0.5 * params.lam), None


_FAMILIES = {
    "unb": _Unb("unb", UnbParams, kappa=2.0),
    "nb": _Nb("nb", NbParams),
    "up": _Up("up", UpParams),
    "geometric": _Nb("geometric", GeomParams, fixed_r=1.0),
}


def _eta(beta, design):
    """Linear predictors clamped to +-_ETA_CLAMP, and how many were."""
    eta = design @ beta
    clipped = int(np.count_nonzero(np.abs(eta) > _ETA_CLAMP))
    return (np.clip(eta, -_ETA_CLAMP, _ETA_CLAMP) if clipped else eta), clipped


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(a)) for a in arrays)


def _newton(fun, x0, *, lo, hi, span):
    """Damped Newton minimisation of fun(x) -> (value, gradient, Hessian) in
    the box [lo, hi] (Nocedal & Wright, Numerical Optimization, ch. 3).
    Coordinates on a bound with the gradient pointing out are held; the
    others step on their block of the Hessian, shifted by lambda I where a
    Cholesky factorisation fails, lambda doubled from 1e-3 of the largest
    diagonal entry.  A step whose ``span`` exceeds the trust radius is
    scaled to it, projected onto the box and halved until the value falls
    by 1e-4 of the first-order prediction or the free gradient's norm meets
    the stop test (at r = e^8 the value's rounding can fail the first at
    the optimum).  Where the unshifted model predicts a fall below 1e-13 of
    the value, its rounding, the full step is taken if it lowers the free
    gradient's norm.  The radius starts at _MAX_SPAN, doubles (up to
    _MAX_RADIUS) after a scaled step taken at full length, and returns to
    _MAX_SPAN after a halved one, so that a start far out on a flat stretch
    takes tens of steps, not hundreds.  It stops at a free-gradient norm
    below 1e-9, when a step fails, or after 200 steps.  The result holds x
    with its value fun, gradient jac and Hessian hess, the steps nit, the
    calls of fun nfev, message, success (message starts CONVERGENCE),
    hessian_shifts (steps on a shifted Hessian) and step_halvings (rejected
    trial points)."""
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    f, g, hess = fun(x)
    nfev, nit, shifts, halvings = 1, 0, 0, 0
    radius = _MAX_SPAN
    ok = _finite(f, g, hess)
    message = "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT" if ok else "ABNORMAL: NON-FINITE START"
    while ok and nit < 200:
        free = ~(((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0)))
        if np.linalg.norm(g[free]) < 1e-9:
            message = "CONVERGENCE: NORM OF PROJECTED GRADIENT <= GTOL"
            break
        nit += 1
        block, eye = hess[np.ix_(free, free)], np.eye(np.count_nonzero(free))
        shift = 0.0
        while True:
            try:
                np.linalg.cholesky(block + shift * eye)
                break
            except np.linalg.LinAlgError:
                shift = max(2.0 * shift, 1e-3 * np.max(np.abs(np.diag(block)), initial=1e-300))
        shifts += shift > 0.0
        step = np.zeros_like(x)
        step[free] = -np.linalg.solve(block + shift * eye, g[free])
        reach = span(step)
        step *= min(1.0, radius / reach)
        d = np.clip(x + step, lo, hi) - x
        exact = shift == 0.0 and -(g @ d + 0.5 * d @ hess @ d) <= 1e-13 * max(1.0, abs(f))
        for halved in range(50):
            trial = np.clip(x + step, lo, hi)
            ft, gt, ht = fun(trial)
            nfev += 1
            ok = _finite(ft, gt, ht) and (
                np.linalg.norm(gt[free]) < (np.linalg.norm(g[free]) if exact else 1e-9)
                or not exact and ft <= f + 1e-4 * min(float(g @ (trial - x)), 0.0))
            if ok or exact:
                break
            halvings += 1
            step *= 0.5
        if not ok:
            message = ("CONVERGENCE: NEWTON DECREMENT BELOW ROUNDING" if exact
                       else "ABNORMAL: NO DECREASE ABOVE ROUNDING")
            break
        x, f, g, hess = trial, ft, gt, ht
        if halved or reach > radius:
            radius = _MAX_SPAN if halved else min(2.0 * radius, _MAX_RADIUS)
    return types.SimpleNamespace(x=x, fun=f, jac=g, hess=hess, nit=nit, nfev=nfev,
                                 success=message.startswith("CONVERGENCE"),
                                 message=message, hessian_shifts=shifts,
                                 step_halvings=halvings)


# The optimiser seam that perfbench/tracing.py wraps; _fit calls through it.
_opt = types.SimpleNamespace(minimize=_newton, minimize_scalar=None)


def _fit(family, design, y, weights, theta0):
    """Maximum likelihood of ``family`` with eta = design @ beta over the
    counts y with frequency weights, from the start theta0 = (beta[, log r]).

    One _newton run on the mean log-likelihood, its gradient and its
    Hessian in (beta, log r), all from one pass of the family's kernel.
    Returns (theta, cov, log-likelihood, converged, iterations, diagnostics)
    with theta = (beta[, r]) and cov the inverse observed information, the
    last pass's Hessian mapped to r by H_rr = (H_ll - g_l)/r^2, H_beta,r =
    H_beta,l / r.  ``converged`` is the full gradient's norm below
    _GRAD_GATE.  A start where the log-likelihood or its Hessian is not
    finite raises NonConvergenceError.
    """
    n, k = float(np.sum(weights)), design.shape[1]
    tally = {"pmf_floored": 0, "eta_clamped": 0}

    def value_grad_hess(theta):
        """The negative mean log-likelihood, its gradient and its Hessian."""
        eta, clipped = _eta(theta[:k], design)
        tally["eta_clamped"] += clipped
        r = math.exp(theta[k]) if family.n_shape else family.fixed_r
        lp, floored, g_eta, g_s, h_ee, h_es, h_ss = family.logpmf_grad(eta, r, y)
        tally["pmf_floored"] += floored
        w = np.where(np.abs(eta) >= _ETA_CLAMP, 0.0, weights)  # clamped: flat in beta
        grad, hess = design.T @ (w * g_eta), design.T @ (design * (w * h_ee)[:, None])
        if family.n_shape:
            cross = design.T @ (w * h_es)
            grad = np.append(grad, np.dot(weights, g_s))
            hess = np.block([[hess, cross[:, None]], [cross, np.dot(weights, h_ss)]])
        return -float(np.dot(weights, lp)) / n, -grad / n, -hess / n

    def span(d):
        """The largest change of a linear predictor or of log r."""
        return max(np.max(np.abs(design @ d[:k])), np.max(np.abs(d[k:]), initial=0.0))

    # Past +-_ETA_CLAMP every eta of a design of ones is clamped and the
    # objective is flat, so there that bound is exact.
    beta_bound = _ETA_CLAMP if k == 1 and np.all(design == 1.0) else np.inf
    hi = np.array([beta_bound] * k + [_LOGR_BOUND] * family.n_shape)
    res = _opt.minimize(value_grad_hess, theta0, lo=-hi, hi=hi, span=span)
    if not _finite(res.fun, res.hess):
        raise NonConvergenceError(
            f"{family.name} fit: {res.message} at theta = {np.asarray(theta0).tolist()}")
    theta, hess = res.x.copy(), -n * res.hess
    if family.n_shape:
        r = theta[k] = math.exp(theta[k])
        hess[k, k] += n * res.jac[k]
        hess[k] /= r
        hess[:, k] /= r
    diagnostics = dict(tally, grad_norm=float(np.linalg.norm(res.jac)),
                       messages=[str(res.message)], evaluations=res.nfev,
                       hessian_shifts=res.hessian_shifts,
                       step_halvings=res.step_halvings,
                       hessian=hess, condition=float(np.linalg.cond(hess)))
    try:
        cov = np.linalg.inv(-hess)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(-hess)
        diagnostics["singular_hessian"] = True
    return (theta, cov, float(-n * res.fun), diagnostics["grad_norm"] < _GRAD_GATE,
            res.nit, diagnostics)


# ---------------------------------------------------------------------------
# Marginal fits: intercept-only fits on the distinct counts


def _marginal_counts(data, level: float):
    """Distinct counts, their frequencies and the sample mean."""
    if not (0.0 < level < 1.0):
        raise DomainError(f"level must lie in (0, 1), got {level}")
    xs, w, n = _compress(data)
    m1 = float(np.dot(w, xs)) / n
    if m1 == 0.0:
        raise DegenerateDataError(
            "all observations are zero: the likelihood increases as the mean "
            "goes to 0 and no interior maximum exists")
    return xs, w, m1


def _interval(name: str, est: float, se: float, z: float) -> tuple:
    """The Wald interval of a law's parameter taken where its range is the
    real line, so that it stays inside the parameter space: logit p, log r,
    log lam, with standard errors se / (p q), se / r and se / lam."""
    with np.errstate(over="ignore"):
        if name == "p":
            h = z * se / (est * (1.0 - est))
            return tuple(float(_sps.expit(_sps.logit(est) + d)) for d in (-h, h))
        h = z * se / est
        return tuple(float(est * np.exp(d)) for d in (-h, h))


def _fit_marginal(family, xs, w, theta0, level: float) -> FitResult:
    """The intercept-only fit with the frequencies as weights.  The law's
    parameters and their covariance follow from (intercept[, r]) by the
    delta method, exact at the optimum, where the gradient is zero; the
    confidence intervals are those of _interval."""
    theta, cov, ll, converged, iterations, diagnostics = _fit(
        family, np.ones((xs.size, 1)), xs, w, theta0)
    params, jac = family.law(theta)
    cov = jac @ cov @ jac.T
    se = tuple(math.sqrt(max(v, 0.0)) for v in np.diag(cov))
    z = float(_sps.ndtri(0.5 * (1.0 + level)))
    cis = tuple(_interval(f.name, e, s, z)
                for f, e, s in zip(fields(params), astuple(params), se))
    return FitResult(params=params, log_likelihood=ll, std_errors=se,
                     cov_matrix=cov, conf_intervals=cis,
                     aic=-2.0 * ll + 2.0 * len(se), converged=converged,
                     iterations=iterations, method="mle", diagnostics=diagnostics)


def fit_mle(data, init: Optional[UnbParams] = None, level: float = 0.95) -> FitResult:
    """Maximum likelihood over (r, p), one Newton run from one start.

    The start is ``init`` when given, else the moment estimate, else, for a
    sample too little dispersed for it, the geometric submodel (r = 2) at
    the sample mean; both have mean m1.  A start where the log-likelihood
    is not finite (p = 1e-300, say) raises NonConvergenceError.  Standard
    errors and confidence intervals come from the inverse observed
    information at the optimum.
    """
    xs, w, m1 = _marginal_counts(data, level)
    if init is not None:
        theta0 = [_FAMILIES["unb"].eta_of(init)[0], math.log(init.r)]
    else:
        try:
            r0 = _moment_r(m1, float(np.dot(w, xs * xs)) / np.sum(w))
        except UnderDispersionError:
            r0 = 2.0
        theta0 = [math.log(m1), math.log(r0)]
    return _fit_marginal(_FAMILIES["unb"], xs, w, np.array(theta0), level)


def fit_geometric(data, level: float = 0.95) -> FitResult:
    """Geometric MLE p = 1/(1 + mean), with observed-information standard
    error; the mean is the start and the optimum."""
    xs, w, m1 = _marginal_counts(data, level)
    return _fit_marginal(_FAMILIES["geometric"], xs, w, np.array([math.log(m1)]),
                         level)


def lr_test_geometric(data) -> LrTestResult:
    """Deviance test of the geometric submodel (r = 2) inside the UNB family:
    2 (sup UNB loglik - sup geometric loglik) against an upper-tail
    chi-square with one degree of freedom."""
    full = fit_mle(data)
    restricted = fit_geometric(data)
    stat = 2.0 * (full.log_likelihood - restricted.log_likelihood)
    p_value = float(_sps.chdtrc(1, max(stat, 0.0)))
    return LrTestResult(statistic=stat, df=1, p_value=p_value,
                        restricted_loglik=restricted.log_likelihood,
                        full_loglik=full.log_likelihood)


def fit_nb_mle(data, level: float = 0.95) -> FitResult:
    """Negative binomial MLE over (r, p), started at the sample mean and the
    moment estimate r = m1^2 / (var - m1) (r = 2 when var <= m1)."""
    xs, w, m1 = _marginal_counts(data, level)
    var = float(np.dot(w, (xs - m1) ** 2)) / max(np.sum(w) - 1.0, 1.0)
    r0 = m1 ** 2 / (var - m1) if var > m1 else 2.0
    start = np.array([math.log(m1), math.log(min(max(r0, 1e-2), 1e3))])
    return _fit_marginal(_FAMILIES["nb"], xs, w, start, level)


def fit_up_mle(data, level: float = 0.95) -> FitResult:
    """Uniform-Poisson MLE for the latent rate, started at twice the sample
    mean (the distribution mean is lam/2)."""
    xs, w, m1 = _marginal_counts(data, level)
    return _fit_marginal(_FAMILIES["up"], xs, w, np.array([math.log(m1)]), level)
