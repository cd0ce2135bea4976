"""Fitting the UNB law and its comparators to an i.i.d. count sample,
and the one fitting engine that the regressions share.

Method of moments inverts the closed-form mean and second moment.  Every
maximum-likelihood fit, marginal or regression, runs on ``_fit``: a
family (UNB, negative binomial, uniform-Poisson, geometric) with log-link
mean mu = exp(eta), eta = design @ beta, fitted over (beta, log r) by
quasi-Newton ascent with an analytic eta-gradient and a finite-difference
log-r gradient, a tighter retry, and a simplex search when line searches
fail.  A marginal fit is the intercept-only fit on the distinct counts
with their frequencies as weights; its law's parameters ((r, p), lam or p)
and their standard errors follow from (intercept, r) by the delta method.
Standard errors come from the observed information at the optimum, in
(beta, r): the symmetrised central difference of the same score the
optimiser uses, 2p score evaluations for p parameters.

Convergence is judged on the gradient of the per-observation mean
log-likelihood: an absolute 1e-6 gate on the total-sample gradient is
below double-precision finite-difference noise once n is in the tens of
thousands, while the mean-scaled gate is parameterisation-stable.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
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
    method-of-moments fit.  The maximum-likelihood fits' ``diagnostics``
    hold ``grad_norm``, ``messages`` (one per optimiser stage),
    ``pmf_floored``, ``eta_clamped`` (both summed over objective
    evaluations) and ``hessian``, in the engine's (intercept, r)
    coordinates.
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


def _z_quantile(level: float) -> float:
    return float(_stats.norm.ppf(0.5 * (1.0 + level)))


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
_LOGR_BOUNDS = (-8.0, 8.0)
_GRAD_GATE = 1e-6  # on the gradient of the mean log-likelihood


class _Family:
    """A law of the table above.  ``n_shape`` is 1 when r is free (fitted as
    log r after the coefficients), 0 otherwise; ``fixed_r`` is the r of a
    law that fixes it.  ``logpmf(eta, r, y)`` gives the log pmf at the
    counts y floored at log PMF_FLOOR and the number of entries floored,
    ``deta(eta, r, y)`` its derivative in eta, ``law(theta)`` the law at
    theta = (eta[, r]) with the Jacobian of its parameters in theta, and
    ``eta_of(params)`` the inverse, (eta, r)."""

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


class _Unb(_Family):
    def logpmf(self, eta, r, y):
        p, q = self.link(eta, r)
        return _dist.unb_logpmf_kernel(r, p, y, q=q)

    def deta(self, eta, r, y):
        p, q = self.link(eta, r)
        return -p * q * _dist.unb_dlogpmf_dp_kernel(r, p, y, q=q)


class _Nb(_Family):
    def logpmf(self, eta, r, y):
        p, q = self.link(eta, r)
        lp = (_sps.gammaln(r + y) - math.lgamma(r) - _sps.gammaln(y + 1.0)
              + r * np.log(p) + y * np.log(q))
        return np.maximum(lp, _LOG_FLOOR), int(np.count_nonzero(lp < _LOG_FLOOR))

    def deta(self, eta, r, y):
        p, q = self.link(eta, r)
        return y * p - r * q


class _Up(_Family):
    """pmf(x) = P(N > x) / lam with N ~ Poisson(lam); P(N > x) is floored."""

    n_shape = 0

    def logpmf(self, eta, r, y):
        lam = 2.0 * np.exp(eta)
        surv = _sps.gammainc(y + 1.0, lam)
        return (np.log(np.maximum(surv, _dist.PMF_FLOOR)) - np.log(lam),
                int(np.count_nonzero(surv < _dist.PMF_FLOOR)))

    def deta(self, eta, r, y):
        lam = 2.0 * np.exp(eta)
        surv = np.maximum(_sps.gammainc(y + 1.0, lam), _dist.PMF_FLOOR)
        log_pois = y * np.log(lam) - lam - _sps.gammaln(y + 1.0)
        return lam * np.exp(log_pois) / surv - 1.0

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


def _fit(family, design, y, weights, starts):
    """Maximum likelihood of ``family`` with eta = design @ beta over the
    counts y with frequency weights, from each start theta = (beta[, log r]).

    Each start runs L-BFGS-B on the mean log-likelihood, with the analytic
    eta-gradient and a finite-difference log-r gradient; a tighter stage
    follows when it fails or stops above the gradient gate, and Nelder-Mead
    when that fails too.  The best optimum is kept.  Returns (theta, cov,
    log-likelihood, converged, iterations, diagnostics) with theta =
    (beta[, r]) and cov the inverse observed information in those
    coordinates, the symmetrised central difference of the score.  The
    log-likelihood is the best stage's value at its optimum.
    """
    n, k = float(np.sum(weights)), design.shape[1]
    tally = {"pmf_floored": 0, "eta_clamped": 0}
    messages, iterations = [], 0

    def eta_r(theta):
        eta, clipped = _eta(theta[:k], design)
        tally["eta_clamped"] += clipped
        return eta, math.exp(theta[k]) if family.n_shape else family.fixed_r

    def neg_mean_loglik(theta):
        lp, floored = family.logpmf(*eta_r(theta), y)
        tally["pmf_floored"] += floored
        return -float(np.dot(weights, lp)) / n

    def neg_mean_grad(theta):
        eta, r = eta_r(theta)
        g_eta = np.where(np.abs(eta) >= _ETA_CLAMP, 0.0, family.deta(eta, r, y))
        grad = design.T @ (weights * g_eta)
        if family.n_shape:
            h = 1e-6
            lp, lm = (np.dot(weights, family.logpmf(eta, math.exp(theta[k] + s), y)[0])
                      for s in (h, -h))
            grad = np.append(grad, (lp - lm) / (2.0 * h))
        return -grad / n

    # Past +-_ETA_CLAMP every eta of a design of ones is clamped and the
    # objective is flat, so there that bound is exact; it spares an unbounded
    # one-coordinate line search its ABNORMAL ends.
    beta_bounds = ((-_ETA_CLAMP, _ETA_CLAMP) if k == 1 and np.all(design == 1.0)
                   else (None, None))
    bounds = [beta_bounds] * k + [_LOGR_BOUNDS] * family.n_shape

    def stage(x0, method, **options):
        nonlocal iterations
        lbfgs = method == "L-BFGS-B"
        res = _opt.minimize(neg_mean_loglik, x0, method=method, options=options,
                            jac=neg_mean_grad if lbfgs else None,
                            bounds=bounds if lbfgs else None)
        iterations += res.nit
        messages.append(str(res.message))
        return res

    def fun(res):
        return res.fun

    def grad_norm(res):
        return float(np.linalg.norm(res.jac if "jac" in res else neg_mean_grad(res.x)))

    results = []
    for theta0 in starts:
        res = stage(theta0, "L-BFGS-B", maxiter=1000, ftol=1e-13, gtol=1e-9)
        # The ftol test can end a successful stage just above the gradient
        # gate; the tighter retry then goes on from there.
        if not res.success or grad_norm(res) >= _GRAD_GATE:
            res = min(stage(res.x, "L-BFGS-B", maxiter=1000, ftol=1e-14, gtol=1e-10),
                      res, key=fun)
            if not res.success:
                res = min(res, stage(res.x, "Nelder-Mead", maxiter=5000, xatol=1e-9,
                                     fatol=1e-12), key=fun)
        results.append(res)
    best = min(results, key=fun)
    final_norm = grad_norm(best)

    # the tallies count the optimiser's evaluations, not the information's
    diagnostics = dict(tally, grad_norm=final_norm, messages=messages)
    theta = best.x.copy()
    if family.n_shape:
        theta[k] = math.exp(theta[k])
    # 1e-3, not smaller: the r column differences the finite-difference
    # log-r gradient, whose rounding a smaller step amplifies.
    steps = 1e-3 * np.maximum(1.0, np.abs(theta))
    if family.n_shape:
        steps[k] = min(steps[k], 0.5 * theta[k])

    def score(t):
        """The log-likelihood gradient in (beta, r): g_r = g_logr / r."""
        if not family.n_shape:
            return -n * neg_mean_grad(t)
        g = -n * neg_mean_grad(np.append(t[:k], math.log(t[k])))
        g[k] /= t[k]
        return g

    hess = np.column_stack([(score(theta + e) - score(theta - e)) / (2.0 * s)
                            for e, s in zip(np.diag(steps), steps)])
    hess = 0.5 * (hess + hess.T)
    diagnostics["hessian"] = hess
    try:
        cov = np.linalg.inv(-hess)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(-hess)
        diagnostics["singular_hessian"] = True
    return theta, cov, float(-n * best.fun), final_norm < _GRAD_GATE, iterations, diagnostics


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


def _fit_marginal(family, xs, w, starts, level: float) -> FitResult:
    """The intercept-only fit with the frequencies as weights.  The law's
    parameters and their covariance follow from (intercept[, r]) by the
    delta method, exact at the optimum, where the gradient is zero."""
    theta, cov, ll, converged, iterations, diagnostics = _fit(
        family, np.ones((xs.size, 1)), xs, w, starts)
    params, jac = family.law(theta)
    cov = jac @ cov @ jac.T
    se = tuple(math.sqrt(max(v, 0.0)) for v in np.diag(cov))
    z = _z_quantile(level)
    cis = tuple((e - z * s, e + z * s) for e, s in zip(astuple(params), se))
    return FitResult(params=params, log_likelihood=ll, std_errors=se,
                     cov_matrix=cov, conf_intervals=cis,
                     aic=-2.0 * ll + 2.0 * len(se), converged=converged,
                     iterations=iterations, method="mle", diagnostics=diagnostics)


def fit_mle(data, init: Optional[UnbParams] = None, level: float = 0.95) -> FitResult:
    """Maximum likelihood over (r, p).

    The initialiser defaults to the moment estimate when admissible; the
    geometric-submodel start (r = 2, p = 1/(1 + mean)) is always tried as
    well and the better optimum kept.  Standard errors and confidence
    intervals come from the inverse observed information at the optimum.
    """
    xs, w, m1 = _marginal_counts(data, level)
    starts = [] if init is None else [init]
    if init is None:
        try:
            starts.append(fit_mm(data).params)
        except DataError:
            pass
    thetas = [np.array([_FAMILIES["unb"].eta_of(s)[0], math.log(s.r)]) for s in starts]
    thetas.append(np.array([math.log(m1), math.log(2.0)]))
    return _fit_marginal(_FAMILIES["unb"], xs, w, thetas, level)


def fit_geometric(data, level: float = 0.95) -> FitResult:
    """Geometric MLE p = 1/(1 + mean), with observed-information standard
    error; the mean is the start and the optimum."""
    xs, w, m1 = _marginal_counts(data, level)
    return _fit_marginal(_FAMILIES["geometric"], xs, w,
                         [np.array([math.log(m1)])], level)


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


def fit_nb_mle(data, level: float = 0.95) -> FitResult:
    """Negative binomial MLE over (r, p), started at the sample mean and the
    moment estimate r = m1^2 / (var - m1) (r = 2 when var <= m1)."""
    xs, w, m1 = _marginal_counts(data, level)
    var = float(np.dot(w, (xs - m1) ** 2)) / max(np.sum(w) - 1.0, 1.0)
    r0 = m1 ** 2 / (var - m1) if var > m1 else 2.0
    start = np.array([math.log(m1), math.log(min(max(r0, 1e-2), 1e3))])
    return _fit_marginal(_FAMILIES["nb"], xs, w, [start], level)


def fit_up_mle(data, level: float = 0.95) -> FitResult:
    """Uniform-Poisson MLE for the latent rate, started at twice the sample
    mean (the distribution mean is lam/2)."""
    xs, w, m1 = _marginal_counts(data, level)
    return _fit_marginal(_FAMILIES["up"], xs, w, [np.array([math.log(m1)])],
                         level)
