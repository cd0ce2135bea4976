"""Log-link count regression with a UNB response, plus comparators.

The conditional mean mu_i = exp(beta . y_i) enters the UNB pmf through
p_i = r / (2 mu_i + r) (the distribution mean is r q / 2p).  The negative
binomial comparator uses p_i = r / (mu_i + r); the uniform-Poisson one
links its latent rate as lam_i = 2 mu_i since its mean is lam / 2, so all
three models share the same conditional-mean scale.

Optimisation is joint quasi-Newton ascent over (beta, log r) with the
analytic beta-gradient

    dl/dbeta_k = sum_i y_ki [ x_i p_i - r q_i
                              + p_i q_i ((r+x_i)/(2+x_i)) F2_i / F1_i ]

(F2/F1 the contiguous hypergeometric ratio; evaluated from the same
sums as the likelihood) and a finite-difference log-r
gradient.  Standard errors invert the observed information in the
original (beta, r) coordinates.  Linear predictors are clamped to |eta|
<= 700 and per-observation probabilities floored at 1e-300, both counted
in the fit diagnostics, so line searches survive excursions far from the
optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import optimize as _opt
from scipy import special as _sps

from . import distributions as _dist
from .datasets import Dataset
from .errors import DataError, DegenerateVuongError, DomainError, RankDeficientError
from .estimation import _hessian_fd, fit_mm

__all__ = [
    "RegressionSpec",
    "RegressionFit",
    "VuongResult",
    "build_design",
    "unb_reg_loglik",
    "fit_unb_regression",
    "fit_nb_regression",
    "fit_up_regression",
    "vuong_test",
    "per_observation_pmf",
]

ETA_CLAMP = 700.0
PMF_FLOOR = _dist.PMF_FLOOR
_LOGR_BOUNDS = (-8.0, 8.0)
_GRAD_GATE = 1e-6  # on the gradient of the mean log-likelihood


@dataclass(frozen=True)
class RegressionSpec:
    """Response column, ordered covariate columns, optional intercept."""

    response: str
    covariates: tuple
    intercept: bool = True

    def __post_init__(self):
        cov = tuple(self.covariates)
        object.__setattr__(self, "covariates", cov)
        if len(set(cov)) != len(cov):
            raise DataError("covariate list contains duplicates")
        if self.response in cov:
            raise DataError("response column cannot appear among covariates")


@dataclass
class RegressionFit:
    """Coefficients and Wald inference from one regression fit.

    ``r`` is None for the uniform-Poisson model, which has no dispersion
    parameter; ``std_errors``/``wald_t``/``p_values`` then cover beta only.
    """

    beta: np.ndarray
    r: Optional[float]
    std_errors: np.ndarray
    wald_t: np.ndarray
    p_values: np.ndarray
    log_likelihood: float
    aic: float
    converged: bool
    model: str
    coef_names: tuple = ()
    iterations: int = 0
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class VuongResult:
    z: float
    omega: float
    p_value: float
    n: int


def build_design(dataset: Dataset, spec: RegressionSpec):
    """Assemble (X, y, names) from a dataset; validates the response counts."""
    for name in (spec.response, *spec.covariates):
        if name not in dataset.columns:
            raise DataError(f"column {name!r} not found in dataset")
    y_raw = dataset.columns[spec.response]
    y_int = np.rint(y_raw)
    if np.any(np.abs(y_raw - y_int) > 1e-9) or np.any(y_int < 0):
        raise DataError(f"response {spec.response!r} must be non-negative integers")
    cols = [dataset.columns[c] for c in spec.covariates]
    names = list(spec.covariates)
    if spec.intercept:
        cols.insert(0, np.ones(dataset.n))
        names.insert(0, "intercept")
    x = np.column_stack(cols) if cols else np.empty((dataset.n, 0))
    return x, y_int.astype(np.int64), tuple(names)


def _check_rank(x: np.ndarray):
    if x.shape[1] == 0:
        raise DataError("design matrix has no columns")
    if np.linalg.matrix_rank(x) < x.shape[1]:
        raise RankDeficientError(
            f"design matrix is rank deficient ({x.shape[1]} columns, "
            f"rank {np.linalg.matrix_rank(x)})")


def _eta(beta, design):
    eta = design @ beta
    clipped = int(np.count_nonzero(np.abs(eta) > ETA_CLAMP))
    return np.clip(eta, -ETA_CLAMP, ETA_CLAMP), clipped


def unb_reg_loglik(beta, r: float, design: np.ndarray, y) -> float:
    """Log-likelihood of the UNB regression at (beta, r).

    Linear predictors beyond +-700 are clamped (an explicit diagnostic is
    available through the fitting routines).
    """
    beta = np.asarray(beta, dtype=float)
    y = np.asarray(y)
    if design.shape[0] != y.size:
        raise DataError("design rows do not match response length")
    if not r > 0.0:
        raise DomainError(f"r must be positive, got {r}")
    eta, _ = _eta(beta, design)
    mu = np.exp(eta)
    p = r / (2.0 * mu + r)
    lp, _ = _dist.unb_logpmf_kernel(r, p, y)
    return float(np.sum(lp))


def _model_funcs(model: str):
    """(mean loglik, mean beta-gradient) builders per response family."""

    if model == "unb":
        def loglik(r, mu, y):
            p = r / (2.0 * mu + r)
            lp, floored = _dist.unb_logpmf_kernel(r, p, y)
            return np.sum(lp), floored

        def deta(r, mu, y):
            p = r / (2.0 * mu + r)
            # d logpmf / deta = (dp/deta) * d logpmf / dp, dp/deta = -p q
            return -p * (1.0 - p) * _dist.unb_dlogpmf_dp_kernel(r, p, y)
    elif model == "nb":
        def loglik(r, mu, y):
            p = r / (mu + r)
            lp = (_sps.gammaln(r + y) - math.lgamma(r) - _sps.gammaln(y + 1.0)
                  + r * np.log(p) + y * np.log1p(-p))
            log_floor = math.log(PMF_FLOOR)
            return (np.sum(np.maximum(lp, log_floor)),
                    int(np.count_nonzero(lp < log_floor)))

        def deta(r, mu, y):
            p = r / (mu + r)
            return y * p - r * (1.0 - p)
    elif model == "up":
        def loglik(r, mu, y):
            lam = 2.0 * mu
            surv = _sps.gammainc(y + 1.0, lam)
            return (np.sum(np.log(np.maximum(surv, PMF_FLOOR)) - np.log(lam)),
                    int(np.count_nonzero(surv < PMF_FLOOR)))

        def deta(r, mu, y):
            lam = 2.0 * mu
            surv = np.maximum(_sps.gammainc(y + 1.0, lam), PMF_FLOOR)
            log_pois = y * np.log(lam) - lam - _sps.gammaln(y + 1.0)
            return lam * np.exp(log_pois) / surv - 1.0
    else:
        raise DomainError(f"unknown regression model {model!r}")
    return loglik, deta


def _fit_regression(dataset, spec, model: str, level: float) -> RegressionFit:
    design, y, names = build_design(dataset, spec)
    n, k = design.shape
    if n <= k + 1:
        raise DataError(f"need more rows than parameters: n={n}, columns={k}")
    _check_rank(design)
    loglik_fn, deta_fn = _model_funcs(model)
    has_r = model in ("unb", "nb")

    beta0 = np.zeros(k)
    if spec.intercept:
        beta0[0] = math.log(float(np.mean(y)) + 0.5 / n)
    if has_r:
        try:
            r0 = fit_mm(y).params.r
        except DataError:
            r0 = 2.0
        theta0 = np.append(beta0, math.log(min(max(r0, 1e-3), 1e3)))
    else:
        theta0 = beta0

    clamp_count = [0]
    floor_count = [0]

    def unpack(theta):
        beta = theta[:k]
        r = math.exp(theta[k]) if has_r else None
        eta, clipped = _eta(beta, design)
        clamp_count[0] += clipped
        return beta, r, np.exp(eta), eta

    def neg_mean_loglik(theta):
        _, r, mu, _ = unpack(theta)
        ll, floored = loglik_fn(r, mu, y)
        floor_count[0] += floored
        return -ll / n

    def neg_mean_grad(theta):
        beta, r, mu, eta = unpack(theta)
        g_eta = deta_fn(r, mu, y)
        g_eta = np.where(np.abs(eta) >= ETA_CLAMP, 0.0, g_eta)
        g_beta = design.T @ g_eta / n
        if has_r:
            h = 1e-6
            lp = loglik_fn(math.exp(theta[k] + h), mu, y)[0]
            lm = loglik_fn(math.exp(theta[k] - h), mu, y)[0]
            g_r = (lp - lm) / (2.0 * h * n)
            return -np.append(g_beta, g_r)
        return -g_beta

    bounds = [(None, None)] * k + ([_LOGR_BOUNDS] if has_r else [])
    res = _opt.minimize(neg_mean_loglik, theta0, jac=neg_mean_grad,
                        method="L-BFGS-B", bounds=bounds,
                        options={"maxiter": 1000, "ftol": 1e-13, "gtol": 1e-9})
    iterations = res.nit
    messages = [str(res.message)]

    def grad_norm(theta):
        return float(np.linalg.norm(neg_mean_grad(theta)))

    # The ftol test can end a successful stage just above the gradient gate;
    # the tighter retry then goes on from there.
    if not res.success or grad_norm(res.x) >= _GRAD_GATE:
        res_retry = _opt.minimize(neg_mean_loglik, res.x, jac=neg_mean_grad,
                                  method="L-BFGS-B", bounds=bounds,
                                  options={"maxiter": 1000, "ftol": 1e-14,
                                           "gtol": 1e-10})
        iterations += res_retry.nit
        messages.append(str(res_retry.message))
        if res_retry.fun <= res.fun:
            res = res_retry
        if not res.success:
            res_nm = _opt.minimize(neg_mean_loglik, res.x, method="Nelder-Mead",
                                   options={"maxiter": 5000, "xatol": 1e-9,
                                            "fatol": 1e-12})
            iterations += res_nm.nit
            messages.append(str(res_nm.message))
            if res_nm.fun < res.fun:
                res = res_nm

    final_norm = grad_norm(res.x)
    converged = final_norm < _GRAD_GATE
    return _finalize_fit(model, design, y, names, res.x, k, has_r, loglik_fn,
                         n, level, converged, iterations,
                         {"grad_norm": final_norm, "messages": messages,
                          "eta_clamped": clamp_count[0],
                          "pmf_floored": floor_count[0]})


def _finalize_fit(model, design, y, names, theta_opt, k, has_r, loglik_fn,
                  n, level, converged, iterations, diagnostics) -> RegressionFit:
    from scipy import stats as _stats

    beta_hat = theta_opt[:k]
    r_hat = math.exp(theta_opt[k]) if has_r else None

    def total_loglik(t):
        eta = np.clip(design @ t[:k], -ETA_CLAMP, ETA_CLAMP)
        mu = np.exp(eta)
        r = t[k] if has_r else None
        return loglik_fn(r, mu, y)[0]

    theta_orig = np.append(beta_hat, r_hat) if has_r else beta_hat
    steps = 1e-4 * np.maximum(1.0, np.abs(theta_orig))
    if has_r:
        steps[k] = min(steps[k], 0.5 * r_hat)
    hess = _hessian_fd(total_loglik, theta_orig, steps)
    diagnostics["hessian"] = hess
    try:
        cov = np.linalg.inv(-hess)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(-hess)
        diagnostics["singular_hessian"] = True
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        wald = np.where(se > 0, theta_orig / se, np.nan)
    p_values = 2.0 * _stats.norm.sf(np.abs(wald))
    ll = total_loglik(theta_orig)
    n_params = k + (1 if has_r else 0)
    return RegressionFit(beta=beta_hat, r=r_hat, std_errors=se, wald_t=wald,
                         p_values=p_values, log_likelihood=ll,
                         aic=-2.0 * ll + 2.0 * n_params, converged=converged,
                         model=model, coef_names=names, iterations=iterations,
                         diagnostics=diagnostics)


def fit_unb_regression(dataset, spec: RegressionSpec,
                       level: float = 0.95) -> RegressionFit:
    """UNB response with log link on the conditional mean."""
    return _fit_regression(dataset, spec, "unb", level)


def fit_nb_regression(dataset, spec: RegressionSpec,
                      level: float = 0.95) -> RegressionFit:
    """Negative binomial comparator, same link and inference pipeline."""
    return _fit_regression(dataset, spec, "nb", level)


def fit_up_regression(dataset, spec: RegressionSpec,
                      level: float = 0.95) -> RegressionFit:
    """Uniform-Poisson comparator; latent rate 2 mu, no dispersion term."""
    return _fit_regression(dataset, spec, "up", level)


def per_observation_pmf(fit: RegressionFit, dataset, spec: RegressionSpec) -> np.ndarray:
    """Fitted probability of each observed response, for Vuong comparisons."""
    design, y, _ = build_design(dataset, spec)
    eta = np.clip(design @ fit.beta, -ETA_CLAMP, ETA_CLAMP)
    mu = np.exp(eta)
    loglik_fn, _ = _model_funcs(fit.model)
    if fit.model == "unb":
        p = fit.r / (2.0 * mu + fit.r)
        lp, _ = _dist.unb_logpmf_kernel(fit.r, p, y)
    elif fit.model == "nb":
        p = fit.r / (mu + fit.r)
        lp = (_sps.gammaln(fit.r + y) - math.lgamma(fit.r)
              - _sps.gammaln(y + 1.0) + fit.r * np.log(p) + y * np.log1p(-p))
    else:
        lam = 2.0 * mu
        lp = np.log(np.maximum(_sps.gammainc(y + 1.0, lam), PMF_FLOOR)) - np.log(lam)
    return np.exp(np.maximum(lp, math.log(PMF_FLOOR)))


def vuong_test(pmf1_per_obs, pmf2_per_obs) -> VuongResult:
    """Variance-normalised comparison of per-observation log masses:

    z = sum(log(p1/p2)) / (omega sqrt(n)), omega^2 the divide-by-n variance
    of the log ratios; two-sided standard normal p-value.
    """
    p1 = np.asarray(pmf1_per_obs, dtype=float)
    p2 = np.asarray(pmf2_per_obs, dtype=float)
    if p1.shape != p2.shape or p1.ndim != 1:
        raise DataError("pmf vectors must be one-dimensional and equally long")
    n = p1.size
    if n < 2:
        raise DataError(f"need at least 2 observations, got {n}")
    for name, v in (("first", p1), ("second", p2)):
        if np.any(v <= 0.0) or np.any(v > 1.0):
            raise DataError(f"{name} pmf vector has entries outside (0, 1]")
    m = np.log(p1) - np.log(p2)
    omega_sq = float(np.mean(m ** 2) - np.mean(m) ** 2)
    omega = math.sqrt(max(omega_sq, 0.0))
    if omega < 1e-12:
        raise DegenerateVuongError(
            "per-observation log-ratios are constant; the models are "
            "observationally identical and the statistic is undefined")
    z = float(np.sum(m)) / (omega * math.sqrt(n))
    p_value = float(_sps.erfc(abs(z) / math.sqrt(2.0)))
    return VuongResult(z=z, omega=omega, p_value=p_value, n=n)
