"""Log-link count regression with a UNB response, plus comparators.

The conditional mean mu_i = exp(beta . y_i) sets each response law
through its family's link (``estimation._FAMILIES``): p_i = r / (2 mu_i + r)
for UNB (the distribution mean is r q / 2p), p_i = r / (mu_i + r) for the
negative binomial comparator, and lam_i = 2 mu_i for the uniform-Poisson
one, whose mean is lam / 2, so all three models share the same
conditional-mean scale.  q_i is computed from mu_i, never as 1 - p_i,
which rounds to 0 once eta is below about log r - 37.

Each fit is build_design, a rank check, a check that some response is
non-zero (else no maximum-likelihood estimate exists), one start
(intercept log mean, log r from the moment estimate) and the engine of
``estimation._fit`` with unit weights: Newton's method over (beta, log r)
on the log-likelihood, its gradient and its Hessian from one kernel pass
(for UNB, means and variances of k and H_k = psi(r+k) - psi(r) over the
terms nb(k)/(k+1) whose sum is the pmf).  Standard errors invert the last
pass's observed information in (beta, r).  Linear predictors are clamped
to |eta| <= 700 and per-observation probabilities floored at 1e-300,
both counted in the fit diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import special as _sps

from .datasets import Dataset, _rounded_counts
from .errors import (DataError, DegenerateDataError, DegenerateVuongError, DomainError,
                     RankDeficientError)
# _opt is unused here; perfbench/tracing.py wraps regression._opt.
from .estimation import _FAMILIES, _eta, _fit, _opt, fit_mm  # noqa: F401

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
    y_int, bad = _rounded_counts(dataset.columns[spec.response])
    if np.any(bad):
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
    rank = np.linalg.matrix_rank(x)
    if rank < x.shape[1]:
        raise RankDeficientError(
            f"design matrix is rank deficient ({x.shape[1]} columns, rank {rank})")


def unb_reg_loglik(beta, r: float, design: np.ndarray, y) -> float:
    """Log-likelihood of the UNB regression at (beta, r).

    The response must be non-negative integers (within 1e-9), r positive
    and finite, and beta one entry per design column.  Linear predictors
    beyond +-700 are clamped (an explicit diagnostic is available through
    the fitting routines).
    """
    beta = np.asarray(beta, dtype=float)
    y, bad = _rounded_counts(y)
    if np.any(bad):
        raise DataError("response must be non-negative integers")
    if design.shape[0] != y.size:
        raise DataError("design rows do not match response length")
    if beta.shape != (design.shape[1],):
        raise DataError(f"beta has shape {beta.shape}, not one entry per design "
                        f"column ({design.shape[1]})")
    if not (r > 0.0 and math.isfinite(r)):
        raise DomainError(f"r must be a positive finite real, got {r}")
    eta, _ = _eta(beta, design)
    lp, _ = _FAMILIES["unb"].logpmf(eta, r, y)
    return float(np.sum(lp))


def _regress(family, dataset, spec: RegressionSpec) -> RegressionFit:
    """The design, rank and all-zero checks, one start and the engine."""
    design, y, names = build_design(dataset, spec)
    n, k = design.shape
    if n <= k + 1:
        raise DataError(f"need more rows than parameters: n={n}, columns={k}")
    _check_rank(design)
    if not np.any(y):
        raise DegenerateDataError("all responses are zero: the likelihood increases "
                                  "as the mean goes to 0 and no maximum exists")
    theta0 = np.zeros(k + family.n_shape)
    if spec.intercept:
        theta0[0] = math.log(float(np.mean(y)) + 0.5 / n)
    if family.n_shape:
        try:
            r0 = fit_mm(y).params.r
        except DataError:
            r0 = 2.0
        theta0[k] = math.log(min(max(r0, 1e-3), 1e3))
    theta, cov, ll, converged, iterations, diagnostics = _fit(
        family, design, y, np.ones(n), theta0)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        wald = np.where(se > 0, theta / se, np.nan)
    return RegressionFit(beta=theta[:k], r=float(theta[k]) if family.n_shape else None,
                         std_errors=se, wald_t=wald,
                         p_values=2.0 * _sps.ndtr(-np.abs(wald)),
                         log_likelihood=ll, aic=-2.0 * ll + 2.0 * theta.size,
                         converged=converged, model=family.name,
                         coef_names=names, iterations=iterations,
                         diagnostics=diagnostics)


def fit_unb_regression(dataset, spec: RegressionSpec) -> RegressionFit:
    """UNB response with log link on the conditional mean."""
    return _regress(_FAMILIES["unb"], dataset, spec)


def fit_nb_regression(dataset, spec: RegressionSpec) -> RegressionFit:
    """Negative binomial comparator, same link and inference pipeline."""
    return _regress(_FAMILIES["nb"], dataset, spec)


def fit_up_regression(dataset, spec: RegressionSpec) -> RegressionFit:
    """Uniform-Poisson comparator; latent rate 2 mu, no dispersion term."""
    return _regress(_FAMILIES["up"], dataset, spec)


def per_observation_pmf(fit: RegressionFit, dataset, spec: RegressionSpec) -> np.ndarray:
    """Fitted probability of each observed response, for Vuong comparisons."""
    design, y, _ = build_design(dataset, spec)
    eta, _ = _eta(fit.beta, design)
    return np.exp(_FAMILIES[fit.model].logpmf(eta, fit.r, y)[0])


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
