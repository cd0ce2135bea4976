"""Log-link count regression with a UNB response, plus comparators.

The conditional mean mu_i = exp(beta . y_i) sets each response law
through its family's link (``estimation._FAMILIES``): p_i = r / (2 mu_i + r)
for UNB (the distribution mean is r q / 2p), p_i = r / (mu_i + r) for the
negative binomial comparator, and lam_i = 2 mu_i for the uniform-Poisson
one, whose mean is lam / 2, so all three models share the same
conditional-mean scale.  q_i is computed from mu_i, never as 1 - p_i,
which rounds to 0 once eta is below about log r - 37.

Each fit is the engine of ``estimation._fit`` on the dataset's setup for
its spec (``_setup``), from the family's start.  The setup is
build_design, the row and rank checks, the distinct counts and, with
unit weights, the Poisson quasi-likelihood beta, consistent under all
three laws since they share the mean exp(eta), fitted by the same engine
on the internal Poisson family; the dataset keeps it for its last spec,
so the fits of every family on one dataset run it once, and puts its own
read-only arrays in place of the columns it was built from: its int64
counts and the design's float64 columns.  All-zero responses, which have
no maximum-likelihood estimate, raise DegenerateDataError there, before
any step.  The start adds log r from the family's moment equation at the
setup's means, with no kernel pass.  The engine is Newton's method over
(beta, log r) on the log-likelihood, its gradient and its Hessian from
one kernel pass (for UNB, means and variances of k and H_k = psi(r+k) -
psi(r) over the terms nb(k)/(k+1) whose sum is the pmf).  Standard errors
invert the last pass's observed information in (beta, r), and the fit
keeps that pass's log pmf at each observation.  Linear predictors are clamped to
|eta| <= 700 and per-observation probabilities floored at 1e-300, both
counted in the fit diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _special as _sps
from . import distributions as _dist
from .datasets import Dataset, _counts, response_counts
from .errors import DataError, DegenerateVuongError, DomainError, RankDeficientError
# Unused here; perfbench/tracing.py wraps regression._opt and regression.fit_mm.
from .estimation import _FAMILIES, _eta, _fit, _opt, _read_only, _Setup, fit_mm  # noqa: F401

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
    """Response column and ordered covariate columns; the design always
    starts with an intercept column."""

    response: str
    covariates: tuple

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

    ``std_errors`` cover beta and then r; ``r`` is None for the
    uniform-Poisson model, which has no dispersion parameter.
    ``wald_t``/``p_values`` test each beta against 0 and cover beta only:
    r = 0 lies outside the parameter space (r = inf is the uniform-Poisson
    limit, not r = 0), so r gets no Wald test.
    ``log_pmf`` is the last kernel pass's floored log pmf at each row.
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
    log_pmf: Optional[np.ndarray] = None


@dataclass(frozen=True)
class VuongResult:
    z: float
    omega: float
    p_value: float
    n: int


def build_design(dataset: Dataset, spec: RegressionSpec):
    """Assemble (X, y, names) from a dataset: X column-major, an intercept
    column, then the covariates, which must be finite; y is the response as
    int64 counts (:func:`response_counts`)."""
    for name in (spec.response, *spec.covariates):
        if name not in dataset.columns:
            raise DataError(f"column {name!r} not found in dataset")
    y = response_counts(dataset, spec.response)
    # Column-major: the fit's weighted Gram matrices then read contiguous
    # columns (estimation._objective).
    x = np.array([np.ones(dataset.n), *(dataset.columns[c] for c in spec.covariates)],
                 dtype=float).T
    names = ("intercept", *spec.covariates)
    finite = np.isfinite(x).all(axis=0)
    if not finite.all():
        raise DataError(f"column {names[np.argmin(finite)]!r} holds a non-finite "
                        "value (inf or NaN)")
    return x, y, names


def unb_reg_loglik(beta, r: float, design: np.ndarray, y) -> float:
    """Log-likelihood of the UNB regression at (beta, r).

    The design must be a finite 2-D array, the response non-negative
    integers (within 1e-9), r positive and finite, and beta one entry per
    design column.  Linear predictors beyond +-700 are clamped (an explicit
    diagnostic is available through the fitting routines).
    """
    beta = np.asarray(beta, dtype=float)
    design = np.asarray(design, dtype=float)
    y = _counts(y, "response")
    if design.ndim != 2:
        raise DataError(f"design must be 2-D, got {design.ndim} dimension(s)")
    if not np.all(np.isfinite(design)):
        raise DataError("design holds a non-finite value (inf or NaN)")
    if design.shape[0] != y.size:
        raise DataError("design rows do not match response length")
    if beta.shape != (design.shape[1],):
        raise DataError(f"beta has shape {beta.shape}, not one entry per design "
                        f"column ({design.shape[1]})")
    if not (r > 0.0 and math.isfinite(r)):
        raise DomainError(f"r must be a positive finite real, got {r}")
    eta = _eta(beta, design)[0]
    p, q = _FAMILIES["unb"].link(eta, r)
    return float(np.sum(_dist.unb_logpmf_kernel(r, p, y, q=q)[0]))


def _setup(dataset: Dataset, spec: RegressionSpec):
    """(names, the estimation._Setup of every family's fit on dataset and
    spec): build_design, the row and rank checks and the shared Poisson
    start, with unit weights.  The dataset keeps the last spec's, reused
    while each column it was built from is the same object, and shows in
    its place the setup's own read-only array of any dtype (its copy of the
    int64 counts, the design's float64 columns), so that a write raises.
    Columns that a new spec drops become copies, so that one design is
    kept; a failed check keeps nothing and raises on every call."""
    used = (spec.response, *spec.covariates)
    columns = tuple(dataset.columns.get(c) for c in used)
    held = dataset._regression_setup
    if held is not None and held[0] == spec and all(
            a is b for a, b in zip(held[1], columns)):
        return held[2:]
    design, y, names = build_design(dataset, spec)
    n, k = design.shape
    if n <= k + 1:
        raise DataError(f"need more rows than parameters: n={n}, columns={k}")
    rank = np.linalg.matrix_rank(design)
    if rank < k:
        raise RankDeficientError(
            f"design matrix is rank deficient ({k} columns, rank {rank})")
    if held is not None:  # copies of the columns it drops free the old design
        for c, a in zip(held[0].covariates, held[1][1:]):
            if c not in used and dataset.columns.get(c) is a:
                dataset.columns[c] = _read_only(np.array(a))
    setup = _Setup(design, np.array(y), np.ones(n))
    columns = (setup.y, *setup.design.T[1:])
    dataset.columns.update(zip(used, columns))
    object.__setattr__(dataset, "_regression_setup", (spec, columns, names, setup))
    return names, setup


def _regress(family, dataset, spec: RegressionSpec) -> RegressionFit:
    """The dataset's setup for spec, the family's start and the engine."""
    names, setup = _setup(dataset, spec)
    k = setup.design.shape[1]
    theta, cov, ll, converged, iterations, diagnostics, log_pmf = _fit(family, setup)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    # beta only: r = 0 lies outside the parameter space
    with np.errstate(divide="ignore", invalid="ignore"):
        wald = np.where(se[:k] > 0, theta[:k] / se[:k], np.nan)
    return RegressionFit(beta=theta[:k], r=float(theta[k]) if family.n_shape else None,
                         std_errors=se, wald_t=wald,
                         p_values=2.0 * _sps.ndtr(-np.abs(wald)),
                         log_likelihood=ll, aic=-2.0 * ll + 2.0 * theta.size,
                         converged=converged, model=family.name,
                         coef_names=names, iterations=iterations,
                         diagnostics=diagnostics, log_pmf=log_pmf)


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
    """Fitted probability of each observed response, for Vuong comparisons:
    exp(fit.log_pmf), for the fit's own dataset and spec only (DataError for
    another row count or other covariates)."""
    if (dataset.n, spec.covariates) != (fit.log_pmf.size, fit.coef_names[1:]):
        raise DataError("per_observation_pmf takes the fit's own dataset and spec: "
                        f"{dataset.n} rows on {spec.covariates}, not {fit.log_pmf.size} "
                        f"on {fit.coef_names[1:]}")
    return np.exp(fit.log_pmf)


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
        if not np.all((v > 0.0) & (v <= 1.0)):  # NaN fails both tests
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
