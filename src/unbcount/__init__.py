"""Uniform-negative-binomial count models: distribution, estimation,
log-link regression, and model comparison."""

from .distributions import (
    GeomParams,
    NbParams,
    UnbParams,
    UpParams,
    geom_pmf,
    nb_cdf,
    nb_pmf,
    unb_cdf,
    unb_dispersion_index,
    unb_mean,
    unb_mgf,
    unb_pgf,
    unb_pmf,
    unb_pmf_vector,
    unb_sample,
    unb_variance,
    up_pmf,
)
from .errors import (
    DataError,
    DegenerateDataError,
    DegenerateVuongError,
    DomainError,
    NonConvergenceError,
    RankDeficientError,
    UnbError,
    UnderDispersionError,
)
from .estimation import (
    FitResult,
    LrTestResult,
    MomentSummary,
    fit_mle,
    fit_mm,
    lr_test_geometric,
    sample_moments,
    unb_loglik,
    unb_score_p,
    unb_score_r,
)
from .regression import (
    RegressionFit,
    RegressionSpec,
    VuongResult,
    fit_nb_regression,
    fit_unb_regression,
    fit_up_regression,
    unb_reg_loglik,
    vuong_test,
)
from .datasets import Dataset, GroupSummary, covariate_summary, load_csv, summarize
from .specfun import ThetaArgs, confluent_1f1, digamma, gauss_2f1, kampe_theta1, lerch_phi

__version__ = "0.1.0"
