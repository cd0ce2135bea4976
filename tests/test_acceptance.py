"""Acceptance suite: one test per criterion, one printed status line each.

Run with `pytest tests/test_acceptance.py -s` to see the status lines.
Criteria 11-14 need the survey file (scripts/fetch_nmes.py); without it
they skip with an explicit notice and the suite is judged on 1-10.
"""

import numpy as np
import pytest
from scipy import stats as sps

from conftest import GRID, NMES_SKIP_NOTICE, hyp_pmf, nb_tail_cutoff, score_r_theta
from unbcount.datasets import (
    NMES_COVARIATES,
    NMES_RESPONSE,
    nmes_path_from_env,
    response_counts,
    summarize,
)
from unbcount.distributions import (
    GeomParams,
    NbParams,
    UnbParams,
    UpParams,
    geom_pmf,
    unb_cdf,
    unb_dispersion_index,
    unb_dlogpmf_dp_kernel,
    unb_mean,
    unb_pmf,
    unb_pmf_vector,
    unb_sample,
    unb_variance,
    up_pmf,
)
from unbcount.errors import DegenerateVuongError
from unbcount.estimation import (
    fit_mle,
    fit_nb_mle,
    fit_up_mle,
    unb_loglik,
    unb_score_p,
    unb_score_r,
)
from unbcount.regression import (
    RegressionSpec,
    fit_nb_regression,
    fit_unb_regression,
    fit_up_regression,
    per_observation_pmf,
    unb_reg_loglik,
    vuong_test,
)
from unbcount.specfun import lerch_phi


def report(num, desc, ok):
    print(f"ACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def skip_notice(num, desc):
    print(f"ACCEPTANCE {num:>2} SKIP: {desc} -- {NMES_SKIP_NOTICE}")
    pytest.skip(NMES_SKIP_NOTICE)


def test_criterion_01_normalization():
    ok = True
    for r, p in GRID:
        params = UnbParams(r, p)
        x_star = nb_tail_cutoff(NbParams(r, p), 1e-12)
        total = sum(unb_pmf(params, x) for x in range(x_star + 1))
        ok &= total >= 1.0 - 1e-9
    report(1, "pmf normalisation >= 1 - 1e-9 up to the tail cutoff, 25-point grid", ok)


def test_criterion_02_dual_path_pmf():
    worst = 0.0
    for r, p in GRID:
        params = UnbParams(r, p)
        vec = unb_pmf_vector(params, 50)
        hyp = np.array([hyp_pmf(params, x) for x in range(51)])
        worst = max(worst, float(np.max(np.abs(vec - hyp))))
    report(2, f"hypergeometric pmf vs the log-space term sums <= 1e-12 "
              f"(worst {worst:.2e})", worst <= 1e-12)


def test_criterion_03_three_term_recurrence():
    worst = 0.0
    for r in (1.5, 3.0, 7.0):
        for _, p in GRID[:5]:  # the five p values
            q = 1.0 - p
            for x in range(21):
                lhs = unb_pmf(UnbParams(r, p), x)
                rhs = (r / ((r - 1.0) * (r + x) * p)) * (
                    (2.0 * r + x - (r + x) * q) * unb_pmf(UnbParams(r + 1.0, p), x)
                    - (r + 1.0) * unb_pmf(UnbParams(r + 2.0, p), x))
                worst = max(worst, abs(lhs - rhs))
    report(3, f"three-term shape recurrence <= 1e-10 (worst {worst:.2e})",
           worst <= 1e-10)


def test_criterion_04_cdf_vs_partial_sums():
    worst = 0.0
    for r, p in GRID:
        params = UnbParams(r, p)
        running = 0.0
        for x in range(31):
            running += unb_pmf(params, x)
            worst = max(worst, abs(unb_cdf(params, x) - running))
    report(4, f"closed-form cdf vs partial pmf sums <= 1e-11 (worst {worst:.2e})",
           worst <= 1e-11)


def test_criterion_05_reductions():
    worst_geom = 0.0
    for _, p in GRID[:5]:
        for x in range(51):
            worst_geom = max(worst_geom, abs(
                unb_pmf(UnbParams(2.0, p), x) - geom_pmf(GeomParams(p), x)))
    ok = worst_geom <= 1e-13

    worst_lerch = 0.0
    for _, p in GRID[:5]:
        q = 1.0 - p
        for x in range(31):
            lerch = p * q ** x * lerch_phi(q, x + 1.0)
            worst_lerch = max(worst_lerch, abs(unb_pmf(UnbParams(1.0, p), x) - lerch))
    ok &= worst_lerch <= 1e-12

    lam = 2.0
    sups = []
    for r in (50.0, 200.0, 800.0):
        p = 1.0 / (1.0 + lam / r)
        sups.append(max(abs(unb_pmf(UnbParams(r, p), x) - up_pmf(UpParams(lam), x))
                        for x in range(51)))
    ok &= sups[0] > sups[1] > sups[2]
    report(5, f"reductions: geometric at r=2 (worst {worst_geom:.2e}), "
              f"Lerch at r=1 (worst {worst_lerch:.2e}), "
              f"uniform-Poisson limit decreasing {[f'{s:.1e}' for s in sups]}", ok)


def test_criterion_06_moments():
    ok = True
    worst = 0.0
    for r, p in GRID:
        params = UnbParams(r, p)
        cutoff = min(nb_tail_cutoff(NbParams(r, p), 1e-14) + 50, 2000)
        xs = np.arange(cutoff + 1, dtype=float)
        pmf = np.array([hyp_pmf(params, int(x)) for x in xs])
        m1 = float(np.sum(xs * pmf))
        var = float(np.sum(xs ** 2 * pmf)) - m1 ** 2
        e_mean = abs(unb_mean(params) - m1) / max(1.0, unb_mean(params))
        e_var = abs(unb_variance(params) - var) / max(1.0, unb_variance(params))
        worst = max(worst, e_mean, e_var)
        ok &= e_mean <= 1e-9 and e_var <= 1e-9
        ok &= unb_dispersion_index(params) > 1.0
    report(6, f"closed-form moments vs series oracle <= 1e-9 "
              f"(worst {worst:.2e}); dispersion index > 1 on grid", ok)


def test_criterion_07_mm_round_trip_and_coverage():
    worst = 0.0
    for r, p in GRID:
        q = 1.0 - p
        m1 = r * q / (2.0 * p)
        m2 = (3.0 * r * q / p + 2.0 * r * (r + 1.0) * q * q / (p * p)) / 6.0
        denom = 3.0 * (m2 - m1) - 4.0 * m1 ** 2
        r_hat = 4.0 * m1 ** 2 / denom
        p_hat = r_hat / (2.0 * m1 + r_hat)
        worst = max(worst, abs(r_hat - r) / max(1.0, r), abs(p_hat - p))
    ok = worst <= 1e-12

    params = UnbParams(3.0, 0.5)
    hits = 0
    for k in range(100):
        fit = fit_mle(unb_sample(params, 20_000, 1000 + k))
        (rlo, rhi), (plo, phi) = fit.conf_intervals
        hits += (rlo <= 3.0 <= rhi) and (plo <= 0.5 <= phi)
    ok &= hits >= 90
    report(7, f"moment round-trip <= 1e-12 (worst {worst:.2e}); "
              f"CI coverage {hits}/100 >= 90", ok)


def test_criterion_08_scores_and_hessian():
    rng = np.random.default_rng(808)
    ok = True
    worst = 0.0
    for _ in range(20):
        r = rng.uniform(0.6, 6.0)
        p = rng.uniform(0.25, 0.8)
        params = UnbParams(r, p)
        data = unb_sample(params, 60, int(rng.integers(0, 2 ** 31)))
        h = 1e-6
        fd_p = (unb_loglik(UnbParams(r, p + h), data)
                - unb_loglik(UnbParams(r, p - h), data)) / (2.0 * h)
        e_p = abs(unb_score_p(params, data) - fd_p) / max(1.0, abs(fd_p))
        h_r = 1e-6 * max(1.0, r)
        fd_r = (unb_loglik(UnbParams(r + h_r, p), data)
                - unb_loglik(UnbParams(r - h_r, p), data)) / (2.0 * h_r)
        score_r = unb_score_r(params, data)
        e_r = max(abs(score_r - score_r_theta(params, data)),
                  abs(score_r - fd_r)) / max(1.0, abs(fd_r))
        worst = max(worst, e_p, e_r)
        ok &= e_p <= 1e-5 and e_r <= 1e-5

    nsd = True
    for seed, (r, p) in ((51, (3.0, 0.5)), (52, (1.5, 0.3)), (53, (5.0, 0.6))):
        fit = fit_mle(unb_sample(UnbParams(r, p), 5000, seed))
        if fit.converged:
            eig = np.linalg.eigvalsh(fit.diagnostics["hessian"])
            nsd &= bool(np.all(eig <= 1e-6))
    ok &= nsd
    report(8, f"analytic p- and r-scores vs finite differences, r-score vs theta <= 1e-5 "
              f"(worst {worst:.2e}); observed information NSD at optima", ok)


def test_criterion_09_regression_checks():
    rng = np.random.default_rng(909)
    n = 50
    design = np.column_stack([np.ones(n), rng.normal(0.0, 1.0, n),
                              rng.uniform(0.0, 1.0, n)])
    y = rng.integers(0, 6, n)
    beta = np.array([0.2, 0.3, -0.2])
    r = 1.3
    mu = np.exp(design @ beta)
    p = r / (2.0 * mu + r)
    g_eta = -p * (1.0 - p) * unb_dlogpmf_dp_kernel(r, p, y)
    analytic = design.T @ g_eta
    h = 1e-6
    worst = 0.0
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        fd = (unb_reg_loglik(beta + e, r, design, y)
              - unb_reg_loglik(beta - e, r, design, y)) / (2.0 * h)
        worst = max(worst, abs(analytic[k] - fd) / max(1.0, abs(fd)))
    ok = worst <= 1e-5

    from test_regression import make_dataset, simulate_reg
    rng2 = np.random.default_rng(5)
    data, _ = simulate_reg(rng2, 1200, np.array([0.2, 0.5]), 2.0,
                           lambda rg, m: {"z1": rg.normal(0, 1, m)})
    scaled = make_dataset(data.columns["y"], z1=10.0 * data.columns["z1"])
    f1 = fit_unb_regression(data, RegressionSpec("y", ("z1",)))
    f2 = fit_unb_regression(scaled, RegressionSpec("y", ("z1",)))
    scale_ok = (abs(f1.log_likelihood - f2.log_likelihood) <= 1e-6
                and abs(f2.beta[1] * 10.0 - f1.beta[1]) <= 1e-5)
    ok &= scale_ok

    counts = unb_sample(UnbParams(2.0, 0.45), 2000, 5)
    data0 = make_dataset(counts)
    rfit = fit_unb_regression(data0, RegressionSpec("y", ()))
    mfit = fit_mle(counts)
    agree = abs(rfit.log_likelihood - mfit.log_likelihood)
    ok &= agree <= 1e-6
    report(9, f"regression gradient vs finite differences <= 1e-5 "
              f"(worst {worst:.2e}); covariate-scaling invariance; "
              f"intercept-only loglik agreement ({agree:.2e} <= 1e-6)", ok)


def test_criterion_10_vuong_and_sampler_gof():
    rng = np.random.default_rng(1010)
    p1 = rng.uniform(0.01, 0.9, 300)
    p2 = np.clip(p1 * rng.uniform(0.7, 1.4, 300), 1e-6, 1.0)
    a = vuong_test(p1, p2)
    b = vuong_test(p2, p1)
    ok = abs(a.z + b.z) <= 1e-12 * abs(a.z) and a.p_value == b.p_value
    try:
        vuong_test(p1, p1)
        ok = False
    except DegenerateVuongError:
        pass

    params = UnbParams(3.0, 0.5)
    draws = unb_sample(params, 100_000, 13)
    pmf = unb_pmf_vector(params, 9)
    expected = np.append(pmf, 1.0 - pmf.sum()) * draws.size
    observed = np.array([(draws == k).sum() for k in range(10)]
                        + [(draws >= 10).sum()], dtype=float)
    stat = float(np.sum((observed - expected) ** 2 / expected))
    crit = float(sps.chi2.ppf(0.99, 10))
    ok &= stat < crit
    report(10, f"Vuong antisymmetry and degeneracy detection; sampler GOF "
               f"chi2 {stat:.1f} < {crit:.1f} at 1%", ok)


# --- survey-file reproduction (conditional) --------------------------------


@pytest.fixture(scope="module")
def nmes():
    path = nmes_path_from_env()
    if path is None:
        return None
    from unbcount.datasets import load_nmes
    data = load_nmes(path)
    return data, response_counts(data, NMES_RESPONSE)


def test_criterion_11_covariate_free_logliks(nmes):
    if nmes is None:
        skip_notice(11, "covariate-free log-likelihoods "
                        "(UNB -3008.32, NB -3009.62, UP -3193.28)")
    data, y = nmes
    ll_unb = fit_mle(y).log_likelihood
    ll_nb = fit_nb_mle(y).log_likelihood
    ll_up = fit_up_mle(y).log_likelihood
    ok = (abs(ll_unb - (-3008.32)) <= 0.5
          and abs(ll_nb - (-3009.62)) <= 0.5
          and abs(ll_up - (-3193.28)) <= 0.5)
    report(11, f"covariate-free logliks UNB {ll_unb:.2f}, NB {ll_nb:.2f}, "
               f"UP {ll_up:.2f} within +-0.5 of published", ok)


def test_criterion_12_regression_footers(nmes):
    if nmes is None:
        skip_notice(12, "regression footers (UNB LL -2853.47 / AIC 5730.94, "
                        "r 0.884; NB -2855.24 / 5734.48; UP -2951.33 / 5924.66)")
    data, _ = nmes
    spec = RegressionSpec(response=NMES_RESPONSE, covariates=NMES_COVARIATES)
    f_unb = fit_unb_regression(data, spec)
    f_nb = fit_nb_regression(data, spec)
    f_up = fit_up_regression(data, spec)
    ok = (abs(f_unb.log_likelihood - (-2853.47)) <= 1.0
          and abs(f_unb.aic - 5730.94) <= 2.0
          and abs(f_nb.log_likelihood - (-2855.24)) <= 1.0
          and abs(f_nb.aic - 5734.48) <= 2.0
          and abs(f_up.log_likelihood - (-2951.33)) <= 1.0
          and abs(f_up.aic - 5924.66) <= 2.0
          and abs(f_unb.r - 0.884) <= 0.02)
    ok &= f_unb.aic < f_nb.aic < f_up.aic
    names = list(f_unb.coef_names)
    non_significant = {"MARRIED", "FAMINC", "EMPLOYED", "PRIVINS", "MEDICAID"}
    for i, name in enumerate(names):
        if name == "intercept":
            continue
        if name in non_significant:
            ok &= f_unb.p_values[i] > 0.05
        else:
            ok &= f_unb.p_values[i] <= 0.05
    report(12, f"regression footers: UNB LL {f_unb.log_likelihood:.2f} "
               f"AIC {f_unb.aic:.2f} r {f_unb.r:.3f}; NB LL "
               f"{f_nb.log_likelihood:.2f} AIC {f_nb.aic:.2f}; UP LL "
               f"{f_up.log_likelihood:.2f} AIC {f_up.aic:.2f}; significance "
               f"classification matches", ok)


def test_criterion_13_vuong_values(nmes):
    if nmes is None:
        skip_notice(13, "Vuong statistics (UNB vs NB 2.543, UNB vs UP 4.887)")
    data, _ = nmes
    spec = RegressionSpec(response=NMES_RESPONSE, covariates=NMES_COVARIATES)
    f_unb = fit_unb_regression(data, spec)
    f_nb = fit_nb_regression(data, spec)
    f_up = fit_up_regression(data, spec)
    p_unb = per_observation_pmf(f_unb, data, spec)
    v_nb = vuong_test(p_unb, per_observation_pmf(f_nb, data, spec))
    v_up = vuong_test(p_unb, per_observation_pmf(f_up, data, spec))
    ok = (abs(v_nb.z - 2.543) <= 0.15 and abs(v_up.z - 4.887) <= 0.25
          and v_nb.p_value < 0.05 and v_up.p_value < 0.001)
    report(13, f"Vuong z: vs NB {v_nb.z:.3f} (p {v_nb.p_value:.4f}), "
               f"vs UP {v_up.z:.3f} (p {v_up.p_value:.2e})", ok)


def test_criterion_14_summary_tables(nmes):
    if nmes is None:
        skip_notice(14, "gender-wise and health-status-wise summary tables")
    data, _ = nmes
    expected = {
        "MALE=1": (1778, 8, 0, 0.311, 0.554, 1.781, 0.790),
        "MALE=0": (2628, 8, 0, 0.286, 0.559, 1.956, 0.813),
        "POORHLTH=1": (554, 8, 0, 0.691, 1.389, 2.010, 0.610),
        "POORHLTH=0": (3852, 8, 0, 0.239, 0.412, 1.723, 0.832),
    }
    ok = True
    lines = []
    for col in ("MALE", "POORHLTH"):
        for g in summarize(data, NMES_RESPONSE, col):
            n, mx, mn, mean, var, disp, zero = expected[g.group_label]
            ok &= (g.n == n and g.max == mx and g.min == mn
                   and round(g.mean, 3) == mean
                   and round(g.variance, 3) == var
                   and round(g.dispersion_index, 3) == disp
                   and round(g.zero_proportion, 3) == zero)
            lines.append(f"{g.group_label}: n={g.n} mean={g.mean:.3f}")
    report(14, "summary tables reproduced at printed precision ("
               + "; ".join(lines) + ")", ok)
