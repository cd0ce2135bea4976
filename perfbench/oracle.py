"""Independent checks of every op's outputs, run outside the timed region.

UNB log-pmfs are recomputed with ``mpmath.hyp2f1`` at 30 digits; NB, UP
and geometric values with mpmath loggamma and the regularized incomplete
gamma function.  Reported log-likelihoods must agree to ``RTOL`` relative
(ROADMAP aim 1's threshold), per-observation log masses to ``RTOL``
absolute.  Each check returns a list of mismatch messages; an empty list
means the output is correct.
"""

from __future__ import annotations

import functools
import json
import math

import mpmath
import numpy as np

DPS = 30
RTOL = 1e-9
ETA_CLAMP = 700.0  # the regression's documented clamp on the linear predictor
mp = mpmath.mp


@functools.lru_cache(maxsize=4096)
def _log_binom(r: float, x: int):
    """log C(r+x-1, x) = loggamma(r+x) - loggamma(r) - loggamma(x+1); a
    regression evaluates it once per distinct count instead of per row."""
    with mp.workdps(DPS):
        r = mpmath.mpf(r)
        return mpmath.loggamma(r + x) - mpmath.loggamma(r) - mpmath.loggamma(x + 1)


def unb_logpmf(r: float, p, x: int):
    with mp.workdps(DPS):
        rm, p = mpmath.mpf(r), mpmath.mpf(p)
        q = 1 - p
        return (x * mpmath.log(q) + rm * mpmath.log(p) - mpmath.log(1 + x)
                + _log_binom(r, x)
                + mpmath.log(mpmath.hyp2f1(1, rm + x, 2 + x, q)))


def nb_logpmf(r: float, p, x: int):
    with mp.workdps(DPS):
        p = mpmath.mpf(p)
        return (_log_binom(r, x) + mpmath.mpf(r) * mpmath.log(p)
                + x * mpmath.log(1 - p))


def up_logpmf(lam: float, x: int):
    """pmf(x) = P(N >= x + 1) / lam with N ~ Poisson(lam)."""
    with mp.workdps(DPS):
        lam = mpmath.mpf(lam)
        return (mpmath.log(mpmath.gammainc(x + 1, 0, lam, regularized=True))
                - mpmath.log(lam))


def geom_logpmf(p: float, x: int):
    with mp.workdps(DPS):
        p = mpmath.mpf(p)
        return mpmath.log(p) + x * mpmath.log(1 - p)


def marginal_logpmf(model: str, est: dict):
    """x -> oracle log pmf for a fitted marginal model's estimates."""
    if model == "unb":
        return lambda x: unb_logpmf(est["r"], est["p"], x)
    if model == "nb":
        return lambda x: nb_logpmf(est["r"], est["p"], x)
    if model == "up":
        return lambda x: up_logpmf(est["lam"], x)
    if model == "geometric":
        return lambda x: geom_logpmf(est["p"], x)
    raise ValueError(f"unknown model {model!r}")


def close(reported, expected, rtol: float = RTOL, floor: float = 0.0) -> bool:
    """|reported - expected| <= rtol * max(floor, |expected|)."""
    reported, expected = float(reported), float(expected)
    return (math.isfinite(reported)
            and abs(reported - expected) <= rtol * max(floor, abs(expected)))


def _mismatch(what, reported, expected) -> str:
    return f"{what}: reported {float(reported)!r}, oracle {float(expected)!r}"


def weighted_loglik(logpmf, xs, w):
    with mp.workdps(DPS):
        return mpmath.fsum(int(wi) * logpmf(int(x)) for x, wi in zip(xs, w))


def vuong_z(lp1, lp2, w=None):
    """Vuong z from per-value log pmfs, with optional frequency weights."""
    with mp.workdps(DPS):
        w = [1] * len(lp1) if w is None else [int(v) for v in w]
        m = [a - b for a, b in zip(lp1, lp2)]
        n = sum(w)
        s1 = mpmath.fsum(wi * mi for wi, mi in zip(w, m))
        s2 = mpmath.fsum(wi * mi * mi for wi, mi in zip(w, m))
        omega = mpmath.sqrt(s2 / n - (s1 / n) ** 2)
        return s1 / (omega * mpmath.sqrt(n))


# ---------------------------------------------------------------------------
# marginal_grid


def check_marginal(sample: np.ndarray, out: dict) -> list:
    """fit_mle log-likelihood at the returned (r, p), the fitted pmf table
    for x = 0..max and the cdf at max."""
    bad = []
    xs, w = np.unique(sample, return_counts=True)
    lp = [unb_logpmf(out["r"], out["p"], x) for x in range(len(out["pmf"]))]
    ll = weighted_loglik(lambda x: lp[x], xs, w)
    if not close(out["loglik"], ll):
        bad.append(_mismatch("loglik", out["loglik"], ll))
    for x, v in enumerate(out["pmf"]):
        if not close(v, mpmath.exp(lp[x])):
            bad.append(_mismatch(f"pmf({x})", v, mpmath.exp(lp[x])))
            break
    with mp.workdps(DPS):
        cdf = mpmath.fsum(mpmath.exp(v) for v in lp)
    if not close(out["cdf"], cdf):
        bad.append(_mismatch(f"cdf({len(lp) - 1})", out["cdf"], cdf))
    return bad


# ---------------------------------------------------------------------------
# nmes_regress


def regression_logpmfs(model: str, fit: dict, covs: np.ndarray, y: np.ndarray):
    """Per-observation oracle log pmfs at a fit's coefficients."""
    design = np.column_stack([np.ones(y.size), covs])
    eta = np.clip(design @ np.asarray(fit["beta"]), -ETA_CLAMP, ETA_CLAMP)
    out = []
    with mp.workdps(DPS):
        for e, yi in zip(eta, y):
            mu = mpmath.exp(mpmath.mpf(float(e)))
            yi = int(yi)
            if model == "unb":
                r = mpmath.mpf(fit["r"])
                out.append(unb_logpmf(fit["r"], r / (2 * mu + r), yi))
            elif model == "nb":
                r = mpmath.mpf(fit["r"])
                out.append(nb_logpmf(fit["r"], r / (mu + r), yi))
            else:
                out.append(up_logpmf(2 * mu, yi))
    return out


def check_nmes(covs: np.ndarray, y: np.ndarray, out: dict) -> list:
    """Each fit's log-likelihood, each per-observation pmf and both Vuong z
    statistics, recomputed from the oracle per-observation log pmfs."""
    bad = []
    lps = {}
    for model, fit in out["fits"].items():
        lp = regression_logpmfs(model, fit, covs, y)
        lps[model] = lp
        with mp.workdps(DPS):
            ll = mpmath.fsum(lp)
        if not close(fit["loglik"], ll):
            bad.append(_mismatch(f"{model} loglik", fit["loglik"], ll))
        err = np.max(np.abs(np.log(out["pmfs"][model])
                            - np.array([float(v) for v in lp])))
        if not err <= RTOL:
            bad.append(f"{model} per-observation log pmf off by {err:.3g}")
    for other, z in out["vuong_z"].items():
        zo = vuong_z(lps["unb"], lps[other])
        if not close(z, zo, floor=1.0):
            bad.append(_mismatch(f"vuong z unb vs {other}", z, zo))
    return bad


# ---------------------------------------------------------------------------
# cli_batch


def check_summarize(text: str, y: np.ndarray, group: np.ndarray,
                    rtol: float = 1e-12) -> list:
    """Group summaries and the frequency table against numpy on the
    generated response with NA rows dropped."""
    bad = []
    doc = json.loads(text)
    keep = ~np.isnan(y)
    y, group = y[keep].astype(np.int64), group[keep]
    groups = {g["group"]: g for g in doc["groups"]}
    for v in (1, 0):
        x = y[group == v]
        g = groups.get(f"MALE={v}")
        if g is None:
            bad.append(f"group MALE={v} missing")
            continue
        mean, var = float(np.mean(x)), float(np.var(x, ddof=1))
        expect = {"n": x.size, "max": int(x.max()), "min": int(x.min()),
                  "mean": mean, "variance": var,
                  "dispersion_index": var / mean,
                  "zero_proportion": float(np.mean(x == 0))}
        for key, val in expect.items():
            if not close(g[key], val, rtol):
                bad.append(_mismatch(f"MALE={v} {key}", g[key], val))
    values, counts = np.unique(y, return_counts=True)
    freq = [(f["value"], f["count"]) for f in doc["frequencies"]]
    if freq != list(zip(values.tolist(), counts.tolist())):
        bad.append("frequency table differs from numpy")
    return bad


def check_fit(text: str, counts: np.ndarray) -> list:
    """Every model's log-likelihood at its reported estimates."""
    bad = []
    xs, w = np.unique(counts, return_counts=True)
    for rec in json.loads(text)["results"]:
        ll = weighted_loglik(marginal_logpmf(rec["model"], rec["estimates"]),
                             xs, w)
        if not close(rec["log_likelihood"], ll):
            bad.append(_mismatch(f"{rec['model']} loglik",
                                 rec["log_likelihood"], ll))
    return bad


def check_compare(text: str, counts: np.ndarray, estimates: dict) -> list:
    """Log-likelihoods and Vuong z at the estimates that ``fit`` reported
    for the same input (compare's JSON carries no estimates)."""
    bad = []
    doc = json.loads(text)
    xs, w = np.unique(counts, return_counts=True)
    lp = {}
    for rec in doc["fits"]:
        model = rec["model"]
        if model not in estimates:
            bad.append(f"no reference estimates for {model}")
            continue
        f = marginal_logpmf(model, estimates[model])
        lp[model] = [f(int(x)) for x in xs]
        ll = weighted_loglik(lambda x, d=dict(zip(xs.tolist(), lp[model])): d[x],
                             xs, w)
        if not close(rec["log_likelihood"], ll):
            bad.append(_mismatch(f"{model} loglik", rec["log_likelihood"], ll))
    for row in doc["vuong"]:
        ref, other = row["reference"], row["against"]
        if ref not in lp or other not in lp or row.get("degenerate"):
            bad.append(f"vuong {ref} vs {other} not checkable")
            continue
        zo = vuong_z(lp[ref], lp[other], w)
        if not close(row["z"], zo, floor=1.0):
            bad.append(_mismatch(f"vuong z {ref} vs {other}", row["z"], zo))
    return bad


def check_simulate(counts: np.ndarray, meta: dict, r: float, p: float,
                   n: int, seed: int) -> list:
    """Count, sign and sidecar of the simulated file, and its mean within
    six standard errors of the UNB mean r q / (2 p)."""
    bad = []
    if counts.size != n or np.any(counts < 0):
        bad.append(f"expected {n} non-negative counts, got {counts.size}")
    if (meta.get("params") != {"r": r, "p": p} or meta.get("n") != n
            or meta.get("seed") != seed):
        bad.append(f"sidecar does not match the request: {meta}")
    q = 1.0 - p
    mean = r * q / (2.0 * p)
    var = (r * q / (12.0 * p)) * (6.0 + 4.0 * q / p + r * q / p)
    if counts.size and abs(counts.mean() - mean) > 6.0 * math.sqrt(var / counts.size):
        bad.append(f"sample mean {counts.mean():.5g} far from {mean:.5g}")
    return bad
