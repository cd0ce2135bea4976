"""The uniform-negative-binomial (UNB) count distribution and comparators.

A UNB variate is drawn uniformly on {0, ..., N} with N negative binomial:
pmf(x) = q^x p^r / (1+x) * C(r+x-1, x) * 2F1(1, r+x; 2+x; q), q = 1 - p.

Equivalently pmf(x) = sum_{k>=x} nb(k)/(k+1), a sum of positive terms;
the 2F1 series is that sum scaled by its first term.  One routine,
``_unb_logpmf``, evaluates it in log space for every pmf, scalar or
vectorised.  Per x it takes the head form pmf(0) - sum_{k<x} (pmf(0) in
closed form) where that loses at most about one digit to cancellation,
and the tail sum, which cannot cancel, elsewhere (see the comment above
it).

Comparator laws (negative binomial with pmf C(r+n-1, n) p^r q^n, the
geometric, and the uniform-Poisson mixture) live here as well.  Each law
has one formula: the scalar functions and the fitting engine's families
call the same vectorised log pmfs, and the cdfs are closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sps

from .errors import DomainError
# These are unused here, but perfbench/tracing.py wraps the specfun names by
# their attribute on this module, so they stay importable.
from .specfun import confluent_1f1, gauss_2f1, series_2f1_raw  # noqa: F401

__all__ = [
    "UnbParams",
    "NbParams",
    "UpParams",
    "GeomParams",
    "unb_pmf",
    "unb_logpmf",
    "unb_pmf_vector",
    "unb_cdf",
    "unb_mean",
    "unb_variance",
    "unb_dispersion_index",
    "unb_mgf",
    "unb_pgf",
    "unb_sample",
    "up_pmf",
    "up_logpmf",
    "nb_pmf",
    "nb_logpmf",
    "nb_cdf",
    "geom_pmf",
]


@dataclass(frozen=True)
class UnbParams:
    """Shape r > 0 of the latent negative binomial and success probability p."""

    r: float
    p: float

    def __post_init__(self):
        if not (self.r > 0.0 and math.isfinite(self.r)):
            raise DomainError(f"r must be a positive finite real, got {self.r}")
        if not (0.0 < self.p < 1.0):
            raise DomainError(f"p must lie in (0, 1), got {self.p}")

    @property
    def q(self) -> float:
        return 1.0 - self.p


@dataclass(frozen=True)
class NbParams:
    r: float
    p: float

    def __post_init__(self):
        if not (self.r > 0.0 and math.isfinite(self.r)):
            raise DomainError(f"r must be a positive finite real, got {self.r}")
        if not (0.0 < self.p < 1.0):
            raise DomainError(f"p must lie in (0, 1), got {self.p}")

    @property
    def q(self) -> float:
        return 1.0 - self.p


@dataclass(frozen=True)
class UpParams:
    """Rate of the latent Poisson variable in the uniform-Poisson mixture."""

    lam: float

    def __post_init__(self):
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise DomainError(f"lam must be a positive finite real, got {self.lam}")


@dataclass(frozen=True)
class GeomParams:
    p: float

    def __post_init__(self):
        if not (0.0 < self.p < 1.0):
            raise DomainError(f"p must lie in (0, 1), got {self.p}")


def _check_count(x) -> int:
    xi = int(x)
    if xi != x or xi < 0:
        raise DomainError(f"x must be a non-negative integer, got {x}")
    return xi


def unb_logpmf(params: UnbParams, x) -> float:
    """Natural log of the UNB pmf at a non-negative integer x."""
    x = _check_count(x)
    return float(_unb_logpmf(params.r, params.p, np.array([x]))[0])


def unb_pmf(params: UnbParams, x) -> float:
    """UNB probability mass at x."""
    return math.exp(unb_logpmf(params, x))


def unb_pmf_vector(params: UnbParams, x_max) -> np.ndarray:
    """pmf values at 0..x_max."""
    x_max = _check_count(x_max)
    return np.exp(_unb_logpmf(params.r, params.p, np.arange(x_max + 1)))


def unb_cdf(params: UnbParams, x) -> float:
    """P(X <= x) = P(N <= x) + (x+1) pmf(x+1) with N the latent negative
    binomial: X <= x when N <= x, and with probability (x+1)/(N+1) when
    N > x.  Both terms are closed forms; the min trims rounding only."""
    x = _check_count(x)
    return min(nb_cdf(NbParams(params.r, params.p), x)
               + (x + 1.0) * unb_pmf(params, x + 1), 1.0)


def unb_mean(params: UnbParams) -> float:
    return 0.5 * params.r * params.q / params.p


def unb_variance(params: UnbParams) -> float:
    r, p, q = params.r, params.p, params.q
    return (r * q / (12.0 * p)) * (6.0 + 4.0 * q / p + r * q / p)


def unb_dispersion_index(params: UnbParams) -> float:
    r, p, q = params.r, params.p, params.q
    return 1.0 + 4.0 * q / (6.0 * p) + r * q / (6.0 * p)


def unb_mgf(params: UnbParams, t: float) -> float:
    """Moment generating function E[e^(tX)] = unb_pgf(e^t), defined for
    t < -log q.  The printed source formula carries a spurious e^(-t) factor
    and fails M(0) = 1, so the closed form is re-derived from the mixture
    and pinned by the moment tests."""
    if not t < -math.log(params.q):
        raise DomainError(f"mgf requires t < -log(q) = {-math.log(params.q)}, got {t}")
    return unb_pgf(params, math.exp(t))


def unb_pgf(params: UnbParams, s: float) -> float:
    """Probability generating function E[s^X] for |s| < 1/q, in closed form
    exprel((1 - r) L) L / z with z = q (1 - s) / p and L = log(1 + z): the
    mixture's p^r [g(p) - g(1 - q s)] / (q (s - 1)), g(u) = (1 - u^(1-r)) /
    (r - 1), with 1 - q s = p (1 + z).  It is continuous through s = 1,
    where L / z = 1, and through r = 1."""
    r, p, q = params.r, params.p, params.q
    if not abs(s) < 1.0 / q:
        raise DomainError(f"pgf requires |s| < 1/q = {1.0 / q}, got {s}")
    z = q * (1.0 - s) / p
    log_z1 = math.log1p(z)
    return float(_sps.exprel((1.0 - r) * log_z1)) * (log_z1 / z if z else 1.0)


def unb_sample(params: UnbParams, n: int, seed: int) -> np.ndarray:
    """Draw n variates: N from the negative binomial via its gamma-Poisson
    mixture (exact for non-integer r), then X uniform on {0, ..., N}."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    r, p, q = params.r, params.p, params.q
    lam = rng.gamma(shape=r, scale=q / p, size=n)
    latent = rng.poisson(lam)
    return rng.integers(0, latent + 1)


def _up_logpmf(lam, x):
    """Uniform-Poisson log pmf at the counts x, elementwise, from the
    Poisson survival identity pmf(x) = P(N > x) / lam with N ~ Poisson(lam),
    -inf where P(N > x) underflows; also P(N > x)."""
    surv = _sps.gammainc(x + 1.0, lam)
    with np.errstate(divide="ignore"):
        return np.log(surv) - np.log(lam), surv


def up_logpmf(params: UpParams, x) -> float:
    """log pmf of the uniform-Poisson law."""
    return float(_up_logpmf(params.lam, _check_count(x))[0])


def up_pmf(params: UpParams, x) -> float:
    """Uniform-Poisson pmf P(N > x) / lam, equal to the source's
    lam^x e^(-lam)/(x+1)! 1F1(1; x+2; lam) without its overflow."""
    return math.exp(up_logpmf(params, x))


def _nb_logpmf(r: float, p, x, q=None):
    """Negative binomial log pmf log[C(r+x-1, x) p^r q^x] at the counts x,
    elementwise; ``q`` is 1 - p where the caller has it to more digits."""
    q = 1.0 - p if q is None else q
    return (_sps.gammaln(r + x) - math.lgamma(r) - _sps.gammaln(x + 1.0)
            + r * np.log(p) + x * np.log(q))


def nb_logpmf(params: NbParams, x) -> float:
    return float(_nb_logpmf(params.r, params.p, _check_count(x)))


def nb_pmf(params: NbParams, x) -> float:
    return math.exp(nb_logpmf(params, x))


def nb_cdf(params: NbParams, x) -> float:
    """P(N <= x) = I_p(r, x+1), the regularised incomplete beta function."""
    return float(_sps.betainc(params.r, _check_count(x) + 1.0, params.p))


def geom_pmf(params: GeomParams, x) -> float:
    x = _check_count(x)
    return params.p * (1.0 - params.p) ** x


# ---------------------------------------------------------------------------
# One exact log-pmf.  With t_k = nb(k)/(k+1), pmf(x) = sum_{k>=x} t_k is a
# sum of positive terms, and pmf(0) = sum_k t_k has a closed form.  Each x
# takes one of two forms, chosen in _unb_logpmf:
#   head  pmf(0) - sum_{k<x} t_k: x terms, but it cancels as pmf(x) falls
#         below pmf(0), so it is taken only while pmf(x) >= pmf(0)/_HEAD_LOSS;
#         the per-row pass stops a row's head sum once it passes
#         1 - 1/_HEAD_LOSS of pmf(0), so a large x far in the tail costs a
#         few head terms, not x;
#   tail  sum_{k>=x} t_k: it cannot cancel, and runs past x until a
#         geometric estimate of the rest is below _TAIL_TOL of the sum.
# The derivatives come from the same sums: d log t_k / d logit p = r q - p k,
# d log t_k / dr = log p + H_k at fixed p, H_k = psi(r+k) - psi(r) >= 0 and
# H'_k = dH_k/dr <= 0, so with E, Var, Cov over the weights t_k on k >= x,
#   d/d logit p = r q - p m (m = E[k]),    d/dr = log p + E[H],
#   d2/d logit p^2 = -p q (r + m) + p^2 Var(k),
#   d2/d logit p dr = q - p Cov(k, H),     d2/dr^2 = E[H'] + Var(H),
# from the sums of t_k times 1, j, j^2, G, j G and G^2 + G' (j = k - c,
# G = H_k - H_c, G' = H'_k - H'_c, all >= 0) about a centre c: 0 in the
# head, with the full sums in closed form, and x in the tail, where a
# variance far below m^2 (q near 0) then keeps its digits.
# Of log t_k = r log p + k log q + log C(r+k-1, k) - log(k+1), and of the
# weights, only r log p and k log q depend on the row; the rest, with
# psi(r+k) and psi'(r+k), depends on k and on r, which a pass shares.  A
# pass reads it from one table over k (_KTable), built to max(x) and grown
# in place as tail blocks run past its end, so that the per-row pass takes
# the special functions once per k, not once per (row, k).  Each row's head
# adds its terms in order of k, as the scalar-p pass's cumulative sum does,
# so both passes give the same head sums.

PMF_FLOOR = 1e-300
_LOG_FLOOR = math.log(PMF_FLOOR)
# The head form loses up to log10(_HEAD_LOSS) digits; with 1024 that noise
# stalled the optimiser of some marginal fits.
_HEAD_LOSS = 16.0
_TAIL_TOL = 1e-17
# The head form takes sum_k k t_k = 1 - pmf(0) from pmf(0)'s closed form,
# whose rounding is a fixed ~1e-15 of 1: where 1 - pmf(0) < 2^-10 (q near
# 0, as at the low end of the regression's clamp) every x takes the tail
# sum, or the p-derivative at x = 0 loses its digits.
_LOG_PMF0_MAX = math.log1p(-2.0 ** -10)
_TAIL_MAX = 2 ** 20   # tail terms past x; bounds the work at the box corners
_BLOCK_MAX = 2 ** 16  # tail terms held at once, over all rows


def _log_factors(r, k):
    """log t_k - r log p - k log q = log C(r+k-1, k) - log(k+1) =
    lgamma(r+k) - lgamma(r) - lgamma(k+2), elementwise: every pass adds
    r log p + k log q to these, in that order, so that each log t_k is the
    same float on every route."""
    return _sps.gammaln(r + k) - math.lgamma(r) - _sps.gammaln(k + 2.0)


class _KTable:
    """The factors of t_k and of its weights that depend on k and r alone,
    for one r over k = 0, 1, ...: ``lg`` = log t_k - r log p - k log q and,
    with ``grad``, ``psi`` = psi(r+k) and ``tri`` = psi'(r+k), entry k at
    index k; ``upto(n)`` appends the k < n it does not yet hold, computed
    _BLOCK_MAX at a time into the columns grown in place, so that the table
    takes about three doubles a k (24 MB for the 10^6 entries a regression
    with a count of 10^6 needs) and a grow copies none of them."""

    def __init__(self, r, grad):
        self.r, self.grad = r, grad
        self.lg, self.psi, self.tri = np.empty(0), np.empty(0), np.empty(0)

    def upto(self, n):
        size = self.lg.size
        if n > size:
            # realloc in place, without a copy of the columns: every reader
            # indexes them afresh, so no view of one outlives a grow
            for a in (self.lg, self.psi, self.tri) if self.grad else (self.lg,):
                a.resize(n, refcheck=False)
            for a in range(size, n, _BLOCK_MAX):
                k = np.arange(a, min(a + _BLOCK_MAX, n), dtype=float)
                self.lg[a:a + k.size] = _log_factors(self.r, k)
                if self.grad:
                    self.psi[a:a + k.size] = _sps.digamma(self.r + k)
                    self.tri[a:a + k.size] = _trigamma(self.r + k)
        return self

    def weights(self, i, c):
        """1, j, j^2, G, j G and G^2 + G' (above) at the entries i about the
        entry c, j = i - c, stacked on a new first axis."""
        j = (i - c).astype(float)
        w = np.empty((6,) + j.shape)
        w[0], w[1] = 1.0, j
        np.multiply(j, j, out=w[2])
        g = np.subtract(self.psi[i], self.psi[c], out=w[3])
        np.multiply(j, g, out=w[4])
        np.maximum(g * g + self.tri[i] - self.tri[c], 0.0, out=w[5])
        return w


def _trigamma(x):
    """psi'(x) for x > 0, elementwise, within 1e-15 relative: sum_{j<10}
    1/(x+j)^2 plus the asymptotic series at x + 10.  scipy's zeta(2, x)
    takes six times as long, and took most of a regression's kernel pass."""
    x = np.asarray(x, dtype=float)
    z = x + 10.0
    w = 1.0 / (z * z)
    series = 1.0 / 6.0 - w * (1 / 30 - w * (1 / 42 - w * (1 / 30 - w * (
        5 / 66 - w * (691 / 2730 - w * 7 / 6)))))
    return sum(1.0 / (x + j) ** 2 for j in range(10)) + (1.0 + (0.5 + series / z) / z) / z


def _log_pmf0(r, lp, lq):
    """log pmf(0) = log[(p - p^r) / (q (r-1))], the r = 1 limit -p log(p)/q."""
    if r == 1.0:
        return lp + np.log(-lp) - lq
    a = (r - 1.0) * lp  # log|expm1(a)| without overflow for large a > 0
    return (lp - lq + np.maximum(a, 0.0) + np.log(-np.expm1(-np.abs(a)))
            - math.log(abs(r - 1.0)))


def _dlog_pmf0_dr(r, lp):
    """d log pmf(0)/dr = log p (v/(1 - e^-v) - 1)/v and d2 log pmf(0)/dr^2 =
    log p^2 (1/v^2 - 1/(4 sinh(v/2)^2)), v = (r-1) log p; series below 0.1."""
    v = np.asarray((r - 1.0) * lp, dtype=float)
    w = v * v
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return (np.where(np.abs(v) < 0.1, lp * (0.5 + v * (1 / 12 - w * (
                    1 / 720 - w * (1 / 30240 - w / 1209600)))),
                         (-v / np.expm1(-v) - 1.0) / (r - 1.0)),
                np.where(np.abs(v) < 0.1, lp * lp * (1 / 12 - w * (
                    1 / 240 - w * (1 / 6048 - w / 172800))),
                         lp * lp * (1.0 / w - 0.25 / np.sinh(0.5 * v) ** 2)))


def _head_rows(r, lp, lq, lpmf0, x, table, grad):
    """sum_{k<x} t_k / pmf(0) row by row, from the _KTable ``table`` of r;
    with ``grad`` the sums of t_k times each weight about 0.  One loop over
    k adds the term k of each live row, the weights formed once per
    _BLOCK_MAX block of k.  A row leaves at k = x, or once its sum passes
    1 - 1/_HEAD_LOSS: the terms are positive, so it then takes the tail
    form and the rest of its head is never read."""
    acc = np.zeros((6 if grad else 1, x.size))
    rlp = r * lp
    live = np.flatnonzero(x)
    k = 0
    while live.size:
        if grad and k % _BLOCK_MAX == 0:
            w = table.weights(np.arange(k, min(k + _BLOCK_MAX, int(x[live].max()))), 0)[1:]
        t = np.exp(rlp[live] + k * lq[live] + table.lg[k] - lpmf0[live])
        acc[0, live] += t
        if grad:
            acc[1:, live] += w[:, k % _BLOCK_MAX, None] * t
        k += 1
        live = live[(x[live] > k) & (acc[0, live] <= 1.0 - 1.0 / _HEAD_LOSS)]
    return acc


def _tail_rows(r, lp, lq, x, grad, table):
    """log sum_{k>=x} t_k row by row; with ``grad`` the logs of the sums of
    t_k times each weight about x.  The k-factors come from the _KTable
    ``table`` of r, which grows as the blocks run past its end.

    Blocks of terms grow until the rest past the last term K, estimated as
    t_K rho/(1 - rho) with rho = t_{K+1}/t_K < 1, is below _TAIL_TOL of the
    sum; the estimate, weighted as t_K is, is then added.  It is exact for
    geometric tails, and half the true rest for the k^-2 tails of r << 1,
    p -> 0 that _TAIL_MAX cuts.
    """
    acc = np.full((6 if grad else 1, x.size), -np.inf)
    centre = x.astype(np.intp)
    start = centre.copy()
    live = np.arange(x.size)
    width = max(32, 1024 // x.size)
    while live.size:
        k = start[live, None] + np.arange(width)
        start[live] += width
        table.upto(int(k[:, -1].max()) + 1)
        lt = r * lp[live, None] + k * lq[live, None] + table.lg[k]
        top = lt.max(axis=1)
        t = np.exp(lt - top[:, None])
        last = k[:, -1]
        rho = np.exp(lq[live]) * (r + last) / (last + 2.0)
        falling = rho < 1.0
        if grad:
            w = table.weights(k, centre[live, None])
            sums, w_last = np.einsum("wik,ik->wi", w, t), w[:, :, -1]
        else:
            sums, w_last = t.sum(axis=1)[None], np.ones((1, live.size))
        with np.errstate(divide="ignore", invalid="ignore"):
            acc[:, live] = np.logaddexp(acc[:, live], top + np.log(sums))
            rest = np.log(w_last) + np.where(
                falling, lt[:, -1] + np.log(rho / (1.0 - rho)), -np.inf)
        done = (falling & (rest[0] <= acc[0, live] + math.log(_TAIL_TOL))) | (
            start[live] - centre[live] >= _TAIL_MAX)
        end = live[done]
        acc[:, end] = np.logaddexp(acc[:, end], rest[:, done])
        live = live[~done]
        width = min(2 * width, max(32, _BLOCK_MAX // max(live.size, 1)))
    return acc


def _rev_acc(inc, seed):
    """log of the sums seed + sum_{i'>=i} inc_i', from the logs."""
    return np.logaddexp.accumulate(np.append(inc, seed)[::-1])[::-1]


def _shared_tail(r, lt, k, seed, grad):
    """The logs of the tail sums about each x = k[0] .. k[-1] + 1, from the
    log terms lt at k and the sums ``seed`` about k[-1] + 1.  With S = sum t,
    c = 1/(r+x) and y = x+1: S(x) = S(y) + t_x, A_j(x) = A_j(y) + S(y),
    A_G(x) = A_G(y) + c S(y), A_jj(x) = A_jj(y) + 2 A_j(y) + S(y),
    A_jG(x) = A_jG(y) + c (A_j(y) + S(y)) + A_G(y), A_GG(x) = A_GG(y) +
    2 c A_G(y): three levels of reverse log-cumsums of positive terms."""
    ls = _rev_acc(lt, seed[0])
    if not grad:
        return ls[None]
    lc = -np.log(r + k)
    lj = _rev_acc(ls[1:], seed[1])
    lg = _rev_acc(lc + ls[1:], seed[3])
    ljj = _rev_acc(np.logaddexp(lj[1:] + math.log(2.0), ls[1:]), seed[2])
    ljg = _rev_acc(np.logaddexp(lc + np.logaddexp(lj[1:], ls[1:]), lg[1:]), seed[4])
    lgg = _rev_acc(lc + lg[1:] + math.log(2.0), seed[5])
    return np.array([ls, lj, ljj, lg, ljg, lgg])


def _unb_logpmf(r: float, p, x, grad: bool = False, q=None):
    """Exact log pmf of UNB(r, p) at the counts x; with ``grad`` also (d/d
    logit p, d/dr, d2/d logit p^2, d2/d logit p dr, d2/dr^2), r-derivatives
    at fixed p.  Logit p keeps them finite where r/p - m/q overflows
    (q < m/1.8e308).  Never -inf for 0 < p < 1.  ``q`` is 1 - p where the
    caller has it to more digits (the log-link families take both from the
    mean; p rounds to 1 once q < 1.1e-16).

    A p with one value, scalar or an array whose entries are all equal,
    shares one pass over k = 0..max(x) between all x; other array p are
    broadcast against x and summed row by row.  Either way the k-factors of
    the terms and weights, and the centre terms psi(r+c) and psi'(r+c),
    come from one _KTable of r (above).  Against mpmath the log pmf
    is within 2e-12 for r in [0.2, 50], p in [0.01, 0.95], x <= 1000, and
    within 1e-10 at the fits' box corners (log r = +-8, logit p = +-35,
    the regression's p = r/(2 e^700 + r), x <= 10^4) except at r = e^-8
    with p near 0: that k^-2 tail is cut after _TAIL_MAX terms, 4.5e-7 off
    at x = 1 and 4.5e-3 at x = 10^4, in under 0.2 s.
    """
    x = np.asarray(x, dtype=float)
    if np.ndim(p):
        p = np.asarray(p, dtype=float)
        q = 1.0 - p if q is None else np.asarray(q, dtype=float)
        if p.size and (p == p.flat[0]).all() and (q == q.flat[0]).all():
            if x.shape != p.shape:
                x = np.broadcast_to(x, np.broadcast_shapes(p.shape, x.shape))
            p, q = p.flat[0], q.flat[0]
    # log p keeps its relative digits (log(-log p) in _log_pmf0) from the
    # smaller of p and q; log q enters only in sums, where absolute ones do.
    if np.ndim(p) == 0:
        p = float(p)
        q = 1.0 - p if q is None else float(q)
        shape = x.shape
        x = x.ravel()
        lp, lq = math.log1p(-q) if q < p else math.log(p), math.log(q)
        lpmf0 = _log_pmf0(r, lp, lq)
        table = _KTable(r, grad).upto(int(np.max(x, initial=0.0)) + 1)
        k = np.arange(table.lg.size, dtype=float)
        lt = r * lp + k * lq + table.lg
        if grad:
            weights = table.weights(np.arange(k.size), 0)
        else:
            weights = np.ones((1, k.size))
        t = np.exp(lt[:-1] - lpmf0)
        xi = x.astype(np.intp)
        head = np.append(np.zeros((len(weights), 1)),
                         np.cumsum(weights[:, :-1] * t, axis=1), axis=1)[:, xi]
    else:
        p, q, x = np.broadcast_arrays(p, q, x)
        shape = x.shape
        p, q, x = p.ravel(), q.ravel(), x.ravel()
        with np.errstate(divide="ignore"):
            lp = np.where(q < p, np.log1p(-q), np.log(p))
        lq = np.log(q)
        lpmf0 = _log_pmf0(r, lp, lq)
        table = _KTable(r, grad).upto(int(np.max(x, initial=0.0)) + 1)
        head = _head_rows(r, lp, lq, lpmf0, x, table, grad)
    tail = (head[0] > 1.0 - 1.0 / _HEAD_LOSS) | (lpmf0 > _LOG_PMF0_MAX)
    h = np.where(tail, 0.0, head[0])
    ls = lpmf0 + np.log1p(-h)
    if grad:  # the means about 0 in the head, from the sums over all k,
        # sum k t = 1 - pmf(0), sum k^2 t = E[N] - 1 + pmf(0), and sum H t,
        # sum k H t, sum (H^2 + H') t from pmf(0)'s r-derivatives d1, d2
        d1, d2 = _dlog_pmf0_dr(r, lp)
        f1 = np.expm1(-lpmf0)  # over pmf(0), as head is
        with np.errstate(over="ignore"):  # E[N] past 1.8e308 at p near 0
            f2 = r * np.exp(lq - lp - lpmf0) - f1
        total = np.array([f1, f2, d1 - lp, -d1 - lp * f1, d2 + (d1 - lp) ** 2])
        means = (total.reshape(5, -1) - head[1:]) / (1.0 - h)
        centre = np.zeros_like(ls)
    if np.any(tail):
        if np.ndim(lp) == 0:
            xt = xi[tail]
            lo, hi = int(xt.min()), int(xt.max())
            seed = _tail_rows(r, np.array([lp]), np.array([lq]), np.array([float(hi)]), grad,
                              table)
            sums = _shared_tail(r, lt[lo:hi], k[lo:hi], seed[:, 0], grad)[:, xt - lo]
        else:
            sums = _tail_rows(r, lp[tail], lq[tail], x[tail], grad, table)
        ls[tail] = sums[0]
        if grad:  # and about x in the tail
            means[:, tail] = np.exp(sums[1:] - sums[0])
            centre[tail] = x[tail]
    if not grad:
        return ls.reshape(shape)
    e_j, e_jj, e_g, e_jg, e_gg = means
    m = centre + e_j
    c = centre.astype(np.intp)  # table entries <= max(x): 0 or x
    d_r = lp + table.psi[c] - table.psi[0] + e_g  # H_centre + E[G]
    d_logit = r * q - p * m
    with np.errstate(over="ignore", invalid="ignore"):  # nan where E[N] overflows
        d_ll = -p * q * (r + m) + p * p * (e_jj - e_j * e_j)
    d_lr = q - p * (e_jg - e_j * e_g)
    d_rr = table.tri[c] - table.tri[0] + e_gg - e_g * e_g
    return tuple(v.reshape(shape) for v in (ls, d_logit, d_r, d_ll, d_lr, d_rr))


def unb_logpmf_kernel(r: float, p, x, q=None, grad: bool = False):
    """Vectorised log pmf, floored at log(PMF_FLOOR) so that every entry
    stays finite at the fits' trial points; returns (log pmf array,
    number of floored entries), which callers report, and with ``grad``
    also the unfloored log pmf's first and second derivatives in logit p
    and in r at fixed p, in _unb_logpmf's order.  ``q`` as in _unb_logpmf.
    perfbench/tracing.py wraps this name and reads the floored count as
    the second entry, so that stays as it is."""
    out = _unb_logpmf(r, p, x, grad=grad, q=q)
    lp = out[0] if grad else out
    floored = (np.maximum(lp, _LOG_FLOOR), int(np.count_nonzero(lp < _LOG_FLOOR)))
    return floored + out[1:] if grad else floored


def unb_dlogpmf_dp_kernel(r: float, p, x, q=None):
    """Vectorised d log pmf / dp, the logit-p derivative over p q."""
    p = np.asarray(p, dtype=float)
    q = 1.0 - p if q is None else q
    return _unb_logpmf(r, p, x, grad=True, q=q)[1] / (p * q)
