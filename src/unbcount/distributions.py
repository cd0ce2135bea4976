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

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _special as _sps
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
class _RpParams:
    """The (r, p) of a law built on the negative binomial: r > 0, p in (0, 1)."""

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
class UnbParams(_RpParams):
    """Shape r > 0 of the latent negative binomial and success probability p."""


@dataclass(frozen=True)
class NbParams(_RpParams):
    """Shape r > 0 and success probability p of the negative binomial."""


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
    """Natural log of the UNB pmf at a non-negative integer x.

    The value is read from one shared-p pass over the 64 counts of x's
    block [64 (x // 64), 64 (x // 64) + 64), which a bounded per-process
    cache keeps for the last 32 (r, p, block) keys: a loop over x at one
    (r, p) runs one pass per 64 counts.  The block depends on x alone, so a
    value never depends on the calls made before it.  Head-form values are
    bitwise those of a pass at x alone; tail-form values come from the
    block's reverse sums, within ~1e-15 relative of it.  A miss costs about
    what a tail-form pass at one x does, a hit a few microseconds."""
    block, i = divmod(_check_count(x), _SCALAR_BLOCK)
    return float(_logpmf_block(params.r, params.p, block)[i])


_SCALAR_BLOCK = 64


@functools.lru_cache(maxsize=32)
def _logpmf_block(r: float, p: float, block: int) -> np.ndarray:
    """log pmf of UNB(r, p) at the counts of ``block`` (see unb_logpmf),
    read-only: the cache hands the same array to every caller."""
    out = _unb_logpmf(r, p, np.arange(block * _SCALAR_BLOCK, (block + 1) * _SCALAR_BLOCK))
    out.flags.writeable = False
    return out


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
    -inf where P(N > x) underflows; also P(N > x) and _up_zero_series's
    result.  P(N > 0) is -expm1(-lam) in closed form, so gammainc runs on
    the counts >= 1 alone; the log pmf at 0 below lam = _UP_SERIES is its
    series."""
    lam, x = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(x, dtype=float))
    shape, lam, x = lam.shape, lam.ravel(), x.ravel()
    surv = np.expm1(-lam)
    np.negative(surv, out=surv)
    pos = np.flatnonzero(x)
    if pos.size:
        surv[pos] = _sps.gammainc(x[pos] + 1.0, lam[pos])
    with np.errstate(divide="ignore"):
        lp = np.log(surv) - np.log(lam)
    series = _up_zero_series(lam, x)
    if series is not None:
        lp[series[0]] = series[1]
    return lp.reshape(shape), surv.reshape(shape), series


# The rate below which log pmf(0) and its eta-derivatives take their series.
_UP_SERIES = 0.01


def _up_zero_series(lam, x):
    """None, or where x = 0 and lam < _UP_SERIES (1-d lam, x),
    those places and, there, log pmf(0) = log((1 - e^-lam)/lam) = -h +
    log(sinh(h)/h), h = lam/2, with its first two derivatives in eta = log
    lam + const, h coth h - 1 - h and h times its h-derivative, from their
    series to h^6 (h^8 is below 1e-19 of h).  The closed forms cancel to
    about 1e-16/h relative there: log pmf(0) reads 0 at lam = 1e-17."""
    small = lam < _UP_SERIES
    if not small.any():
        return None
    at = np.flatnonzero(small & (x == 0.0))
    h = 0.5 * lam[at]
    w = h * h
    return (at, -h + w * (1 / 6 - w * (1 / 180 - w / 2835)),
            -h + w * (1 / 3 - w * (1 / 45 - w * 2 / 945)),
            -h + w * (2 / 3 - w * (4 / 45 - w * 4 / 315)))


def up_logpmf(params: UpParams, x) -> float:
    """log pmf of the uniform-Poisson law."""
    return float(_up_logpmf(params.lam, _check_count(x))[0])


def up_pmf(params: UpParams, x) -> float:
    """Uniform-Poisson pmf P(N > x) / lam, equal to the source's
    lam^x e^(-lam)/(x+1)! 1F1(1; x+2; lam) without its overflow."""
    return math.exp(up_logpmf(params, x))


def _nb_log_binom(r: float, x):
    """log C(r+x-1, x) at the counts x, elementwise."""
    return _sps.gammaln(r + x) - math.lgamma(r) - _sps.gammaln(x + 1.0)


def _nb_logpmf(r: float, p, x, q=None, out=None):
    """Negative binomial log pmf log[C(r+x-1, x) p^r q^x] at the counts x,
    elementwise; ``q`` is 1 - p where the caller has it to more digits.
    Where the caller has _nb_log_binom(r, x) as an array, ``out``, the log
    pmf is written over it."""
    q = 1.0 - p if q is None else q
    lp = _nb_log_binom(r, x) if out is None else out
    lp += r * np.log(p)
    lp += x * np.log(q)
    return lp


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
#         few head terms, not x, and the scalar-p pass forms its weighted
#         head sums only up to that k;
#   tail  sum_{k>=x} t_k: it cannot cancel, and runs past x until a
#         geometric estimate of the rest is below _TAIL_TOL of the sum;
#         each row first takes the terms its own decay bound asks for
#         (_first_width), scaled by its largest term and reduced as one
#         segment, whatever the other rows of its block (_tail_rows).
# The derivatives come from the same sums: d log t_k / d logit p = r q - p k,
# d log t_k / dr = log p + H_k at fixed p, H_k = psi(r+k) - psi(r) >= 0 and
# H'_k = dH_k/dr <= 0, so with E, Var, Cov over the weights t_k on k >= x,
#   d/d logit p = r q - p m (m = E[k]),    d/dr = log p + E[H],
#   d2/d logit p^2 = -p q (r + m) + p^2 Var(k),
#   d2/d logit p dr = q - p Cov(k, H),     d2/dr^2 = E[H'] + Var(H),
# from the sums of t_k times 1, j, G, j^2, j G and G^2 + G' (j = k - c,
# G = H_k - H_c, G' = H'_k - H'_c, all >= 0) about a centre c: 0 in the
# head, with the full sums in closed form, and x in the tail, where a
# variance far below m^2 (q near 0) then keeps its digits.
# Of log t_k = r log p + k log q + log C(r+k-1, k) - log(k+1), and of the
# weights, only r log p and k log q depend on the row; the rest, with
# psi(r+k) and psi'(r+k), depends on k and on r, which a pass shares.  A
# pass reads it from one table over k (_KTable), so that the per-row pass
# takes the special functions once per k, not once per (row, k).  The
# scalar-p pass sizes its table once, with the first tail block at max(x),
# the seed, which holds that sum where the decay bound fits it in one
# block, and reads the head, the seed and the tails below it from it in
# whole-array calls; the per-row pass builds its table to max(x) and grows
# it in place as tail blocks run past its end.  A table entry is the same
# float however the table grew.  Each row's head adds its terms in order of
# k, as the scalar-p pass's cumulative sum does, and a row's tail is summed
# as the seed at its (p, x) is, so both passes give the same head sums and
# the same tail sum at max(x).

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
_SEED_MAX = 1024      # terms of the first tail block of one row (_first_width)
_CHUNK = 32           # k-table entries whose psi' share one recurrence (_KTable)
_CHUNK_DOWN = np.arange(_CHUNK + 9, -1, -1.0)


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
    index k; ``upto(n)`` appends the whole _CHUNKs of k that hold the k < n
    it does not yet hold, computed _BLOCK_MAX at a time into the columns
    grown in place, so that the table takes about three doubles a k (24 MB
    for the 10^6 entries a regression with a count of 10^6 needs) and a
    grow copies none of them.  A chunk's psi' runs down from
    _trigamma_series past its end by psi'(z) = psi'(z+1) + 1/z^2 (DLMF
    5.15.5), one cumulative sum from the smallest term up, within 1e-15
    relative of zeta(2, r+k).  So every entry is the same float however the
    table grew, and passes whose tables grew differently sum the same
    weights."""

    def __init__(self, r, grad):
        self.r, self.grad = r, grad
        self.lg, self.psi, self.tri = np.empty(0), np.empty(0), np.empty(0)

    def upto(self, n):
        size = self.lg.size
        if n > size:
            n = -(-n // _CHUNK) * _CHUNK
            # realloc in place, without a copy of the columns: every reader
            # indexes them afresh, so no view of one outlives a grow
            for a in (self.lg, self.psi, self.tri) if self.grad else (self.lg,):
                a.resize(n, refcheck=False)
            step = _BLOCK_MAX // _CHUNK * _CHUNK  # whole chunks, whatever _BLOCK_MAX is
            for a in range(size, n, step):
                b = min(a + step, n)
                k = np.arange(a, b, dtype=float)
                self.lg[a:b] = _log_factors(self.r, k)
                if self.grad:
                    self.psi[a:b] = _sps.digamma(self.r + k)
                    # per chunk from s: r+s+_CHUNK+9 down to r+s
                    z = (self.r + k[::_CHUNK])[:, None] + _CHUNK_DOWN
                    self.tri[a:b] = (np.cumsum(1.0 / (z * z), axis=1)
                                     + _trigamma_series(z[:, :1] + 1.0))[:, :9:-1].ravel()
        return self

    def weights(self, i, c):
        """1, j, G, j^2, j G and G^2 + G' (above) at the entries i about the
        entry c, j = i - c, stacked on a new first axis."""
        j = (i - c).astype(float)
        w = np.empty((6,) + j.shape)
        w[0], w[1] = 1.0, j
        g = np.subtract(self.psi[i], self.psi[c], out=w[2])
        np.multiply(j, j, out=w[3])
        np.multiply(j, g, out=w[4])
        np.maximum(g * g + self.tri[i] - self.tri[c], 0.0, out=w[5])
        return w


def _trigamma_series(z):
    """psi'(z) from its asymptotic series 1/z + 1/(2 z^2) + sum B_2k / z^(2k+1)
    to k = 7, within 1e-16 relative for z >= 10."""
    w = 1.0 / (z * z)
    series = 1.0 / 6.0 - w * (1 / 30 - w * (1 / 42 - w * (1 / 30 - w * (
        5 / 66 - w * (691 / 2730 - w * 7 / 6)))))
    return (1.0 + (0.5 + series / z) / z) / z


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
    v = np.float64((r - 1.0) * lp)  # numpy division: inf, not an exception, at v = 0
    w, small = v * v, np.abs(v) < 0.1
    return (np.where(small, lp * (0.5 + v * (1 / 12 - w * (
                1 / 720 - w * (1 / 30240 - w / 1209600)))),
                     (-v / np.expm1(-v) - 1.0) / (r - 1.0)),
            np.where(small, lp * lp * (1 / 12 - w * (
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

    Each row sums its own terms: it first takes _first_width of them, then
    blocks of twice its last, until the rest past its last term is below
    _TAIL_TOL of its sum; its estimate is then added.  One ragged block
    (_tail_block) holds the next terms of as many live rows, in order, as
    fit in _BLOCK_MAX terms (at least one row); the others wait for the
    next.
    """
    acc = np.full((6 if grad else 1, x.size), -np.inf)
    centre = x.astype(np.intp)
    start = centre.copy()
    width = _first_width(r, lq, x)
    live = np.arange(x.size)
    while live.size:
        fit = int(np.searchsorted(np.cumsum(width[live]), _BLOCK_MAX, side="right"))
        rows, live = live[:max(fit, 1)], live[max(fit, 1):]
        n, first, c = width[rows], start[rows], centre[rows]
        seg = np.zeros(rows.size, dtype=np.intp)
        np.cumsum(n[:-1], out=seg[1:])
        k = np.arange(seg[-1] + n[-1]) + np.repeat(first - seg, n)
        start[rows] += n
        table.upto(int(start[rows].max()))
        lt = np.repeat(r * lp[rows], n) + k * np.repeat(lq[rows], n) + table.lg[k]
        block, rest, falling = _tail_block(r, lq[rows], lt, k, seg, n, c, table, grad)
        block = np.logaddexp(acc[:, rows], block)
        done = (falling & (rest[0] <= block[0] + math.log(_TAIL_TOL))) | (
            first + n - c >= _TAIL_MAX)
        block[:, done] = np.logaddexp(block[:, done], rest[:, done])
        acc[:, rows] = block
        width[rows] = np.minimum(2 * n, _BLOCK_MAX)
        live = np.concatenate((live, rows[~done]))
    return acc


def _tail_block(r, lq, lt, k, seg, n, centre, table, grad):
    """One ragged block of tail terms, logs ``lt`` at the entries ``k``: row
    i's are the n[i] from seg[i], in increasing k, a segment that one
    reduction sums alone.  Per row, the logs of its sums of t_k times each
    weight about its centre, scaled by its largest term; of the rest past
    its last term K, t_K rho/(1 - rho) with rho = t_{K+1}/t_K, weighted as
    t_K is (-inf unless rho < 1); and rho < 1.  The estimate is exact for
    geometric tails, and half the true rest for the k^-2 tails of r << 1,
    p -> 0 that _TAIL_MAX cuts."""
    top = np.maximum.reduceat(lt, seg)
    t = np.exp(lt - np.repeat(top, n))
    last = seg + n - 1
    kl = k[last]
    rho = np.exp(lq) * (r + kl) / (kl + 2.0)
    falling = rho < 1.0
    if grad:
        w = table.weights(k, np.repeat(centre, n))
        lw_last = np.log(w[:, last])
        sums = np.add.reduceat(np.multiply(w, t, out=w), seg, axis=1)
    else:
        sums, lw_last = np.add.reduceat(t, seg)[None], np.zeros((1, 1))
    return top + np.log(sums), lw_last + np.where(
        falling, lt[last] + np.log(rho / (1.0 - rho)), -np.inf), falling


def _first_width(r, lq, x):
    """The first tail block of each row at x: the terms its decay bound asks
    for.  Every ratio q (r+k)/(k+2) at k >= x moves monotonically towards
    q, so it is at most rho = q max(1, (r+x)/(x+2)), and the rest past n
    terms of a row is below rho^n / (1 - rho) of its first term: under
    _TAIL_TOL of the sum once n >= log(_TAIL_TOL (1 - rho)) / log rho, two
    terms added for rounding.  A row whose terms do not fall (rho >= 1, log
    rho taken as -1e-300 there), or whose bound is over _SEED_MAX, takes
    max(32, _SEED_MAX // rows)."""
    lrho = np.minimum(lq + np.log(np.maximum(1.0, (r + x) / (x + 2.0))), -1e-300)
    need = np.ceil(np.log(_TAIL_TOL * -np.expm1(lrho)) / lrho) + 2.0
    return np.where(need <= _SEED_MAX, need, max(32, _SEED_MAX // np.size(x))).astype(np.intp)


def _rev_acc(rows):
    """Each row of the 2-d view ``rows``, in place, to the logs of its
    reverse cumulative sums: row_i <- log sum_{i'>=i} e^row_i'."""
    np.logaddexp.accumulate(rows[:, ::-1], axis=1, out=rows[:, ::-1])


def _shared_tail(r, lt, k, seed, grad):
    """The logs of the tail sums about each x = k[0] .. k[-1] + 1, from the
    log terms lt at k and the sums ``seed`` about k[-1] + 1.  With S = sum t,
    c = 1/(r+x) and y = x+1: S(x) = S(y) + t_x, A_j(x) = A_j(y) + S(y),
    A_G(x) = A_G(y) + c S(y), A_jj(x) = A_jj(y) + 2 A_j(y) + S(y),
    A_jG(x) = A_jG(y) + c (A_j(y) + S(y)) + A_G(y), A_GG(x) = A_GG(y) +
    2 c A_G(y): three levels of reverse log-cumsums of positive terms, one
    accumulation per level over its rows of the result."""
    out = np.empty((seed.size, lt.size + 1))
    out[:, -1], out[0, :-1] = seed, lt
    _rev_acc(out[:1])
    if grad:
        ls, lc = out[0, 1:], -np.log(r + k)
        out[1, :-1] = ls
        np.add(lc, ls, out=out[2, :-1])
        _rev_acc(out[1:3])
        lj, lg = out[1, 1:], out[2, 1:]
        np.logaddexp(lj + math.log(2.0), ls, out=out[3, :-1])
        np.logaddexp(lc + np.logaddexp(lj, ls), lg, out=out[4, :-1])
        np.add(lc + lg, math.log(2.0), out=out[5, :-1])
        _rev_acc(out[3:])
    return out


# The kernel takes logs of zero sums, -inf logs of vanished terms and
# branches that np.where masks; no warning of those is a fault.
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _unb_logpmf(r: float, p, x, grad: bool = False, q=None):
    """Exact log pmf of UNB(r, p) at the counts x; with ``grad`` also (d/d
    logit p, d/dr, d2/d logit p^2, d2/d logit p dr, d2/dr^2), r-derivatives
    at fixed p.  Logit p keeps them finite where r/p - m/q overflows
    (q < m/1.8e308).  Never -inf for 0 < p < 1.  ``q`` is 1 - p where the
    caller has it to more digits (the log-link families take both from the
    mean; p rounds to 1 once q < 1.1e-16).

    A p with one value, scalar or an array whose entries are all equal,
    shares one pass over k between all x: the head sums are cumulative
    sums, the tail at max(x) is a one-row _tail_block (the seed), summed as
    _tail_rows sums that row, and the tails below it _shared_tail's reverse
    sums, all read from one _KTable sized for them up front.  Only a seed
    that needs more than one block runs _tail_rows, which grows the table.
    Other array p are broadcast against
    x and summed row by row (_head_rows, _tail_rows), except at x = 0 outside
    the q -> 0 rule, where pmf(0) and its derivatives are closed forms.
    Against mpmath the
    log pmf is within 2e-12 for r in [0.2, 50], p in [0.01, 0.95],
    x <= 1000, and within 1e-10 at the fits' box corners (log r = +-8,
    logit p = +-35, the regression's p = r/(2 e^700 + r), x <= 10^4) except
    where r < 1 and p is below about 1e-6.  There the tail's terms fall
    like k^-2 over about 1/p terms, and the sum is cut after _TAIL_MAX of
    them: against a 60-digit mpmath reference with q = 1 - p formed in
    mpmath, the log pmf is 6e-2 off at (r, p, x) = (0.5, 1e-10, 10^4),
    1.3e-2 at (0.2, 1e-10, 10^4), 1.2e-4 at (0.5, 1e-6, 100) and 4.5e-3 at
    (e^-8, 1e-10, 10^4), and exact at (2, 1e-10, 10^4).
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
    shared = np.ndim(p) == 0
    if shared:
        p = float(p)
        q = 1.0 - p if q is None else float(q)
        shape = x.shape
        x = x.ravel()
        lp, lq = math.log1p(-q) if q < p else math.log(p), math.log(q)
        lpmf0 = _log_pmf0(r, lp, lq)
        xi = x.astype(np.intp)
        top = int(xi.max(initial=0))
        # One table: the head's k < top and the first tail block at top, the
        # seed, which is the whole tail sum where the decay bound fits it in
        # one block (under _SEED_MAX terms); else _tail_rows grows the table.
        width = int(_first_width(r, np.float64(lq), np.float64(top)))
        table = _KTable(r, grad).upto(top + width)
        lt = r * lp + np.arange(top) * lq + table.lg[:top]
        t = np.exp(lt - lpmf0)
        s = np.zeros(top + 1)
        t.cumsum(out=s[1:])
        head = s[None, xi]
        if grad:  # weighted sums only below the first x that takes the tail
            # (s never falls); later x read a clipped entry they never use
            n = int(np.searchsorted(s, 1.0 - 1.0 / _HEAD_LOSS, side="right"))
            acc = np.zeros((5, n))
            np.cumsum(table.weights(np.arange(n - 1), 0)[1:] * t[:n - 1], axis=1,
                      out=acc[:, 1:])
            head = np.concatenate((head, acc[:, np.minimum(xi, n - 1)]))
        rows, xr, l0 = slice(None), x, lpmf0
    else:
        p, q, x = np.broadcast_arrays(p, q, x)
        shape = x.shape
        p, q, x = p.ravel(), q.ravel(), x.ravel()
        lp = np.where(q < p, np.log1p(-q), np.log(p))
        lq = np.log(q)
        lpmf0 = _log_pmf0(r, lp, lq)
        table = _KTable(r, grad).upto(int(np.max(x, initial=0.0)) + 1)
        # A row at 0 is pmf(0), its means about 0 the totals below, except
        # under the q -> 0 rule: the sums run on the other rows alone.
        rows = np.flatnonzero((x > 0.0) | (lpmf0 > _LOG_PMF0_MAX))
        xr, l0 = x[rows], lpmf0[rows]
        head = _head_rows(r, lp[rows], lq[rows], l0, xr, table, grad)
    tail = (head[0] > 1.0 - 1.0 / _HEAD_LOSS) | (l0 > _LOG_PMF0_MAX)
    h = np.where(tail, 0.0, head[0])
    ls = l0 + np.log1p(-h)
    if grad:  # the means about 0 in the head, from the sums over all k,
        # sum k t = 1 - pmf(0), sum k^2 t = E[N] - 1 + pmf(0), and sum H t,
        # sum k H t, sum (H^2 + H') t from pmf(0)'s r-derivatives d1, d2
        d1, d2 = _dlog_pmf0_dr(r, lp)
        f1 = np.expm1(-lpmf0)  # over pmf(0), as head is
        f2 = r * np.exp(lq - lp - lpmf0) - f1  # inf: E[N] past 1.8e308 at p near 0
        total = np.array([f1, d1 - lp, f2, -d1 - lp * f1, d2 + (d1 - lp) ** 2]).reshape(5, -1)
        means = (total[:, rows] - head[1:]) / (1.0 - h)
        centre = np.zeros_like(ls)
    if tail.any():
        if shared:  # the tail x are the largest, top among them
            xt = xi[tail]
            lo = int(xt.min())
            if width < _SEED_MAX:  # as _tail_rows sums a row done in one block
                k = np.arange(top, top + width)
                at_top = np.logaddexp(*_tail_block(
                    r, lq, r * lp + k * lq + table.lg[k], k, np.zeros(1, np.intp),
                    np.array([width]), top, table, grad)[:2])[:, 0]
            else:
                at_top = _tail_rows(r, np.array([lp]), np.array([lq]), np.array([top]),
                                    grad, table)[:, 0]
            sums = _shared_tail(r, lt[lo:top], np.arange(lo, top), at_top, grad)[:, xt - lo]
        else:
            at = rows[tail]
            sums = _tail_rows(r, lp[at], lq[at], xr[tail], grad, table)
        ls[tail] = sums[0]
        if grad:  # and about x in the tail
            means[:, tail] = np.exp(sums[1:] - sums[0])
            centre[tail] = xr[tail]
    if not shared:  # every row: pmf(0) and the totals where no sum ran
        lpmf0[rows] = ls
        ls = lpmf0
        if grad:
            total[:, rows] = means
            full = np.zeros(x.size)
            full[rows] = centre
            means, centre = total, full
    if not grad:
        return ls.reshape(shape)
    e_j, e_g, e_jj, e_jg, e_gg = means
    m = centre + e_j
    c = centre.astype(np.intp)  # table entries <= max(x): 0 or x
    d_r = lp + table.psi[c] - table.psi[0] + e_g  # H_centre + E[G]
    d_logit = r * q - p * m
    d_ll = -p * q * (r + m) + p * p * (e_jj - e_j * e_j)  # nan where E[N] overflows
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


def unb_dlogpmf_dp_kernel(r: float, p, x):
    """Vectorised d log pmf / dp, the logit-p derivative over p q."""
    p = np.asarray(p, dtype=float)
    return _unb_logpmf(r, p, x, grad=True)[1] / (p * (1.0 - p))
