"""Series evaluation of the special functions behind the UNB model.

No pmf, cdf or fit calls this module: it is the package's public series
API and the tests' oracle for the closed forms (the 2F1 and 1F1 routes to
the pmf, the Lerch sum at r = 1, the theta-series r-score).

All hypergeometric-type quantities are summed term by term with the term
magnitude tracked in log space (sign carried separately), so Pochhammer
products never overflow on their own.  One truncation policy serves every
series: stop once the current term is below 1e-14 times the partial sum
for two consecutive terms (a single small term can be a Pochhammer factor
passing through a near-zero), or below 1e-300 outright.  Hitting 100 000
terms first, or theta1's 4096th anti-diagonal, raises
:class:`NonConvergenceError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from . import _special as _sps
from .errors import DomainError, NonConvergenceError

__all__ = [
    "SeriesEval",
    "ThetaArgs",
    "digamma",
    "gauss_2f1",
    "gauss_2f1_eval",
    "confluent_1f1",
    "confluent_1f1_eval",
    "lerch_phi",
    "lerch_phi_eval",
    "kampe_theta1",
    "kampe_theta1_eval",
]

_REL_TOL = 1e-14
_ABS_TOL = 1e-300
_MAX_TERMS = 100_000
_THETA_CAP = 4096  # anti-diagonals of theta1


class SeriesEval(NamedTuple):
    """Value of a truncated series together with the number of terms consumed."""

    value: float
    terms: int


def _is_nonpositive_int(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


@dataclass(frozen=True)
class ThetaArgs:
    """Parameters of the double series ``theta1`` (see :func:`kampe_theta1`).

    ``c1``, ``d1``, ``d2`` sit in Pochhammer denominators and must not be
    non-positive integers; both arguments must satisfy ``|x| < 1``.
    """

    a1: float
    a2: float
    b1: float
    b2: float
    b3: float
    c1: float
    d1: float
    d2: float
    x1: float
    x2: float

    def __post_init__(self):
        for name in ("c1", "d1", "d2"):
            v = getattr(self, name)
            if _is_nonpositive_int(v):
                raise DomainError(f"{name} must not be a non-positive integer, got {v}")
        if not (abs(self.x1) < 1.0 and abs(self.x2) < 1.0):
            raise DomainError(
                f"arguments must satisfy |x| < 1, got x1={self.x1}, x2={self.x2}"
            )


def digamma(x: float) -> float:
    """Logarithmic derivative of the gamma function for positive real ``x``."""
    if not x > 0.0:
        raise DomainError(f"digamma requires x > 0, got {x}")
    return float(_sps.digamma(x))


def _sum_ratio_series(ratio) -> SeriesEval:
    """Sum 1 + t1 + t2 + ... where t_{n+1} = t_n * ratio(n), t_0 = 1.

    ``ratio(n)`` gives the multiplier taking term n to term n+1.  Terms are
    tracked as log magnitude plus sign.  Returns the partial sum and the
    number of terms consumed (including the leading 1).
    """
    total = 1.0
    log_term = 0.0
    sign = 1
    small_streak = 0
    for n in range(_MAX_TERMS):
        r = ratio(n)
        if r == 0.0:
            return SeriesEval(total, n + 1)  # series terminates exactly
        log_term += math.log(abs(r))
        if r < 0.0:
            sign = -sign
        term = sign * math.exp(log_term)
        total += term
        mag = abs(term)
        if mag < _ABS_TOL:
            return SeriesEval(total, n + 2)
        if mag < _REL_TOL * abs(total):
            small_streak += 1
            if small_streak >= 2:
                return SeriesEval(total, n + 2)
        else:
            small_streak = 0
    raise NonConvergenceError(
        f"series failed to meet rel_tol={_REL_TOL} within {_MAX_TERMS} terms"
    )


def series_2f1_raw(a: float, b: float, c: float, z: float) -> SeriesEval:
    """Direct defining series of the Gauss hypergeometric function.

    No argument transformation is applied; exposed for internal reuse and
    for dual-route testing against the transformed path.
    """
    if _is_nonpositive_int(c):
        raise DomainError(f"c must not be a non-positive integer, got {c}")
    if abs(z) >= 1.0:
        raise DomainError(f"series requires |z| < 1, got z={z}")
    if z == 0.0:
        return SeriesEval(1.0, 1)
    return _sum_ratio_series(lambda n: (a + n) * (b + n) / ((c + n) * (1.0 + n)) * z)


def _euler_profitable(a: float, b: float, c: float) -> bool:
    # The transformed series has numerator parameters (c-a, c-b); it decays
    # faster than the direct one exactly when a + b > c, and stays
    # sign-stable when both transformed parameters are positive.
    return (a + b > c) and (c - a > 0.0) and (c - b > 0.0)


def series_2f1_euler(a: float, b: float, c: float, z: float) -> SeriesEval:
    """Euler-transformed evaluation (1-z)^(c-a-b) * 2F1(c-a, c-b; c; z)."""
    inner = series_2f1_raw(c - a, c - b, c, z)
    prefactor = math.exp((c - a - b) * math.log1p(-z))
    return SeriesEval(prefactor * inner.value, inner.terms)


def gauss_2f1_eval(a: float, b: float, c: float, z: float) -> SeriesEval:
    """Gauss hypergeometric 2F1(a, b; c; z) for |z| < 1, with term count.

    For z > 0.75 the Euler transformation is used whenever its series
    converges faster than the direct one (see :func:`series_2f1_euler`).
    """
    if abs(z) >= 1.0:
        raise DomainError(f"gauss_2f1 requires |z| < 1, got z={z}")
    if z > 0.75 and _euler_profitable(a, b, c):
        return series_2f1_euler(a, b, c, z)
    return series_2f1_raw(a, b, c, z)


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    return gauss_2f1_eval(a, b, c, z).value


def confluent_1f1_eval(a: float, c: float, z: float) -> SeriesEval:
    """Kummer confluent hypergeometric 1F1(a; c; z), with term count."""
    if _is_nonpositive_int(c):
        raise DomainError(f"c must not be a non-positive integer, got {c}")
    if z == 0.0:
        return SeriesEval(1.0, 1)
    return _sum_ratio_series(lambda n: (a + n) / ((c + n) * (1.0 + n)) * z)


def confluent_1f1(a: float, c: float, z: float) -> float:
    return confluent_1f1_eval(a, c, z).value


def lerch_phi_eval(z: float, a: float) -> SeriesEval:
    """Hurwitz-Lerch sum over k of z^k / (k + a), i.e. the s = 1 case."""
    if abs(z) >= 1.0:
        raise DomainError(f"lerch_phi requires |z| < 1, got z={z}")
    if not a > 0.0:
        raise DomainError(f"lerch_phi requires a > 0, got {a}")
    if z == 0.0:
        return SeriesEval(1.0 / a, 1)
    first = 1.0 / a
    inner = _sum_ratio_series(lambda k: z * (k + a) / (k + 1.0 + a))
    return SeriesEval(first * inner.value, inner.terms)


def lerch_phi(z: float, a: float) -> float:
    return lerch_phi_eval(z, a).value


def kampe_theta1_eval(args: ThetaArgs) -> SeriesEval:
    """Double hypergeometric series

        sum over m1, m2 >= 0 of
            (a1)_m1 (a2)_m2 (b1)_m1 / (c1)_m1
            * (b2)_{m1+m2} (b3)_{m1+m2} / ((d1)_{m1+m2} (d2)_{m1+m2})
            * x1^m1 / m1! * x2^m2 / m2!

    summed by anti-diagonals m1 + m2 = s over the triangle s <= 4096.  The
    term is the product A(m1) B(m2) C(m1 + m2) of the factors in m1 alone,
    m2 alone and s, each kept as a table of log magnitudes and signs grown
    by its term ratio.  The sum stops once two consecutive anti-diagonals
    each contribute less than 1e-14 of the running total; terms along
    anti-diagonals decay geometrically for |x| < 1, so the tail is
    controlled by the last diagonal.
    """
    g = args
    ratios = (lambda m: (g.a1 + m) * (g.b1 + m) / (g.c1 + m) * g.x1 / (m + 1.0),
              lambda m: (g.a2 + m) * g.x2 / (m + 1.0),
              lambda s: (g.b2 + s) * (g.b3 + s) / ((g.d1 + s) * (g.d2 + s)))
    tables = tuple(([0.0], [1]) for _ in ratios)  # (log |A|, sign A), B, C
    (la, sa), (lb, sb), (lc, sc) = tables
    total = 0.0
    small_streak = 0
    for s in range(_THETA_CAP + 1):
        if s > 0:
            for ratio, (logs, signs) in zip(ratios, tables):
                f = ratio(s - 1)  # a zero factor zeroes every later term
                logs.append(logs[-1] + math.log(abs(f)) if f else logs[-1])
                signs.append(signs[-1] * (1 if f > 0.0 else -1) if f else 0)
        diag = sc[s] * sum(sa[m1] * sb[s - m1] * math.exp(la[m1] + lb[s - m1] + lc[s])
                           for m1 in range(s + 1) if sa[m1] * sb[s - m1])
        total += diag
        if s >= 1:
            if abs(diag) < _REL_TOL * max(abs(total), _ABS_TOL):
                small_streak += 1
                if small_streak >= 2:
                    return SeriesEval(total, (s + 1) * (s + 2) // 2)
            else:
                small_streak = 0
    raise NonConvergenceError(
        f"theta1 double series tail above rel_tol={_REL_TOL} at diagonal cap {_THETA_CAP}"
    )


def kampe_theta1(args: ThetaArgs) -> float:
    return kampe_theta1_eval(args).value
