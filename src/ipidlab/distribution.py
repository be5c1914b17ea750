"""The Poisson traffic model, probability tables over the 2^16 IPID
values, and the argument checks that ``analytics`` and ``montecarlo``
share. It needs numpy alone.

The pmf is the saddle-point form of Loader (2000), "Fast and Accurate
Computation of Binomial Probabilities", which R's ``dpois`` uses:

    pmf(n, lambda) = exp(-stirlerr(n) - bd0(n, lambda)) / sqrt(2 pi n)

with stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n / e)^n) (a table below
4096, the Stirling series from there) and bd0(n, lambda) = n log(n /
lambda) + lambda - n. From lambda = 4096 on, bd0 near the mode is a sum
of positive terms in v = (n - lambda) / (n + lambda), so nothing of the
size of lambda cancels; elsewhere it comes from log(n / lambda). The
gamma form, n log lambda - lambda - log(n!), cancels terms of the size
of lambda and loses about log10(lambda) digits. Against 40-digit mpmath
the pmf is within 3.5e-14 relative at +-4 standard deviations for lambda
from 2^-14 to 2^32 (within 6e-15 from 4096 on), and within 7e-13 on every
cell above 1e-300. ``poisson_sf`` is a sum of the pmf on the side of n
away from the mode; at n = 2^16, for lambda from 2^15.5 to 2^16.1, it is
within 1e-14 relative wherever the tail is above 1e-300.

All Poisson arithmetic is done in log space; infinite sums are truncated
to the interval where the pmf exceeds 5e-324 (everything representable),
for rates up to 2^32.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .constants import IPID_SPACE, MAX_WINDOW_RATE

# Poisson mass below this is not representable as a float; sums over n
# are truncated where the pmf drops under it.
PMF_FLOOR = 5e-324
_LOG_PMF_FLOOR = math.log(PMF_FLOOR)

# stirlerr(n) for n = 0..15 (0 at n = 0 by convention), from 40-digit mpmath
_STIRLERR_SMALL = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748, 0.01189670994589177,
    0.010411265261972096, 0.009255462182712733, 0.00833056343336287, 0.007573675487951841,
    0.00694284010720953, 0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)
# The Stirling series stirlerr(n) = n^-1 (1/12 - n^-2 / 360 + ...), in n^-2 and
# highest term first. Its first omitted term is below 1.2e-16 from n = 16 on
# with five terms (which fill the table up to 4096), and below 1e-21 from
# n = 4096 on with two.
_STIRLING = (1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)
_STIRLING_LARGE_N = _STIRLING[3:]
_STIRLERR_TABLE_END = 4096
# The near-mode form covers |v| <= 1/8, that is n in [7 lambda / 9, 9 lambda / 7],
# for lambda >= 4096. There atanh(v) / v - 1 = sum_{k=1..9} v^2k / (2k + 1)
# (highest first), and the first omitted term moves log pmf by less than
# 3e-16. Below a rate of 4096 the log form is within 3.5e-14 at +-4 sd (its
# error grows as sqrt(lambda)), and every window is in it alone.
_NEAR_LO, _NEAR_HI, _NEAR_MIN_RATE = 7 / 9, 9 / 7, 4096.0
_ATANH_SERIES = tuple(1.0 / (2 * k + 1) for k in range(9, 0, -1))


def _check_rate(lam: float, name: str = "lambda") -> float:
    lam = float(lam)
    if not lam > 0 or math.isinf(lam):
        raise ValueError(f"{name} must be a positive finite rate, got {lam}")
    return lam


def _polynomial(x, coeffs, out=None):
    """coeffs[0] x^k + ... + coeffs[-1] by Horner's rule, for a scalar or
    an array x (into ``out``, when given)."""
    acc = np.multiply(x, coeffs[0], out=out)
    for c in coeffs[1:-1]:
        acc += c
        acc *= x
    acc += coeffs[-1]
    return acc


def _stirlerr_table() -> np.ndarray:
    r = 1.0 / np.arange(len(_STIRLERR_SMALL), _STIRLERR_TABLE_END, dtype=np.float64)
    return np.concatenate([_STIRLERR_SMALL, _polynomial(r * r, _STIRLING) * r])


_STIRLERR = _stirlerr_table()


def _near_cells(lam: float) -> tuple[int, int]:
    """The cells [lo, end) that take the near-mode form: none below a
    rate of 4096."""
    if lam < _NEAR_MIN_RATE:
        return 0, 0
    return math.ceil(lam * _NEAR_LO), math.floor(lam * _NEAR_HI) + 1


def _log_pmf(n, lam: float) -> np.ndarray:
    """log pmf(n, lambda) for a sorted 1-d array of integers n >= 0 and a
    rate already checked, as a new array.

    Each cell has one evaluation, fixed by (n, lambda) alone. With d =
    n - lambda and v = d / (n + lambda), bd0 = d v + 2n (atanh v - v) and
    log n = log lambda + 2 atanh v, so in the cells ``_near_cells`` names

        log pmf = -stirlerr(n) - log sqrt(2 pi lambda) - v (d + 1 + (2n + 1) P)

    with P = atanh(v) / v - 1, a fixed polynomial in v^2; in the flanks on
    either side bd0 and log n come from log(n / lambda). stirlerr is the
    table below 4096 and two terms of the Stirling series from there. The
    cells being sorted, each rule covers one run of them, found by
    ``searchsorted`` and written through slices of whole-window buffers.
    """
    x = np.asarray(n, dtype=np.float64)
    zeros, i, j, k = x.searchsorted((1, *_near_cells(lam), _STIRLERR_TABLE_END))
    d = np.subtract(x, lam)
    t, scratch = np.empty_like(d), np.empty_like(d)
    if i < j:  # t = v (d + 1 + (2n + 1) P) near the mode
        v = np.add(x[i:j], lam, out=scratch[i:j])
        np.divide(d[i:j], v, out=v)
        w = np.multiply(v, v)
        p = _polynomial(w, _ATANH_SERIES, out=t[i:j])
        p *= w
        np.multiply(x[i:j], 2.0, out=w)
        w += 1.0
        p *= w
        p += d[i:j]
        p += 1.0
        p *= v
    with np.errstate(divide="ignore", over="ignore"):  # -inf at n = 0
        for far in (slice(0, i), slice(j, x.size)):  # t = (n + 1/2) log(n / lambda) - d
            if far.start < far.stop:
                log_ratio = np.divide(d[far], lam, out=scratch[far])
                np.log1p(log_ratio, out=log_ratio)  # d is exact for n in [lambda/2, 2 lambda]
                f = np.add(x[far], 0.5, out=t[far])
                f *= log_ratio
                f -= d[far]
    s = scratch  # stirlerr(n): the table, then (1/12 - r^2 / 360) r in r = 1 / n
    _STIRLERR.take(x[:k].astype(np.intp), out=s[:k], mode="clip")  # unbuffered; every index is in range
    if k < x.size:
        r = np.divide(1.0, x[k:], out=d[k:])
        series = np.multiply(r, r, out=s[k:])
        series *= _STIRLING_LARGE_N[0]
        series += _STIRLING_LARGE_N[1]
        series *= r
    s += _log_sqrt_2pi(lam)
    t += s
    np.negative(t, out=t)
    t[:zeros] = -lam
    return t


def _log_sqrt_2pi(lam: float) -> float:
    return 0.5 * math.log(2.0 * math.pi * lam)


def poisson_logpmf(n, lam: float):
    """log pmf(n, lambda), and -inf where n is not a non-negative integer
    (nan and inf included)."""
    lam = _check_rate(lam)
    n = np.asarray(n, dtype=np.float64)
    valid = np.isfinite(n) & (n >= 0) & (n == np.floor(n))
    out = np.full(n.shape, -np.inf)
    cells, where = np.unique(n[valid], return_inverse=True)  # sorted, as _log_pmf takes them
    out[valid] = _log_pmf(cells, lam)[where]
    return out


def poisson_pmf(n, lam: float):
    return np.exp(poisson_logpmf(n, lam))


def _above_floor(n: float, lam: float, log_lam: float) -> bool:
    """Whether log pmf(n, lambda) > log 5e-324 as ``_log_pmf`` decides it;
    ``log_lam`` is math.log(lambda), computed once for all of a caller's
    probes. The gamma form n log(lambda) - lambda - log(n!) guides: in scalar
    ``math`` it is cheap and within a few 1e-16 of the size of its terms
    (1.2 ulps of it at most against 40-digit mpmath, over 3000 draws of
    lambda in 2^-20..2^40). Where it is clear of the floor by 1e-14 of
    that size, far more than its error or ``_log_pmf``'s (under 1e-12),
    its verdict is ``_log_pmf``'s; within that margin ``_log_pmf`` decides."""
    n_log_lam, log_fact = n * log_lam, math.lgamma(n + 1.0)
    clearance = n_log_lam - lam - log_fact - _LOG_PMF_FLOOR  # the guide above the floor
    if abs(clearance) > 1e-14 * (1.0 + lam + abs(n_log_lam) + log_fact):
        return clearance > 0.0
    return bool(_log_pmf(np.array([float(n)]), lam)[0] > _LOG_PMF_FLOOR)


def _log_pmf_split(n: int, lam: float) -> tuple[float, float]:
    """log pmf(n, lambda) for one cell as a + b, with |b| small, for
    exp(a) exp(b). Near the mode, d v = d^2 / (n + lambda), the term of
    the size of bd0, is taken exactly (as a fraction), so the pmf keeps
    its relative precision where bd0 is in the hundreds and one rounding
    of log pmf moves it by 1e-13; elsewhere b = 0."""
    near_lo, near_end = _near_cells(lam)
    if not near_lo <= n < near_end:
        return float(_log_pmf(np.array([float(n)]), lam)[0]), 0.0
    d, total = Fraction(n) - Fraction(lam), Fraction(n) + Fraction(lam)
    v = float(d / total)
    dv = d * d / total
    a = -float(dv)
    w = v * v
    atanh_rest = v * (1.0 + (2 * n + 1) * (_polynomial(w, _ATANH_SERIES) * w))  # v (1 + (2n + 1) P)
    r = 1.0 / n
    stirlerr = float(_STIRLERR[n] if n < _STIRLERR_TABLE_END else _polynomial(r * r, _STIRLING_LARGE_N) * r)
    return a, float(-dv - Fraction(a)) - (stirlerr + _log_sqrt_2pi(lam) + atanh_rest)


def _tail(k: float, lam: float) -> float:
    """P(N > k) for a whole k, summed on the side of k away from the mode
    over 12 standard deviations (and 64 cells), past which the terms are
    below e^-72 of the first. The first term is ``_log_pmf_split``'s, and
    each next one is the last times lambda / (j + 1) (or j / lambda
    below the mode). Outside the truncation window it is 1 or 0 without
    a sum."""
    if k < 0:
        return 1.0
    if math.isnan(k) or k == math.inf:
        return 0.0 if k == math.inf else math.nan
    upper = k >= math.floor(lam)  # at or past the mode: P(N = k + 1) + P(N = k + 2) + ...
    first = k + 1.0 if upper else k  # below it: 1 - (P(N = k) + P(N = k - 1) + ...)
    if not _above_floor(first, lam, math.log(lam)):
        return 0.0 if upper else 1.0
    if lam > MAX_WINDOW_RATE:
        raise ValueError(f"lambda must be <= 2^32 to sum the Poisson tail at n = {k:g}, got {lam}")
    first, span = int(first), int(12.0 * math.sqrt(lam)) + 64
    if upper:
        ratios = np.divide(lam, np.arange(first + 1, first + span, dtype=np.float64))
    else:
        ratios = np.arange(first, max(first - span, 0), -1, dtype=np.float64)
        ratios /= lam
    a, b = _log_pmf_split(first, lam)
    total = math.exp(a) * math.exp(b) * (1.0 + float(np.cumprod(ratios, out=ratios).sum()))
    return total if upper else 1.0 - total


def poisson_sf(n, lam: float):
    """P(N > n) as a direct tail evaluation (no 1 - cdf cancellation on
    the far side of the mode); 1 for n < 0, 0 for n = inf, and for a
    fractional n, P(N > floor(n))."""
    lam = _check_rate(lam)
    n = np.floor(np.asarray(n, dtype=np.float64))
    return np.array([_tail(k, lam) for k in n.flat]).reshape(n.shape)


def _floor_edge(a: int, b: int, lam: float, log_lam: float, above: bool) -> int:
    """The cell in (a, b] where ``_above_floor`` turns from ``above``, its
    verdict at a, to the other verdict, its verdict at b; by bisection."""
    while b - a > 1:
        m = (a + b) // 2
        if _above_floor(m, lam, log_lam) == above:
            a = m
        else:
            b = m
    return b


def truncation_bound(lam: float) -> tuple[int, int]:
    """Smallest [n_lo, n_hi] outside which pmf(n, lambda) <= 5e-324,
    for lambda up to ``MAX_WINDOW_RATE``. The edges are the cells where
    ``_above_floor``'s verdict flips, on the rise to the mode and on the
    fall past it, so that log pmf(n_hi) > log 5e-324 >= log pmf(n_hi + 1)
    in ``poisson_logpmf`` (and likewise at n_lo and n_lo - 1)."""
    lam = _check_rate(lam)
    if lam > MAX_WINDOW_RATE:
        raise ValueError(f"lambda must be <= 2^32 for a truncated Poisson window, got {lam}")
    mode, log_lam = int(lam), math.log(lam)
    lo = 0 if _above_floor(0, lam, log_lam) else _floor_edge(0, mode, lam, log_lam, False)
    step = max(16, int(8 * math.sqrt(lam)) + 1)
    hi = mode
    while _above_floor(hi + step, lam, log_lam):
        hi += step
    return lo, _floor_edge(hi, hi + step, lam, log_lam, True) - 1


def _check_guesses(g: int) -> int:
    g = int(g)
    if not 1 <= g <= IPID_SPACE:
        raise ValueError(f"g must be in [1, 2^16], got {g}")
    return g


@dataclass
class DistributionTable:
    """Probability mass over all 2^16 next-IPID values."""

    mass: np.ndarray
    trials: Optional[int] = None  # set when estimated by simulation

    def __post_init__(self):
        self.mass = np.asarray(self.mass, dtype=np.float64)
        if self.mass.shape != (IPID_SPACE,):
            raise ValueError(f"mass must have shape ({IPID_SPACE},)")

    def top_g(self, g: int) -> tuple[np.ndarray, float]:
        """Indices of the g largest masses and their total mass. For
        g = 1 the index is the lowest of the maximal cells."""
        g = _check_guesses(g)
        if g == 1:
            idx = np.argmax(self.mass, keepdims=True)
        elif g == IPID_SPACE:
            idx = np.arange(IPID_SPACE)
        else:
            idx = np.argpartition(self.mass, -g)[-g:]
        return idx, float(self.mass[idx].sum())
