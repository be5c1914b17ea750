"""The Poisson traffic model, probability tables over the 2^16 IPID
values, and the argument checks that ``analytics`` and ``montecarlo``
share. This is the one module that imports scipy.

All Poisson arithmetic is done in log space; infinite sums are truncated
to the interval where the pmf exceeds 5e-324 (everything representable),
for rates up to 2^32.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import special

from .constants import IPID_SPACE, MAX_WINDOW_RATE

# Poisson mass below this is not representable as a float; sums over n
# are truncated where the pmf drops under it.
PMF_FLOOR = 5e-324
_LOG_PMF_FLOOR = math.log(PMF_FLOOR)


def _check_rate(lam: float, name: str = "lambda") -> float:
    lam = float(lam)
    if not lam > 0 or math.isinf(lam):
        raise ValueError(f"{name} must be a positive finite rate, got {lam}")
    return lam


def _log_pmf(n, lam: float):
    """n log(lambda) - lambda - log(n!) for n >= 0 (an int or an array)
    and a rate already checked."""
    return n * math.log(lam) - lam - special.gammaln(n + 1.0)


def poisson_logpmf(n, lam: float):
    """log pmf(n, lambda) = n log(lambda) - lambda - log(n!), and -inf
    where n is not a non-negative integer."""
    lam = _check_rate(lam)
    n = np.asarray(n, dtype=np.float64)
    return np.where((n >= 0) & (n == np.floor(n)), _log_pmf(n, lam), -np.inf)


def poisson_pmf(n, lam: float):
    return np.exp(poisson_logpmf(n, lam))


def poisson_sf(n, lam: float):
    """P(N > n) as a direct tail evaluation (no 1 - cdf cancellation);
    1 for n < 0, where scipy's pdtrc gives nan."""
    lam = _check_rate(lam)
    n = np.asarray(n, dtype=np.float64)
    return np.where(n < 0, 1.0, special.pdtrc(n, lam))


def truncation_bound(lam: float) -> tuple[int, int]:
    """Smallest [n_lo, n_hi] outside which pmf(n, lambda) <= 5e-324,
    for lambda up to ``MAX_WINDOW_RATE``."""
    lam = _check_rate(lam)
    if lam > MAX_WINDOW_RATE:
        raise ValueError(f"lambda must be <= 2^32 for a truncated Poisson window, got {lam}")
    mode = int(lam)
    if _log_pmf(0, lam) > _LOG_PMF_FLOOR:
        lo = 0
    else:
        a, b = 0, mode  # log pmf increases on [0, mode]
        while b - a > 1:
            m = (a + b) // 2
            if _log_pmf(m, lam) > _LOG_PMF_FLOOR:
                b = m
            else:
                a = m
        lo = b

    step = max(16, int(8 * math.sqrt(lam)) + 1)
    hi = mode
    while _log_pmf(hi + step, lam) > _LOG_PMF_FLOOR:
        hi += step
    a, b = hi, hi + step  # log pmf decreases past the mode
    while b - a > 1:
        m = (a + b) // 2
        if _log_pmf(m, lam) > _LOG_PMF_FLOOR:
            a = m
        else:
            b = m
    return lo, a


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
