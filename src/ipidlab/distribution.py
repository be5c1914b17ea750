"""Probability tables over the 2^16 IPID values, and the argument checks
and Poisson tail that ``analytics`` and ``montecarlo`` share."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import special

from .constants import IPID_SPACE


def _check_rate(lam: float, name: str = "lambda") -> float:
    lam = float(lam)
    if not lam > 0 or math.isinf(lam):
        raise ValueError(f"{name} must be a positive finite rate, got {lam}")
    return lam


def poisson_sf(n, lam: float):
    """P(N > n) as a direct tail evaluation (no 1 - cdf cancellation)."""
    lam = _check_rate(lam)
    return special.pdtrc(np.asarray(n, dtype=np.float64), lam)


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

    def normalize(self) -> "DistributionTable":
        total = self.mass.sum()
        if total <= 0:
            raise ValueError("cannot normalize an empty distribution")
        self.mass = self.mass / total
        return self

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
