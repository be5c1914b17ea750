"""Recommend a selection-method configuration from estimated traffic rates.

The plane of (total rate, non-connection-bound rate) splits into five
use cases at two thresholds: 2^0 per unit time (~1 Mbps at 10 ms unit
time and 1500-byte packets) and 2^10 (~1 Gbps). Cases are evaluated in
order; the first match wins, which fixes the boundary conventions.
Per-destination selection is never recommended.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .clock import UNIT_TIME_S
from .selectors import GloballyIncrementingSelector

__all__ = [
    "RateEstimate",
    "Recommendation",
    "SLOW_RATE",
    "FAST_RATE",
    "bandwidth_to_lambda",
    "recommend",
]

SLOW_RATE = 2.0**0
FAST_RATE = 2.0**10

NON_CB_PRNG = "prng-based"
NON_CB_PER_BUCKET = "per-bucket"
NON_CB_GLOBAL = GloballyIncrementingSelector.method

CB_SEPARATE = "separate-per-connection"
CB_MERGED = "merged-with-non-cb"

_PRNG_CHOICE_NOTE = (
    "Any PRNG variant works here; pick by preference: pure is fastest and "
    "stateless but has the weakest collision avoidance; a searchable queue "
    "uses less memory while an iterated shuffle answers faster; larger "
    "reserved counts k avoid more collisions at slightly higher guessability."
)


@dataclass(frozen=True)
class RateEstimate:
    """Poisson rates per unit time: total, connection-bound, and the rest."""

    lam: float
    lam_n: float

    def __post_init__(self):
        for name, rate in (("lambda", self.lam), ("lambda_n", self.lam_n)):
            if not (math.isfinite(rate) and rate >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {rate}")
        if self.lam_n > self.lam:
            raise ValueError(
                f"lambda_n ({self.lam_n}) cannot exceed lambda ({self.lam})"
            )

    @property
    def lam_c(self) -> float:
        """The connection-bound rate, lambda - lambda_n."""
        return self.lam - self.lam_n

    @classmethod
    def from_total(cls, lam: float, lam_n: float) -> "RateEstimate":
        return cls(lam=lam, lam_n=lam_n)


@dataclass(frozen=True)
class Recommendation:
    use_case: int
    non_cb_method: str
    cb_handling: str
    label: str
    rationale: str


# The five use cases in evaluation order; CASES[i] is use case i + 1.
CASES = (
    Recommendation(
        1, NON_CB_PRNG, CB_MERGED, "slow overall",
        "All traffic is slow enough that every method avoids "
        "collisions; PRNG selection is near-optimally hard to guess "
        "and, with no contention at these rates, also the fastest. "
        "Use it for all packets. " + _PRNG_CHOICE_NOTE,
    ),
    Recommendation(
        2, NON_CB_PRNG, CB_SEPARATE,
        "slow non-connection-bound, moderate connection-bound",
        "Total traffic is too fast for a PRNG method alone, but "
        "peeling connection-bound packets off to per-connection "
        "counters leaves a slow residue that a non-repeating PRNG "
        "method handles securely and efficiently. " + _PRNG_CHOICE_NOTE,
    ),
    Recommendation(
        3, NON_CB_PER_BUCKET, CB_SEPARATE, "moderate overall",
        "At moderate rates PRNG collisions become likely and the "
        "globally incrementing counter is still predictable, while "
        "per-bucket stochastic increments add noise. Keep "
        "connection-bound traffic on per-connection counters so the "
        "buckets stay quiet enough for that noise to matter.",
    ),
    Recommendation(
        4, NON_CB_GLOBAL, CB_MERGED,
        "moderate non-connection-bound, fast connection-bound",
        "The combined rate is fast enough that a single global "
        "counter increments too quickly to predict and scales better "
        "under contention than any multi-resource method; merging "
        "connection-bound traffic keeps its rate up.",
    ),
    Recommendation(
        5, NON_CB_GLOBAL, CB_SEPARATE, "fast non-connection-bound",
        "Non-connection-bound traffic alone is fast enough for a global "
        "counter to be both unpredictable and the fastest contended "
        "method; keep connection-bound packets on per-connection "
        "counters to spare the shared counter's cache line.",
    ),
)


def bandwidth_to_lambda(
    bits_per_second: float,
    unit_time_s: float = UNIT_TIME_S,
    packet_bytes: int = 1500,
) -> float:
    """Packets per unit time from a bit rate: bps / 8 / bytes * unit time."""
    if bits_per_second <= 0:
        raise ValueError(f"bits_per_second must be positive, got {bits_per_second}")
    if unit_time_s <= 0:
        raise ValueError(f"unit_time_s must be positive, got {unit_time_s}")
    if packet_bytes <= 0:
        raise ValueError(f"packet_bytes must be positive, got {packet_bytes}")
    return bits_per_second / 8.0 / packet_bytes * unit_time_s


def recommend(rates: RateEstimate) -> Recommendation:
    """Map a rate estimate to the best method(s); exactly one of the
    five cases fires for any valid estimate."""
    lam, lam_n = rates.lam, rates.lam_n
    if lam <= SLOW_RATE:
        return CASES[0]
    if lam_n <= SLOW_RATE:
        return CASES[1]
    if lam < FAST_RATE:
        return CASES[2]
    if lam_n < FAST_RATE:
        return CASES[3]
    return CASES[4]
