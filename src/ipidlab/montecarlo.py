"""Simulation of per-bucket stochastic increments.

Bucket counters advance by an increment drawn uniformly from
[1, max{1, elapsed ticks}], where the tick gap between consecutive
requests is an exponential with mean t / lambda_i (floored to whole
ticks). Collision probabilities for this method have no closed form, so
they are estimated here. The next-value distribution is exact in
``analytics``; its simulation here is that result's oracle.

Determinism: results are a pure function of (parameters, seed). Trials
are processed in fixed-size chunks whose RNG streams derive from
(seed, chunk index), so any partitioning of chunks over workers yields
identical results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clock import DEFAULT_TICKS_PER_UNIT_TIME
from .constants import IPID_SPACE
from .distribution import DistributionTable, _check_rate

__all__ = [
    "IncrementSample",
    "SimParams",
    "binomial_std_err",
    "collision_prob_bucket",
    "conditional_collision_bucket",
    "increment_sum_distribution",
    "sample_increment",
]

_CHUNK_TRIALS = 4096
_CHUNK_TARGET_ELEMS = 1 << 22  # cap per-chunk matrix size for large n

# Past this many mean increments per tick gap, P(gap >= 1 tick) =
# e^{-lambda_i / t} < 1e-34 and every increment is 1; sampling the gaps
# would be statistically indistinguishable from the deterministic path.
_SEQUENTIAL_CUTOFF = 80.0


@dataclass(frozen=True)
class SimParams:
    """Trial count, tick granularity, and seed for one estimate."""

    trials: int = 100_000
    t: int = DEFAULT_TICKS_PER_UNIT_TIME
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.t < 1:
            raise ValueError(f"t must be >= 1, got {self.t}")


@dataclass(frozen=True)
class IncrementSample:
    """One realized tick gap and the increment drawn from it."""

    delta_ticks: int
    increment: int


_STREAM_IDS = {"cond-collision": 1, "sum-dist": 2, "collision": 3}


def binomial_std_err(p: float, trials: int) -> float:
    """Standard error of a proportion p estimated from ``trials``
    independent trials."""
    return math.sqrt(max(p * (1.0 - p), 0.0) / trials)


def _chunks(trials: int, chunk: int, seed: int, label: str):
    """Yield ``(rows, rng)`` for each chunk of at most ``chunk`` trials;
    a chunk's stream derives from (seed, label, chunk index) alone."""
    for index, done in enumerate(range(0, trials, chunk)):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(_STREAM_IDS[label], index))
        yield min(chunk, trials - done), np.random.default_rng(ss)


def _is_sequential(lam_i: float, t: int) -> bool:
    return lam_i / t >= _SEQUENTIAL_CUTOFF


def sample_increment(lam_i: float, t: int, rng) -> IncrementSample:
    """Draw one stochastic increment: gap ~ Exp(mean t / lambda_i) in
    ticks, floored; increment uniform over [1, max{1, gap}]."""
    lam_i = _check_rate(lam_i, "lambda_i")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if hasattr(rng, "exponential"):  # numpy Generator
        delta = int(rng.exponential(t / lam_i))
        inc = int(rng.integers(1, max(1, delta) + 1))
    else:  # random.Random-style
        delta = int(rng.expovariate(lam_i / t))
        inc = rng.randint(1, max(1, delta))
    return IncrementSample(delta_ticks=delta, increment=inc)


def _draw_increments(rng: np.random.Generator, count: int, scale: float) -> np.ndarray:
    deltas = rng.exponential(scale, count).astype(np.int64)
    highs = np.maximum(deltas, 1)
    return rng.integers(1, highs + 1, dtype=np.int64)


def conditional_collision_bucket(
    n: int, lam: float, sim: SimParams
) -> tuple[float, float]:
    """Probability that n consecutive stochastic increments revisit a
    value mod 2^16, with its binomial standard error.

    Each trial accumulates n increments; a trial collides when any two
    of the n partial sums coincide mod 2^16. A common start value shifts
    every sum alike, so it is left out.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    lam = _check_rate(lam, "lambda")
    trials = sim.trials

    if _is_sequential(lam, sim.t):
        # increments are all 1: the walk revisits a value iff it wraps
        p = 1.0 if n > IPID_SPACE else 0.0
        return p, 0.0

    scale = sim.t / lam
    chunk = max(1, min(_CHUNK_TRIALS, _CHUNK_TARGET_ELEMS // max(n, 1)))
    collisions = 0
    for rows, rng in _chunks(trials, chunk, sim.seed, "cond-collision"):
        incs = _draw_increments(rng, rows * n, scale).reshape(rows, n)
        values = np.cumsum(incs, axis=1) % IPID_SPACE
        values.sort(axis=1)
        collided = (values[:, 1:] == values[:, :-1]).any(axis=1)
        collisions += int(collided.sum())
    p = collisions / trials
    return p, binomial_std_err(p, trials)


def increment_sum_distribution(lam_i: float, sim: SimParams) -> DistributionTable:
    """Estimated distribution of the sum of N+1 stochastic increments
    mod 2^16, N ~ Poisson(lambda_i): the next value of a probed bucket
    counter relative to the probe."""
    lam_i = _check_rate(lam_i, "lambda_i")
    trials = sim.trials
    sequential = _is_sequential(lam_i, sim.t)
    scale = sim.t / lam_i
    hist = np.zeros(IPID_SPACE, dtype=np.int64)
    for rows, rng in _chunks(trials, _CHUNK_TRIALS, sim.seed, "sum-dist"):
        ns = rng.poisson(lam_i, rows)
        if sequential:
            endpoints = (ns + 1) % IPID_SPACE
        else:
            counts = ns + 1
            flat = _draw_increments(rng, int(counts.sum()), scale)
            offsets = np.zeros(rows, dtype=np.int64)
            np.cumsum(counts[:-1], out=offsets[1:])
            sums = np.add.reduceat(flat, offsets)
            endpoints = sums % IPID_SPACE
        hist += np.bincount(endpoints, minlength=IPID_SPACE)
    table = DistributionTable(hist.astype(np.float64), trials=trials)
    return table.normalize()


def collision_prob_bucket(lam: float, sim: SimParams) -> tuple[float, float]:
    """Overall collision probability for per-bucket selection: each
    trial draws the in-transit count N ~ Poisson(lambda) and simulates N
    stochastic increments, so the estimate integrates the conditional
    collision probability over the traffic distribution."""
    lam = _check_rate(lam, "lambda")
    trials = sim.trials
    sequential = _is_sequential(lam, sim.t)
    scale = sim.t / lam
    collisions = 0
    for rows, rng in _chunks(trials, _CHUNK_TRIALS, sim.seed, "collision"):
        ns = rng.poisson(lam, rows)
        if sequential:
            collisions += int((ns > IPID_SPACE).sum())
        else:
            max_n = int(ns.max())
            if max_n >= 2:
                width = max_n
                incs = _draw_increments(rng, rows * width, scale).reshape(rows, width)
                values = np.cumsum(incs, axis=1) % IPID_SPACE
                # mask positions past each trial's own n with unique
                # sentinels so they can never produce equal neighbors
                cols = np.arange(width)
                sentinel = IPID_SPACE + cols
                values = np.where(cols[None, :] < ns[:, None], values, sentinel)
                values.sort(axis=1)
                collided = (values[:, 1:] == values[:, :-1]).any(axis=1)
                collisions += int(collided.sum())
    p = collisions / trials
    return p, binomial_std_err(p, trials)
