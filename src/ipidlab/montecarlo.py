"""Simulation of per-bucket stochastic increments.

Bucket counters advance by an increment drawn uniformly from
[1, max{1, elapsed ticks}], where the tick gap between consecutive
requests is an exponential with mean t / lambda_i (floored to whole
ticks). Collision probabilities for this method have no closed form, so
they are estimated here, drawing whole arrays of gaps and increments at
once (``_draw_highs``, ``_draw_uniform``); ``PerBucketSelector._step``
in ``selectors`` draws one increment per request, from the clock's
elapsed ticks. The next-value distribution is exact in ``analytics``;
its simulation here is that result's oracle.

Determinism: results are a pure function of (parameters, seed). Trials
are processed in fixed-size chunks whose RNG streams derive from
(seed, chunk index), so any partitioning of chunks over workers yields
identical results.

Both collision estimators count through one chunk kernel,
``_collisions``: trial i of a chunk takes ``ns[i]`` increments, a fixed
n for the conditional estimate and a Poisson count for the overall one.
It skips work that cannot change a result. Partial sums of increments
>= 1 strictly increase, so two can coincide mod 2^16 only if the
increments between them sum to 2^16 or more; each increment is at most
its bound max{1, gap}. A chunk whose bounds reach 2^16 in no trial adds
no collision, and its uniform draws, sums and sort are not made. More
than 2^16 sums always collide (pigeonhole), so a chunk whose every trial
takes more than 2^16 increments counts them all without drawing, and
n > 2^16, or lambda >= 2^32 (where N > 2^16 with probability 1 in double
precision), give probability 1 before any chunk is drawn. Each chunk
has its own stream, so a skipped draw cannot move another chunk's.

``collision_prob_bucket`` draws only where the model leaves the answer
open. At sequential rates (lambda / t >= 80) every increment is 1, so a
trial collides exactly when N > 2^16: the row is that Poisson tail, with
standard error 0. Below them, a Chernoff bound on the increment bounds
(``_log_wrap_bound``) can show that the chance of any trial wrapping is
below the smallest double; the row is then (0.0, 0.0), which drawing
would have returned too. ``conditional_collision_bucket`` returns
(0.0, 0.0) at sequential rates, where n <= 2^16 sums of ones are distinct.

Tick gaps are capped at 2^62 before their int64 cast, which overflows
at 2^63 (tiny rates, huge t). 2^62 is a multiple of 2^16, so a capped
increment is exactly uniform mod 2^16, and int64 sums wrap mod 2^64,
keeping their residues; smaller gaps and every stream are unchanged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clock import DEFAULT_TICKS_PER_UNIT_TIME
from .constants import IPID_SPACE, MAX_WINDOW_RATE
from .distribution import DistributionTable, _check_rate, _tail

__all__ = [
    "SimParams",
    "binomial_std_err",
    "collision_prob_bucket",
    "conditional_collision_bucket",
    "increment_sum_distribution",
]

_CHUNK_TRIALS = 4096
_CHUNK_TARGET_ELEMS = 1 << 22  # cap per-chunk matrix size for large n

# Past this many mean increments per tick gap, P(gap >= 1 tick) =
# e^{-lambda_i / t} < 1e-34 and every increment is 1; sampling the gaps
# would be statistically indistinguishable from the deterministic path.
_SEQUENTIAL_CUTOFF = 80.0

# A row is a certified 0.0 when trials * P(a trial can wrap) is below the
# smallest double, 2^-1074, by this many nats more, which covers rounding
# in the bound's evaluation.
_LOG_CERTIFIED_ZERO = -1074 * math.log(2.0) - 8.0
_TERNARY_STEPS = 80


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


def _draw_highs(rng: np.random.Generator, count: int, scale: float) -> np.ndarray:
    """Upper bounds max{1, gap} of ``count`` increments, from their
    floored exponential tick gaps."""
    deltas = rng.exponential(scale, count)
    np.minimum(deltas, 2.0**62, out=deltas)  # int64 overflows at 2^63; see the module docstring
    deltas = deltas.astype(np.int64)  # frees the floats before np.maximum allocates
    return np.maximum(deltas, 1)


def _draw_uniform(rng: np.random.Generator, highs: np.ndarray) -> np.ndarray:
    """One increment uniform on [1, high] per entry of ``highs``."""
    return rng.integers(1, highs + 1, dtype=np.int64)


def _may_wrap(highs: np.ndarray) -> bool:
    """Whether any row of increment bounds sums to a full 2^16 turn.

    Partial sums of increments >= 1 strictly increase, so two coincide
    mod 2^16 only if the increments between them sum to at least 2^16;
    a row whose bounds sum to less cannot collide, whatever is drawn.
    """
    return bool((np.minimum(highs, IPID_SPACE).sum(axis=1) >= IPID_SPACE).any())


def _log_wrap_bound(lam: float, t: int) -> float:
    """Upper bound on log P(a trial at rate ``lam`` can wrap), for a rate
    below the sequential cutoff (lambda / t < 80).

    A trial can wrap only if the bounds max{1, D} of its N increments
    reach 2^16, and each is at most 1 + E with E exponential of mean
    t / lambda. So for every 0 < s < lambda / t, Chernoff's bound gives
    log P <= lambda (e^s / (1 - s t / lambda) - 1) - s 2^16, an exponent
    convex in s. A ternary search over u = s t / lambda in [0, 1)
    minimises it; any u evaluated gives a valid bound. After
    ``_TERNARY_STEPS`` steps the bracket is still wider than 1e-14, so
    no point evaluated rounds to u = 1.
    """
    rate = lam / t

    def exponent(u: float) -> float:
        s = u * rate
        return lam * (math.exp(s) / (1.0 - u) - 1.0) - s * IPID_SPACE

    lo, hi = 0.0, 1.0
    for _ in range(_TERNARY_STEPS):
        a, b = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if exponent(a) <= exponent(b):
            hi = b
        else:
            lo = a
    return exponent(lo)


def _collisions(rng: np.random.Generator, ns: np.ndarray, lam: float, t: int) -> int:
    """Number of trials whose partial sums repeat mod 2^16, where trial
    i takes ``ns[i]`` increments at rate ``lam``, ``t`` ticks per unit
    (below the sequential cutoff).

    A trial past 2^16 increments always collides (pigeonhole).
    """
    wraps = ns > IPID_SPACE
    if wraps.all():
        return int(wraps.sum())
    rows, width = ns.size, int(ns.max())
    if width < 2:
        return 0
    highs = _draw_highs(rng, rows * width, t / lam)
    cols = np.arange(width)
    live = cols[None, :] < ns[:, None]
    if not _may_wrap(np.where(live, highs.reshape(rows, width), 0)):
        return 0
    incs = _draw_uniform(rng, highs).reshape(rows, width)
    # positions past a trial's own n get unique sentinels, never equal neighbours
    values = np.where(live, np.cumsum(incs, axis=1) % IPID_SPACE, IPID_SPACE + cols)
    values.sort(axis=1)
    return int((values[:, 1:] == values[:, :-1]).any(axis=1).sum())


def conditional_collision_bucket(
    n: int, lam: float, sim: SimParams
) -> tuple[float, float]:
    """Probability that n consecutive stochastic increments revisit a
    value mod 2^16, with its binomial standard error.

    Each trial accumulates n increments; a trial collides when any two
    of the n partial sums coincide mod 2^16. A common start value shifts
    every sum alike, so it is left out.

    n > 2^16 gives (1.0, 0.0) without drawing (pigeonhole), so a chunk
    holds at most 2^22 increments. At sequential rates every increment
    is 1, so n <= 2^16 sums are distinct: (0.0, 0.0), without drawing.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    lam = _check_rate(lam, "lambda")
    if n > IPID_SPACE:
        return 1.0, 0.0
    if _is_sequential(lam, sim.t):
        return 0.0, 0.0
    trials = sim.trials
    chunk = max(1, min(_CHUNK_TRIALS, _CHUNK_TARGET_ELEMS // n))
    collisions = sum(
        _collisions(rng, np.full(rows, n), lam, sim.t)
        for rows, rng in _chunks(trials, chunk, sim.seed, "cond-collision")
    )
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
            flat = _draw_uniform(rng, _draw_highs(rng, int(counts.sum()), scale))
            offsets = np.zeros(rows, dtype=np.int64)
            np.cumsum(counts[:-1], out=offsets[1:])
            sums = np.add.reduceat(flat, offsets)
            endpoints = sums % IPID_SPACE
        hist += np.bincount(endpoints, minlength=IPID_SPACE)
    return DistributionTable(hist / trials, trials=trials)


def collision_prob_bucket(lam: float, sim: SimParams) -> tuple[float, float]:
    """Overall collision probability for per-bucket selection: each
    trial draws the in-transit count N ~ Poisson(lambda) and simulates N
    stochastic increments, so the estimate integrates the conditional
    collision probability over the traffic distribution.

    Three cases return without drawing. At lambda >= 2^32, P(N <= 2^16)
    is 0 in double precision, so every trial collides (pigeonhole):
    (1.0, 0.0). At sequential rates a trial collides exactly when
    N > 2^16: (P(N > 2^16), 0.0). Where ``_log_wrap_bound`` shows that
    no trial wraps but with a chance below the smallest double: (0.0, 0.0).
    """
    lam = _check_rate(lam, "lambda")
    if lam >= MAX_WINDOW_RATE:
        return 1.0, 0.0
    if _is_sequential(lam, sim.t):
        return _tail(float(IPID_SPACE), lam), 0.0  # poisson_sf's value, without its array wrapping
    trials = sim.trials
    if math.log(trials) + _log_wrap_bound(lam, sim.t) < _LOG_CERTIFIED_ZERO:
        return 0.0, 0.0
    collisions = sum(
        _collisions(rng, rng.poisson(lam, rows), lam, sim.t)
        for rows, rng in _chunks(trials, _CHUNK_TRIALS, sim.seed, "collision")
    )
    p = collisions / trials
    return p, binomial_std_err(p, trials)
