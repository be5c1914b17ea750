"""Collision and adversarial-guess probabilities for every selection method.

Traffic is modeled as a Poisson process: N, the number of packets in
transit (or sent since the adversary's last probe), has mean lambda per
unit time. Counter-based methods collide only after exhausting all 2^16
values; PRNG-based methods follow the birthday problem over the 2^16 - k
values outside the non-repetition window. Guess probabilities are the
mass of the g most likely next values. A per-bucket counter's next value
is compound Poisson on Z_2^16, so its distribution is exact too: one
inverse FFT of its characteristic function (``montecarlo`` simulates it,
and the collision probability that has no closed form).

``collision_prob`` and ``guess_prob`` are the one place where a method's
``Family`` picks its analysis; ``worst_case_lambda_i`` evaluates through
``guess_prob``.

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

from . import montecarlo
from .clock import DEFAULT_TICKS_PER_UNIT_TIME
from .constants import IPID_SPACE, MAX_WINDOW_RATE
from .distribution import DistributionTable, _check_guesses, _check_rate
from .selectors import Family, selector_class

# collision_prob and guess_prob are left out: perfbench traces what is listed,
# and a dispatcher span would hide worst_case_lambda_i's evaluations from it.
__all__ = [
    "DistributionTable",
    "GuessResult",
    "collision_prob_counter",
    "collision_prob_prng",
    "conditional_collision_birthday",
    "guess_prob_bucket",
    "guess_prob_counter",
    "guess_prob_per_connection",
    "guess_prob_prng",
    "next_ipid_distribution_bucket",
    "next_ipid_distribution_counter",
    "poisson_cdf",
    "poisson_logpmf",
    "poisson_pmf",
    "poisson_sf",
    "truncation_bound",
    "worst_case_lambda_i",
]

# Poisson mass below this is not representable as a float; sums over n
# are truncated where the pmf drops under it.
PMF_FLOOR = 5e-324
_LOG_PMF_FLOOR = math.log(PMF_FLOOR)


def _check_reserved(k: int) -> int:
    k = int(k)
    if not 0 <= k < IPID_SPACE:
        raise ValueError(f"k must be in [0, 2^16), got {k}")
    return k


def _log_pmf(n, lam: float):
    """n log(lambda) - lambda - log(n!) for n >= 0 (an int or an array)
    and a rate already checked."""
    return n * math.log(lam) - lam - special.gammaln(n + 1.0)


def poisson_logpmf(n, lam: float):
    """log pmf(n, lambda) = n log(lambda) - lambda - log(n!)."""
    lam = _check_rate(lam)
    n = np.asarray(n, dtype=np.float64)
    return np.where(n >= 0, _log_pmf(n, lam), -np.inf)


def poisson_pmf(n, lam: float):
    return np.exp(poisson_logpmf(n, lam))


def poisson_cdf(n, lam: float):
    """P(N <= n); regularized incomplete gamma, stable for large lambda."""
    lam = _check_rate(lam)
    return special.pdtr(np.asarray(n, dtype=np.float64), lam)


def poisson_sf(n, lam: float):
    """P(N > n) as a direct tail evaluation (no 1 - cdf cancellation)."""
    lam = _check_rate(lam)
    return special.pdtrc(np.asarray(n, dtype=np.float64), lam)


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


def collision_prob_counter(lam: float) -> float:
    """Collision probability for sequentially incrementing counters.

    Sequential counters reuse a value only after all 2^16 are exhausted,
    so this is the Poisson tail past 2^16. Applies to globally
    incrementing, per-connection, and per-destination selection.
    """
    return float(poisson_sf(IPID_SPACE, lam))


def conditional_collision_birthday(n: int, k: int = 0) -> float:
    """Birthday collision probability among n uniform values, the most
    recent k of which are guaranteed distinct.

    0 for n <= k; 1 for n > 2^16; otherwise
    1 - prod_{i=0}^{n-k-1} (1 - i / (2^16 - k)), accumulated in log space.
    """
    k = _check_reserved(k)
    n = int(n)
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n <= k:
        return 0.0
    if n > IPID_SPACE:
        return 1.0
    i = np.arange(n - k, dtype=np.float64)
    log_no_collision = math.fsum(np.log1p(-i / (IPID_SPACE - k)))
    return float(-np.expm1(log_no_collision))


def collision_prob_prng(lam: float, k: int = 0) -> float:
    """Collision probability for PRNG selection with k reserved values.

    Mixes the birthday term over the truncated Poisson distribution of
    the in-transit count and adds the tail past 2^16 (where collision is
    certain). k=0 is pure PRNG; the searchable queue and the iterated
    shuffle share this formula.
    """
    lam = _check_rate(lam)
    k = _check_reserved(k)
    tail = float(poisson_sf(IPID_SPACE, lam))
    if lam > MAX_WINDOW_RATE:  # the window would start far past 2^16
        return tail
    lo, hi = truncation_bound(lam)
    lo = max(lo, k + 1)
    hi = min(hi, IPID_SPACE)
    if hi < lo:
        return tail
    # prefix sums of log(1 - i/(2^16 - k)) give the birthday product for
    # every n in one pass
    i = np.arange(hi - k, dtype=np.float64)
    log_prefix = np.cumsum(np.log1p(-i / (IPID_SPACE - k)))
    ns = np.arange(lo, hi + 1)
    conditional = -np.expm1(log_prefix[ns - k - 1])
    weights = poisson_pmf(ns, lam)
    # fsum is correctly rounded, so the order of the (non-negative) terms
    # cannot change the sum; largest first it runs about 10x faster
    total = math.fsum(np.sort(conditional * weights)[::-1].tolist()) + tail
    return min(max(total, 0.0), 1.0)  # clear accumulated rounding noise


@dataclass(frozen=True)
class GuessResult:
    """The adversary's g maximum-likelihood guesses and their total mass."""

    guesses: frozenset
    probability: float
    std_err: Optional[float] = None


def next_ipid_distribution_counter(
    lam_i: float, baseline: int = 0
) -> DistributionTable:
    """Distribution of the next value of a sequentially incrementing
    counter, one unit time after it was probed at ``baseline``.

    The next value is baseline + N + 1 mod 2^16 with N Poisson; the
    truncated pmf is folded onto the 2^16 residues.
    """
    lam_i = _check_rate(lam_i, "lambda_i")
    lo, hi = truncation_bound(lam_i)
    ns = np.arange(lo, hi + 1)
    pm = poisson_pmf(ns, lam_i)
    mass = np.bincount((baseline + ns + 1) % IPID_SPACE, weights=pm, minlength=IPID_SPACE)
    return DistributionTable(mass).normalize()


def guess_prob_counter(lam_i: float, g: int, baseline: int = 0) -> GuessResult:
    """Guess probability against a sequentially incrementing counter
    observed one unit time ago (globally incrementing with lambda_i =
    lambda; per-destination with the destination's own rate)."""
    g = _check_guesses(g)
    table = next_ipid_distribution_counter(lam_i, baseline)
    idx, prob = table.top_g(g)
    return GuessResult(frozenset(int(x) for x in idx), min(prob, 1.0))


def guess_prob_per_connection(g: int) -> float:
    """g / 2^16: connection counters cannot be probed, so guesses are
    blind; rate-independent."""
    return _check_guesses(g) / IPID_SPACE


def guess_prob_prng(g: int, k: int = 0) -> float:
    """min{g / (2^16 - k), 1}: uniform over everything outside the
    non-repetition window; k=0 covers pure PRNG; rate-independent."""
    g = _check_guesses(g)
    k = _check_reserved(k)
    return min(g / (IPID_SPACE - k), 1.0)


# 1 - z and z / (1 - z) at z = e^{-2 pi i k / 2^16} (numpy's forward-FFT
# sign), k = 1..2^15; 1 - z by expm1, so it keeps its digits near z = 1
_ONE_MINUS_Z = -np.expm1(-2j * np.pi * np.arange(1, IPID_SPACE // 2 + 1) / IPID_SPACE)
_Z_OVER_ONE_MINUS_Z = (1.0 - _ONE_MINUS_Z) / _ONE_MINUS_Z
_ABS_SQ_ONE_MINUS_Z = 2.0 * _ONE_MINUS_Z.real  # |1 - z|^2 = 2 Re(1 - z)


def next_ipid_distribution_bucket(
    lam_i: float, t: int = DEFAULT_TICKS_PER_UNIT_TIME
) -> DistributionTable:
    """Exact distribution of the next value of a stochastically
    incremented bucket counter, one unit time after it was probed at 0.

    The next value is S = X_0 + ... + X_N mod 2^16 with N Poisson and
    i.i.d. increments X uniform on [1, max{1, D}], D the floored
    exponential tick gap of mean s = t / lambda_i. With q = e^{-1/s},
    E[z^X] = (1 - q) z [1 + log((1 - qz) / (1 - q)) / (1 - z)] for z != 1,
    and S is compound Poisson: E[z^S] = E[z^X] exp(lambda_i (E[z^X] - 1)).
    One inverse real FFT of E[z^S] over k = 0..2^15 gives all 2^16 masses.
    """
    lam_i = _check_rate(lam_i, "lambda_i")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    x = lam_i / t  # 1 / s
    one_minus_q, q = -math.expm1(-x), math.exp(-x)
    if one_minus_q == 0.0:
        raise ValueError(f"lambda_i / t underflows to 0 (lambda_i={lam_i}, t={t})")
    # log((1 - qz) / (1 - q)) = log(1 + w) with w = q (1 - z) / (1 - q),
    # taken by parts to keep the relative precision of small w, which
    # log(1 + w) and numpy's complex log1p lose:
    # |1 + w|^2 = 1 + |1 - z|^2 q / (1 - q)^2, arg(1 + w) = arg((1 - q) + q (1 - z)).
    # Arrays are updated in place: each fresh 2^15-element temporary costs
    # page faults that rival the arithmetic.
    log_scale = -x - 2.0 * math.log(one_minus_q)  # log(q / (1 - q)^2)
    phi = np.empty(IPID_SPACE // 2, dtype=np.complex128)
    if log_scale < 700.0:
        np.log1p(_ABS_SQ_ONE_MINUS_Z * math.exp(log_scale), out=phi.real)
    else:  # |1 + w|^2 exceeds 1e295, and log1p is log
        np.add(np.log(_ABS_SQ_ONE_MINUS_Z), log_scale, out=phi.real)
    phi.real *= 0.5
    np.arctan2(q * _ONE_MINUS_Z.imag, q * _ONE_MINUS_Z.real + one_minus_q, out=phi.imag)
    # phi becomes E[z^X] - 1 = (1 - q) (z log(1 + w) / (1 - z) - (1 - z)) - q,
    # which keeps the digits of -(1 - z) at small k, where q is small
    # whenever lambda_i is large; then E[z^S] at k = 1..2^15 in phi_s
    phi *= _Z_OVER_ONE_MINUS_Z
    phi -= _ONE_MINUS_Z
    phi *= one_minus_q
    phi -= q
    phi_s = np.empty(IPID_SPACE // 2 + 1, dtype=np.complex128)
    phi_s[0] = 1.0
    tail = phi_s[1:]
    with np.errstate(over="ignore"):  # a real part of -inf is a factor of 0
        np.multiply(phi, lam_i, out=tail)
        np.exp(tail, out=tail)
    phi += 1.0
    tail *= phi
    mass = np.fft.irfft(phi_s, n=IPID_SPACE)
    np.maximum(mass, 0.0, out=mass)
    mass /= mass.sum()
    return DistributionTable(mass)


def guess_prob_bucket(lam_i: float, g: int, sim=None, t=None) -> GuessResult:
    """Guess probability against a stochastically incremented bucket
    counter observed one unit time ago.

    Without ``sim`` it is exact, from the next-value distribution at
    ``t`` ticks per unit time (default 3), with std_err 0. With ``sim``
    it is the Monte Carlo estimate at ``sim.t``, with its binomial
    standard error; ``t`` must then be left unset.
    """
    g = _check_guesses(g)
    if sim is None:
        table = next_ipid_distribution_bucket(lam_i, DEFAULT_TICKS_PER_UNIT_TIME if t is None else t)
        idx, prob = table.top_g(g)
        # the g largest of 2^16 masses summing to 1 hold at least g / 2^16
        prob, std_err = max(prob, g / IPID_SPACE), 0.0
    elif t is None:
        table = montecarlo.increment_sum_distribution(lam_i, sim)
        idx, prob = table.top_g(g)
        std_err = montecarlo.binomial_std_err(prob, table.trials)
    else:
        raise ValueError("t is taken from sim when sim is given")
    return GuessResult(frozenset(int(x) for x in idx), min(prob, 1.0), std_err)


def collision_prob(method: str, lam: float, k: int = 0, sim=None) -> tuple[float, Optional[float]]:
    """Collision probability of ``method`` at rate ``lam`` (``k`` PRNG
    reserved values) and its Monte Carlo standard error, None when exact.
    Per-bucket selection is simulated with ``sim`` (default ``SimParams()``)."""
    family = selector_class(method).family
    if family is Family.BUCKET:
        return montecarlo.collision_prob_bucket(lam, montecarlo.SimParams() if sim is None else sim)
    if family is Family.BIRTHDAY:
        return collision_prob_prng(lam, k), None
    return collision_prob_counter(lam), None  # per-connection too: a counter's tail


def guess_prob(method: str, lam_i: float, g: int, k: int = 0, sim=None, t: Optional[int] = None) -> float:
    """Guess probability of ``method`` against one resource that carries
    rate ``lam_i`` (``k`` PRNG reserved values). ``sim`` and ``t`` go to
    ``guess_prob_bucket``; the other families are exact and ignore them."""
    family = selector_class(method).family
    if family is Family.BLIND:
        return guess_prob_per_connection(g)
    if family is Family.BIRTHDAY:
        return guess_prob_prng(g, k)
    if family is Family.BUCKET:
        return guess_prob_bucket(lam_i, g, sim, t).probability
    return guess_prob_counter(lam_i, g).probability


_WORST_CASE_LOG2_SPAN = 30  # feasible lambda_i reach down to lambda * 2^-30
_WORST_CASE_TOL_LOG2 = math.log2(10.0) / 64  # 1/64 decade, in octaves
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def worst_case_lambda_i(
    method: str, lam: float, r: int, g: int, sim=None, k: int = 0, t=None
) -> tuple[float, float]:
    """The per-resource rate that maximizes the guess probability, and
    that probability.

    The feasible rates are [lambda * 2^-30, lambda] plus the uniform
    split lambda / r. With one resource (r = 1) the only feasible rate
    is lambda itself. PRNG methods (``k`` reserved values) and
    per-connection are rate-independent, so any rate is "worst".

    Per-destination needs no search. The top-g mass of Poisson(lambda_i)
    never increases with lambda_i: at the best window [a, b] its
    derivative is p(a - 1) - p(b) <= 0, or shifting the window would
    gain mass. So only the floor lambda * 2^-30 and lambda / r are
    evaluated, and a tie goes to the floor.

    Every rate is evaluated by ``guess_prob`` with ``k``, ``sim`` and
    ``t``. Per-bucket guess probabilities are searched in log2 lambda_i:
    a coarse pass over one point per octave plus lambda / r, then a
    golden-section refinement over one octave either side of the best
    coarse point (within the range), until the bracket is 1/64 decade
    wide. Without ``sim`` they are exact. With ``sim`` every evaluation
    is a Monte Carlo estimate from the same chunk seeds. The result is
    the best point evaluated (a tie goes to the first evaluated, in the
    order above, from lambda down).
    """
    lam = _check_rate(lam)
    g = _check_guesses(g)
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    cls = selector_class(method)
    if cls.family in (Family.BLIND, Family.BIRTHDAY) or not cls.default_r or r == 1:
        # rate-independent, or one shared resource carries all of lambda
        return lam, guess_prob(method, lam, g, k, sim, t)

    probs = {}  # lambda_i -> probability, in evaluation order

    def evaluate(lam_i: float) -> float:
        if lam_i not in probs:
            probs[lam_i] = guess_prob(method, lam_i, g, k, sim, t)
        return probs[lam_i]

    floor = lam * 2.0**-_WORST_CASE_LOG2_SPAN
    if cls.family is not Family.BUCKET:  # per-destination: the two ends
        evaluate(floor)
        evaluate(lam / r)
    else:
        def at(octaves: float) -> float:
            return evaluate(lam * 2.0**-octaves)

        for octaves in range(_WORST_CASE_LOG2_SPAN + 1):
            at(octaves)
        evaluate(lam / r)
        best = math.log2(lam / max(probs, key=probs.get))  # octaves below lambda
        a = max(best - 1.0, 0.0)
        b = min(best + 1.0, float(_WORST_CASE_LOG2_SPAN))
        if a < b:
            c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
            fc, fd = at(c), at(d)
            while b - a > _WORST_CASE_TOL_LOG2:
                if fc >= fd:
                    b, d, fd = d, c, fc
                    c = b - _INV_PHI * (b - a)
                    fc = at(c)
                else:
                    a, c, fc = c, d, fd
                    d = a + _INV_PHI * (b - a)
                    fd = at(d)

    lam_i = max(probs, key=probs.get)
    return lam_i, probs[lam_i]
