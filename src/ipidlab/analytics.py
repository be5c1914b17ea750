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
``guess_prob``. The Poisson model itself (pmf, tail and truncation
window) is in ``distribution``, and is re-exported here.
"""
from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import montecarlo
from .clock import DEFAULT_TICKS_PER_UNIT_TIME
from .constants import IPID_SPACE, MAX_WINDOW_RATE
from .distribution import DistributionTable, _check_guesses, _check_rate, _log_pmf
from .distribution import PMF_FLOOR, poisson_logpmf, poisson_pmf, poisson_sf, truncation_bound  # re-exported
from .selectors import Family, selector_class

# collision_prob and guess_prob are left out: perfbench traces what is listed,
# and a dispatcher span would hide worst_case_lambda_i's evaluations from it.
# parallel_map, a helper that the CLI shares, is no analysis.
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
    "poisson_logpmf",
    "poisson_pmf",
    "poisson_sf",
    "truncation_bound",
    "worst_case_lambda_i",
]

def _check_reserved(k: int) -> int:
    k = int(k)
    if not 0 <= k < IPID_SPACE:
        raise ValueError(f"k must be in [0, 2^16), got {k}")
    return k


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


@functools.lru_cache(maxsize=4)
def _birthday_table(k: int) -> np.ndarray:
    """The birthday term 1 - prod_{i<n-k} (1 - i / (2^16 - k)) at index
    n - k - 1, from n = k+1 up to the last n where it rounds below 1; every
    later term is exactly 1.0 (from about n - k = 2200 on), so the table
    holds a few thousand cells. One pass of prefix sums of
    log(1 - i/(2^16 - k)): ``cumsum`` accumulates in order, so each cell
    has the bits of a prefix cut at its n. Read-only: callers share it."""
    # -expm1(cumsum(log1p(-i / (2^16 - k)))), each step in place: one
    # 2^16-cell buffer to fault in instead of seven
    terms = np.arange(IPID_SPACE - k, dtype=np.float64)
    np.negative(terms, out=terms)
    terms /= IPID_SPACE - k
    np.log1p(terms, out=terms)
    np.cumsum(terms, out=terms)
    np.expm1(terms, out=terms)
    np.negative(terms, out=terms)
    table = terms[:np.flatnonzero(terms < 1.0)[-1] + 1].copy()
    table.flags.writeable = False
    return table


def collision_prob_prng(lam: float, k: int = 0) -> float:
    """Collision probability for PRNG selection with k reserved values.

    Mixes the birthday term over the truncated Poisson distribution of
    the in-transit count and adds the tail past 2^16 (where collision is
    certain). k=0 is pure PRNG; the searchable queue and the iterated
    shuffle share this formula. The birthday terms below 1 are a window
    of one read-only table per k (a few thousand cells), built on first
    use and kept for the 4 most recently used k.
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
    terms = _log_pmf(np.arange(lo, hi + 1, dtype=np.float64), lam)
    np.exp(terms, out=terms)
    below_one = _birthday_table(k)[lo - k - 1:hi - k]  # the birthday term at n = lo..
    terms[:below_one.size] *= below_one  # and 1.0 after it
    # fsum is correctly rounded, so the order of the (non-negative) terms
    # cannot change the sum; largest first it runs about 10x faster
    terms.sort()
    total = math.fsum(terms[::-1].tolist()) + tail
    return min(max(total, 0.0), 1.0)  # clear accumulated rounding noise


@dataclass(frozen=True)
class GuessResult:
    """The adversary's g maximum-likelihood guesses and their total mass."""

    guesses: frozenset
    probability: float
    std_err: Optional[float] = None


class _Scratch(threading.local):
    """One thread's buffers for the 2^16-cell kernels, reused from call
    to call. Whether a fresh array of 2^15 or more cells costs page
    faults that rival the arithmetic depends on what the allocator did
    before (whether it gave those pages back to the system); a reused
    buffer costs them once per thread. ``_counter_mass`` and
    ``_bucket_mass`` share ``mass``, which the next call on the thread
    overwrites: the guess paths read it in place, the public tables copy it.
    ``re`` and ``im`` are the two halves of ``mass``: ``_bucket_mass``
    is done with them before its ``irfft`` writes ``mass``. A helper
    thread of ``parallel_map`` builds its own set on its first kernel
    call, and frees it when it ends."""

    def __init__(self):
        half = IPID_SPACE // 2
        self.mass = np.empty(IPID_SPACE)
        self.re, self.im = self.mass[:half], self.mass[half:]
        self.phi = np.empty(half, dtype=np.complex128)
        self.phi_s = np.empty(half + 1, dtype=np.complex128)


_SCRATCH = _Scratch()


def _counter_mass(lam_i: float) -> np.ndarray:
    """Mass of the next value of a sequentially incrementing counter, one
    unit time after it was probed, relative to the probed value: N + 1
    mod 2^16 with N Poisson, the truncated pmf folded onto the 2^16
    residues. The array is this thread's scratch ``mass`` (``_Scratch``)."""
    lam_i = _check_rate(lam_i, "lambda_i")
    lo, hi = truncation_bound(lam_i)
    pm = _log_pmf(np.arange(lo, hi + 1, dtype=np.float64), lam_i)
    np.exp(pm, out=pm)
    mass = _SCRATCH.mass
    mass.fill(0.0)
    # N = n lands on residue (n + 1) mod 2^16, so the window folds on in
    # runs of consecutive residues, each added in index order
    start, i = (lo + 1) % IPID_SPACE, 0
    while i < pm.size:
        run = min(IPID_SPACE - start, pm.size - i)
        mass[start:start + run] += pm[i:i + run]
        start, i = 0, i + run
    mass /= mass.sum()
    return mass


def next_ipid_distribution_counter(lam_i: float) -> DistributionTable:
    """Distribution of a sequentially incrementing counter's next value,
    relative to the probed value (``_counter_mass``, copied)."""
    return DistributionTable(_counter_mass(lam_i).copy())


def guess_prob_counter(lam_i: float, g: int) -> GuessResult:
    """Guess probability against a sequentially incrementing counter
    observed one unit time ago (globally incrementing with lambda_i =
    lambda; per-destination with the destination's own rate). The guesses
    are offsets from the probed value."""
    g = _check_guesses(g)
    idx, prob = DistributionTable(_counter_mass(lam_i)).top_g(g)
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


def _unit_root_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re(1 - z), Im(1 - z) (each contiguous) and z / (1 - z) at
    z = e^{-2 pi i k / 2^16} (numpy's forward-FFT sign), k = 1..2^15;
    1 - z by expm1, so it keeps its digits near z = 1."""
    one_minus_z = -np.expm1(-2j * np.pi * np.arange(1, IPID_SPACE // 2 + 1) / IPID_SPACE)
    return one_minus_z.real.copy(), one_minus_z.imag.copy(), (1.0 - one_minus_z) / one_minus_z


_ONE_MINUS_Z_REAL, _ONE_MINUS_Z_IMAG, _Z_OVER_ONE_MINUS_Z = _unit_root_tables()


def _tick_gap(lam_i: float, t: int) -> tuple[float, float, float]:
    """x = lambda_i / t, 1 - q and q = e^{-x}, where q^d = P(D >= d) for
    the floored exponential tick gap D of a bucket counter; raises for a
    rate or ``t`` that the bucket kernels cannot take."""
    lam_i = _check_rate(lam_i, "lambda_i")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    x = lam_i / t
    one_minus_q = -math.expm1(-x)
    if one_minus_q == 0.0:
        raise ValueError(f"lambda_i / t underflows to 0 (lambda_i={lam_i}, t={t})")
    return x, one_minus_q, math.exp(-x)


def _bucket_mass(lam_i: float, t: int) -> np.ndarray:
    """Exact mass of the next value of a stochastically incremented
    bucket counter, one unit time after it was probed at 0, in this
    thread's scratch ``mass`` (``_Scratch``).

    The next value is S = X_0 + ... + X_N mod 2^16 with N Poisson and
    i.i.d. increments X uniform on [1, max{1, D}], D the floored
    exponential tick gap of mean s = t / lambda_i. With q = e^{-1/s},
    E[z^X] = (1 - q) z [1 + log((1 - qz) / (1 - q)) / (1 - z)] for z != 1,
    and S is compound Poisson: E[z^S] = E[z^X] exp(lambda_i (E[z^X] - 1)).
    One inverse real FFT of E[z^S] over k = 0..2^15 gives all 2^16 masses.
    """
    lam_i = float(lam_i)
    x, one_minus_q, q = _tick_gap(lam_i, t)
    # log((1 - qz) / (1 - q)) = log(1 + w) with w = q (1 - z) / (1 - q),
    # taken by parts to keep the relative precision of small w, which
    # log(1 + w) and numpy's complex log1p lose:
    # |1 + w|^2 = 1 + |1 - z|^2 q / (1 - q)^2, arg(1 + w) = arg((1 - q) + q (1 - z)).
    # Every 2^15-cell array is one of this thread's _SCRATCH buffers,
    # updated in place (see _Scratch); re and im are the halves of mass,
    # dead before irfft writes it. The one large allocation left is
    # pocketfft's scratch inside irfft (about 900 KiB from malloc), which
    # numpy offers no way to reuse.
    scratch = _SCRATCH
    re, im, phi = scratch.re, scratch.im, scratch.phi
    log_scale = -x - 2.0 * math.log(one_minus_q)  # log(q / (1 - q)^2)
    # |1 - z|^2 = 2 Re(1 - z), and doubling is exact
    if log_scale < 700.0:
        np.multiply(_ONE_MINUS_Z_REAL, 2.0 * math.exp(log_scale), out=re)
        np.log1p(re, out=phi.real)
    else:  # |1 + w|^2 exceeds 1e295, and log1p is log
        np.multiply(_ONE_MINUS_Z_REAL, 2.0, out=re)
        np.log(re, out=re)
        np.add(re, log_scale, out=phi.real)
    phi.real *= 0.5
    np.multiply(_ONE_MINUS_Z_IMAG, q, out=im)
    np.multiply(_ONE_MINUS_Z_REAL, q, out=re)
    re += one_minus_q
    np.arctan2(im, re, out=phi.imag)
    # phi becomes E[z^X] - 1 = (1 - q) (z log(1 + w) / (1 - z) - (1 - z)) - q,
    # which keeps the digits of -(1 - z) at small k, where q is small
    # whenever lambda_i is large; then E[z^S] at k = 1..2^15 in phi_s
    phi *= _Z_OVER_ONE_MINUS_Z
    phi.real -= _ONE_MINUS_Z_REAL
    phi.imag -= _ONE_MINUS_Z_IMAG
    phi *= one_minus_q
    phi -= q
    phi_s = scratch.phi_s
    phi_s[0] = 1.0
    tail = phi_s[1:]
    with np.errstate(over="ignore"):  # a real part of -inf is a factor of 0
        np.multiply(phi, lam_i, out=tail)
        np.exp(tail, out=tail)
    phi += 1.0
    tail *= phi
    mass = np.fft.irfft(phi_s, n=IPID_SPACE, out=scratch.mass)
    np.maximum(mass, 0.0, out=mass)
    mass /= mass.sum()
    return mass


def next_ipid_distribution_bucket(lam_i: float, t: int = DEFAULT_TICKS_PER_UNIT_TIME) -> DistributionTable:
    """Exact distribution of a bucket counter's next value at ``t`` ticks
    per unit time (``_bucket_mass``, copied)."""
    return DistributionTable(_bucket_mass(lam_i, t).copy())


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
        mass = _bucket_mass(lam_i, DEFAULT_TICKS_PER_UNIT_TIME if t is None else t)
        idx, prob = DistributionTable(mass).top_g(g)
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


def parallel_map(fn, items) -> list:
    """[fn(item) for item in items], computed on the calling thread and
    one helper thread per other CPU this process may run on; each call of
    ``fn`` runs whole on one thread, so its result is what the serial loop
    gives. Helpers start here and are joined before it returns. If calls
    raise, the one raised is the first in input order, after the join;
    after a call raises, no new item is started. With one usable CPU, or
    fewer than two items, it is the serial loop. Worth it only where
    ``fn`` is numpy work that releases the GIL, such as ``_bucket_mass``."""
    items = list(items)
    helpers = min(len(os.sched_getaffinity(0)), len(items)) - 1
    if helpers < 1:
        return [fn(item) for item in items]
    out, errors = [None] * len(items), {}
    pending, lock = enumerate(items), threading.Lock()

    def work():
        while True:
            with lock:  # every item before one that raised has been taken
                i, item = (-1, None) if errors else next(pending, (-1, None))
            if i < 0:
                return
            try:
                out[i] = fn(item)
            except Exception as exc:  # re-raised on the calling thread
                with lock:
                    errors[i] = exc

    threads = [threading.Thread(target=work, name=f"ipidlab-map-{n}") for n in range(helpers)]
    for thread in threads:
        thread.start()
    try:
        work()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return out


_WORST_CASE_LOG2_SPAN = 30  # feasible lambda_i reach down to lambda * 2^-30
_WORST_CASE_TOL_LOG2 = math.log2(10.0) / 64  # 1/64 decade, in octaves
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# A coarse point is skipped only if its bound is below the best value by
# more than this: above g * 1e-12 (g <= 2^16 cells, each within 1e-12 of
# mpmath in the kernel's tests) plus the bound's own rounding (< 1e-10).
_PRUNE_MARGIN = 2.0**-20


def _guess_bound_bucket(lam_i: float, g: int, t: int) -> float:
    """U >= the exact per-bucket guess probability at lambda_i
    (``worst_case_lambda_i`` gives the proof): P(X_0 <= g) + g / 2^16,
    with P(X_0 <= g) = 1 - q^{g+1} + (1 - q) g sum_{d > g} q^d / d. Raises
    what ``_bucket_mass`` raises for the rate and ``t``."""
    x, one_minus_q, _ = _tick_gap(lam_i, t)
    # sum_{d > g} q^d / d = -log(1 - q) - sum_{d <= g} q^d / d; terms below
    # e^-45 are left out of the second sum, which can only raise the bound
    d = np.arange(1.0, (g if x * g < 45.0 else math.ceil(45.0 / x)) + 1.0)
    head = float(np.sum(np.exp(-x * d) / d))
    tail = max(-math.log(one_minus_q) - head, 0.0)
    return -math.expm1(-(g + 1) * x) + one_minus_q * g * tail + g / IPID_SPACE


def worst_case_lambda_i(
    method: str, lam: float, r: int, g: int, sim=None, k: int = 0, t=None, *, memo: Optional[dict] = None
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
    wide. The result is the best point evaluated; a tie goes to the first
    in the order above, from lambda down. With ``sim`` every evaluation
    is a Monte Carlo estimate from the same chunk seeds, and the coarse
    pass is one ``parallel_map``.

    Per-bucket values without ``sim`` are exact, and ``memo`` (one fresh
    dict per call by default; other searches do not read it) maps
    (lambda_i, g, t) to them: a value found there is not computed again,
    and one computed is stored. Such a search runs its first two
    golden-section probes through ``parallel_map``, and its coarse pass
    skips every point that cannot be the maximum. Write the next value
    as S = X_0 + T mod 2^16, T independent of X_0. The top-g mass of S
    is a mixture over T of the top-g masses of shifts of X_0, so it is
    at most the top-g mass of X_0 mod 2^16. The pmf of X_0 does not
    increase on [1, inf), so its g largest values on [1, 2^16] hold
    P(X_0 <= g), and the wrapped mass X_0 adds to a residue r is at most
    2^-16 P(X_0 > r) <= 2^-16. Hence top-g(S) <= U = P(X_0 <= g) +
    g / 2^16 (``_guess_bound_bucket``). The coarse points are evaluated
    in order of falling U, one ``parallel_map`` batch of one point per
    usable CPU at a time. A point whose U is below the best value so far
    by more than 2^-20 (a margin for the kernel's rounding) is strictly
    below the best, so it is skipped: it can be neither the maximum nor
    tied with it. The values found go into the search in coarse order,
    so the result does not depend on the batch size or the memo.
    """
    lam = _check_rate(lam)
    g = _check_guesses(g)
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    cls = selector_class(method)
    if cls.family in (Family.BLIND, Family.BIRTHDAY) or not cls.default_r or r == 1:
        # rate-independent, or one shared resource carries all of lambda
        return lam, guess_prob(method, lam, g, k, sim, t)

    exact_bucket = cls.family is Family.BUCKET and sim is None
    if exact_bucket:
        t = DEFAULT_TICKS_PER_UNIT_TIME if t is None else t
    if memo is None or not exact_bucket:
        memo = {}
    probs = {}  # this search's lambda_i -> probability, in evaluation order

    def guess(lam_i: float) -> float:
        return guess_prob(method, lam_i, g, k, sim, t)

    def compute(points: list) -> list:
        """The values of ``points``, those not in ``memo`` computed on
        every usable CPU (they are independent) and stored there."""
        new = [p for p in dict.fromkeys(points) if (p, g, t) not in memo]
        memo.update(zip([(p, g, t) for p in new], parallel_map(guess, new)))
        return [memo[(p, g, t)] for p in points]

    def evaluate(lam_i: float) -> float:
        probs[lam_i], = compute([lam_i])
        return probs[lam_i]

    floor = lam * 2.0**-_WORST_CASE_LOG2_SPAN
    if cls.family is not Family.BUCKET:  # per-destination: the two ends
        evaluate(floor)
        evaluate(lam / r)
    else:
        def at(octaves: float) -> float:
            return evaluate(lam * 2.0**-octaves)

        coarse = list(dict.fromkeys([*(lam * 2.0**-o for o in range(_WORST_CASE_LOG2_SPAN + 1)), lam / r]))
        todo = [p for p in coarse if (p, g, t) not in memo]
        if exact_bucket:
            bound = {p: _guess_bound_bucket(p, g, t) for p in todo}
            todo.sort(key=bound.get, reverse=True)
            batch = len(os.sched_getaffinity(0))
        else:  # a Monte Carlo estimate has no such bound
            bound, batch = dict.fromkeys(todo, math.inf), len(todo)
        top = max((memo[(p, g, t)] for p in coarse if (p, g, t) in memo), default=-math.inf)
        while todo:
            todo = [p for p in todo if bound[p] + _PRUNE_MARGIN >= top]
            top = max([top, *compute(todo[:batch])])
            del todo[:batch]
        for p in coarse:  # in coarse order, as the tie rule needs
            if (p, g, t) in memo:
                evaluate(p)
        best = math.log2(lam / max(probs, key=probs.get))  # octaves below lambda
        a = max(best - 1.0, 0.0)
        b = min(best + 1.0, float(_WORST_CASE_LOG2_SPAN))
        if a < b:
            c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
            if exact_bucket:  # the first two probes are independent
                compute([lam * 2.0**-c, lam * 2.0**-d])
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
