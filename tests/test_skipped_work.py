"""The analysis kernels skip work that cannot change their output.

* ``montecarlo`` leaves out the uniform increment draws, sums and sort
  of a chunk in which no trial can wrap past 2^16; the estimates must
  equal, bit for bit, those of the draw-everything kernels copied below.
* ``collision_prob_prng`` sums its mixture terms largest first; ``fsum``
  is correctly rounded, so the order cannot change the sum. Its birthday
  terms are a slice of one prefix table per k instead of a prefix built
  at every rate, and past the table's end, where every term is exactly
  1.0, no multiply; the values must equal the per-call prefix's bit for bit.
* ``DistributionTable.top_g(1)`` takes an argmax instead of a partition.
* More than 2^16 values always collide, so huge n or lambda, or a
  chunk whose every trial takes more than 2^16 increments, count as
  collisions without drawing.
* At sequential rates a per-bucket row is the Poisson tail past 2^16,
  and where a Chernoff bound puts any wrap below the smallest double it
  is a certified 0.0; neither builds a chunk generator.
"""
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipidlab import analytics as an
from ipidlab import montecarlo as mc
from ipidlab.cli import run
from ipidlab.constants import IPID_SPACE
from ipidlab.distribution import DistributionTable

# ------------------------------------------- draw-everything reference kernels


def _draw_increments(rng, count, scale):
    deltas = rng.exponential(scale, count).astype(np.int64)
    highs = np.maximum(deltas, 1)
    return rng.integers(1, highs + 1, dtype=np.int64)


def reference_conditional_collision_bucket(n, lam, sim):
    if mc._is_sequential(lam, sim.t):
        return (1.0 if n > IPID_SPACE else 0.0), 0.0
    scale = sim.t / lam
    chunk = max(1, min(mc._CHUNK_TRIALS, mc._CHUNK_TARGET_ELEMS // max(n, 1)))
    collisions = 0
    for rows, rng in mc._chunks(sim.trials, chunk, sim.seed, "cond-collision"):
        incs = _draw_increments(rng, rows * n, scale).reshape(rows, n)
        values = np.cumsum(incs, axis=1) % IPID_SPACE
        values.sort(axis=1)
        collisions += int((values[:, 1:] == values[:, :-1]).any(axis=1).sum())
    p = collisions / sim.trials
    return p, mc.binomial_std_err(p, sim.trials)


def reference_collision_prob_bucket(lam, sim):
    sequential = mc._is_sequential(lam, sim.t)
    scale = sim.t / lam
    collisions = 0
    for rows, rng in mc._chunks(sim.trials, mc._CHUNK_TRIALS, sim.seed, "collision"):
        ns = rng.poisson(lam, rows)
        if sequential:
            collisions += int((ns > IPID_SPACE).sum())
        elif ns.max() >= 2:
            width = int(ns.max())
            incs = _draw_increments(rng, rows * width, scale).reshape(rows, width)
            values = np.cumsum(incs, axis=1) % IPID_SPACE
            cols = np.arange(width)
            values = np.where(cols[None, :] < ns[:, None], values, IPID_SPACE + cols)
            values.sort(axis=1)
            collisions += int((values[:, 1:] == values[:, :-1]).any(axis=1).sum())
    p = collisions / sim.trials
    return p, mc.binomial_std_err(p, sim.trials)


SEEDS = (1, 5, 42)
# the paper's t = 3, where no trial can wrap, and t = 10^6, where they do
POINTS = [(2.0**e, 3, 20_000) for e in (-14, -2, 4, 7)] + [(2.0**e, 10**6, 20_000) for e in range(-2, 9, 2)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("lam,t,trials", POINTS)
def test_collision_prob_bucket_equals_the_full_draw(lam, t, trials, seed):
    sim = mc.SimParams(trials=trials, t=t, seed=seed)
    assert mc.collision_prob_bucket(lam, sim) == reference_collision_prob_bucket(lam, sim)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n,lam,t", [
    (500, 0.01, 3), (300, 4.0, 100_000), (1000, 2.0**10, 3), (2000, 1.0, 3), (40, 2.0**-6, 3),
    (1, 4.0, 100_000), (2, 4.0, 100_000),
])
def test_conditional_collision_equals_the_full_draw(n, lam, t, seed):
    sim = mc.SimParams(trials=3000, t=t, seed=seed)
    assert mc.conditional_collision_bucket(n, lam, sim) == reference_conditional_collision_bucket(n, lam, sim)


def test_paper_grid_at_t3_draws_no_uniform_increment(monkeypatch):
    def refuse(*_):
        raise AssertionError("uniform increments drawn for a chunk that cannot wrap")

    monkeypatch.setattr(mc, "_draw_uniform", refuse)
    for i, e in enumerate(range(-14, 21)):
        mc.collision_prob_bucket(2.0**e, mc.SimParams(trials=20_000, t=3, seed=1 + i))


# ----------------------------------------------------------- pigeonhole returns


@pytest.mark.parametrize("lam", [2.0**32, 2.0**70, 1e300])
def test_collision_prob_bucket_at_huge_rates_is_certain(lam, monkeypatch):
    monkeypatch.setattr(mc, "_chunks", None)  # nothing is drawn
    assert mc.collision_prob_bucket(lam, mc.SimParams(trials=100, t=10**9)) == (1.0, 0.0)


def test_rate_ceiling_agrees_with_the_draws_below_it():
    # just below 2^32 the Monte Carlo runs, and finds every trial colliding
    assert mc.collision_prob_bucket(2.0**31.9, mc.SimParams(trials=5000, seed=3)) == (1.0, 0.0)


class _Drew(Exception):
    pass


def _cap_draws(monkeypatch):
    """Make the gap draw raise past 2^22 elements, recording each count."""
    counts = []

    def capped(rng, count, scale):
        counts.append(count)
        if count > 1 << 22:
            raise MemoryError(f"asked for {count} increments")
        raise _Drew

    monkeypatch.setattr(mc, "_draw_highs", capped)
    return counts


@pytest.mark.parametrize("n", [IPID_SPACE + 1, 10**9])
def test_conditional_collision_past_2_16_does_not_draw(n, monkeypatch):
    counts = _cap_draws(monkeypatch)
    assert mc.conditional_collision_bucket(n, 1.0, mc.SimParams(trials=4096, t=10**6)) == (1.0, 0.0)
    assert counts == []


def test_conditional_collision_chunks_stay_under_2_22_increments(monkeypatch):
    counts = _cap_draws(monkeypatch)
    with pytest.raises(_Drew):
        mc.conditional_collision_bucket(IPID_SPACE, 1.0, mc.SimParams(trials=4096, t=10**6))
    assert counts == [1 << 22]


def test_chunks_past_2_16_increments_in_every_trial_do_not_draw(monkeypatch):
    # at t = 10^6 the rate is not sequential, and every N ~ Poisson(2^20) exceeds 2^16
    counts = _cap_draws(monkeypatch)
    assert mc.collision_prob_bucket(2.0**20, mc.SimParams(trials=20_000, t=10**6)) == (1.0, 0.0)
    assert counts == []


def test_analyze_bucket_correctness_at_2_20_draws_no_gaps(monkeypatch, tmp_path):
    # this argv used to ask for 4.31e9 gaps (32 GiB per int64 array) in one chunk
    counts = _cap_draws(monkeypatch)
    out = tmp_path / "c.csv"
    code = run(["analyze", "--quantity", "correctness", "--methods", "per-bucket-exclusive",
                "--lambda-log2", "20", "20", "1", "--t", "1000000", "--trials", "20000", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[1:] == ["per-bucket-exclusive,20.0,1.0,0.0"]
    assert counts == []


# ------------------------------------------- exact tails and certified zeros


def _refuse_chunks(monkeypatch):
    def refuse(*_):
        raise AssertionError("a chunk generator was built")

    monkeypatch.setattr(mc, "_chunks", refuse)


@pytest.mark.parametrize("e", [8, 16, 17])
def test_sequential_rows_are_the_poisson_tail(e, monkeypatch):
    _refuse_chunks(monkeypatch)
    lam = 2.0**e
    assert mc.collision_prob_bucket(lam, mc.SimParams(trials=20_000, t=3, seed=1)) == (
        float(an.poisson_sf(IPID_SPACE, lam)), 0.0)


def test_paper_grid_at_t3_builds_no_chunk_above_2_minus_5(monkeypatch):
    _refuse_chunks(monkeypatch)
    for i, e in enumerate(range(-4, 21)):
        mc.collision_prob_bucket(2.0**e, mc.SimParams(trials=20_000, t=3, seed=1 + i))


@pytest.mark.parametrize("n,lam", [(1, 240.0), (IPID_SPACE, 2.0**10), (IPID_SPACE, 2.0**20)])
def test_conditional_collision_at_sequential_rates_is_zero(n, lam, monkeypatch):
    _refuse_chunks(monkeypatch)
    assert mc.conditional_collision_bucket(n, lam, mc.SimParams(trials=4096, t=3)) == (0.0, 0.0)


def mp_log_wrap(lam, t):
    """log P(N + Gamma(N, t / lam) >= 2^16), N ~ Poisson(lam), summed over
    n in mpmath; the terms are unimodal in n, so the sum stops once they
    fall below 1e-25 of it."""
    lam, theta = mp.mpf(lam), mp.mpf(t) / lam
    total, prev, n = mp.mpf(0), mp.mpf(0), 1
    while True:
        pmf = mp.exp(n * mp.log(lam) - lam - mp.loggamma(n + 1))
        term = pmf * mp.gammainc(n, (IPID_SPACE - n) / theta, mp.inf, regularized=True)
        total += term
        if n > lam and term < prev and term < total * mp.mpf(10) ** -25:
            return float(mp.log(total))
        prev, n = term, n + 1


@pytest.mark.parametrize("lam,t", [
    (2.0**-14, 3), (2.0**-8, 3), (2.0**-6, 3), (2.0**-5, 3), (1.0, 1000), (16.0, 10**6),
])
def test_wrap_bound_is_never_below_the_exact_tail(lam, t):
    with mp.workdps(30):
        assert mc._log_wrap_bound(lam, t) >= mp_log_wrap(lam, t)


@settings(max_examples=40, deadline=None)
@given(st.integers(-14, 10), st.sampled_from([1, 3, 7, 1000]), st.integers(1, 2000), st.integers(0, 2**32))
def test_certified_zeros_are_what_the_full_draw_returns(e, t, trials, seed):
    lam = 2.0**e
    if mc._is_sequential(lam, t) or math.log(trials) + mc._log_wrap_bound(lam, t) >= mc._LOG_CERTIFIED_ZERO:
        return  # the certificate does not fire here
    sim = mc.SimParams(trials=trials, t=t, seed=seed)
    assert mc.collision_prob_bucket(lam, sim) == reference_collision_prob_bucket(lam, sim) == (0.0, 0.0)


# ------------------------------------------------------ fsum term order


def _magnitudes():
    # zero, or m * 10^e with 10^e spanning 1e-320 (subnormal) .. 1
    scaled = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-320, -1))
    return st.lists(st.one_of(st.just(0.0), scaled, st.floats(0.0, 1.0)), max_size=300)


@settings(max_examples=300, deadline=None)
@given(_magnitudes())
def test_descending_fsum_equals_fsum_in_any_order(terms):
    a = np.array(terms, dtype=np.float64)
    assert math.fsum(np.sort(a)[::-1].tolist()) == math.fsum(a)


def reference_collision_prob_prng(lam, k):
    tail = float(an.poisson_sf(IPID_SPACE, lam))
    lo, hi = an.truncation_bound(lam)
    lo, hi = max(lo, k + 1), min(hi, IPID_SPACE)
    if hi < lo:
        return tail
    log_prefix = np.cumsum(np.log1p(-np.arange(hi - k, dtype=np.float64) / (IPID_SPACE - k)))
    ns = np.arange(lo, hi + 1)
    total = math.fsum(-np.expm1(log_prefix[ns - k - 1]) * an.poisson_pmf(ns, lam)) + tail
    return min(max(total, 0.0), 1.0)


@pytest.mark.parametrize("k", [0, 8192, 32768])
@pytest.mark.parametrize("e", [-14, -3, 0, 5, 10, 13, 15, 16, 20])
def test_collision_prob_prng_equals_the_original_order(k, e):
    assert an.collision_prob_prng(2.0**e, k) == reference_collision_prob_prng(2.0**e, k)


TABLE_KS = [0, 1, 100, 8192, 32768, 65534, 65535]
TABLE_RATES = [2.0 ** (q / 4) for q in range(-14 * 4, 20 * 4 + 1)]


@pytest.mark.parametrize("k", TABLE_KS)
def test_birthday_table_equals_the_per_call_prefix(k):
    an._birthday_table.cache_clear()
    got = [an.collision_prob_prng(lam, k) for lam in TABLE_RATES]
    assert got == [reference_collision_prob_prng(lam, k) for lam in TABLE_RATES]


def test_birthday_table_values_do_not_depend_on_the_cache_or_rate_order():
    an._birthday_table.cache_clear()
    cold = {(k, lam): an.collision_prob_prng(lam, k) for k in TABLE_KS for lam in TABLE_RATES[::8]}
    # more k than the cache holds, so tables are evicted and built again
    warm_descending = {(k, lam): an.collision_prob_prng(lam, k) for lam in TABLE_RATES[::-8] for k in TABLE_KS}
    assert warm_descending == cold


@pytest.mark.parametrize("k", TABLE_KS)
def test_birthday_table_stops_where_every_term_is_one(k):
    i = np.arange(IPID_SPACE - k, dtype=np.float64)
    full = -np.expm1(np.cumsum(np.log1p(-i / (IPID_SPACE - k))))
    table = an._birthday_table(k)
    assert table.tolist() == full[:table.size].tolist()
    assert table[-1] < 1.0 and (full[table.size:] == 1.0).all()


def test_birthday_table_is_read_only_and_its_cache_bounded():
    table = an._birthday_table(8192)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 0.5
    assert an._birthday_table.cache_info().maxsize == 4


# --------------------------------------------------------------- top_g(1)


def _partition_top1(table):
    return float(table.mass[np.argpartition(table.mass, -1)[-1:]].sum())


@pytest.mark.parametrize("table", [
    an.next_ipid_distribution_counter(17.0),  # a tie between n = 16 and 17
    an.next_ipid_distribution_counter(2.0**20),
    an.next_ipid_distribution_bucket(2.0**-3),
    an.next_ipid_distribution_bucket(2.0**12),
    DistributionTable(np.full(IPID_SPACE, 1.0 / IPID_SPACE)),
], ids=["counter-17", "counter-2^20", "bucket-2^-3", "bucket-2^12", "uniform"])
def test_top_1_is_the_lowest_maximal_cell(table):
    idx, prob = table.top_g(1)
    assert prob == _partition_top1(table)
    assert idx.tolist() == [int(np.flatnonzero(table.mass == table.mass.max())[0])]
