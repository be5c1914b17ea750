"""The exact next-value distribution of a per-bucket counter
(``analytics.next_ipid_distribution_bucket``) against independent
oracles: an mpmath convolution of the increment pmf, the Monte Carlo
simulation, Wald's moments and the counter fold."""
import ast
import inspect
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipidlab import analytics as an
from ipidlab import distribution
from ipidlab import montecarlo as mc
from ipidlab.constants import IPID_SPACE

SRC = Path(__file__).resolve().parents[1] / "src"


def mp_increment_pmf(lam_i: float, t: int, support: int) -> list:
    """P(X = j) for j < support, summed straight from the model: the tick
    gap D is floor(Exp(mean t / lam_i)), so P(D = d) = (1 - q) q^d with
    q = e^{-lam_i / t}, and X given D is uniform on [1, max{1, D}]."""
    q = mp.exp(-mp.mpf(lam_i) / t)
    d_max = int(200 * t / lam_i) + support  # q^d_max < e^-200
    pmf = [mp.mpf(0)] * (d_max + 1)
    tail = mp.mpf(0)  # sum over d' >= d of P(D = d') / max{1, d'}
    for d in range(d_max, -1, -1):
        tail += (1 - q) * q**d / max(1, d)
        pmf[max(1, d)] = tail  # gaps of 0 and 1 tick both give X = 1
    return pmf[:support]


def mp_bucket_distribution(lam_i: float, t: int, support: int) -> list:
    """P(S = n) for n < support, S = X_0 + X_1 + ... + X_N, N Poisson.

    The compound sum X_1 + ... + X_N follows Panjer's recursion
    f(n) = (lam_i / n) sum_j j P(X = j) f(n - j) with f(0) = e^{-lam_i};
    X_0 is convolved in afterwards. Mass at or past ``support`` is left
    out, so ``support`` must be large enough for it to be negligible.
    """
    with mp.workdps(40):
        p = mp_increment_pmf(lam_i, t, support)
        lam = mp.mpf(lam_i)
        f = [mp.exp(-lam)] + [mp.mpf(0)] * (support - 1)
        for n in range(1, support):
            f[n] = lam / n * mp.fsum(j * p[j] * f[n - j] for j in range(1, n + 1))
        return [float(mp.fsum(p[j] * f[n - j] for j in range(1, n + 1))) for n in range(support)]


def increment_moments(lam_i: float, t: int) -> tuple[float, float, float]:
    """E[X], E[X^2] and Var(S) = Var(X) + lam_i E[X^2] in closed form.

    D is geometric: E[D] = q / (1 - q), E[D^2] = q (1 + q) / (1 - q)^2.
    Given D = h >= 1, E[X] = (h + 1) / 2 and E[X^2] = (h + 1)(2h + 1) / 6;
    D = 0 acts as h = 1, which adds (1 - q) / 2 and 5 (1 - q) / 6.
    """
    one_minus_q, q = -math.expm1(-lam_i / t), math.exp(-lam_i / t)
    ed, ed2 = q / one_minus_q, q * (1 + q) / one_minus_q**2
    ex = (ed + 1) / 2 + one_minus_q / 2
    ex2 = (2 * ed2 + 3 * ed + 1) / 6 + 5 * one_minus_q / 6
    return ex, ex2, ex2 - ex * ex + lam_i * ex2


def test_matches_mpmath_convolution():
    support = 256  # at lam_i = 1, t = 3 the mass past 256 is below e^-80
    want = mp_bucket_distribution(1.0, 3, support)
    got = an.next_ipid_distribution_bucket(1.0, 3).mass
    assert np.max(np.abs(got[:support] - want)) <= 1e-12
    assert np.max(got[support:]) <= 1e-12


@pytest.mark.parametrize("lam_i", [2.0**-6, 2.0**-2, 1.0, 4.0, 2.0**8])
def test_cells_match_monte_carlo(lam_i):
    # per-cell z scores against a 400k-trial simulation; cells expected
    # to hold fewer than 20 endpoints are pooled into one
    trials = 400_000
    sim = mc.increment_sum_distribution(lam_i, mc.SimParams(trials=trials, seed=21))
    exact = an.next_ipid_distribution_bucket(lam_i, 3).mass
    big = exact * trials >= 20
    p = np.append(exact[big], exact[~big].sum())
    seen = np.append(sim.mass[big], sim.mass[~big].sum())
    z = (seen - p) / np.sqrt(p * (1 - p) / trials)
    assert big.sum() >= 2
    assert np.max(np.abs(z)) <= 5
    assert np.mean(z**2) <= 2


@pytest.mark.parametrize("lam_i, t", [(2.0**-6, 3), (0.25, 3), (1.0, 3), (4.0, 3), (64.0, 3), (1.0, 1000), (3.0, 1)])
def test_wald_moments(lam_i, t):
    # every case here keeps S below 2^15 but for a mass under 1e-14, so
    # the moments of the folded distribution, its values read as
    # residues in [-2^15, 2^15), are those of S itself. The FFT leaves
    # a few 1e-18 of rounding in every cell, which the variance weights
    # by up to 2^30: that costs it about 1e-6 of relative precision.
    ex, _, var = increment_moments(lam_i, t)
    mass = an.next_ipid_distribution_bucket(lam_i, t).mass
    n = np.arange(IPID_SPACE, dtype=np.float64)
    n[IPID_SPACE // 2 :] -= IPID_SPACE
    mean = math.fsum(n * mass)
    assert mean == pytest.approx((lam_i + 1) * ex, rel=1e-11)
    assert math.fsum((n - mean) ** 2 * mass) == pytest.approx(var, rel=1e-5)


@pytest.mark.parametrize("lam_i, t", [(2.0**8, 3), (2.0**9, 3), (2.0**12, 3), (2.0**14, 100)])
def test_saturated_bucket_is_the_counter_fold(lam_i, t):
    # at lam_i >= 80 t a gap of two ticks has probability below e^-160,
    # so every increment is 1 and S = N + 1
    assert lam_i >= 80 * t
    bucket = an.next_ipid_distribution_bucket(lam_i, t).mass
    counter = an.next_ipid_distribution_counter(lam_i).mass
    assert 0.5 * np.abs(bucket - counter).sum() < 1e-10


@given(
    lam_log2=st.floats(min_value=-44, max_value=20),
    t=st.sampled_from([1, 3, 1000]),
    g=st.integers(min_value=1, max_value=IPID_SPACE),
)
@settings(max_examples=60, deadline=None)
def test_distribution_is_a_distribution(lam_log2, t, g):
    lam_i = 2.0**lam_log2
    mass = an.next_ipid_distribution_bucket(lam_i, t).mass
    assert np.isfinite(mass).all() and (mass >= 0).all()
    assert abs(mass.sum() - 1.0) <= 1e-12
    res = an.guess_prob_bucket(lam_i, g, t=t)
    assert g / IPID_SPACE <= res.probability <= 1.0
    assert res.std_err == 0.0 and len(res.guesses) == g


def test_guess_floor_covers_rounding():
    # normalised masses can sum to just under 1 (some of these do), yet
    # guessing every value is certain
    points = [(2.0**e, t) for e in range(-9, 12) for t in (1, 3)]
    sums = [an.next_ipid_distribution_bucket(lam_i, t).top_g(IPID_SPACE)[1] for lam_i, t in points]
    assert min(sums) < 1.0
    assert all(an.guess_prob_bucket(lam_i, IPID_SPACE, t=t).probability == 1.0 for lam_i, t in points)


def test_guess_prob_bucket_exact_by_default():
    res = an.guess_prob_bucket(0.5, 3)
    assert res == an.guess_prob_bucket(0.5, 3, t=3)
    _, top = an.next_ipid_distribution_bucket(0.5, 3).top_g(3)
    assert res.probability == top and res.std_err == 0.0
    assert an.guess_prob_bucket(0.5, 3, t=1000).probability < res.probability


def test_guess_prob_bucket_takes_t_from_sim():
    sim = mc.SimParams(trials=1000, t=3, seed=1)
    with pytest.raises(ValueError, match="sim"):
        an.guess_prob_bucket(0.5, 1, sim, t=3)
    assert an.guess_prob_bucket(0.5, 1, sim).std_err > 0


def test_extreme_rates_fold_to_uniform():
    # a gap of mean 3e200 ticks, or 2^1023 increments, leaves no trace
    # mod 2^16 that a double can hold
    for lam_i in (1e-200, 2.0**1023):
        mass = an.next_ipid_distribution_bucket(lam_i, 3).mass
        assert np.max(np.abs(mass * IPID_SPACE - 1.0)) < 1e-9
    with pytest.raises(ValueError, match="t must be >= 1"):
        an.next_ipid_distribution_bucket(1.0, 0)
    with pytest.raises(ValueError, match="underflows"):
        an.next_ipid_distribution_bucket(5e-324, 3)


def test_worst_case_per_bucket_is_exact_at_t():
    lam_i, prob = an.worst_case_lambda_i("per-bucket-exclusive", 16.0, 2048, 1, t=3)
    assert prob == an.guess_prob_bucket(lam_i, 1, t=3).probability
    assert prob >= an.guess_prob_bucket(16.0 / 2048, 1).probability
    assert an.worst_case_lambda_i("per-bucket-exclusive", 16.0, 2048, 1) == (lam_i, prob)
    assert an.worst_case_lambda_i("per-bucket-exclusive", 16.0, 2048, 1, t=1000)[1] != prob


# ------------------------------------------------- allocation stability


@pytest.mark.parametrize("guess", [an.guess_prob_bucket, an.guess_prob_counter])
@pytest.mark.parametrize("lam_i", [2.0**-14, 1.0, 2.0**8])
def test_guess_kernels_allocate_no_2_15_cell_array(guess, lam_i):
    # numpy reports its data buffers to tracemalloc (pocketfft's scratch
    # inside irfft comes from plain malloc and is not counted)
    guess(lam_i, 1)  # the thread's buffers exist from the first call on
    tracemalloc.start()
    try:
        guess(lam_i, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (1 << 15) * 8


@pytest.mark.parametrize("table", [an.next_ipid_distribution_bucket, an.next_ipid_distribution_counter])
def test_public_distributions_own_their_mass(table):
    first = table(2.0**-3)
    kept = first.mass.copy()
    second = table(2.0**5)
    assert first.mass is not second.mass
    assert np.array_equal(first.mass, kept)
    assert not np.array_equal(first.mass, second.mass)


def test_threads_do_not_share_kernel_buffers():
    rates = [2.0**e for e in range(-6, 10)]
    want = {lam: (an.guess_prob_bucket(lam, 1), an.guess_prob_counter(lam, 1)) for lam in rates}
    got, interval = {}, sys.getswitchinterval()

    def worker(lam):
        for _ in range(20):
            got.setdefault(lam, set()).add((an.guess_prob_bucket(lam, 1), an.guess_prob_counter(lam, 1)))

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(lam,)) for lam in rates]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert got == {lam: {want[lam]} for lam in rates}


# --------------------------------------- evaluation on every usable CPU

FOUR_CPUS = {0, 1, 2, 3}


def test_parallel_map_keeps_input_order(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: FOUR_CPUS)
    threads = threading.active_count()
    ran_on = set()

    def square(x):
        time.sleep(0.001 * (x % 3))  # later items often finish first
        ran_on.add(threading.get_ident())
        return x * x

    assert an.parallel_map(square, range(24)) == [x * x for x in range(24)]
    assert len(ran_on) > 1
    assert threading.active_count() == threads


def test_parallel_map_raises_the_first_error_in_input_order(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: FOUR_CPUS)
    threads = threading.active_count()

    def check(x):
        if x == 5:
            time.sleep(0.05)  # items 9 and 13 raise first in time
            return 1 / 0
        if x in (9, 13):
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(Exception) as serial:
        [check(x) for x in range(20)]
    with pytest.raises(Exception) as mapped:
        an.parallel_map(check, range(20))
    assert type(mapped.value) is type(serial.value) is ZeroDivisionError
    assert str(mapped.value) == str(serial.value)
    assert threading.active_count() == threads


def test_parallel_map_on_one_cpu_is_the_serial_loop(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    ran_on = []
    assert an.parallel_map(lambda x: ran_on.append(threading.get_ident()) or -x, [3, 1, 2]) == [-3, -1, -2]
    assert set(ran_on) == {threading.get_ident()}


def test_bucket_distribution_has_the_same_bits_on_a_helper_thread():
    points = [(2.0**e, t) for e in (-20, -3, 0, 4, 11, 17) for t in (1, 3, 1000)]
    on_main = [an.next_ipid_distribution_bucket(lam_i, t).mass.tobytes() for lam_i, t in points]
    on_helper = []
    helper = threading.Thread(
        target=lambda: on_helper.extend(
            an.next_ipid_distribution_bucket(lam_i, t).mass.tobytes() for lam_i, t in points))
    helper.start()
    helper.join(timeout=60)
    assert not helper.is_alive()
    assert on_helper == on_main


def test_worst_case_tie_goes_to_the_first_coarse_point(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: FOUR_CPUS)
    monkeypatch.setattr(an, "guess_prob_bucket", lambda *a, **kw: an.GuessResult(frozenset({0}), 0.25))
    assert an.worst_case_lambda_i("per-bucket-racy", 16.0, 2048, 1) == (16.0, 0.25)


# ------------------------------------------------- worst-case pruning


@pytest.mark.parametrize("t", [1, 3, 10, 10**6])
def test_guess_bound_covers_the_computed_guess_probability(t):
    # the bound, without the pruning margin, is at least every computed value
    for e in range(-40, 21, 3):
        for g in (1, 2, 16, 1024, IPID_SPACE):
            bound = an._guess_bound_bucket(2.0**e, g, t)
            assert an.guess_prob_bucket(2.0**e, g, t=t).probability <= bound, (e, g)


@pytest.mark.parametrize("lam_i, t", [(1.0, 3), (0.125, 1), (3.0, 10), (2.0**17, 10**6)])
def test_guess_bound_is_the_first_increment_in_closed_form(lam_i, t):
    support = 4096
    with mp.workdps(30):
        pmf = mp_increment_pmf(lam_i, t, support + 1)  # P(X_0 = j); mass past 4096 is below 1e-40
    assert all(a >= b for a, b in zip(pmf[1:], pmf[2:]))  # the pmf does not increase on [1, inf)
    for g in (1, 2, 16, 1024):
        head = float(mp.fsum(pmf[1:g + 1]))  # the top-g residue mass of X_0
        bound = an._guess_bound_bucket(lam_i, g, t)
        assert bound - g / IPID_SPACE == pytest.approx(head, rel=1e-12, abs=1e-15)
        assert head <= bound


def test_guess_bound_raises_what_the_kernel_raises():
    for lam_i, t in ((5e-324, 3), (1.0, 0), (0.0, 3), (math.inf, 3)):
        with pytest.raises(ValueError) as kernel:
            an.guess_prob_bucket(lam_i, 1, t=t)
        with pytest.raises(ValueError) as bound:
            an._guess_bound_bucket(lam_i, 1, t)
        assert str(bound.value) == str(kernel.value)


# (lambda, r, g, t); the first is perfbench's search, the last two are
# at t = 10^6 and at a lambda / r below every coarse point but the floor
PRUNED_SEARCHES = [
    (16.0, 2048, 1, 3),
    *((2.0**e, 1 << 11, 1, 3) for e in (-14, -6, -1, 0, 3, 9, 20)),
    *((2.0**e, 1 << 18, 2, 3) for e in (-10, -2, 5, 12)),
    *((2.0**e, 64, g, 10) for e in (-3, 4) for g in (16, 1024)),
    (2.0**4, 1 << 11, IPID_SPACE - 1, 3),
    (2.0**6, 2, 1, 1),
    (2.0**-1, 3, 7, 1000),
    (2.0**14, 1 << 11, 1, 10**6),
    (2.0**4, 10**9, 1, 3),
]


def test_pruned_search_returns_what_the_unpruned_search_returns(monkeypatch):
    pruned = [an.worst_case_lambda_i("per-bucket-exclusive", lam, r, g, t=t) for lam, r, g, t in PRUNED_SEARCHES]
    shared = {}  # one memo for every search, as a CLI sweep has
    assert pruned == [
        an.worst_case_lambda_i("per-bucket-exclusive", lam, r, g, t=t, memo=shared) for lam, r, g, t in PRUNED_SEARCHES]
    for cpus in ({0}, FOUR_CPUS):  # the batch size changes which points are skipped, not the answer
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        assert an.worst_case_lambda_i("per-bucket-racy", *PRUNED_SEARCHES[0][:3], t=3) == pruned[0]
    monkeypatch.setattr(an, "_guess_bound_bucket", lambda *a: math.inf)  # nothing is skipped
    unpruned = [an.worst_case_lambda_i("per-bucket-exclusive", lam, r, g, t=t) for lam, r, g, t in PRUNED_SEARCHES]
    assert pruned == unpruned


def test_worst_case_tie_rule_holds_with_memo_hits(monkeypatch):
    # a value already in the memo, deep in the coarse pass, ties with every
    # other: the tie still goes to the first coarse point, lambda itself
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: FOUR_CPUS)
    monkeypatch.setattr(an, "guess_prob_bucket", lambda *a, **kw: an.GuessResult(frozenset({0}), 0.25))
    memo = {(16.0 * 2.0**-9, 1, 3): 0.25, (16.0 / 2048, 1, 3): 0.25}
    assert an.worst_case_lambda_i("per-bucket-racy", 16.0, 2048, 1, memo=memo) == (16.0, 0.25)


def test_pruning_skips_most_coarse_points(monkeypatch):
    rates = []
    kernel = an._bucket_mass
    monkeypatch.setattr(an, "_bucket_mass", lambda *a: rates.append(a[0]) or kernel(*a))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    memo = {}
    an.worst_case_lambda_i("per-bucket-exclusive", 16.0, 2048, 1, memo=memo)
    # 32 coarse points and about 10 golden-section steps, unpruned
    assert len(rates) == len(set(rates)) == len(memo) <= 20
    assert all(key[1:] == (1, 3) for key in memo)
    rates.clear()
    assert an.worst_case_lambda_i("per-bucket-exclusive", 16.0, 2048, 1, memo=memo)[1] > 0
    assert rates == []  # every value it needs is in the memo


# ------------------------------------------- one search for every method


def test_per_destination_search_evaluates_its_two_ends_once(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: FOUR_CPUS)
    rates, counter = [], an.guess_prob_counter
    monkeypatch.setattr(an, "guess_prob_counter", lambda lam_i, g: rates.append(lam_i) or counter(lam_i, g))
    floor = 16.0 * 2.0**-30
    lam_i, p = an.worst_case_lambda_i("per-destination", 16.0, 2048, 1)
    assert sorted(rates) == [floor, 16.0 / 2048]
    assert (lam_i, p) == max(((x, counter(x, 1).probability) for x in (floor, 16.0 / 2048)), key=lambda v: v[1])
    rates.clear()
    assert an.worst_case_lambda_i("per-destination", 16.0, 1 << 30, 1) == (floor, counter(floor, 1).probability)
    assert rates == [floor]  # lambda / 2^30 is the floor, evaluated once


def test_per_destination_search_runs_on_the_calling_thread(monkeypatch):
    # its two folds are short and GIL-bound, so a helper thread only costs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: FOUR_CPUS)
    calls, counter = [], an.guess_prob_counter
    monkeypatch.setattr(
        an, "guess_prob_counter", lambda lam_i, g: calls.append((lam_i, threading.current_thread())) or counter(lam_i, g)
    )
    an.worst_case_lambda_i("per-destination", 16.0, 2048, 1)
    assert calls == [(16.0 * 2.0**-30, threading.main_thread()), (16.0 / 2048, threading.main_thread())]


def test_per_destination_search_neither_reads_nor_writes_the_memo():
    # were these poisoned values read, lambda / r would win with 2.0
    memo = {(16.0 * 2.0**-30, 1, t): -1.0 for t in (None, 3)} | {(16.0 / 2048, 1, t): 2.0 for t in (None, 3)}
    kept = dict(memo)
    want = an.worst_case_lambda_i("per-destination", 16.0, 2048, 1)
    assert an.worst_case_lambda_i("per-destination", 16.0, 2048, 1, memo=memo) == want
    assert an.worst_case_lambda_i("per-destination", 16.0, 2048, 1, t=3, memo=memo) == want
    assert memo == kept


def test_monte_carlo_search_does_not_depend_on_the_cpu_count(monkeypatch):
    # its coarse points run in batches of one per CPU, and a Monte Carlo
    # value depends only on its rate and its chunk seeds
    sim, found = mc.SimParams(trials=4096, seed=1), []
    for cpus in ({0}, FOUR_CPUS):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        found.append(an.worst_case_lambda_i("per-bucket-exclusive", 16.0, 2048, 1, sim))
    assert found[0] == found[1]
    assert found[0][1] > 1 / IPID_SPACE


def test_usable_cpus_without_an_affinity_mask(monkeypatch):
    # macOS and Windows have no os.sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert an._usable_cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert an._usable_cpus() == 1
    assert an.parallel_map(abs, [-1, 2]) == [1, 2]


# ------------------------------------------------------- module layering


def test_montecarlo_imports_before_analytics():
    code = (
        "import ipidlab.montecarlo, ipidlab.analytics, ipidlab.distribution as d\n"
        "assert ipidlab.analytics.DistributionTable is d.DistributionTable\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env={"PYTHONPATH": str(SRC)})


def test_analytics_imports_only_at_module_level():
    tree = ast.parse(inspect.getsource(an))
    top = {id(node) for node in tree.body}
    nested = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]
    assert nested == []


def test_no_module_imports_scipy():
    importers = set()
    for path in sorted((SRC / "ipidlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == "scipy" or m.startswith("scipy.") for m in modules):
                importers.add(path.name)
    assert importers == set()


# A None entry in sys.modules makes every import of that name raise
# ImportError, so each command below fails if anything it runs needs scipy.
NO_SCIPY_CLI = """
import sys
sys.modules["scipy"] = None
from ipidlab.cli import run
out = sys.argv[1]
grid = ["--lambda-log2", "-2", "17", "3", "--trials", "64", "--g", "2", "--seed", "3"]
for quantity in ("correctness", "security-uniform", "security-worst"):
    assert run(["analyze", "--quantity", quantity, *grid, "--out", f"{out}/{quantity}.csv"]) == 0
assert run(["simulate", "sum-dist", "--lambda-i", "2.5", "--trials", "256", "--seed", "7",
            "--out", f"{out}/sum-dist.csv"]) == 0
assert run(["recommend", "--lambda", "70000", "--lambda-n", "40000"]) == 0
assert sys.modules["scipy"] is None
"""


def test_cli_runs_with_scipy_blocked(tmp_path):
    subprocess.run([sys.executable, "-c", NO_SCIPY_CLI, str(tmp_path)], check=True,
                   env={"PYTHONPATH": str(SRC)})
    assert len(list(tmp_path.glob("*.csv"))) == 4


def test_importing_the_cli_loads_no_scipy():
    code = "import sys, ipidlab.cli\nassert 'scipy' not in sys.modules, sorted(sys.modules)\n"
    subprocess.run([sys.executable, "-c", code], check=True, env={"PYTHONPATH": str(SRC)})


def test_analytics_reexports_the_poisson_model():
    for name in ("poisson_pmf", "poisson_logpmf", "poisson_sf", "truncation_bound"):
        assert getattr(an, name) is getattr(distribution, name)
        assert name in an.__all__
