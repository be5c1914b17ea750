import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipidlab import analytics as an
from ipidlab import distribution
from ipidlab.constants import IPID_SPACE

# ---------------------------------------------------------------- oracles


def mp_poisson_sf(n: int, lam: float) -> float:
    """High-precision Poisson tail P(N > n) via the incomplete gamma."""
    mp.mp.dps = 50
    return float(mp.gammainc(n + 1, 0, mp.mpf(lam), regularized=True))


def mp_log_pmf(n: int, lam: float):
    """40-digit log pmf(n, lambda), from the gamma function."""
    mp.mp.dps = 40
    lam = mp.mpf(lam)
    return n * mp.log(lam) - lam - mp.loggamma(n + 1)


def mp_prng_collision(lam: float, k: int) -> float:
    """30-digit birthday mixture: P(N = n) times the chance that n - k
    draws over 2^16 - k values repeat, summed over n <= 2^16 where the
    pmf matters, plus the tail past 2^16."""
    mp.mp.dps = 30
    m = IPID_SPACE - k
    half = int(40 * math.sqrt(lam)) + 40
    total = mp.mpf(0)
    for n in range(max(k + 1, int(lam) - half), min(IPID_SPACE, int(lam) + half) + 1):
        distinct = mp.exp(mp.loggamma(m + 1) - mp.loggamma(m - (n - k) + 1) - (n - k) * mp.log(m))
        total += mp.exp(mp_log_pmf(n, lam)) * (1 - distinct)
    return float(total + mp.gammainc(IPID_SPACE + 1, 0, mp.mpf(lam), regularized=True))


def mp_birthday(n: int, k: int = 0) -> float:
    """Exact product evaluation of the birthday collision probability."""
    mp.mp.dps = 50
    prod = mp.mpf(1)
    d = IPID_SPACE - k
    for i in range(n - k):
        prod *= 1 - mp.mpf(i) / d
    return float(1 - prod)


# frozen from the oracles above
SF_2_16 = 0.49896108983705444  # mp_poisson_sf(65536, 65536)
BIRTHDAY_300 = 0.49611216392770914  # mp_birthday(300)


# ---------------------------------------------------------------- poisson


def test_pmf_at_zero_is_exp_neg_lambda():
    for lam in (0.5, 1.0, 32.0, 1000.0):
        assert an.poisson_pmf(0, lam) == pytest.approx(math.exp(-lam), rel=1e-12)


def test_sf_matches_high_precision_oracle_on_a_grid():
    for lam in (0.1, 1.0, 7.0, 2.0**10, 2.0**16):
        for n in (0, 1, int(lam), int(lam) + 10):
            assert float(an.poisson_sf(n, lam)) == pytest.approx(mp_poisson_sf(n, lam), rel=1e-12)


def test_sf_below_zero_is_one():
    # P(N > n) = 1 for every n < 0 (scipy's pdtrc returns nan there)
    assert float(an.poisson_sf(-1, 1.0)) == 1.0
    assert an.poisson_sf([-3, -0.5, 0], 2.0).tolist() == [1.0, 1.0, pytest.approx(-math.expm1(-2.0), rel=1e-15)]


def test_pmf_is_zero_off_the_integers():
    # as scipy.stats.poisson: no mass at 2.5 (the gamma-extended value is 0.2335)
    assert float(an.poisson_pmf(2.5, 3.0)) == 0.0
    assert float(an.poisson_logpmf(2.5, 3.0)) == -math.inf
    assert an.poisson_pmf([-1, 0.5, 1], 2.0).tolist() == [0.0, 0.0, pytest.approx(2.0 * math.exp(-2.0), rel=1e-15)]


def test_sf_matches_high_precision_oracle():
    assert float(an.poisson_sf(IPID_SPACE, float(IPID_SPACE))) == pytest.approx(
        SF_2_16, abs=1e-12
    )
    assert mp_poisson_sf(IPID_SPACE, float(IPID_SPACE)) == pytest.approx(
        SF_2_16, abs=1e-14
    )


def test_sf_stable_for_huge_lambda():
    # no catastrophic cancellation at lambda = 2^20 and beyond
    lam = 2.0**20
    n = int(lam)
    val = float(an.poisson_sf(n, lam))
    assert val == pytest.approx(mp_poisson_sf(n, lam), rel=1e-9)
    assert 0.4 < val < 0.6


def test_logpmf_at_inf_and_nan_raises_no_warning():
    # inf and nan are not non-negative integers: no mass, and no
    # "invalid value" warning from inf - inf on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (math.inf, math.nan):
            assert float(an.poisson_logpmf(n, 3.0)) == -math.inf
            assert float(an.poisson_pmf(n, 3.0)) == 0.0
        assert an.poisson_pmf([1.0, math.inf, -math.inf, math.nan], 2.0**20).tolist()[1:] == [0.0, 0.0, 0.0]
        assert float(an.poisson_sf(math.inf, 3.0)) == 0.0
        assert math.isnan(float(an.poisson_sf(math.nan, 3.0)))


# lambda from 2^-14 to 2^32, with fractional exponents between
PMF_ORACLE_LOG2 = [-14, -10.5, -6, -2, -0.5, 0, 1, 2.3, 4, 6.5, 8, 10, 12.7, 14, 16, 18.2, 20, 24, 28.9, 32]


@pytest.mark.parametrize("lam_log2", PMF_ORACLE_LOG2)
def test_pmf_matches_mpmath_within_1e13_at_4_sd(lam_log2):
    lam = 2.0**lam_log2
    sd = math.sqrt(lam)
    ns = np.unique(np.linspace(max(math.floor(lam - 4 * sd), 0), math.ceil(lam + 4 * sd), 41).astype(np.int64))
    for n, got in zip(ns, an.poisson_pmf(ns, lam)):
        want = mp.exp(mp_log_pmf(int(n), lam))
        assert abs(got - want) <= 1e-13 * want, (n, lam)


def test_sf_near_2_16_matches_mpmath_within_1e13():
    # every tail from 1e-300 up, at n = 2^16 and its neighbours, for
    # lambda from 2^15.5 to 2^16.1 (the tail is below 1e-300 up to 2^15.78)
    checked = 0
    for lam_log2 in np.arange(15.5, 16.1001, 0.01):
        lam = 2.0**lam_log2
        for n in (IPID_SPACE - 1, IPID_SPACE, IPID_SPACE + 1):
            mp.mp.dps = 40
            want = mp.gammainc(n + 1, 0, mp.mpf(lam), regularized=True)
            if want >= mp.mpf("1e-300"):
                assert abs(float(an.poisson_sf(n, lam)) - want) <= 1e-13 * want, (n, lam_log2)
                checked += 1
    assert checked >= 90


def test_sf_inside_a_window_past_2_32_is_refused():
    # the tail is a sum over about 12 sd, too many cells past 2^32;
    # outside the window it is decided without one
    assert float(an.poisson_sf(IPID_SPACE, 2.0**40)) == 1.0
    assert float(an.poisson_sf(2.0**41, 2.0**40)) == 0.0
    with pytest.raises(ValueError, match=r"lambda must be <= 2\^32"):
        an.poisson_sf(2.0**40, 2.0**40)


def test_log_pmf_is_one_value_per_cell():
    # a cell's value does not depend on the array it is evaluated in:
    # the whole window, a part of it or the cell alone (_log_pmf takes
    # sorted cells); poisson_logpmf, which sorts, gives the same values
    # for a shuffled sample with repeated cells and zeros
    rng = np.random.default_rng(3)
    for lam in (2.0**-14, 0.3, 7.0, 300.0, 5000.5, 2.0**16 + 0.25, 2.0**20):
        lo, hi = an.truncation_bound(lam)
        ns = np.arange(lo, hi + 1, dtype=np.float64)
        whole = distribution._log_pmf(ns, lam)
        third = len(ns) // 3
        for idx in (np.arange(third), np.arange(third, len(ns)), np.arange(0, len(ns), 7)):
            assert np.array_equal(distribution._log_pmf(ns[idx], lam), whole[idx]), lam
        for i in (0, third, len(ns) // 2, len(ns) - 1):
            assert distribution._log_pmf(ns[i:i + 1], lam)[0] == whole[i]
        idx = np.concatenate([rng.integers(0, len(ns), 50), [third, third, len(ns) - 1, len(ns) - 1]])
        sample = np.concatenate([ns[idx], [0.0, 0.0]])
        want = np.concatenate([whole[idx], [-lam, -lam]])  # pmf(0) = e^-lambda
        order = rng.permutation(len(sample))
        assert np.array_equal(an.poisson_logpmf(sample[order], lam), want[order]), lam


def test_pmf_rejects_bad_lambda():
    with pytest.raises(ValueError):
        an.poisson_pmf(1, 0.0)
    with pytest.raises(ValueError):
        an.poisson_sf(1, -3.0)


# ------------------------------------------------------------- truncation


def test_truncation_contains_bulk_for_unit_rate():
    lo, hi = an.truncation_bound(1.0)
    assert lo == 0
    assert hi >= 1


def test_truncation_width_scales_with_sqrt_lambda():
    lo, hi = an.truncation_bound(2.0**16)
    assert hi - lo < 100_000
    assert lo < 2**16 < hi


def test_truncation_captures_everything():
    for lam in (0.01, 1.0, 100.0, 2.0**16):
        lo, hi = an.truncation_bound(lam)
        inside = float(an.poisson_sf(lo - 1, lam)) - float(an.poisson_sf(hi, lam))
        assert inside >= 1 - 1e-12


def test_truncation_rejects_rates_past_the_ceiling():
    lo, hi = an.truncation_bound(an.MAX_WINDOW_RATE)
    assert lo < an.MAX_WINDOW_RATE < hi and hi - lo < 10**7
    for lam in (2.0 * an.MAX_WINDOW_RATE, 2.0**200):
        with pytest.raises(ValueError, match=r"lambda must be <= 2\^32"):
            an.truncation_bound(lam)


def test_prng_collision_past_the_ceiling_is_the_tail():
    for lam in (2.0 * an.MAX_WINDOW_RATE, 2.0**200):
        assert an.collision_prob_prng(lam, 64) == float(an.poisson_sf(IPID_SPACE, lam)) == 1.0


def test_truncation_is_tight():
    # the boundary is defined on the (log-space) mass that every window
    # evaluates; exp() of values this small rounds to quantized subnormals
    log_floor = math.log(an.PMF_FLOOR)
    for lam in (2.0**-14, 0.3, 1.0, 37.7, 100.0, 2.0**12, 2.0**16 + 0.5, 2.0**20, 2.0**24.3, 2.0**32):
        lo, hi = an.truncation_bound(lam)
        assert an.poisson_logpmf(hi, lam) > log_floor
        assert an.poisson_logpmf(hi + 1, lam) <= log_floor
        if lo > 0:
            assert an.poisson_logpmf(lo, lam) > log_floor
            assert an.poisson_logpmf(lo - 1, lam) <= log_floor


@pytest.mark.parametrize("n", [40, 700, 2500, 30000, 2**20])
@pytest.mark.parametrize("side", ["upper", "lower"])
def test_truncation_edges_at_the_floor_follow_poisson_logpmf(n, side):
    # rates where log pmf(n) is within about 1e-12 of log 5e-324, closer
    # than the gamma-form guide can tell: the edge next to n must still
    # be where poisson_logpmf crosses the floor
    mp.mp.dps = 40
    floor = mp.log(mp.mpf(an.PMF_FLOOR))
    bracket = (mp.mpf("1e-30"), mp.mpf(n)) if side == "upper" else (mp.mpf(n), mp.mpf(10 * n + 2000))
    lam = float(mp.findroot(lambda x: n * mp.log(x) - x - mp.loggamma(n + 1) - floor, bracket, solver="illinois"))
    lo, hi = an.truncation_bound(lam)
    assert n in ((hi, hi + 1) if side == "upper" else (lo - 1, lo))
    log_floor = math.log(an.PMF_FLOOR)
    assert an.poisson_logpmf(hi, lam) > log_floor >= an.poisson_logpmf(hi + 1, lam)
    assert lo == 0 or an.poisson_logpmf(lo, lam) > log_floor >= an.poisson_logpmf(lo - 1, lam)


# ------------------------------------------------------------- collisions


def test_counter_collision_negligible_below_space():
    assert an.collision_prob_counter(2.0**5) < 1e-300


def test_counter_collision_at_space_rate():
    assert an.collision_prob_counter(2.0**16) == pytest.approx(SF_2_16, abs=1e-12)


def test_counter_collision_monotone():
    probs = [an.collision_prob_counter(2.0**e) for e in range(10, 20)]
    assert all(a <= b for a, b in zip(probs, probs[1:]))


def test_counter_collision_is_the_sf_term():
    for lam in (2.0**10, 2.0**16, 2.0**17):
        assert an.collision_prob_counter(lam) == float(
            an.poisson_sf(IPID_SPACE, lam)
        )


def test_birthday_two_samples():
    assert an.conditional_collision_birthday(2, 0) == pytest.approx(
        1 / IPID_SPACE, rel=1e-12
    )


def test_birthday_300_matches_exact_product():
    value = an.conditional_collision_birthday(300, 0)
    assert value == pytest.approx(BIRTHDAY_300, abs=1e-12)
    assert mp_birthday(300) == pytest.approx(BIRTHDAY_300, abs=1e-13)


def test_birthday_300_matches_empirical():
    # independent simulation oracle: 10^5 trials of 300 uniform draws
    rng = np.random.default_rng(123)
    trials = 100_000
    hits = 0
    for _ in range(trials):
        v = rng.integers(0, IPID_SPACE, 300)
        v.sort()
        hits += bool((v[1:] == v[:-1]).any())
    p = hits / trials
    sigma = math.sqrt(BIRTHDAY_300 * (1 - BIRTHDAY_300) / trials)
    assert abs(p - BIRTHDAY_300) <= 3 * sigma


def test_birthday_boundaries():
    assert an.conditional_collision_birthday(5, 5) == 0.0
    assert an.conditional_collision_birthday(0, 0) == 0.0
    assert an.conditional_collision_birthday(IPID_SPACE + 1, 0) == 1.0


def test_prng_collision_known_points():
    # exact evaluations, cross-checked by simulation during development;
    # the prose anchors "1%" and "10%" round these to one digit
    assert an.collision_prob_prng(2.0**5, 0) == pytest.approx(0.0077795, abs=2e-6)
    assert an.collision_prob_prng(2.0**7, 0) == pytest.approx(0.1173597, abs=2e-6)


def test_prng_collision_monte_carlo_oracle():
    lam = 2.0**6
    expected = an.collision_prob_prng(lam, 0)
    rng = np.random.default_rng(7)
    trials = 60_000
    hits = 0
    for n in rng.poisson(lam, trials):
        if n < 2:
            continue
        v = rng.integers(0, IPID_SPACE, n)
        v.sort()
        hits += bool((v[1:] == v[:-1]).any())
    p = hits / trials
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert abs(p - expected) <= 3 * sigma


@pytest.mark.parametrize("lam_log2", [15.9, 16.0, 16.1])
@pytest.mark.parametrize("k", [0, IPID_SPACE - 256])
def test_prng_collision_near_2_16_matches_mpmath(lam_log2, k):
    # with k = 2^16 - 256 the birthday term is far from 0 and 1 over the
    # whole window, so each pmf cell counts
    lam = 2.0**lam_log2
    assert an.collision_prob_prng(lam, k) == pytest.approx(mp_prng_collision(lam, k), rel=1e-13, abs=0)


def test_prng_collision_large_reservation_suppresses():
    assert an.collision_prob_prng(2.0**8, 1 << 15) < 1e-6


def test_prng_collision_conditional_zero_below_k():
    # with n <= k impossible to collide; rates far below k keep the
    # birthday term at exactly 0, leaving only the sf tail
    lam = 2.0**4
    k = 1 << 15
    assert an.collision_prob_prng(lam, k) == float(an.poisson_sf(IPID_SPACE, lam))


def test_prng_collision_no_less_than_counter():
    for lam in (2.0**5, 2.0**10, 2.0**16):
        for k in (0, 1 << 12, 1 << 15):
            assert an.collision_prob_prng(lam, k) >= an.collision_prob_counter(lam)


def test_prng_collision_non_increasing_in_k():
    lam = 2.0**9
    ks = [0, 1 << 10, 1 << 12, 1 << 14, 1 << 15]
    values = [an.collision_prob_prng(lam, k) for k in ks]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_prng_collision_rejects_bad_k():
    with pytest.raises(ValueError):
        an.collision_prob_prng(1.0, IPID_SPACE)
    with pytest.raises(ValueError):
        an.collision_prob_prng(1.0, -1)


# ------------------------------------------------------------------ guess


def test_guess_counter_quiet_channel_near_certain():
    res = an.guess_prob_counter(2.0**-10, 1)
    assert res.probability >= 0.99
    assert res.probability == pytest.approx(math.exp(-(2.0**-10)), rel=1e-6)


def test_guess_counter_full_cover():
    res = an.guess_prob_counter(1.0, IPID_SPACE)
    assert res.probability == pytest.approx(1.0, abs=1e-9)


def test_guess_counter_distribution_normalized():
    table = an.next_ipid_distribution_counter(2.0**8)
    assert table.mass.sum() == pytest.approx(1.0, abs=1e-9)
    assert (table.mass >= 0).all()


def test_guess_counter_matches_direct_fold():
    # oracle: fold the pmf over residues with plain python
    lam = 50.0
    lo, hi = an.truncation_bound(lam)
    mass = {}
    for n in range(lo, hi + 1):
        x = (n + 1) % IPID_SPACE
        mass[x] = mass.get(x, 0.0) + float(an.poisson_pmf(n, lam))
    top = max(mass.values())
    res = an.guess_prob_counter(lam, 1)
    assert res.probability == pytest.approx(top, rel=1e-9)


def test_guess_counter_security_floor():
    for lam in (2.0**-5, 1.0, 2.0**10):
        for g in (1, 10, 100):
            assert an.guess_prob_counter(lam, g).probability >= g / IPID_SPACE


def test_counter_fold_at_2_20_matches_mpmath():
    # the cells that the gamma-function pmf had 4e-10 to 7e-10 off; the
    # window spans more than 2^16 values, so some residues take two terms
    lam = 2.0**20
    mass = an.next_ipid_distribution_counter(lam).mass
    first = int(lam - 60 * math.sqrt(lam))
    for cell in (0, 1, 100, IPID_SPACE - 1):
        n0 = (cell - 1) % IPID_SPACE  # N = n lands on (n + 1) mod 2^16
        start = n0 + IPID_SPACE * -(-(first - n0) // IPID_SPACE)
        want = mp.fsum(mp.exp(mp_log_pmf(n, lam)) for n in range(start, int(lam + 60 * math.sqrt(lam)), IPID_SPACE))
        assert abs(mass[cell] - want) <= 1e-12 * want, cell


def test_guess_counter_approaches_uniform_as_rate_grows():
    # predictability decays monotonically toward the 1/2^16 floor (it
    # reaches the floor only when the count's spread covers the space,
    # i.e. lambda_i ~ 2^32)
    probs = [
        an.guess_prob_counter(2.0**e, 1).probability for e in (0, 8, 16, 20, 24, 32)
    ]
    assert all(a > b for a, b in zip(probs, probs[1:]))
    assert probs[-1] == pytest.approx(1 / IPID_SPACE, rel=1e-4)
    assert an.guess_prob_counter(2.0**20, 1).probability < 1e-3


def test_guess_per_connection_exact():
    assert an.guess_prob_per_connection(1) == 1 / 65536
    assert an.guess_prob_per_connection(100) == 100 / 65536
    assert an.guess_prob_per_connection(IPID_SPACE) == 1.0


def test_guess_prng_exact():
    assert an.guess_prob_prng(1, 1 << 15) == 1 / 32768
    assert an.guess_prob_prng(1, 0) == 1 / 65536
    assert an.guess_prob_prng(IPID_SPACE - (1 << 15), 1 << 15) == 1.0


def test_guess_prng_non_decreasing_in_k():
    values = [an.guess_prob_prng(10, k) for k in (0, 1 << 12, 1 << 14, 1 << 15)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_guess_rejects_bad_budget():
    with pytest.raises(ValueError):
        an.guess_prob_per_connection(0)
    with pytest.raises(ValueError):
        an.guess_prob_per_connection(IPID_SPACE + 1)
    with pytest.raises(ValueError):
        an.guess_prob_counter(1.0, IPID_SPACE + 1)


# ------------------------------------------------------------- worst case


def test_worst_case_r1_returns_lambda_itself():
    lam = 4.0
    lam_i, prob = an.worst_case_lambda_i("global", lam, 1, 1)
    assert lam_i == lam
    assert prob == pytest.approx(an.guess_prob_counter(lam, 1).probability)


def test_worst_case_per_destination_prefers_idle_counters():
    lam = 8.0
    lam_i, prob = an.worst_case_lambda_i("per-destination", lam, 1 << 12, 1)
    assert lam_i < lam * 2.0**-20
    assert prob > 0.999
    uniform = an.guess_prob_counter(lam / (1 << 12), 1).probability
    assert prob >= uniform


def test_worst_case_dominates_uniform_allocation():
    lam = 64.0
    r = 1 << 12
    _, prob = an.worst_case_lambda_i("per-destination", lam, r, 10)
    assert prob >= an.guess_prob_counter(lam / r, 10).probability


def test_worst_case_prng_rate_independent():
    lam_i, prob = an.worst_case_lambda_i("prng-pure", 123.0, 1, 7)
    assert prob == an.guess_prob_prng(7, 0)
    _, prob_q = an.worst_case_lambda_i("prng-queue", 123.0, 1, 7, k=1 << 13)
    assert prob_q == an.guess_prob_prng(7, 1 << 13)


@given(
    exps=st.lists(st.floats(min_value=-30, max_value=14), min_size=2, max_size=2),
    g=st.sampled_from([1, 2, 10]),
)
@settings(max_examples=30, deadline=None)
def test_counter_guess_prob_never_increases_with_rate(exps, g):
    # the per-destination worst case evaluates only the low end of its
    # range because of this property; the float sum of g masses may
    # round up by an ulp or two
    lo, hi = sorted(2.0**e for e in exps)
    p_lo = an.guess_prob_counter(lo, g).probability
    assert an.guess_prob_counter(hi, g).probability <= p_lo + 4 * math.ulp(1.0)


@pytest.mark.parametrize("g", [1, 10])
def test_worst_case_per_destination_is_the_floor(g):
    lam, r = 64.0, 1 << 12
    floor = lam * 2.0**-30
    lam_i, prob = an.worst_case_lambda_i("per-destination", lam, r, g)
    assert lam_i == floor
    assert prob == an.guess_prob_counter(floor, g).probability
    for octaves in range(31):
        assert prob >= an.guess_prob_counter(lam * 2.0**-octaves, g).probability


def test_worst_case_per_bucket_matches_a_fine_grid():
    from ipidlab import montecarlo as mc

    lam, r, g = 16.0, 2048, 1
    sim = mc.SimParams(trials=4096, seed=1)
    _, prob = an.worst_case_lambda_i("per-bucket-exclusive", lam, r, g, sim=sim)
    se = mc.binomial_std_err(prob, sim.trials)
    assert se > 0
    assert prob >= an.guess_prob_bucket(lam / r, g, sim).probability
    grid = max(an.guess_prob_bucket(0.5 * 2.0 ** (j / 8), g, sim).probability for j in range(-8, 9))
    assert abs(prob - grid) <= 3 * se


def test_worst_case_per_bucket_search_finds_an_interior_peak(monkeypatch):
    # a smooth stand-in for the Monte Carlo estimate; the search must look
    # it up by its module-level name, which is also what tracing patches.
    # The curve exceeds the bound that prunes exact searches, so it goes
    # through the Monte Carlo path, which evaluates every coarse point.
    from ipidlab import montecarlo as mc

    peak = math.log2(0.37)
    curve = lambda lam_i: math.exp(-((math.log2(lam_i) - peak) ** 2))
    calls = []

    def estimate(lam_i, g, sim=None, t=None):
        calls.append(lam_i)
        return an.GuessResult(frozenset(), curve(lam_i))

    monkeypatch.setattr(an, "guess_prob_bucket", estimate)
    lam_i, prob = an.worst_case_lambda_i("per-bucket-racy", 16.0, 2048, 1, sim=mc.SimParams())
    assert len(calls) == len(set(calls)) <= 45
    assert abs(math.log2(lam_i) - peak) <= math.log2(10.0) / 64
    assert prob == curve(lam_i)


# ------------------------------------------------------------- invariants


@given(
    lam_exp=st.floats(min_value=-12, max_value=18),
    g=st.sampled_from([1, 3, 17, 256]),
)
@settings(max_examples=25, deadline=None)
def test_probabilities_in_unit_interval(lam_exp, g):
    lam = 2.0**lam_exp
    assert 0.0 <= an.collision_prob_counter(lam) <= 1.0
    assert 0.0 <= an.collision_prob_prng(lam, 128) <= 1.0
    res = an.guess_prob_counter(lam, g)
    assert 0.0 <= res.probability <= 1.0
    assert len(res.guesses) == g
