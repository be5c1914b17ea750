import math

import numpy as np
import pytest

from ipidlab import analytics as an
from ipidlab import montecarlo as mc
from ipidlab.constants import IPID_SPACE


def test_sim_params_validation():
    with pytest.raises(ValueError):
        mc.SimParams(trials=0)
    with pytest.raises(ValueError):
        mc.SimParams(t=0)


# -------------------------------------------------- conditional collision


def test_conditional_collision_single_packet_is_zero():
    prob, se = mc.conditional_collision_bucket(1, 2.0, mc.SimParams(trials=100, seed=1))
    assert prob == 0.0
    assert se == 0.0


def test_conditional_collision_pigeonhole_at_saturation():
    prob, _ = mc.conditional_collision_bucket(
        IPID_SPACE + 1, 2.0**10, mc.SimParams(trials=100, seed=1)
    )
    assert prob == 1.0


def test_conditional_collision_sequential_regime_matches_counter():
    # at lambda = 2^10 increments are all 1: 1000 consecutive values
    # never repeat, exactly like a plain counter
    prob, se = mc.conditional_collision_bucket(
        1000, 2.0**10, mc.SimParams(trials=100_000, seed=2)
    )
    assert prob == 0.0
    assert se == 0.0


def test_conditional_collision_samples_when_rate_low():
    # a near-idle bucket draws huge increments, so the walk wraps many
    # times and collisions approach the uniform birthday regime
    trials = 2000
    prob, se = mc.conditional_collision_bucket(
        300, 0.001, mc.SimParams(trials=trials, seed=3)
    )
    assert 0.3 < prob < 0.6
    assert se == pytest.approx(math.sqrt(prob * (1 - prob) / trials), rel=1e-9)


def test_conditional_collision_wrap_forces_collision_at_low_rate():
    # mean increment ~1.27 at lambda=2: by n=60000 the walk has wrapped
    # and must revisit dense earlier values; at n=40000 it cannot wrap
    assert mc.conditional_collision_bucket(
        60_000, 2.0, mc.SimParams(trials=200, seed=3)
    )[0] == 1.0
    assert mc.conditional_collision_bucket(
        40_000, 2.0, mc.SimParams(trials=200, seed=3)
    )[0] == 0.0


def test_conditional_collision_deterministic():
    params = mc.SimParams(trials=500, seed=11)
    a = mc.conditional_collision_bucket(30_000, 2.0, params)
    b = mc.conditional_collision_bucket(30_000, 2.0, params)
    assert a == b


# -------------------------------------------------- increment sum fold


def test_sum_distribution_normalized_and_floored():
    table = mc.increment_sum_distribution(2.0**8, mc.SimParams(trials=20_000, seed=4))
    assert table.mass.sum() == pytest.approx(1.0, abs=1e-9)
    _, top = table.top_g(1)
    assert top >= 1 / IPID_SPACE


def test_sum_distribution_sequential_regime_matches_counter_fold():
    # saturating rate: endpoints are exactly (n+1) mod 2^16, so the
    # histogram is a multinomial draw of the counter fold
    lam_i = 2.0**8
    trials = 100_000
    table = mc.increment_sum_distribution(lam_i, mc.SimParams(trials=trials, seed=5))
    exact = an.next_ipid_distribution_counter(lam_i)

    # unbiased check: simulated mass on the exact argmax cell
    cell = int(np.argmax(exact.mass))
    p_exact = float(exact.mass[cell])
    p_sim = float(table.mass[cell])
    sigma = math.sqrt(p_exact * (1 - p_exact) / trials)
    assert abs(p_sim - p_exact) <= 3 * sigma


def test_sum_distribution_exercises_sampling_path():
    # just below the sequential cutoff the exponential path runs, but
    # gaps of a tick or more are still essentially impossible
    # (P ~ e^-40), so the counter fold still describes the endpoint
    lam_i = 120.0
    trials = 50_000
    table = mc.increment_sum_distribution(lam_i, mc.SimParams(trials=trials, seed=6))
    exact = an.next_ipid_distribution_counter(lam_i)
    cell = int(np.argmax(exact.mass))
    p_exact = float(exact.mass[cell])
    sigma = math.sqrt(p_exact * (1 - p_exact) / trials)
    assert abs(float(table.mass[cell]) - p_exact) <= 3 * sigma


def test_sum_distribution_deterministic_bit_for_bit():
    params = mc.SimParams(trials=30_000, seed=7)
    a = mc.increment_sum_distribution(3.0, params)
    b = mc.increment_sum_distribution(3.0, params)
    assert np.array_equal(a.mass, b.mass)


def test_guess_prob_bucket_converges_to_counter():
    lam_i = 2.0**8
    trials = 100_000
    res = an.guess_prob_bucket(lam_i, 100, mc.SimParams(trials=trials, seed=8))
    exact = an.guess_prob_counter(lam_i, 100)
    sigma = math.sqrt(exact.probability * (1 - exact.probability) / trials)
    assert abs(res.probability - exact.probability) <= 3 * sigma
    assert res.std_err is not None and res.std_err > 0
    assert res.probability >= 100 / IPID_SPACE  # security floor


def test_guess_prob_bucket_noise_beats_counter_on_quiet_channel():
    lam_i = 2.0**-12
    res = an.guess_prob_bucket(lam_i, 1, mc.SimParams(trials=20_000, seed=9))
    counter = an.guess_prob_counter(lam_i, 1)
    # stochastic increments smear the near-certain counter prediction
    assert res.probability < counter.probability / 10


def test_guess_prob_bucket_full_cover():
    res = an.guess_prob_bucket(1.0, IPID_SPACE, mc.SimParams(trials=2000, seed=10))
    assert res.probability == pytest.approx(1.0, abs=1e-9)


# ----------------------------------------------------- overall collision


def test_collision_prob_bucket_sequential_regime_matches_tail():
    # saturating rate: collision iff the Poisson count exceeds 2^16, so
    # the estimate must sit within 3 sigma of the counter closed form
    lam = 2.0**16
    trials = 100_000
    prob, se = mc.collision_prob_bucket(lam, mc.SimParams(trials=trials, seed=12))
    exact = an.collision_prob_counter(lam)
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert abs(prob - exact) <= 3 * sigma


def test_collision_prob_bucket_negligible_at_low_rate():
    prob, _ = mc.collision_prob_bucket(2.0**5, mc.SimParams(trials=5000, seed=13))
    assert prob == 0.0


def test_collision_prob_bucket_samples_low_rate_path():
    prob, se = mc.collision_prob_bucket(8.0, mc.SimParams(trials=2000, seed=14))
    assert prob == 0.0  # a ~10-step walk cannot wrap 2^16


def test_standard_errors_shrink_with_sqrt_trials():
    lam = 2.0**16
    ses = []
    for trials in (1000, 10_000, 100_000):
        _, se = mc.collision_prob_bucket(lam, mc.SimParams(trials=trials, seed=15))
        ses.append(se)
    assert ses[0] > ses[1] > ses[2]
    assert ses[0] / ses[1] == pytest.approx(math.sqrt(10), rel=0.15)
    assert ses[1] / ses[2] == pytest.approx(math.sqrt(10), rel=0.15)


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        mc.conditional_collision_bucket(0, 1.0, mc.SimParams())
    with pytest.raises(ValueError):
        mc.increment_sum_distribution(0.0, mc.SimParams())
    with pytest.raises(ValueError):
        mc.collision_prob_bucket(-1.0, mc.SimParams())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_increment_sum_with_gaps_past_int64_spreads_over_the_values():
    # at lambda_i = 1e-20 the mean tick gap is 3e20, past int64; the exact
    # distribution is uniform, with no cell above 1.5e-5
    table = mc.increment_sum_distribution(1e-20, mc.SimParams(trials=4000, seed=1))
    assert table.mass[1] < 0.01
