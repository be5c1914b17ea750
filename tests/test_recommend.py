import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipidlab.recommend import (
    CB_MERGED,
    CB_SEPARATE,
    NON_CB_GLOBAL,
    NON_CB_PER_BUCKET,
    NON_CB_PRNG,
    RateEstimate,
    Recommendation,
    bandwidth_to_lambda,
    recommend,
)


def rec(lam, lam_n) -> Recommendation:
    return recommend(RateEstimate.from_total(lam, lam_n))


def test_bandwidth_anchor_points():
    # 10 ms unit time, 1500-byte packets
    assert math.log2(bandwidth_to_lambda(1e6)) == pytest.approx(-0.3, abs=0.05)
    assert math.log2(bandwidth_to_lambda(1e3)) == pytest.approx(-10.2, abs=0.05)
    assert math.log2(bandwidth_to_lambda(1e9)) == pytest.approx(9.7, abs=0.05)


def test_bandwidth_linear():
    assert bandwidth_to_lambda(7e6) == pytest.approx(7 * bandwidth_to_lambda(1e6))


def test_bandwidth_rejects_nonpositive():
    with pytest.raises(ValueError):
        bandwidth_to_lambda(0)
    with pytest.raises(ValueError):
        bandwidth_to_lambda(1e6, unit_time_s=0)
    with pytest.raises(ValueError):
        bandwidth_to_lambda(1e6, packet_bytes=0)


def test_case_1_slow_overall():
    r = rec(2.0**-2, 2.0**-2)
    assert (r.use_case, r.non_cb_method, r.cb_handling) == (1, NON_CB_PRNG, CB_MERGED)


def test_case_2_slow_non_cb():
    r = rec(2.0**4, 2.0**-1)
    assert (r.use_case, r.non_cb_method, r.cb_handling) == (2, NON_CB_PRNG, CB_SEPARATE)


def test_case_3_moderate():
    r = rec(2.0**6, 2.0**4)
    assert (r.use_case, r.non_cb_method, r.cb_handling) == (
        3,
        NON_CB_PER_BUCKET,
        CB_SEPARATE,
    )


def test_case_4_fast_total_moderate_non_cb():
    r = rec(2.0**12, 2.0**5)
    assert (r.use_case, r.non_cb_method, r.cb_handling) == (4, NON_CB_GLOBAL, CB_MERGED)


def test_case_5_fast_non_cb():
    r = rec(2.0**12, 2.0**11)
    assert (r.use_case, r.non_cb_method, r.cb_handling) == (
        5,
        NON_CB_GLOBAL,
        CB_SEPARATE,
    )


def test_boundary_conventions():
    assert rec(1.0, 1.0).use_case == 1  # lambda = 2^0 belongs to case 1
    assert rec(2.0**11, 2.0**10).use_case == 5  # lambda_n = 2^10 belongs to case 5
    assert rec(2.0**10, 2.0**9).use_case == 4  # lambda = 2^10 leaves case 3


def test_per_destination_never_recommended():
    rng = np.random.default_rng(0)
    for _ in range(500):
        lam = float(2.0 ** rng.uniform(-14, 20))
        lam_n = lam * float(rng.uniform(0, 1))
        r = rec(lam, lam_n)
        assert "per-destination" not in r.non_cb_method
        assert r.non_cb_method in (NON_CB_PRNG, NON_CB_PER_BUCKET, NON_CB_GLOBAL)


def test_partition_covers_grid_exactly_once():
    # dense valid grid: every point maps to exactly one case because the
    # matcher returns a single recommendation; check all five appear
    exps = np.linspace(-14, 20, 100)
    seen = set()
    for le in exps:
        lam = float(2.0**le)
        for frac in np.linspace(0.0, 1.0, 100):
            r = rec(lam, lam * float(frac))
            assert r.use_case in (1, 2, 3, 4, 5)
            seen.add(r.use_case)
    assert seen == {1, 2, 3, 4, 5}


def test_monotone_in_lambda_n_at_fast_total():
    lam = 2.0**12
    cases = [rec(lam, lam_n).use_case for lam_n in (2.0**5, 2.0**9, 2.0**10, lam)]
    assert cases == sorted(cases)  # never moves back from 5 toward 4


def test_rate_estimate_validation():
    with pytest.raises(ValueError):
        RateEstimate.from_total(1.0, 2.0)  # lambda_n > lambda
    with pytest.raises(ValueError):
        RateEstimate(lam=-1.0, lam_n=0.0)
    est = RateEstimate.from_total(4.0, 1.0)
    assert est.lam_c == 3.0


@given(
    lam_exp=st.floats(min_value=-14, max_value=20),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=300)
def test_every_valid_estimate_gets_one_case(lam_exp, frac):
    lam = 2.0**lam_exp
    r = rec(lam, lam * frac)
    assert r.use_case in (1, 2, 3, 4, 5)
    assert r.cb_handling in (CB_SEPARATE, CB_MERGED)
    assert r.rationale
