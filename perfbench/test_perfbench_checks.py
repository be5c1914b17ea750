"""The benchmark's output checks accept ipidlab's real outputs and reject
deliberately corrupted ones.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""
import dataclasses
import random

import pytest

import checks
from checks import CheckFailure, Row, Sweep

from ipidlab import cli, montecarlo, selectors, siphash
from ipidlab.clock import VirtualClock


def _sweep_rows(tmp_path, sweep):
    out = tmp_path / f"{sweep.quantity}.csv"
    assert cli.run(sweep.argv(3, str(out))) == 0
    return checks.read_rows(out)


CORRECTNESS = Sweep("correctness", ("global", "prng-pure", "per-bucket-exclusive"), (-4.0, 16.0, 4.0), 2048)
UNIFORM = Sweep("security-uniform", ("global", "per-destination", "prng-queue", "per-bucket-exclusive"),
                (0.0, 8.0, 4.0), 2048)
WORST = Sweep("security-worst", ("per-destination",), (4.0, 4.5, 1.0), 2048, r=4096)


def test_reference_siphash_matches_vectors_and_program():
    assert checks.check_siphash(checks.siphash24) == len(checks.SIPHASH_VECTORS)
    assert checks.check_siphash(siphash.siphash24) == len(checks.SIPHASH_VECTORS)
    with pytest.raises(CheckFailure):
        checks.check_siphash(lambda key, msg: siphash.siphash24(key, msg + b"\0"))


def test_real_sweeps_pass(tmp_path):
    assert checks.check_sweep(CORRECTNESS, _sweep_rows(tmp_path, CORRECTNESS)) == 0
    uniform = _sweep_rows(tmp_path, UNIFORM)
    assert checks.check_sweep(UNIFORM, uniform) == 0
    assert checks.check_sweep(WORST, _sweep_rows(tmp_path, WORST), uniform) == 0


def test_counter_tail_off_is_rejected(tmp_path):
    rows = _sweep_rows(tmp_path, CORRECTNESS)
    i = next(i for i, r in enumerate(rows) if r.label == "global" and r.lam_log2 == 16.0)
    rows[i] = dataclasses.replace(rows[i], value=rows[i].value * (1 + 1e-6))
    with pytest.raises(CheckFailure, match="Poisson tail"):
        checks.check_sweep(CORRECTNESS, rows)


def test_birthday_sum_off_is_rejected(tmp_path):
    rows = _sweep_rows(tmp_path, CORRECTNESS)
    i = next(i for i, r in enumerate(rows) if r.label == "prng-pure" and r.lam_log2 == 8.0)
    rows[i] = dataclasses.replace(rows[i], value=rows[i].value * 1.001)
    with pytest.raises(CheckFailure, match="birthday"):
        checks.check_sweep(CORRECTNESS, rows)


def test_missing_row_is_rejected(tmp_path):
    rows = _sweep_rows(tmp_path, UNIFORM)
    with pytest.raises(CheckFailure, match="missing"):
        checks.check_sweep(UNIFORM, rows[:-1])


def test_worst_case_below_uniform_split_is_rejected(tmp_path):
    uniform = _sweep_rows(tmp_path, UNIFORM)
    worst = [dataclasses.replace(r, value=r.value / 2) for r in _sweep_rows(tmp_path, WORST)]
    with pytest.raises(CheckFailure, match="mode mass"):
        checks.check_sweep(WORST, worst, uniform)


def test_bucket_worst_row_without_std_err_counts_as_failed(tmp_path):
    sweep = Sweep("security-worst", ("per-bucket-exclusive",), (4.0, 4.5, 1.0), 2048, r=2048)
    uniform = [Row("per-bucket-exclusive:r=2048", 4.0, 0.01, 0.001)]
    assert checks.check_sweep(sweep, [Row("per-bucket-exclusive", 4.0, 0.27, None)], uniform) == 1
    with pytest.raises(CheckFailure, match="uniform split"):
        checks.check_sweep(sweep, [Row("per-bucket-exclusive", 4.0, 0.001, None)], uniform)


def test_queue_repeat_inside_window_is_rejected():
    config = selectors.SelectorConfig(method="prng-queue", seed=1, k=64)
    sel = selectors.new_selector(config)
    chk = checks.NoRepeat(64)
    stream = [sel.next_prng_queue() for _ in range(500)]
    for v in stream:
        chk.feed(v)
    stream[300] = stream[250]
    chk = checks.NoRepeat(64)
    with pytest.raises(CheckFailure, match="repeated"):
        for v in stream:
            chk.feed(v)


def _bucket_stream(key_for_checker):
    vclock = VirtualClock()
    config = selectors.SelectorConfig(method="per-bucket-exclusive", seed=5)
    sel = selectors.new_selector(config, clock=vclock)
    counters = [sel.bucket_counter(j) for j in range(config.r)]
    chk = checks.PerBucket(key_for_checker(sel.hash_key), config.r, counters, 0)
    rng = random.Random(0)
    for i in range(300):
        if i % 7 == 0:
            vclock.advance(rng.randrange(5))
        flow = selectors.FlowKey(rng.getrandbits(32), rng.getrandbits(32), 1)
        j = sel.bucket_index(flow)
        chk.feed((flow.src_addr, flow.dst_addr, 1), j, vclock.now(), sel.next_per_bucket(flow))


def test_bucket_stream_passes_and_wrong_key_is_rejected():
    _bucket_stream(lambda key: key)
    with pytest.raises(CheckFailure, match="SipHash"):
        _bucket_stream(lambda key: bytes(16))


def test_bucket_increment_beyond_elapsed_is_rejected():
    chk = checks.PerBucket(bytes(16), 2048, [100] * 2048, 0)
    ident = (1, 2, 17)
    j = chk.bucket(*ident)
    chk.feed(ident, j, 3, 103)
    with pytest.raises(CheckFailure, match="increment"):
        chk.feed(ident, j, 4, 105)


def test_counter_properties_reject_corruption():
    checks.check_conservation(65530, 4, 10)
    with pytest.raises(CheckFailure):
        checks.check_conservation(65530, 5, 10)
    seq = checks.Sequential(65535)
    seq.feed(0)
    with pytest.raises(CheckFailure):
        seq.feed(2)
    dest = checks.PerDestination()
    dest.feed((1, 2), 10, 0, 1)
    with pytest.raises(CheckFailure):
        dest.feed((1, 2), 12, 1, 1)
    with pytest.raises(CheckFailure):
        checks.NonZero().feed(0)


def test_increment_sum_mean_rejects_shifted_distribution():
    sim = montecarlo.SimParams(trials=1 << 14, seed=2)
    table = montecarlo.increment_sum_distribution(1.0, sim)
    checks.check_increment_sum(table.mass, 1.0, 3, sim.trials)
    shifted = [0.0] + list(table.mass[:-1])
    with pytest.raises(CheckFailure, match="increment-sum"):
        checks.check_increment_sum(shifted, 1.0, 3, sim.trials)
