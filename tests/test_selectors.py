import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipidlab import selectors
from ipidlab.clock import VirtualClock
from ipidlab.constants import IPID_MASK, IPID_SPACE
from ipidlab.rng import ScriptedRng, derive_seed
from ipidlab.selectors import (
    METHODS,
    ConfigError,
    FlowKey,
    SelectorConfig,
    bucket_index,
    fold_salt,
    new_selector,
)

TCP_FLOW = FlowKey(0x0A000001, 0x0A000002, 6, 1234, 80)


def make(method, **kwargs):
    defaults = {"seed": 1}
    defaults.update(kwargs)
    return SelectorConfig(method=method, **defaults)


# ---------------------------------------------------------------- config


def test_methods_enumeration_is_stable():
    assert METHODS == (
        "global",
        "per-connection",
        "per-destination",
        "per-bucket-exclusive",
        "per-bucket-racy",
        "prng-queue",
        "prng-shuffle",
        "prng-pure",
    )


def test_bucket_count_below_range_rejected():
    with pytest.raises(ConfigError, match="r"):
        new_selector(make("per-bucket-exclusive", r=1 << 10))


def test_bucket_count_above_range_rejected():
    with pytest.raises(ConfigError, match="r"):
        new_selector(make("per-bucket-racy", r=(1 << 18) + 1))


def test_reserved_count_must_fit_space():
    with pytest.raises(ConfigError, match="k"):
        new_selector(make("prng-queue", k=IPID_SPACE))


def test_queue_reservation_must_leave_a_nonzero_value():
    # with zero avoided, a FIFO of 2^16 - 1 values holds every draw
    with pytest.raises(ConfigError, match="^k: "):
        make("prng-queue", k=IPID_SPACE - 1).validate()
    make("prng-queue", k=IPID_SPACE - 2).validate()
    make("prng-queue", k=IPID_SPACE - 1, avoid_zero=False).validate()


def test_purge_threshold_below_one_rejected():
    with pytest.raises(ConfigError, match="^purge_threshold: "):
        new_selector(make("per-destination", purge_threshold=0))


def test_unknown_method_rejected():
    with pytest.raises(ConfigError, match="method"):
        new_selector(SelectorConfig(method="per-socket"))


def test_flowkey_requires_ports_iff_port_bearing():
    with pytest.raises(ValueError):
        FlowKey(1, 2, 6)  # TCP without ports
    with pytest.raises(ValueError):
        FlowKey(1, 2, 1, 10, 20)  # ICMP with ports
    FlowKey(1, 2, 17, 53, 53)
    FlowKey(1, 2, 1)


# ---------------------------------------------------------------- global


def test_global_increments_by_one():
    sel = new_selector(make("global"))
    sel.counter = 5
    assert sel.next_global() == 6
    assert sel.counter == 6


def test_global_wraps():
    sel = new_selector(make("global"))
    sel.counter = 0xFFFF
    assert sel.next_global() == 0


def test_global_first_two_differ_by_one():
    sel = new_selector(make("global"))
    a, b = sel.next_global(), sel.next_global()
    assert (b - a) % IPID_SPACE == 1


def test_global_concurrent_no_duplicates():
    # oracle: with counter starting at 0, the multiset of 8x1000 outputs
    # enumerates exactly 1..8000
    sel = new_selector(make("global"))
    sel.counter = 0
    outputs = [[] for _ in range(8)]

    def work(i):
        mine = outputs[i].append
        for _ in range(1000):
            mine(sel.next_global())

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    merged = sorted(v for chunk in outputs for v in chunk)
    assert merged == list(range(1, 8001))
    assert sel.counter == 8000


def test_global_conservation_mod_wrap():
    sel = new_selector(make("global"))
    start = sel.counter
    n = 3 * IPID_SPACE + 17

    def work():
        for _ in range(n // 4):
            sel.next_global()

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    total = (n // 4) * 4
    assert (sel.counter - start) % IPID_SPACE == total % IPID_SPACE


# ---------------------------------------------------------- per-connection


def test_per_connection_increments():
    sel = new_selector(make("per-connection"))
    state = sel.new_connection()
    state.counter = 100
    assert sel.next_per_connection(state) == 101


def test_per_connection_wraps():
    sel = new_selector(make("per-connection"))
    state = sel.new_connection()
    state.counter = 0xFFFF
    assert sel.next_per_connection(state) == 0


def test_per_connection_states_independent():
    sel = new_selector(make("per-connection"))
    s1, s2 = sel.new_connection(), sel.new_connection()
    seq1 = [sel.next_per_connection(s1) for _ in range(10)]
    seq2 = [sel.next_per_connection(s2) for _ in range(10)]
    for seq in (seq1, seq2):
        for a, b in zip(seq, seq[1:]):
            assert (b - a) % IPID_SPACE == 1
    # random initialization makes identical sequences vanishingly unlikely
    assert seq1 != seq2


# --------------------------------------------------------- per-destination


def dest_selector(clock, threshold=50, **kwargs):
    config = make(
        "per-destination",
        purge_threshold=threshold,
        **kwargs,
    )
    return new_selector(config, clock=clock)


def test_per_destination_sequential():
    clock = VirtualClock()
    sel = dest_selector(clock)
    first = sel.next_per_destination(1, 2)
    second = sel.next_per_destination(1, 2)
    assert (second - first) % IPID_SPACE == 1


def test_per_destination_distinct_pairs_distinct_counters():
    clock = VirtualClock()
    sel = dest_selector(clock)
    sel.next_per_destination(1, 2)
    sel.next_per_destination(1, 3)
    assert len(sel) == 2


def test_purge_overfull_table_classifies_all_stale():
    # grow to 2*threshold + 1 entries within one interval, then trigger
    # a check: everything is stale and the batch cap covers the table
    clock = VirtualClock()
    threshold = 50
    sel = dest_selector(clock, threshold=threshold)
    for dst in range(2 * threshold + 1):
        sel.next_per_destination(9, dst)
    assert len(sel) == 2 * threshold + 1
    clock.advance_seconds(0.6)
    sel.next_per_destination(9, 999_999)
    assert len(sel) == 1  # everything purged, the new entry remains


def test_purge_timeout_removes_only_old_entries():
    clock = VirtualClock()
    threshold = 50
    sel = dest_selector(clock, threshold=threshold)
    sel.next_per_destination(1, 0)  # the entry that will go stale
    clock.advance_seconds(31)
    sel.next_per_destination(1, 1)  # triggers a harmless check (size 1)
    for dst in range(2, 60):
        sel.next_per_destination(1, dst)
    assert len(sel) == 60
    clock.advance_seconds(30.5)  # first entry now 61.5s old, rest ~30.5s
    sel.next_per_destination(1, 999)
    # size was 60 (within (T, 2T]), so only the timed-out entry goes
    assert len(sel) == 60  # 60 - 1 stale + 1 new
    assert (1, 0) not in sel._table
    assert (1, 1) in sel._table


def test_purge_checks_rate_limited():
    clock = VirtualClock()
    sel = dest_selector(clock, threshold=5)
    for dst in range(20):
        sel.next_per_destination(1, dst)
    # no interval elapsed: table exceeds the threshold but no check ran
    assert len(sel) == 20


def test_purge_respects_batch_cap(monkeypatch):
    monkeypatch.setattr(selectors, "PURGE_BATCH_FLOOR", 3)
    monkeypatch.setattr(selectors, "ADD_CHECK_LIMIT", 10_000)
    clock = VirtualClock()
    sel = dest_selector(clock, threshold=5)
    for dst in range(12):
        sel.next_per_destination(1, dst)
    clock.advance_seconds(1.0)
    sel.next_per_destination(1, 500)
    # 12 added -> cap = max(3, 12) = 12; size 12 > 2*5 so all were stale
    assert len(sel) == 1
    clock2 = VirtualClock()
    sel2 = dest_selector(clock2, threshold=5)
    for dst in range(12):
        sel2.next_per_destination(1, dst)
    clock2.advance_seconds(1.0)
    sel2._added_since_check = 0  # as if the additions predate the last check
    sel2.next_per_destination(1, 500)
    # cap = max(3, 0) = 3 of the 12 stale entries are removed
    assert len(sel2) == 12 - 3 + 1


def test_per_destination_table_bounded_after_purge():
    clock = VirtualClock()
    threshold = 40
    sel = dest_selector(clock, threshold=threshold)
    size_after_purge = []
    dst = 0
    for _round in range(30):
        for _ in range(37):
            sel.next_per_destination(7, dst)
            dst += 1
        clock.advance_seconds(0.6)
        sel.next_per_destination(7, dst)
        dst += 1
        size_after_purge.append(len(sel))
    assert all(size <= 2 * threshold for size in size_after_purge)


# ------------------------------------------------------------- per-bucket


@pytest.mark.parametrize("method", ["per-bucket-exclusive", "per-bucket-racy"])
def test_bucket_sequential_when_clock_frozen(method):
    clock = VirtualClock()
    sel = new_selector(make(method), clock=clock)
    values = [sel.next_per_bucket(TCP_FLOW) for _ in range(50)]
    for a, b in zip(values, values[1:]):
        assert (b - a) % IPID_SPACE == 1  # delta 0 collapses to inc 1


def test_bucket_unit_tick_gives_unit_increment():
    clock = VirtualClock()
    sel = new_selector(make("per-bucket-exclusive"), clock=clock)
    a = sel.next_per_bucket(TCP_FLOW)
    clock.advance(1)
    b = sel.next_per_bucket(TCP_FLOW)
    assert (b - a) % IPID_SPACE == 1  # range [1, 1] collapses


def test_bucket_increment_bound_under_scripted_clock():
    clock = VirtualClock()
    sel = new_selector(make("per-bucket-exclusive", seed=3), clock=clock)
    previous = sel.next_per_bucket(TCP_FLOW)
    advances = [0, 1, 2, 7, 100, 3, 0, 0, 5000, 1, 13, 65537]
    for delta in advances:
        clock.advance(delta)
        value = sel.next_per_bucket(TCP_FLOW)
        inc = (value - previous) % IPID_SPACE
        assert 1 <= inc <= max(1, delta)
        previous = value


def test_exclusive_step_starts_over_when_its_bucket_moved_on():
    # Another request takes the bucket between this step's timestamp read
    # and its lock, as a thread switch at the clock read would allow.
    clock = VirtualClock()
    sel = new_selector(make("per-bucket-exclusive", seed=3), clock=clock)
    tick = clock.now
    inner = []

    def now():
        clock.now = tick  # later reads, the inner request's too, are plain
        clock.advance(10)
        inner.append(sel.next_per_bucket(TCP_FLOW))
        return tick()

    clock.now = now
    outer = sel.next_per_bucket(TCP_FLOW)
    # the retry measures from the inner request's stamp: no tick elapsed
    assert outer == (inner[0] + 1) & IPID_MASK
    assert sel.bucket_counter(sel.bucket_index(TCP_FLOW)) == outer


def test_bucket_same_flow_same_bucket():
    sel = new_selector(make("per-bucket-exclusive"), clock=VirtualClock())
    indices = {sel.bucket_index(TCP_FLOW) for _ in range(1000)}
    assert len(indices) == 1


def _count_hashes(monkeypatch):
    calls = []
    real = selectors.siphash24

    def spy(key, msg):
        calls.append(msg)
        return real(key, msg)

    monkeypatch.setattr(selectors, "siphash24", spy)
    return calls


@pytest.mark.parametrize("method", ["per-bucket-exclusive", "per-bucket-racy"])
def test_bucket_memo_hashes_each_flow_once(monkeypatch, method):
    calls = _count_hashes(monkeypatch)
    sel = new_selector(make(method), clock=VirtualClock())
    key, r = sel.hash_key, make(method).r
    flows = [FlowKey(0x0A000000 + i, 0x0B000000 + 7 * i, proto, *((i, 80) if proto in (6, 17) else ()))
             for i in range(40) for proto in (1, 6, 17)]
    # the hash ignores ports: these are the same 120 (dst, src, proto)
    same_hosts = [FlowKey(f.src_addr, f.dst_addr, f.protocol, 9999, 443) for f in flows if f.protocol != 1]
    calls.clear()
    for flow in flows + same_hosts + flows[::-1]:
        sel.next_per_bucket(flow)
        sel.bucket_index(flow)
    assert len(calls) == len(flows)
    calls.clear()
    assert [sel.bucket_index(f) for f in flows] == [bucket_index(f, key, r) for f in flows]
    assert len(calls) == len(flows)  # the module function itself hashes every call


def test_bucket_memo_is_bounded(monkeypatch):
    calls = _count_hashes(monkeypatch)
    sel = new_selector(make("per-bucket-exclusive"), clock=VirtualClock())
    size = selectors.BUCKET_MEMO_SIZE
    flows = [FlowKey(i, 0x0A000001, 1) for i in range(2 * size)]
    for flow in flows:
        sel.bucket_index(flow)
    memo = sel._index_of.cache_info()
    assert (memo.maxsize, memo.currsize) == (size, size)
    calls.clear()
    sel.bucket_index(flows[-1])  # remembered
    sel.bucket_index(flows[0])  # evicted
    assert len(calls) == 1


def test_bucket_index_r1_always_zero():
    key = bytes(16)
    assert bucket_index(TCP_FLOW, key, 1) == 0


def test_bucket_index_ports_ignored():
    key = bytes(range(16))
    other_ports = FlowKey(
        TCP_FLOW.src_addr, TCP_FLOW.dst_addr, TCP_FLOW.protocol, 9999, 443
    )
    assert bucket_index(TCP_FLOW, key, 1 << 11) == bucket_index(
        other_ports, key, 1 << 11
    )


def test_bucket_index_key_collision_rate():
    # oracle: under independent keys, indices agree with frequency ~1/r;
    # 1000 flows at r=64 give 15.6 +- 11.7 (3 sigma binomial)
    r = 64
    k1 = bytes(range(16))
    k2 = bytes(range(1, 17))
    hits = 0
    for i in range(1000):
        flow = FlowKey(i, 2 * i + 1, 1)
        if bucket_index(flow, k1, r) == bucket_index(flow, k2, r):
            hits += 1
    assert abs(hits - 1000 / r) <= 12


def test_bucket_scripted_increment_draw():
    clock = VirtualClock()
    config = make("per-bucket-exclusive", r=1 << 11)
    # script: 2^11 initial counter draws, then the one increment draw
    sel = new_selector(config, clock=clock, rng=ScriptedRng([100] * (1 << 11) + [7]))
    first = sel.next_per_bucket(TCP_FLOW)  # delta 0 -> inc 1, no draw
    clock.advance(50)
    second = sel.next_per_bucket(TCP_FLOW)  # draws scripted 7 from [1, 50]
    assert (second - first) % IPID_SPACE == 7


def test_bucket_counters_randomly_initialized():
    sel = new_selector(make("per-bucket-exclusive", seed=21), clock=VirtualClock())
    counters = {sel.bucket_counter(j) for j in range(256)}
    assert len(counters) > 100  # seeded-random initialization, not zeroed


def test_purged_destination_restarts_from_fresh_counter():
    clock = VirtualClock()
    sel = dest_selector(clock, threshold=5)
    resumed = 0
    for cycle in range(20):
        before = sel.next_per_destination(3, 1)
        for dst in range(2, 14):
            sel.next_per_destination(3, dst)
        clock.advance_seconds(0.6)
        sel.next_per_destination(3, 999)  # purges everything (size > 2T)
        assert (3, 1) not in sel._table
        after = sel.next_per_destination(3, 1)
        resumed += after == (before + 1) % IPID_SPACE
    assert resumed < 20  # re-randomized, not resumed


def test_bucket_racy_concurrent_values_stay_in_range():
    sel = new_selector(make("per-bucket-racy"))
    errors = []

    def work():
        try:
            for _ in range(20_000):
                v = sel.next_per_bucket(TCP_FLOW)
                assert 0 <= v < IPID_SPACE
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


# ------------------------------------------------------------- prng-queue


def test_queue_scripted_retry():
    # scripted draws [7, 7, 9] with 7 queued by the first request:
    # the second request rejects 7 and lands on 9 after one retry
    sel = new_selector(make("prng-queue", k=3), rng=ScriptedRng([7, 7, 9]))
    assert sel.next_prng_queue() == 7
    assert sel.next_prng_queue() == 9


def test_queue_avoids_zero_when_enabled():
    sel = new_selector(make("prng-queue", k=3), rng=ScriptedRng([0, 5]))
    assert sel.next_prng_queue() == 5


def test_queue_returns_zero_when_avoidance_off():
    sel = new_selector(
        make("prng-queue", k=3, avoid_zero=False), rng=ScriptedRng([0])
    )
    assert sel.next_prng_queue() == 0


def test_queue_window_distinct():
    k = 256
    sel = new_selector(make("prng-queue", k=k))
    window = []
    seen = set()
    for _ in range(20_000):
        v = sel.next_prng_queue()
        assert v not in seen
        window.append(v)
        seen.add(v)
        if len(window) > k:
            seen.discard(window.pop(0))


def test_queue_membership_matches_fifo():
    sel = new_selector(make("prng-queue", k=16))
    for _ in range(100):
        sel.next_prng_queue()
    members = {i for i in range(IPID_SPACE) if sel._member[i]}
    assert members == set(sel._queue)
    assert len(sel._queue) <= 16


# ----------------------------------------------------------- prng-shuffle


def test_shuffle_full_reservation_yields_every_nonzero_once():
    # k = 2^16 - 1 collapses the swap range to a self-swap: one full
    # cycle returns each nonzero value exactly once, skipping zero
    sel = new_selector(make("prng-shuffle", k=IPID_SPACE - 1))
    values = [sel.next_prng_shuffle() for _ in range(IPID_SPACE - 1)]
    assert sorted(values) == list(range(1, IPID_SPACE))


def test_shuffle_permutation_preserved():
    sel = new_selector(make("prng-shuffle"))
    for _ in range(100_000):
        sel.next_prng_shuffle()
    assert sorted(sel.permutation) == list(range(IPID_SPACE))


def test_shuffle_window_distinct():
    # duplicates are >= k outputs apart: compare each output with the
    # previous k-1, i.e. all k-length output windows are duplicate-free
    k = 1 << 12
    sel = new_selector(make("prng-shuffle", k=k))
    window = []
    seen = set()
    for _ in range(50_000):
        v = sel.next_prng_shuffle()
        assert v not in seen
        window.append(v)
        seen.add(v)
        if len(window) > k - 1:
            seen.discard(window.pop(0))


def test_shuffle_deterministic_under_seed():
    a = new_selector(make("prng-shuffle", seed=42))
    b = new_selector(make("prng-shuffle", seed=42))
    assert [a.next_prng_shuffle() for _ in range(500)] == [
        b.next_prng_shuffle() for _ in range(500)
    ]


# -------------------------------------------------------------- prng-pure


def test_pure_reproducible_with_seed_and_salts():
    a = new_selector(make("prng-pure", seed=7))
    b = new_selector(make("prng-pure", seed=7))
    salts = [0, 1, 2**63, 0xDEADBEEF, 42]
    assert [a.next_prng_pure(s) for s in salts] == [
        b.next_prng_pure(s) for s in salts
    ]


def test_pure_salt_fold_is_xor_of_words():
    assert fold_salt(0) == 0
    assert fold_salt(0x0001_0002_0003_0004) == 1 ^ 2 ^ 3 ^ 4
    assert fold_salt(0xFFFF_FFFF_FFFF_FFFF) == 0


@pytest.mark.parametrize("low_bits", [32, 4])
@pytest.mark.parametrize("worker_id", [1, 3, 0xFFFF, (1 << 32) + 5])
def test_pure_requester_salts_count_from_the_worker_offset(monkeypatch, worker_id, low_bits):
    # at 4 low bits the 300 requests carry into the worker's bits 18 times
    monkeypatch.setattr(selectors, "PURE_SALT_LOW_BITS", low_bits)
    request = new_selector(make("prng-pure", seed=5)).thread_requester(worker_id)
    # worker w draws stream w; next_prng_pure draws the generator passed as rng
    direct = new_selector(
        make("prng-pure", seed=5), rng=random.Random(derive_seed(5, "pure", worker_id))
    )
    start = worker_id << low_bits
    assert [request() for _ in range(300)] == [
        direct.next_prng_pure(start + i) for i in range(1, 301)
    ]


def test_pure_requesters_draw_their_own_streams():
    # one worker's draws leave another's stream untouched
    sel = new_selector(make("prng-pure", seed=5))
    first, second = sel.thread_requester(0), sel.thread_requester(1)
    for _ in range(50):
        first()
    fresh = new_selector(make("prng-pure", seed=5)).thread_requester(1)
    assert [second() for _ in range(50)] == [fresh() for _ in range(50)]


def test_pure_scripted_zero_redraw():
    # scripted draw 0 with salt 0 folds to 0 and is redrawn
    sel = new_selector(make("prng-pure"), rng=ScriptedRng([0, 123]))
    assert sel.next_prng_pure(0) == 123


def test_pure_never_zero_when_avoiding():
    sel = new_selector(make("prng-pure", seed=11))
    assert all(sel.next_prng_pure(s) != 0 for s in range(200_000))


def test_pure_distribution_roughly_uniform():
    import numpy as np
    from scipy import stats

    sel = new_selector(make("prng-pure", seed=13, avoid_zero=False))
    draws = np.fromiter(
        (sel.next_prng_pure(0) for _ in range(1_000_000)), dtype=np.int64
    )
    counts = np.bincount(draws >> 4, minlength=4096)
    _, p = stats.chisquare(counts)
    assert p > 0.001


# ------------------------------------------------------------- properties


@pytest.mark.parametrize("method", METHODS)
def test_full_determinism_per_method(method):
    def run_once():
        clock = VirtualClock()
        sel = new_selector(make(method, seed=99), clock=clock)
        out = []
        state = sel.new_connection() if method == "per-connection" else None
        for i in range(200):
            if method == "global":
                out.append(sel.next_global())
            elif method == "per-connection":
                out.append(sel.next_per_connection(state))
            elif method == "per-destination":
                out.append(sel.next_per_destination(1, i % 7))
                if i % 13 == 0:
                    clock.advance(200)
            elif method.startswith("per-bucket"):
                out.append(sel.next_per_bucket(TCP_FLOW))
                if i % 5 == 0:
                    clock.advance(i % 11)
            elif method == "prng-queue":
                out.append(sel.next_prng_queue())
            elif method == "prng-shuffle":
                out.append(sel.next_prng_shuffle())
            else:
                out.append(sel.next_prng_pure(i))
        return out

    assert run_once() == run_once()


@given(
    advances=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=40)
)
@settings(max_examples=50, deadline=None)
def test_bucket_increment_bound_property(advances):
    clock = VirtualClock()
    sel = new_selector(make("per-bucket-exclusive", seed=5), clock=clock)
    previous = sel.next_per_bucket(TCP_FLOW)
    for delta in advances:
        clock.advance(delta)
        value = sel.next_per_bucket(TCP_FLOW)
        inc = (value - previous) % IPID_SPACE
        assert 1 <= inc <= max(1, delta)
        previous = value


@given(st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=200)
def test_salt_fold_stays_16_bit(salt):
    assert 0 <= fold_salt(salt) <= IPID_MASK
