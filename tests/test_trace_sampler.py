"""The trace generator's packet sampler, ``trace._draw_ranks``.

It must return ``Generator.choice(p.size, size, p=p)`` element for
element and leave the generator in the same state, on every path: one
``searchsorted``, the count over few cells, and the guide table with its
bounded search and its checked fallback.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipidlab import trace

BLOCK = trace._SEARCH_BLOCK
MIN_KEYS = trace._MIN_KEYS
SMALL_N = trace._SMALL_N


def zipf(n: int, skew: float) -> np.ndarray:
    """The generator's flow weights."""
    weights = np.arange(1, n + 1, dtype=np.float64) ** -skew
    return weights / weights.sum()


def assert_draws_like_choice(p: np.ndarray, size: int, seed: int) -> np.ndarray:
    expected_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = expected_rng.choice(p.size, size, p=p)
    ranks = trace._draw_ranks(rng, p, size)
    assert ranks.dtype == expected.dtype
    np.testing.assert_array_equal(ranks, expected)
    assert rng.bit_generator.state == expected_rng.bit_generator.state
    return ranks


# n = 1, both sides of the small-n cutoff, and guide tables of the
# minimum, mid and flow-churn sizes
FLOWS = [1, 2, SMALL_N - 1, SMALL_N, SMALL_N + 1, 1000, 4097, 8192, 1 << 17]
# few keys, the table's threshold, and sizes that end in a part block
SIZES = [1, 100, MIN_KEYS - 1, MIN_KEYS, BLOCK + 1, 2 * BLOCK + 123]


@settings(max_examples=120, deadline=None)
@given(
    n=st.sampled_from(FLOWS),
    skew=st.one_of(st.sampled_from([0.0, 1.0, 2.0, 4.0]), st.floats(0.0, 4.0)),
    size=st.one_of(st.sampled_from(SIZES), st.integers(1, 3 * BLOCK)),
    seed=st.integers(0, 2**32 - 1),
)
def test_draws_are_choices_of_zipf_weights(n, skew, size, seed):
    assert_draws_like_choice(zipf(n, skew), size, seed)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5000),
    size=st.integers(MIN_KEYS, MIN_KEYS + 2 * BLOCK),
    zeros=st.floats(0.0, 0.9),
    power=st.floats(0.1, 40.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_draws_are_choices_of_any_weights(n, size, zeros, power, seed):
    # random weights, some zero (repeated cdf cells) and some far below the
    # rest (cells a bucket apart or closer), all through the guide table
    rng = np.random.default_rng(seed)
    p = rng.random(n) ** power
    p[rng.random(n) < zeros] = 0.0
    p[-1] += 1e-3
    assert_draws_like_choice(p / p.sum(), size, seed)


class SearchSpy:
    """Wraps ``trace._search``, counting the keys it is given."""

    def __init__(self, monkeypatch):
        self.keys = 0
        search = trace._search

        def spy(cdf, keys):
            self.keys += keys.size
            return search(cdf, keys)

        monkeypatch.setattr(trace, "_search", spy)


def test_keys_the_bounded_search_misses_are_searched_in_full(monkeypatch):
    # with no bisection step, every key whose bucket holds a cell fails the
    # check and falls back; the ranks stay choice's
    spy = SearchSpy(monkeypatch)
    monkeypatch.setattr(trace, "_MAX_STEPS", 0)
    size = 3 * BLOCK + 5
    assert_draws_like_choice(zipf(8192, 0.0), size, seed=7)
    assert size // 4 < spy.keys < size


def test_plateau_keys_fall_back_and_the_rest_do_not(monkeypatch):
    # at skew 4 over 2^17 flows most cells are equal to 1 in double
    # precision: one bucket holds almost all of them, and its keys, and
    # only those few, fall back to the full search
    spy = SearchSpy(monkeypatch)
    n = 1 << 17
    p = zipf(n, 4.0)
    cdf = np.cumsum(p) / np.cumsum(p)[-1]
    assert np.count_nonzero(cdf == 1.0) > n // 2
    size = n + 5
    assert_draws_like_choice(p, size, seed=3)
    assert 0 < spy.keys < size // 1000


def test_uniform_table_needs_no_fallback(monkeypatch):
    spy = SearchSpy(monkeypatch)
    assert_draws_like_choice(zipf(1 << 17, 0.0), (1 << 17) + 3, seed=5)
    assert spy.keys == 0


class FixedKeys:
    """A generator stand-in whose ``random`` returns the keys given."""

    def __init__(self, keys: np.ndarray):
        self.keys = keys

    def random(self, size: int) -> np.ndarray:
        assert size == self.keys.size
        return self.keys.copy()


@pytest.mark.parametrize("max_steps", [trace._MAX_STEPS, 0])
@pytest.mark.parametrize("n, skew", [(5, 1.0), (1000, 0.0), (4097, 1.0), (8192, 0.0), (8192, 4.0)])
def test_keys_on_cells_and_bucket_edges(n, skew, max_steps, monkeypatch):
    # keys equal to a cdf cell count it (cdf[r-1] <= u), and keys on a
    # bucket edge b / m belong to bucket b; each key's neighbours too. With
    # no strides, a key on a cell in its bucket must fail the check.
    monkeypatch.setattr(trace, "_MAX_STEPS", max_steps)
    p = zipf(n, skew)
    cdf = np.cumsum(p) / np.cumsum(p)[-1]
    m = 1 << max(n.bit_length(), trace._MIN_TABLE_BITS)
    edges = np.arange(m) / m
    keys = np.concatenate([cdf[:-1], edges, [0.0, np.nextafter(1.0, 0.0)]])
    keys = np.concatenate([keys, np.nextafter(keys, 0.0), np.nextafter(keys, 1.0)])
    keys = np.clip(keys, 0.0, np.nextafter(1.0, 0.0))
    keys = np.resize(keys, max(keys.size, MIN_KEYS))
    ranks = trace._draw_ranks(FixedKeys(keys), p, keys.size)
    np.testing.assert_array_equal(ranks, cdf.searchsorted(keys, side="right"))


def choice_trace(n_packets: int, n_flows: int, skew: float, seed: int) -> np.ndarray:
    """``generate_trace``'s records as drawn with ``Generator.choice``."""
    rng = np.random.default_rng(seed)
    protos = rng.choice([6, 17, 1], size=n_flows, p=[0.6, 0.3, 0.1])
    flows = np.zeros(n_flows, trace.RECORD_DTYPE)
    flows["proto"] = protos
    flows["src"] = rng.integers(0, 1 << 32, size=n_flows, dtype=np.uint32)
    flows["dst"] = rng.integers(0, 1 << 32, size=n_flows, dtype=np.uint32)
    bearing = np.isin(protos, [6, 17])
    flows["sport"] = np.where(bearing, rng.integers(1024, 1 << 16, size=n_flows, dtype=np.uint32), 0)
    flows["dport"] = np.where(bearing, rng.integers(1, 1024, size=n_flows, dtype=np.uint32), 0)
    records = flows[rng.choice(n_flows, size=n_packets, p=zipf(n_flows, skew))]
    records["flags"] = rng.random(n_packets) < trace.DEFAULT_ATOMIC_FRACTION
    return records


@pytest.mark.parametrize(
    "n_packets, n_flows, skew",
    [(1, 1, 1.0), (MIN_KEYS + 17, 1, 0.0), (MIN_KEYS, 9, 4.0), (300, 32, 1.0), (MIN_KEYS, MIN_KEYS, 0.0),
     (BLOCK + 1, 1024, 1.0), (BLOCK + 1, BLOCK + 1, 2.0)],
)
def test_generated_trace_is_choices_trace(n_packets, n_flows, skew):
    generated = trace.generate_trace(n_packets, n_flows, skew=skew, seed=2).array
    np.testing.assert_array_equal(generated, choice_trace(n_packets, n_flows, skew, seed=2))
