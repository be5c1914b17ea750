"""The name -> class table is the one definition of each method."""
import pytest

from ipidlab import analytics
from ipidlab.clock import VirtualClock
from ipidlab.selectors import (
    METHODS,
    SELECTOR_CLASSES,
    ConfigError,
    SelectorConfig,
    new_selector,
    selector_class,
)
from ipidlab.trace import generate_trace

RECORDS = generate_trace(n_packets=512, n_flows=16, skew=1.0, seed=3).records


def test_methods_follow_the_table():
    assert METHODS == tuple(SELECTOR_CLASSES)
    for method, cls in SELECTOR_CLASSES.items():
        assert cls.method == method
        assert type(new_selector(SelectorConfig(method=method, seed=1))) is cls


@pytest.mark.parametrize("method", METHODS)
def test_resolved_k_defaults_to_the_class(method):
    assert SelectorConfig(method=method).resolved_k() == selector_class(method).default_k
    assert SelectorConfig(method=method, k=7).resolved_k() == 7


def test_unknown_method_names_the_field():
    with pytest.raises(ConfigError, match="^method: unknown 'per-socket'"):
        selector_class("per-socket")
    with pytest.raises(ValueError, match="per-socket"):
        analytics.worst_case_lambda_i("per-socket", 16.0, 1, 1)


def _direct(method, sel):
    if method == "global":
        return lambda rec: sel.next_global()
    if method == "per-destination":
        return lambda rec: sel.next_per_destination(rec.flow.src_addr, rec.flow.dst_addr)
    if method.startswith("per-bucket"):
        return lambda rec: sel.next_per_bucket(rec.flow)
    if method == "prng-queue":
        return lambda rec: sel.next_prng_queue()
    if method == "prng-shuffle":
        return lambda rec: sel.next_prng_shuffle()
    salts = iter(range(1, len(RECORDS) + 1))  # prng-pure, worker 0
    return lambda rec: sel.next_prng_pure(next(salts))


@pytest.mark.parametrize("method", [m for m in METHODS if m != "per-connection"])
def test_thread_requester_matches_direct_calls(method):
    def replay(make_request):
        vclock = VirtualClock()
        sel = new_selector(SelectorConfig(method=method, seed=5), clock=vclock)
        request = make_request(sel)
        out = []
        for i, rec in enumerate(RECORDS):
            vclock.advance(i % 3)
            out.append(request(rec))
        return out

    assert replay(lambda sel: sel.thread_requester(0)) == replay(lambda sel: _direct(method, sel))


def test_per_connection_requester_counts_from_its_worker_offset():
    sel = new_selector(SelectorConfig(method="per-connection", seed=5))
    request = sel.thread_requester(3)
    assert [request(rec) for rec in RECORDS[:3]] == [3 * 7919 + 1, 3 * 7919 + 2, 3 * 7919 + 3]
