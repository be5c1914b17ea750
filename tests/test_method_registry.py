"""The name -> class table is the one definition of each method."""
import pytest

from ipidlab import analytics, montecarlo
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

TRACE = generate_trace(n_packets=512, n_flows=16, skew=1.0, seed=3)
RECORDS = TRACE.records


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
    """Record index -> the method's ``next_*`` call on that record's flow."""
    if method == "global":
        return lambda i: sel.next_global()
    if method == "per-destination":
        return lambda i: sel.next_per_destination(RECORDS[i].flow.src_addr, RECORDS[i].flow.dst_addr)
    if method.startswith("per-bucket"):
        return lambda i: sel.next_per_bucket(RECORDS[i].flow)
    if method == "prng-queue":
        return lambda i: sel.next_prng_queue()
    if method == "prng-shuffle":
        return lambda i: sel.next_prng_shuffle()
    salts = iter(range(1, len(RECORDS) + 1))  # prng-pure, worker 0
    return lambda i: sel.next_prng_pure(next(salts))


@pytest.mark.parametrize("method", [m for m in METHODS if m != "per-connection"])
def test_thread_requester_matches_direct_calls(method):
    def replay(make_request):
        vclock = VirtualClock()
        sel = new_selector(SelectorConfig(method=method, seed=5), clock=vclock)
        request = make_request(sel)
        out = []
        for i in range(len(RECORDS)):
            vclock.advance(i % 3)
            out.append(request(i))
        return out

    assert replay(lambda sel: sel.thread_requester(0, TRACE.array)) == replay(lambda sel: _direct(method, sel))


def test_per_connection_requester_counts_from_its_worker_offset():
    sel = new_selector(SelectorConfig(method="per-connection", seed=5))
    request = sel.thread_requester(3, TRACE.array)
    assert [request(i) for i in range(3)] == [3 * 7919 + 1, 3 * 7919 + 2, 3 * 7919 + 3]


# each method's analysis written out by name, not read from its family
def _counter_collision(lam, k, sim):
    return analytics.collision_prob_counter(lam), None


def _prng_collision(lam, k, sim):
    return analytics.collision_prob_prng(lam, k), None


def _bucket_collision(lam, k, sim):
    return montecarlo.collision_prob_bucket(lam, sim)


def _counter_guess(lam_i, g, k, sim, t):
    return analytics.guess_prob_counter(lam_i, g).probability


def _bucket_guess(lam_i, g, k, sim, t):
    return analytics.guess_prob_bucket(lam_i, g, sim, t).probability


COLLISION = {
    "global": _counter_collision,
    "per-connection": _counter_collision,
    "per-destination": _counter_collision,
    "per-bucket-exclusive": _bucket_collision,
    "per-bucket-racy": _bucket_collision,
    "prng-queue": _prng_collision,
    "prng-shuffle": _prng_collision,
    "prng-pure": _prng_collision,
}
GUESS = {
    "global": _counter_guess,
    "per-connection": lambda lam_i, g, k, sim, t: analytics.guess_prob_per_connection(g),
    "per-destination": _counter_guess,
    "per-bucket-exclusive": _bucket_guess,
    "per-bucket-racy": _bucket_guess,
    "prng-queue": lambda lam_i, g, k, sim, t: analytics.guess_prob_prng(g, k),
    "prng-shuffle": lambda lam_i, g, k, sim, t: analytics.guess_prob_prng(g, k),
    "prng-pure": lambda lam_i, g, k, sim, t: analytics.guess_prob_prng(g, k),
}


@pytest.mark.parametrize("method", METHODS)
def test_dispatch_matches_the_method_analysis(method):
    assert set(COLLISION) == set(GUESS) == set(METHODS)
    k = selector_class(method).default_k
    sim = montecarlo.SimParams(trials=3000, t=2, seed=11)
    for lam in (2.0**3, 2.0**16):
        assert analytics.collision_prob(method, lam, k, sim) == COLLISION[method](lam, k, sim)
        for g in (1, 5):
            assert analytics.guess_prob(method, lam, g, k) == GUESS[method](lam, g, k, None, None)
            assert analytics.guess_prob(method, lam, g, k, t=7) == GUESS[method](lam, g, k, None, 7)
            assert analytics.guess_prob(method, lam, g, k, sim) == GUESS[method](lam, g, k, sim, None)


def test_bucket_collision_defaults_to_the_default_simulation():
    assert analytics.collision_prob("per-bucket-racy", 4.0) == montecarlo.collision_prob_bucket(
        4.0, montecarlo.SimParams())
