"""SipHash-2-4 against the reference test vectors, and the numpy
version against the pure-Python one.

Vectors are the published reference outputs for key 00..0f over
messages 00..NN-1 (one per length 0..63), written in output byte order.
"""
import numpy as np
import pytest

from ipidlab.selectors import FlowKey, bucket_index, bucket_indices
from ipidlab.siphash import siphash24, siphash24_rows
from ipidlab.trace import PacketRecord, Trace, generate_trace

REFERENCE_VECTORS = [
    "310e0edd47db6f72", "fd67dc93c539f874", "5a4fa9d909806c0d", "2d7efbd796666785",
    "b7877127e09427cf", "8da699cd64557618", "cee3fe586e46c9cb", "37d1018bf50002ab",
    "6224939a79f5f593", "b0e4a90bdf82009e", "f3b9dd94c5bb5d7a", "a7ad6b22462fb3f4",
    "fbe50e86bc8f1e75", "903d84c02756ea14", "eef27a8e90ca23f7", "e545be4961ca29a1",
    "db9bc2577fcc2a3f", "9447be2cf5e99a69", "9cd38d96f0b3c14b", "bd6179a71dc96dbb",
    "98eea21af25cd6be", "c7673b2eb0cbf2d0", "883ea3e395675393", "c8ce5ccd8c030ca8",
    "94af49f6c650adb8", "eab8858ade92e1bc", "f315bb5bb835d817", "adcf6b0763612e2f",
    "a5c91da7acaa4dde", "716595876650a2a6", "28ef495c53a387ad", "42c341d8fa92d832",
    "ce7cf2722f512771", "e37859f94623f3a7", "381205bb1ab0e012", "ae97a10fd434e015",
    "b4a31508beff4d31", "81396229f0907902", "4d0cf49ee5d4dcca", "5c73336a76d8bf9a",
    "d0a704536ba93e0e", "925958fcd6420cad", "a915c29bc8067318", "952b79f3bc0aa6d4",
    "f21df2e41d4535f9", "87577519048f53a9", "10a56cf5dfcd9adb", "eb75095ccd986cd0",
    "51a9cb9ecba312e6", "96afadfc2ce666c7", "72fe52975a4364ee", "5a1645b276d592a1",
    "b274cb8ebf87870a", "6f9bb4203de7b381", "eaecb2a30b22a87f", "9924a43cc1315724",
    "bd838d3aafbf8db7", "0b1a2a3265d51aea", "135079a3231ce660", "932b2846e4d70666",
    "e1915f5cb1eca46c", "f325965ca16d629f", "575ff28e60381be5", "724506eb4c328a95",
]

KEY = bytes(range(16))
MESSAGE = bytes(range(64))


@pytest.mark.parametrize("length", range(64))
def test_reference_vectors(length):
    digest = siphash24(KEY, MESSAGE[:length])
    assert digest.to_bytes(8, "little").hex() == REFERENCE_VECTORS[length]


def test_key_must_be_128_bits():
    with pytest.raises(ValueError):
        siphash24(b"short", b"data")


def test_distinct_keys_distinct_digests():
    k1 = bytes(16)
    k2 = bytes([1] + [0] * 15)
    assert siphash24(k1, b"flow") != siphash24(k2, b"flow")


def test_deterministic():
    assert siphash24(KEY, b"abc") == siphash24(KEY, b"abc")


@pytest.mark.parametrize("length", range(64))
def test_rows_reference_vectors(length):
    row = np.frombuffer(MESSAGE[:length], np.uint8).reshape(1, length)
    (digest,) = siphash24_rows(KEY, row).tolist()
    assert digest.to_bytes(8, "little").hex() == REFERENCE_VECTORS[length]


def test_rows_key_must_be_128_bits():
    with pytest.raises(ValueError):
        siphash24_rows(b"short", np.zeros((1, 9), np.uint8))


EDGE_FLOWS = [
    FlowKey(src, dst, proto)
    for src in (0, 0xFFFFFFFF)
    for dst in (0, 0xFFFFFFFF)
    for proto in (0, 1, 255)
] + [FlowKey(0xFFFFFFFF, 0, 6, 0xFFFF, 0), FlowKey(0, 0xFFFFFFFF, 17, 0, 0xFFFF)]


@pytest.mark.parametrize("r", [1 << 11, 1 << 18])
def test_bucket_indices_equal_bucket_index_on_every_record(r):
    key = bytes(range(3, 19))
    trace = generate_trace(n_packets=4096, n_flows=4096, skew=0.5, seed=8)
    trace = Trace(records=list(trace.records) + [PacketRecord(f) for f in EDGE_FLOWS])
    got = bucket_indices(trace.array, key, r).tolist()
    assert got == [bucket_index(rec.flow, key, r) for rec in trace.records]
