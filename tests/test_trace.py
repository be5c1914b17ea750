import math

import pytest
from hypothesis import given, settings, strategies as st

from ipidlab.selectors import FlowKey
from ipidlab.trace import (
    RECORD_STRUCT,
    PacketRecord,
    Trace,
    TraceFormatError,
    generate_trace,
    load_trace,
    save_trace,
)


def small_trace():
    return Trace(
        records=[
            PacketRecord(FlowKey(0x0A000001, 0x0A000002, 6, 1234, 80), atomic=True),
            PacketRecord(FlowKey(0xC0A80001, 0x08080808, 17, 5353, 53), atomic=False),
            PacketRecord(FlowKey(1, 2, 1), atomic=False),
        ],
    )


def test_generate_single_flow():
    trace = generate_trace(n_packets=50, n_flows=1, seed=1)
    flows = {rec.flow for rec in trace.records}
    assert len(flows) == 1
    assert len(trace) == 50


def test_generate_atomic_fraction():
    n = 200_000
    frac = 0.824
    trace = generate_trace(n_packets=n, n_flows=64, atomic_fraction=frac, seed=2)
    atomic = sum(rec.atomic for rec in trace.records)
    sigma = math.sqrt(n * frac * (1 - frac))
    assert abs(atomic - n * frac) <= 3 * sigma


def test_generate_uniform_when_unskewed():
    n = 100_000
    flows = 16
    trace = generate_trace(n_packets=n, n_flows=flows, skew=0.0, seed=3)
    counts = {}
    for rec in trace.records:
        counts[rec.flow] = counts.get(rec.flow, 0) + 1
    expected = n / flows
    sigma = math.sqrt(n * (1 / flows) * (1 - 1 / flows))
    assert len(counts) == flows
    for c in counts.values():
        assert abs(c - expected) <= 4 * sigma


def test_generate_skew_concentrates_head():
    trace = generate_trace(n_packets=50_000, n_flows=256, skew=1.5, seed=4)
    counts = {}
    for rec in trace.records:
        counts[rec.flow] = counts.get(rec.flow, 0) + 1
    top = max(counts.values())
    assert top > 50_000 / 256 * 10  # rank-1 flow dominates a uniform share


def test_generate_deterministic():
    a = generate_trace(1000, 32, seed=9)
    b = generate_trace(1000, 32, seed=9)
    assert a == b


def test_generate_validates():
    with pytest.raises(ValueError):
        generate_trace(0, 1)
    with pytest.raises(ValueError):
        generate_trace(1, 0)
    with pytest.raises(ValueError):
        generate_trace(1, 1, atomic_fraction=1.5)


def test_binary_round_trip(tmp_path):
    trace = small_trace()
    path = tmp_path / "t.bin"
    save_trace(trace, path)
    assert load_trace(path) == trace


def test_csv_round_trip(tmp_path):
    trace = small_trace()
    path = tmp_path / "t.csv"
    save_trace(trace, path)
    assert load_trace(path) == trace


def test_csv_and_binary_agree(tmp_path):
    trace = generate_trace(500, 17, seed=5)
    bin_path = tmp_path / "t.bin"
    csv_path = tmp_path / "t.csv"
    save_trace(trace, bin_path)
    save_trace(trace, csv_path)
    assert load_trace(bin_path) == load_trace(csv_path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    with pytest.raises(TraceFormatError, match="empty"):
        load_trace(path)


def test_truncated_binary_names_offset(tmp_path):
    trace = small_trace()
    path = tmp_path / "t.bin"
    save_trace(trace, path)
    data = path.read_bytes()
    path.write_bytes(data[:-7])  # cut into the final record
    with pytest.raises(TraceFormatError, match="byte offset 32"):
        load_trace(path)


def test_malformed_csv_names_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("src,dst,proto,atomic,sport,dport\n1.2.3.4,bogus,6,0,1,2\n")
    with pytest.raises(TraceFormatError, match="line 2"):
        load_trace(path)


def test_csv_bad_header_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(TraceFormatError, match="header"):
        load_trace(path)


def test_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_trace(tmp_path / "nope.bin")


def _packed(proto=6, flags=0, sport=1, dport=2, pad=0):
    return RECORD_STRUCT.pack(0x0A000001, 0x0A000002, proto, flags, sport, dport, pad)


@pytest.mark.parametrize(
    "record, reason",
    [
        (_packed(flags=0xFE), "atomic"),
        (_packed(flags=0x03), "atomic"),
        (_packed(pad=9), "pad"),
        (_packed(proto=1, sport=5, dport=6, pad=9), "pad"),
        (_packed(proto=1, sport=5, dport=0), "no ports"),
        (_packed(proto=1, sport=0, dport=6), "no ports"),
    ],
    ids=["flags-0xfe", "flags-0x03", "pad", "portless-pad", "portless-sport", "portless-dport"],
)
def test_binary_rejects_records_save_cannot_write(tmp_path, record, reason):
    path = tmp_path / "t.bin"
    path.write_bytes(_packed() + record)
    with pytest.raises(TraceFormatError, match=f"byte offset 16: .*{reason}"):
        load_trace(path)


@pytest.mark.parametrize(
    "row, reason",
    [
        ("10.0.0.1,10.0.0.2,6,2,1,2", "atomic"),
        ("10.0.0.1,10.0.0.2,6,-1,1,2", "atomic"),
        ("10.0.0.1,10.0.0.2,1,0,5,", "no ports"),
        ("10.0.0.1,10.0.0.2,1,0,,6", "no ports"),
        ("10.0.0.1,10.0.0.2,1,0,0,0", "no ports"),
        ("10.0.0.1,10.0.0.256,6,0,1,2", "10.0.0.256"),
    ],
)
def test_csv_rejects_rows_save_cannot_write(tmp_path, row, reason):
    path = tmp_path / "t.csv"
    path.write_text(f"src,dst,proto,atomic,sport,dport\n10.0.0.1,10.0.0.2,1,0,,\n{row}\n")
    with pytest.raises(TraceFormatError, match=f"line 3: .*{reason}"):
        load_trace(path)


def _field(bits, *common):
    """Any value of a ``bits``-wide field, with the values a writer
    uses drawn often enough to reach the loadable records."""
    return st.sampled_from(common) | st.integers(0, (1 << bits) - 1)


@settings(max_examples=300, deadline=None)
@given(
    record=st.builds(
        RECORD_STRUCT.pack,
        _field(32, 0),
        _field(32, 0xFFFFFFFF),
        _field(8, 1, 6, 17),
        _field(8, 0, 1),
        _field(16, 0),
        _field(16, 0),
        _field(16, 0),
    )
)
def test_binary_record_loads_only_if_it_saves_back(tmp_path_factory, record):
    path = tmp_path_factory.mktemp("record") / "t.bin"
    path.write_bytes(record)
    try:
        trace = load_trace(path)
    except TraceFormatError as exc:
        assert ": byte offset 0: " in str(exc)
        return
    save_trace(trace, path)
    assert path.read_bytes() == record
