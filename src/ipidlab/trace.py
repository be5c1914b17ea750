"""Packet traces for the contention benchmark: synthesis and file I/O.

Real traces are not redistributable, so the generator synthesizes one:
flows are drawn from a Zipf-like rank distribution over a fixed flow
population, and each packet is independently marked atomic with a
configurable fraction (default 0.824, a typical share of real traffic).

A :class:`Trace` holds its packets as one numpy structured array of
``RECORD_DTYPE``, the binary file layout, so a trace takes 16 bytes a
packet from generation through save, load and replay, and no layer
builds per-packet objects. ``Trace.records`` is a sequence view over
that array: indexing or slicing it builds only the records asked for.

The file extension picks one of two interchangeable formats: ``.csv``
is CSV, any other name binary. Both store one row per packet with the
fields of ``CSV_HEADER`` in order.

* binary: little-endian 16-byte records
  (src:4, dst:4, proto:1, flags:1, sport:2, dport:2, pad:2);
  flags is the atomic mark (0 or 1), pad is 0.
* CSV: header ``src,dst,proto,atomic,sport,dport``, dotted-quad
  addresses, atomic 0 or 1, decimal numbers.

Ports exist only for port-bearing protocols (TCP, UDP); other protocols
write zero ports (binary) or empty ones (CSV). The loaders accept
exactly the records the writers produce: any other record raises
:class:`TraceFormatError` naming the byte offset (binary) or line (CSV)
of the first such record.
"""
from __future__ import annotations

import csv
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from ipaddress import IPv4Address
from pathlib import Path

import numpy as np

from .selectors import FlowKey, PORT_BEARING_PROTOCOLS

__all__ = [
    "PacketRecord",
    "Records",
    "Trace",
    "TraceFormatError",
    "generate_trace",
    "load_trace",
    "save_trace",
]

RECORD_STRUCT = struct.Struct("<IIBBHHH")
RECORD_DTYPE = np.dtype(
    [("src", "<u4"), ("dst", "<u4"), ("proto", "u1"), ("flags", "u1"),
     ("sport", "<u2"), ("dport", "<u2"), ("pad", "<u2")]
)
RECORD_SIZE = RECORD_DTYPE.itemsize  # 16 bytes, RECORD_STRUCT.size

DEFAULT_ATOMIC_FRACTION = 0.824
# flow protocols (TCP, UDP, ICMP) and their shares
_PROTOCOLS = np.array([6, 17, 1])
_PROTOCOL_WEIGHTS = np.array([0.6, 0.3, 0.1])

CSV_HEADER = ["src", "dst", "proto", "atomic", "sport", "dport"]


class TraceFormatError(ValueError):
    """Trace file cannot be parsed; the message locates the defect."""


@dataclass(frozen=True)
class PacketRecord:
    """One packet: its flow plus whether it was marked atomic.

    Atomic packets still request an IPID in the benchmark; the flag is
    carried for trace realism.
    """

    flow: FlowKey
    atomic: bool = False


class Records(Sequence):
    """Read-only sequence view of a record array: indexing builds the one
    :class:`PacketRecord` asked for, and slicing a list of the records
    in the slice only."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        src, dst, proto, flags, sport, dport, _pad = self.array[i].item()
        return PacketRecord(FlowKey(src, dst, proto, *_ports(proto, sport, dport)), flags == 1)


class Trace:
    """Ordered packet records, held as one array of ``RECORD_DTYPE``;
    equality compares the arrays.

    ``Trace(records=...)`` packs :class:`PacketRecord` objects;
    ``Trace(array=...)`` wraps a record array whose every record a writer
    could produce.
    """

    __slots__ = ("array",)

    def __init__(self, records=(), *, array: np.ndarray | None = None):
        self.array = _pack(records) if array is None else array

    @property
    def records(self) -> Records:
        return Records(self.array)

    def __len__(self) -> int:
        return len(self.array)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return np.array_equal(self.array, other.array)


def _pack(records) -> np.ndarray:
    """PacketRecords as a record array."""
    return np.frombuffer(b"".join(map(_pack_record, records)), RECORD_DTYPE)


def _pack_record(rec: PacketRecord) -> bytes:
    f = rec.flow
    return RECORD_STRUCT.pack(f.src_addr, f.dst_addr, f.protocol, rec.atomic, f.src_port or 0, f.dst_port or 0, 0)


def generate_trace(
    n_packets: int,
    n_flows: int,
    skew: float = 1.0,
    atomic_fraction: float = DEFAULT_ATOMIC_FRACTION,
    seed: int = 0,
) -> Trace:
    """Synthesize a trace: ``n_flows`` random flows, packet flow ranks
    Zipf(skew)-distributed (skew=0 is uniform), atomic marks i.i.d."""
    if n_packets < 1:
        raise ValueError(f"n_packets must be >= 1, got {n_packets}")
    if n_flows < 1:
        raise ValueError(f"n_flows must be >= 1, got {n_flows}")
    if not 0.0 <= atomic_fraction <= 1.0:
        raise ValueError(f"atomic_fraction must be in [0, 1], got {atomic_fraction}")
    if skew < 0:
        raise ValueError(f"skew must be non-negative, got {skew}")

    rng = np.random.default_rng(seed)
    protos = _PROTOCOLS[_draw_ranks(rng, _PROTOCOL_WEIGHTS, n_flows)]
    flows = np.zeros(n_flows, RECORD_DTYPE)
    flows["proto"] = protos
    flows["src"] = rng.integers(0, 1 << 32, size=n_flows, dtype=np.uint32)
    flows["dst"] = rng.integers(0, 1 << 32, size=n_flows, dtype=np.uint32)
    bearing = _port_bearing(protos)
    # ports are drawn for every flow, so the stream does not depend on
    # the protocols, and kept only where the protocol carries them
    flows["sport"] = np.where(bearing, rng.integers(1024, 1 << 16, size=n_flows, dtype=np.uint32), 0)
    flows["dport"] = np.where(bearing, rng.integers(1, 1024, size=n_flows, dtype=np.uint32), 0)

    ranks = np.arange(1, n_flows + 1, dtype=np.float64)
    weights = ranks ** (-skew)
    weights /= weights.sum()
    records = flows[_draw_ranks(rng, weights, n_packets)]
    records["flags"] = rng.random(n_packets) < atomic_fraction
    return Trace(array=records)


_SEARCH_BLOCK = 1 << 14  # keys searched at a time
_SMALL_N = 8  # up to this many ranks, a key is compared with every cdf cell
_MIN_KEYS = 1 << 13  # fewer keys, or fewer keys than ranks, take one searchsorted
_MIN_TABLE_BITS = 12  # a guide table has at least 2^12 buckets
_MAX_STEPS = 8  # bisection steps; a key in a wider bucket is searched in full
_WIDE_SHARE = 32  # steps are added until at most 1/_WIDE_SHARE of buckets is wider


def _draw_ranks(rng: np.random.Generator, p: np.ndarray, size: int) -> np.ndarray:
    """``rng.choice(p.size, size, p=p)``, element for element, from the
    same draws of ``rng``, without a binary search from scratch per key.

    ``Generator.choice`` draws the keys ``u = rng.random(size)`` and
    returns the rank of each: the number r of cells of
    ``cdf = p.cumsum() / total`` at or below it, the one r with
    ``cdf[r-1] <= u < cdf[r]``. This computes the same cdf and keys and:

    * for fewer than ``_MIN_KEYS`` keys, or fewer keys than ranks, makes
      the one ``searchsorted`` that ``choice`` makes, as nothing else
      repays its set-up;
    * for up to ``_SMALL_N`` ranks, counts the cells each key reaches;
    * otherwise splits [0, 1) into m equal buckets, m = 2^bit_length(n)
      (between n + 1 and 2n) but at least 2^_MIN_TABLE_BITS. As m is a
      power of two, ``u * m`` and ``cdf * m`` are exact, so the rank of a
      key in bucket b lies in ``lo[b] .. lo[b+1]``, where ``lo[b]`` counts
      the cells below b / m. From ``lo[b]`` a branch-free bisection of
      ``steps`` power-of-two strides finds the rank in any bucket of
      fewer than 2^steps cells. ``steps`` is the least that leaves at
      most 1/_WIDE_SHARE of the buckets wider, and at most ``_MAX_STEPS``:
      plateaus of equal cells put many cells in a few buckets.

    Every rank from the table is checked against
    ``cdf[r-1] <= u < cdf[r]``, and a key that fails, as one in a wide
    bucket does, is searched in full by :func:`_search`: the result is
    exact whatever the table holds. Keys are searched in blocks of
    ``_SEARCH_BLOCK`` through reused buffers.
    """
    n = p.size
    # ext = [-inf, cdf, +inf...], so ext[r] = cdf[r-1] and above[r] = cdf[r]
    # for every r a search reaches
    ext = np.empty(n + 1 + (1 << _MAX_STEPS))
    ext[0], ext[n + 1:] = -np.inf, np.inf
    above = ext[1:]
    cdf = above[:n]
    np.cumsum(p, out=cdf)
    cdf /= cdf[-1]
    u = rng.random(size)
    if size < max(n, _MIN_KEYS):
        return _search(cdf, u)
    if n <= _SMALL_N:
        ranks = np.zeros(size, np.int64)
        for cell in cdf[:-1]:
            ranks += u >= cell
        return ranks

    m = 1 << max(n.bit_length(), _MIN_TABLE_BITS)
    cells = (cdf * m).astype(np.intp)  # the bucket of each cell; the last is m
    # lo[b] = the number of cells below bucket b, for b = 0 .. m
    runs = np.empty(n, np.intp)
    runs[0] = cells[0] + 1
    np.subtract(cells[1:], cells[:-1], out=runs[1:])
    lo = np.arange(n).repeat(runs)
    widths = lo[1:] - lo[:-1]
    steps = 0
    while steps < _MAX_STEPS and np.count_nonzero(widths >= 1 << steps) * _WIDE_SHARE > m:
        steps += 1

    ranks = np.empty(size, np.int64)
    block = min(size, _SEARCH_BLOCK)
    f_buf, i_buf = np.empty(block), np.empty(block, np.intp)
    ok_buf, below_buf = np.empty(block, bool), np.empty(block, bool)
    for start in range(0, size, block):
        keys = u[start:start + block]
        w = keys.size
        f, i, ok, below, r = f_buf[:w], i_buf[:w], ok_buf[:w], below_buf[:w], ranks[start:start + w]
        np.multiply(keys, m, out=f)
        np.copyto(i, f, casting="unsafe")  # floor: the key's bucket
        np.take(lo, i, out=r, mode="clip")
        for stride in (1 << s for s in reversed(range(steps))):
            np.add(r, stride - 1, out=i)
            np.take(above, i, out=f, mode="clip")
            np.less_equal(f, keys, out=ok)
            np.add(r, stride, out=r, where=ok)
        np.take(ext, r, out=f, mode="clip")
        np.less_equal(f, keys, out=ok)
        np.take(above, r, out=f, mode="clip")
        np.greater(f, keys, out=below)
        ok &= below
        if not ok.all():
            np.logical_not(ok, out=ok)
            r[ok] = _search(cdf, keys[ok])
    return ranks


def _search(cdf: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The number of cells of ``cdf`` at or below each key, as
    ``Generator.choice`` counts them."""
    return cdf.searchsorted(keys, side="right")


_PORT_BEARING = np.zeros(256, bool)
_PORT_BEARING[list(PORT_BEARING_PROTOCOLS)] = True


def _port_bearing(protos: np.ndarray) -> np.ndarray:
    """Mask of the protocol numbers (0..255) that carry ports."""
    return _PORT_BEARING[protos]


def save_trace(trace: Trace, path) -> None:
    """Write a trace, as CSV if ``path`` ends in ``.csv``, else binary."""
    path = Path(path)
    if not _is_csv(path):
        path.write_bytes(trace.array.tobytes())
        return
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        # csv writes None (no port) as an empty field
        writer.writerows(
            (IPv4Address(src), IPv4Address(dst), proto, flags) + _ports(proto, sport, dport)
            for src, dst, proto, flags, sport, dport, _pad in trace.array.tolist()
        )


def load_trace(path) -> Trace:
    """Read a trace written by :func:`save_trace`; raises
    :class:`TraceFormatError` with the byte offset (binary) or line
    number (CSV) of the first record it could not have written."""
    path = Path(path)
    records = _load_csv(path) if _is_csv(path) else _load_binary(path)
    if not len(records):
        raise TraceFormatError(f"{path}: trace is empty")
    return Trace(array=records)


def _is_csv(path: Path) -> bool:
    return str(path).endswith(".csv")


def _ports(proto: int, sport, dport) -> tuple:
    """The ports if ``proto`` carries them, else (None, None)."""
    return (sport, dport) if proto in PORT_BEARING_PROTOCOLS else (None, None)


def _check_row(proto: int, atomic: int, sport, dport) -> None:
    """ValueError if no writer produces a row with these fields. Ports are
    ints, or for CSV the raw text when ``proto`` has none."""
    if atomic not in (0, 1):
        raise ValueError(f"atomic must be 0 or 1, got {atomic}")
    if proto not in PORT_BEARING_PROTOCOLS:
        if sport or dport:
            raise ValueError(f"protocol {proto} has no ports, got {sport!r} and {dport!r}")
        if not 0 <= proto <= 0xFF:
            raise ValueError(f"protocol out of 8-bit range: {proto}")
        return
    for p in (sport, dport):
        if not 0 <= p <= 0xFFFF:
            raise ValueError(f"port out of 16-bit range: {p}")


def _load_binary(path: Path) -> np.ndarray:
    data = path.read_bytes()
    tail = len(data) % RECORD_SIZE
    if tail:
        raise TraceFormatError(
            f"{path}: truncated record at byte offset {len(data) - tail} "
            f"({tail} trailing bytes)"
        )
    records = np.frombuffer(data, RECORD_DTYPE)
    portless = ~_port_bearing(records["proto"])
    bad = (records["pad"] != 0) | (records["flags"] > 1) | (portless & ((records["sport"] | records["dport"]) != 0))
    if bad.any():
        # the scalar rules name the defect of the first bad record
        i = int(bad.argmax())
        _src, _dst, proto, flags, sport, dport, pad = records[i].item()
        try:
            if pad:
                raise ValueError(f"pad must be 0, got {pad}")
            _check_row(proto, flags, sport, dport)
        except ValueError as exc:
            raise TraceFormatError(f"{path}: byte offset {i * RECORD_SIZE}: {exc}") from exc
    return records


def _load_csv(path: Path) -> np.ndarray:
    rows = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, CSV_HEADER)  # an empty file is an empty trace
        if header != CSV_HEADER:
            raise TraceFormatError(
                f"{path}: line 1: bad header {header!r}, expected {CSV_HEADER!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                if len(row) != len(CSV_HEADER):
                    raise ValueError(f"expected {len(CSV_HEADER)} fields, got {len(row)}")
                src, dst, proto, atomic, sport, dport = row
                proto = int(proto)
                bearing = proto in PORT_BEARING_PROTOCOLS
                if bearing:
                    sport, dport = int(sport), int(dport)
                src, dst, atomic = int(IPv4Address(src)), int(IPv4Address(dst)), int(atomic)
                _check_row(proto, atomic, sport, dport)
                rows.append((src, dst, proto, atomic) + ((sport, dport) if bearing else (0, 0)) + (0,))
            except ValueError as exc:
                raise TraceFormatError(f"{path}: line {lineno}: {exc}") from exc
    return np.array(rows, RECORD_DTYPE)
