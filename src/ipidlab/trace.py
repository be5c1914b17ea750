"""Packet traces for the contention benchmark: synthesis and file I/O.

Real traces are not redistributable, so the generator synthesizes one:
flows are drawn from a Zipf-like rank distribution over a fixed flow
population, and each packet is independently marked atomic with a
configurable fraction (default 0.824, a typical share of real traffic).

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
:class:`TraceFormatError` naming its byte offset (binary) or line (CSV).
"""
from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from ipaddress import IPv4Address
from pathlib import Path

import numpy as np

from .selectors import FlowKey, PORT_BEARING_PROTOCOLS

__all__ = [
    "PacketRecord",
    "Trace",
    "TraceFormatError",
    "generate_trace",
    "load_trace",
    "save_trace",
]

RECORD_STRUCT = struct.Struct("<IIBBHHH")
RECORD_SIZE = RECORD_STRUCT.size  # 16 bytes

DEFAULT_ATOMIC_FRACTION = 0.824

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


@dataclass
class Trace:
    """Ordered packet records; equality compares the records."""

    records: list[PacketRecord]

    def __len__(self) -> int:
        return len(self.records)


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
    protos = rng.choice([6, 17, 1], size=n_flows, p=[0.6, 0.3, 0.1])
    srcs = rng.integers(0, 1 << 32, size=n_flows, dtype=np.uint32)
    dsts = rng.integers(0, 1 << 32, size=n_flows, dtype=np.uint32)
    sports = rng.integers(1024, 1 << 16, size=n_flows, dtype=np.uint32)
    dports = rng.integers(1, 1024, size=n_flows, dtype=np.uint32)
    columns = (srcs, dsts, protos, sports, dports)
    flows = [_make_flow(*row) for row in zip(*(c.tolist() for c in columns))]

    ranks = np.arange(1, n_flows + 1, dtype=np.float64)
    weights = ranks ** (-skew)
    weights /= weights.sum()
    choice = rng.choice(n_flows, size=n_packets, p=weights)
    atomic = rng.random(n_packets) < atomic_fraction

    records = [
        PacketRecord(flows[c], a) for c, a in zip(choice.tolist(), atomic.tolist())
    ]
    return Trace(records=records)


def save_trace(trace: Trace, path) -> None:
    """Write a trace, as CSV if ``path`` ends in ``.csv``, else binary."""
    path = Path(path)
    rows = map(_row, trace.records)
    if _is_csv(path):
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            # csv writes None (no port) as an empty field
            writer.writerows(
                (IPv4Address(src), IPv4Address(dst), proto, atomic, sport, dport)
                for src, dst, proto, atomic, sport, dport in rows
            )
    else:
        path.write_bytes(
            b"".join(
                RECORD_STRUCT.pack(src, dst, proto, atomic, sport or 0, dport or 0, 0)
                for src, dst, proto, atomic, sport, dport in rows
            )
        )


def load_trace(path) -> Trace:
    """Read a trace written by :func:`save_trace`; raises
    :class:`TraceFormatError` with the byte offset (binary) or line
    number (CSV) of any record it could not have written."""
    path = Path(path)
    records = _load_csv(path) if _is_csv(path) else _load_binary(path)
    if not records:
        raise TraceFormatError(f"{path}: trace is empty")
    return Trace(records=records)


def _is_csv(path: Path) -> bool:
    return str(path).endswith(".csv")


def _row(rec: PacketRecord) -> tuple:
    """The record's fields in ``CSV_HEADER`` order; no port is None."""
    f = rec.flow
    return f.src_addr, f.dst_addr, f.protocol, int(rec.atomic), f.src_port, f.dst_port


def _make_flow(src: int, dst: int, proto: int, sport, dport) -> FlowKey:
    """The flow of one row; ports are dropped unless ``proto`` carries them."""
    if proto in PORT_BEARING_PROTOCOLS:
        return FlowKey(src, dst, proto, sport, dport)
    return FlowKey(src, dst, proto)


def _load_record(src: int, dst: int, proto: int, atomic: int, sport, dport) -> PacketRecord:
    """A decoded row as a record; ValueError if no writer produces it.
    Ports are ints, or for CSV the raw text when ``proto`` has none."""
    if atomic not in (0, 1):
        raise ValueError(f"atomic must be 0 or 1, got {atomic}")
    if (sport or dport) and proto not in PORT_BEARING_PROTOCOLS:
        raise ValueError(f"protocol {proto} has no ports, got {sport!r} and {dport!r}")
    return PacketRecord(_make_flow(src, dst, proto, sport, dport), atomic == 1)


def _load_binary(path: Path) -> list[PacketRecord]:
    data = path.read_bytes()
    tail = len(data) % RECORD_SIZE
    if tail:
        raise TraceFormatError(
            f"{path}: truncated record at byte offset {len(data) - tail} "
            f"({tail} trailing bytes)"
        )
    records = []
    for i, (src, dst, proto, flags, sport, dport, pad) in enumerate(RECORD_STRUCT.iter_unpack(data)):
        try:
            if pad:
                raise ValueError(f"pad must be 0, got {pad}")
            records.append(_load_record(src, dst, proto, flags, sport, dport))
        except ValueError as exc:
            raise TraceFormatError(f"{path}: byte offset {i * RECORD_SIZE}: {exc}") from exc
    return records


def _load_csv(path: Path) -> list[PacketRecord]:
    records = []
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
                if proto in PORT_BEARING_PROTOCOLS:
                    sport, dport = int(sport), int(dport)
                records.append(
                    _load_record(
                        int(IPv4Address(src)), int(IPv4Address(dst)), proto, int(atomic), sport, dport
                    )
                )
            except ValueError as exc:
                raise TraceFormatError(f"{path}: line {lineno}: {exc}") from exc
    return records
