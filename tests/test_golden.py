"""Byte-for-byte golden outputs for fixed seeds.

Each case runs one CLI command, or draws the first 4096 IPIDs of one
method, and compares the bytes with a file under ``tests/data/golden/``.
The 2^16-row ``sum-dist`` CSV and the large traces are kept as their
SHA-256 digests (``<name>.sha256``) rather than megabytes of data. A refactor that claims
"outputs unchanged" is checked here.

The goldens were generated with Python 3.11.7 and numpy 2.4.6. They no
longer depend on scipy's version: the runtime does not import scipy.
Other numpy versions may change the last digits of a float or the Monte
Carlo draws, so a mismatch under another numpy is not by itself a
regression.

Regenerate only when an output change is intended, and only the files
it changes (no names rewrites every golden):

    PYTHONPATH=src python tests/test_golden.py [NAME ...]
"""
import hashlib
import struct
from pathlib import Path

import pytest

from ipidlab.cli import run
from ipidlab.clock import VirtualClock
from ipidlab.selectors import METHODS, SelectorConfig, new_selector
from ipidlab.trace import generate_trace

GOLDEN = Path(__file__).parent / "data" / "golden"

_SWEEP = ["--trials", "512", "--g", "2", "--seed", "5"]
_GRID = ["--lambda-log2", "-4", "12", "4"]
_ONE_LAMBDA = ["--lambda-log2", "4", "4", "1"]
# rates whose truncation windows reach the near-mode form of the pmf
_LARGE_GRID = ["--lambda-log2", "12", "20", "0.5"]

CLI_CASES = {
    "analyze-correctness.csv": ["analyze", "--quantity", "correctness", *_GRID, *_SWEEP],
    "analyze-security-uniform.csv": ["analyze", "--quantity", "security-uniform", *_GRID, *_SWEEP],
    "analyze-security-worst.csv": ["analyze", "--quantity", "security-worst", *_ONE_LAMBDA, *_SWEEP],
    "analyze-security-worst-r64-k100.csv": [
        "analyze", "--quantity", "security-worst", *_ONE_LAMBDA, *_SWEEP, "--r", "64", "--k", "100",
        "--methods", *(m for m in METHODS if m != "per-bucket-exclusive"),
    ],
    # per-bucket rows in the colliding regime, where every chunk draws in full
    "analyze-correctness-bucket-t1e6.csv": [
        "analyze", "--quantity", "correctness", "--methods", "per-bucket-exclusive", "per-bucket-racy",
        "--lambda-log2", "-2", "8", "2", "--t", "1000000", "--trials", "20000", "--seed", "5",
    ],
    "analyze-correctness-large.csv": [
        "analyze", "--quantity", "correctness", "--methods", "global", "prng-pure", "prng-queue", "prng-shuffle",
        *_LARGE_GRID, *_SWEEP,
    ],
    # the paper's correctness figure, and a 1/4-octave PRNG grid that crosses
    # every truncation window and birthday-table edge
    "analyze-correctness-default.csv": ["analyze", "--quantity", "correctness"],
    "analyze-correctness-prng-fine.csv": [
        "analyze", "--quantity", "correctness", "--methods", "prng-pure", "prng-queue", "prng-shuffle",
        "--lambda-log2", "-14", "20", "0.25",
    ],
    "analyze-security-uniform-large.csv": [
        "analyze", "--quantity", "security-uniform", "--methods", "global", *_LARGE_GRID, *_SWEEP,
    ],
    # the paper's worst-case figure, and a per-bucket search at other g and t
    "analyze-security-worst-default.csv": ["analyze", "--quantity", "security-worst"],
    "analyze-security-worst-bucket-g16-t10.csv": [
        "analyze", "--quantity", "security-worst", "--methods", "per-bucket-exclusive", "--g", "16", "--t", "10",
        "--lambda-log2", "-14", "20", "2",
    ],
    "sum-dist.csv": ["simulate", "sum-dist", "--lambda-i", "2.5", "--trials", "2048", "--seed", "7"],
    "bucket-collision.csv": [
        "simulate", "bucket-collision", "--n", "500", "--lambda", "0.01", "--trials", "2048", "--seed", "7",
    ],
    "trace.bin": ["gen-trace", "--packets", "256", "--flows", "32", "--seed", "9"],
    # large traces, kept as digests: Zipf, uniform, and a skew whose flow
    # cdf has long plateaus of equal cells
    "trace-1e6-flows131072-skew1.bin": [
        "gen-trace", "--packets", "1000000", "--flows", "131072", "--skew", "1.0", "--seed", "3",
    ],
    "trace-131072-flows131072-skew0.bin": [
        "gen-trace", "--packets", "131072", "--flows", "131072", "--skew", "0", "--seed", "4",
    ],
    "trace-65536-flows131072-skew4.bin": [
        "gen-trace", "--packets", "65536", "--flows", "131072", "--skew", "4.0", "--seed", "5",
    ],
}

DIGEST_ONLY = (
    "sum-dist.csv",
    "trace-1e6-flows131072-skew1.bin",
    "trace-131072-flows131072-skew0.bin",
    "trace-65536-flows131072-skew4.bin",
)
IPID_COUNT = 4096
IPID_SEED = 11
_TICKS_EVERY = 32  # records between virtual clock advances


def cli_output(name: str, directory: Path) -> bytes:
    out = directory / name
    assert run([*CLI_CASES[name], "--out", str(out)]) == 0
    return out.read_bytes()


def write_golden(name: str, data: bytes) -> None:
    if name in DIGEST_ONLY:
        (GOLDEN / f"{name}.sha256").write_text(hashlib.sha256(data).hexdigest() + "\n")
    else:
        (GOLDEN / name).write_bytes(data)


def matches_golden(name: str, data: bytes) -> bool:
    if name in DIGEST_ONLY:
        return hashlib.sha256(data).hexdigest() + "\n" == (GOLDEN / f"{name}.sha256").read_text()
    return data == (GOLDEN / name).read_bytes()


def ipid_output(method: str) -> bytes:
    """The first IPID_COUNT IPIDs over a Zipf trace, little-endian u16.

    The virtual clock moves 0..6 ticks every _TICKS_EVERY records, so
    the per-bucket increments draw from more than one tick.
    """
    vclock = VirtualClock()
    sel = new_selector(SelectorConfig(method=method, seed=IPID_SEED), clock=vclock)
    records = generate_trace(n_packets=IPID_COUNT, n_flows=64, skew=1.0, seed=IPID_SEED).records
    connections = {}
    out = []
    for i, rec in enumerate(records):
        if i % _TICKS_EVERY == 0:
            vclock.advance(i // _TICKS_EVERY % 7)
        flow = rec.flow
        if method == "global":
            v = sel.next_global()
        elif method == "per-connection":
            if flow not in connections:
                connections[flow] = sel.new_connection()
            v = sel.next_per_connection(connections[flow])
        elif method == "per-destination":
            v = sel.next_per_destination(flow.src_addr, flow.dst_addr)
        elif method.startswith("per-bucket"):
            v = sel.next_per_bucket(flow)
        elif method == "prng-queue":
            v = sel.next_prng_queue()
        elif method == "prng-shuffle":
            v = sel.next_prng_shuffle()
        else:
            v = sel.next_prng_pure(i)
        out.append(v)
    return struct.pack(f"<{len(out)}H", *out)


@pytest.mark.parametrize("name", list(CLI_CASES))
def test_cli_output_matches_golden(name, tmp_path):
    assert matches_golden(name, cli_output(name, tmp_path))


@pytest.mark.parametrize("method", METHODS)
def test_ipid_sequence_matches_golden(method):
    assert matches_golden(f"ipids-{method}.bin", ipid_output(method))


if __name__ == "__main__":
    import sys
    import tempfile

    names = [*CLI_CASES, *(f"ipids-{m}.bin" for m in METHODS)]
    chosen = sys.argv[1:] or names
    unknown = [n for n in chosen if n not in names]
    if unknown:
        sys.exit(f"unknown golden {unknown[0]!r}; choose from: {' '.join(names)}")
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in chosen:
            if name in CLI_CASES:
                write_golden(name, cli_output(name, Path(tmp)))
            else:
                write_golden(name, ipid_output(name[len("ipids-"):-len(".bin")]))
    print(f"wrote {len(chosen)} goldens to {GOLDEN}")
