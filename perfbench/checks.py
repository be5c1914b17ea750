"""Output checks for the benchmark, computed independently of ipidlab.

Nothing here imports ipidlab. Every expected value comes from an
independent computation (mpmath sums, closed forms, a separate
SipHash-2-4) or from a property the method must have, never from a
stored copy of an earlier output. A failed check raises
:class:`CheckFailure`.
"""
from __future__ import annotations

import csv
import math
import struct
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import mpmath

IPID_SPACE = 1 << 16
ANALYZE_HEADER = ["method", "lambda_log2", "value", "std_err"]

# The CLI's documented defaults, restated: reserved counts per PRNG
# method and the resource counts swept when no --r is given.
PRNG_K = {"prng-queue": 1 << 13, "prng-shuffle": 1 << 15, "prng-pure": 0}
DEFAULT_R = {
    "per-destination": (1 << 12, 1 << 15),
    "per-bucket-exclusive": (1 << 11, 1 << 18),
    "per-bucket-racy": (1 << 11, 1 << 18),
}
COUNTER_METHODS = ("global", "per-connection", "per-destination")
BUCKET_METHODS = ("per-bucket-exclusive", "per-bucket-racy")

# Monte Carlo comparisons allow Z standard errors. At 3 SE one honest row
# in 370 would be flagged, and a run checks hundreds of rows; at 5 SE the
# false-alarm rate is below one in a million rows.
Z = 5.0
# Above lambda/t = 80 every bucket increment is 1 (the program's cutoff).
SEQUENTIAL_CUTOFF = 80.0

# lambda (log2) at which PRNG correctness rows are compared with the
# mpmath birthday-over-Poisson sum.
PRNG_ORACLE_LOG2 = {"prng-pure": (5.0, 8.0), "prng-queue": (13.0,), "prng-shuffle": (15.0,)}


class CheckFailure(AssertionError):
    """An output of the program is wrong; the message says which and why."""


# --- SipHash-2-4, written from the specification -------------------------

# Reference outputs for key 00..0f over messages 00..n-1, as published
# with the specification (output byte order), for a spread of lengths.
SIPHASH_VECTORS = {
    0: "310e0edd47db6f72",
    1: "fd67dc93c539f874",
    7: "37d1018bf50002ab",
    8: "6224939a79f5f593",
    9: "b0e4a90bdf82009e",
    15: "e545be4961ca29a1",
    16: "db9bc2577fcc2a3f",
    63: "724506eb4c328a95",
}

_M64 = (1 << 64) - 1


def _rotl(x: int, b: int) -> int:
    return ((x << b) | (x >> (64 - b))) & _M64


def siphash24(key: bytes, msg: bytes) -> int:
    k0 = int.from_bytes(key[:8], "little")
    k1 = int.from_bytes(key[8:16], "little")
    v = [
        k0 ^ 0x736F6D6570736575,
        k1 ^ 0x646F72616E646F6D,
        k0 ^ 0x6C7967656E657261,
        k1 ^ 0x7465646279746573,
    ]

    def rounds(n: int) -> None:
        for _ in range(n):
            v[0] = (v[0] + v[1]) & _M64
            v[1] = _rotl(v[1], 13) ^ v[0]
            v[0] = _rotl(v[0], 32)
            v[2] = (v[2] + v[3]) & _M64
            v[3] = _rotl(v[3], 16) ^ v[2]
            v[0] = (v[0] + v[3]) & _M64
            v[3] = _rotl(v[3], 21) ^ v[0]
            v[2] = (v[2] + v[1]) & _M64
            v[1] = _rotl(v[1], 17) ^ v[2]
            v[2] = _rotl(v[2], 32)

    padded = msg + bytes(7 - len(msg) % 8) + bytes([len(msg) & 0xFF])
    for off in range(0, len(padded), 8):
        m = int.from_bytes(padded[off:off + 8], "little")
        v[3] ^= m
        rounds(2)
        v[0] ^= m
    v[2] ^= 0xFF
    rounds(4)
    return v[0] ^ v[1] ^ v[2] ^ v[3]


def check_siphash(fn) -> int:
    """Compare a SipHash-2-4 function with the reference vectors."""
    key = bytes(range(16))
    for n, expected in SIPHASH_VECTORS.items():
        got = fn(key, bytes(range(n))).to_bytes(8, "little").hex()
        if got != expected:
            raise CheckFailure(f"siphash of {n} bytes: {got}, expected {expected}")
    return len(SIPHASH_VECTORS)


def ref_bucket_index(src: int, dst: int, proto: int, key: bytes, r: int) -> int:
    """Bucket of a flow: SipHash-2-4 of (dst, src, proto), little endian, mod r."""
    return siphash24(key, struct.pack("<IIB", dst, src, proto)) % r


# --- Analytic oracles (mpmath) -------------------------------------------


def _pmf(n: int, lam) -> mpmath.mpf:
    return mpmath.exp(n * mpmath.log(lam) - lam - mpmath.loggamma(n + 1))


@lru_cache(maxsize=None)
def counter_tail(lam: float) -> float:
    """P(N > 2^16) for N ~ Poisson(lam): a sequential counter collides
    only after using every value. Summed term by term away from the
    mode, so every term added is smaller than the last."""
    with mpmath.workdps(40):
        lam_m = mpmath.mpf(lam)
        above = lam <= IPID_SPACE
        n = IPID_SPACE + 1 if above else IPID_SPACE
        term = _pmf(n, lam_m)
        total = mpmath.mpf(0)
        while n >= 0 and term > total * mpmath.mpf(1e-30):
            total += term
            if above:
                n += 1
                term *= lam_m / n
            else:
                term *= n / lam_m
                n -= 1
        return float(total if above else 1 - total)


@lru_cache(maxsize=None)
def prng_collision(lam: float, k: int) -> float:
    """Birthday collision over Poisson(lam) draws, the last k distinct,
    plus certain collision past 2^16 draws."""
    with mpmath.workdps(20):
        lam_m = mpmath.mpf(lam)
        m = IPID_SPACE - k
        half = int(30 * math.sqrt(lam)) + 30
        lo = max(k + 1, int(lam) - half)
        hi = min(IPID_SPACE, int(lam) + half)
        lg_m, log_m = mpmath.loggamma(m + 1), mpmath.log(m)
        total = mpmath.mpf(0)
        for n in range(lo, hi + 1):
            j = n - k  # fresh draws over m values
            distinct = mpmath.exp(lg_m - mpmath.loggamma(m - j + 1) - j * log_m)
            total += _pmf(n, lam_m) * (1 - distinct)
        return float(total) + counter_tail(lam)


@lru_cache(maxsize=None)
def counter_guess(lam_i: float) -> float:
    """Best single guess against a sequential counter: the Poisson mode's
    mass. Valid while lam_i <= 2^15, where no mass wraps around 2^16."""
    with mpmath.workdps(30):
        mode = int(lam_i)
        return float(max(_pmf(n, mpmath.mpf(lam_i)) for n in (mode - 1, mode, mode + 1) if n >= 0))


def at_least_two(lam: float) -> float:
    """P(N >= 2): no method can collide with fewer than two packets."""
    with mpmath.workdps(30):
        return float(-mpmath.expm1(-lam) - lam * mpmath.exp(-lam))


def increment_sum_moments(lam_i: float, t: int) -> tuple[float, float]:
    """Mean and variance of the sum of N+1 bucket increments, N ~ Poisson.

    Tick gaps are floor(Exp(mean t/lam_i)): geometric with ratio
    q = exp(-lam_i/t). An increment is uniform on [1, max(1, gap)].
    """
    q = math.exp(-lam_i / t)
    e1 = e2 = 0.0
    d = 0
    p = 1.0 - q
    while p > 1e-300 and d < 10_000_000:
        hi = max(1, d)
        e1 += p * (hi + 1) / 2
        e2 += p * (hi + 1) * (2 * hi + 1) / 6
        d += 1
        p *= q
    mean = (lam_i + 1) * e1
    var = (lam_i + 1) * (e2 - e1 * e1) + lam_i * e1 * e1
    return mean, var


def check_increment_sum(mass, lam_i: float, t: int, trials: int) -> None:
    """The mean of a simulated next-value distribution matches Wald's
    (lam_i + 1) * E[increment] within Z standard errors."""
    mean, var = increment_sum_moments(lam_i, t)
    got = math.fsum(float(i) * float(p) for i, p in enumerate(mass) if p)
    tol = Z * math.sqrt(var / trials)
    if abs(got - mean) > tol:
        raise CheckFailure(
            f"increment-sum mean at lambda_i={lam_i}: {got}, expected {mean} +- {tol}"
        )


# --- analyze CSV rows ----------------------------------------------------


@dataclass(frozen=True)
class Row:
    label: str
    lam_log2: float
    value: float
    std_err: Optional[float]


@dataclass(frozen=True)
class Sweep:
    """One ``ipidlab analyze`` invocation."""

    quantity: str
    methods: tuple[str, ...]
    grid: tuple[float, float, float]
    trials: int
    r: Optional[int] = None
    t: int = 3

    def argv(self, seed: int, out: str) -> list[str]:
        start, stop, step = self.grid
        argv = ["analyze", "--quantity", self.quantity, "--methods", *self.methods,
                "--lambda-log2", repr(start), repr(stop), repr(step),
                "--trials", str(self.trials), "--t", str(self.t),
                "--seed", str(seed), "--out", out]
        if self.r is not None:
            argv += ["--r", str(self.r)]
        return argv

    def exponents(self) -> list[float]:
        start, stop, step = self.grid
        out, i = [], 0
        while start + i * step < stop + step / 2:
            out.append(start + i * step)
            i += 1
        return out

    def labels(self) -> dict[str, tuple[str, Optional[int]]]:
        """Expected row label -> (method, resource count)."""
        out = {}
        for method in self.methods:
            if self.quantity == "correctness" or method not in DEFAULT_R:
                out[method] = (method, None)
            elif self.r is not None:
                out[method] = (method, self.r)
            else:
                for r in DEFAULT_R[method]:
                    out[f"{method}:r={r}"] = (method, r)
        return out


def read_rows(path) -> list[Row]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ANALYZE_HEADER:
            raise CheckFailure(f"{path}: header {header!r}, expected {ANALYZE_HEADER!r}")
        rows = []
        for rec in reader:
            if len(rec) != 4:
                raise CheckFailure(f"{path}: malformed row {rec!r}")
            rows.append(Row(rec[0], float(rec[1]), float(rec[2]),
                            float(rec[3]) if rec[3] else None))
    return rows


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(got), abs(want)) + 1e-300


def _mc_row(row: Row, what: str) -> tuple[float, bool]:
    """Standard error of a Monte Carlo row, and whether the row failed
    (a Monte Carlo value without its standard error)."""
    if row.std_err is None:
        return 0.0, True
    if not 0.0 <= row.std_err <= 0.5:
        raise CheckFailure(f"{what}: std_err {row.std_err} out of range")
    return row.std_err, False


def check_sweep(sweep: Sweep, rows: list[Row], uniform: Optional[list[Row]] = None) -> int:
    """Check every row of one sweep; return how many rows failed.

    ``uniform`` holds the security-uniform rows of the same round; a
    per-bucket worst-case row is compared with the uniform-split row at
    the same lambda and resource count.
    """
    labels = sweep.labels()
    keys = {(lab, e) for lab in labels for e in sweep.exponents()}
    seen = {}
    for row in rows:
        key = (row.label, row.lam_log2)
        if key not in keys:
            raise CheckFailure(f"{sweep.quantity}: unexpected row {key}")
        if key in seen:
            raise CheckFailure(f"{sweep.quantity}: duplicate row {key}")
        seen[key] = row
    missing = keys - seen.keys()
    if missing:
        raise CheckFailure(f"{sweep.quantity}: missing rows {sorted(missing)[:5]}")

    uniform_by_key = {}
    for row in uniform or ():
        method, _, r = row.label.partition(":r=")
        uniform_by_key[(method, int(r) if r else None, row.lam_log2)] = row

    failed = 0
    for (label, e), row in sorted(seen.items()):
        method, r = labels[label]
        what = f"{sweep.quantity} {label} lambda=2^{e}"
        if not (math.isfinite(row.value) and 0.0 <= row.value <= 1.0):
            raise CheckFailure(f"{what}: value {row.value} is not a probability")
        if sweep.quantity == "correctness":
            failed += _check_correctness(sweep, method, 2.0**e, row, what)
        else:
            worst = sweep.quantity == "security-worst"
            ref = uniform_by_key.get((method, r, e))
            failed += _check_security(sweep, method, r, 2.0**e, row, what, worst, ref)
    if sweep.quantity == "correctness":
        _check_monotone(sweep, seen)
    return failed


def _check_correctness(sweep: Sweep, method: str, lam: float, row: Row, what: str) -> int:
    if method in COUNTER_METHODS:
        want = counter_tail(lam)
        if row.std_err is not None or not _close(row.value, want, 1e-9):
            raise CheckFailure(f"{what}: {row.value}, Poisson tail is {want}")
        return 0
    if method in PRNG_K:
        if row.std_err is not None:
            raise CheckFailure(f"{what}: exact value carries a std_err")
        if math.log2(lam) in PRNG_ORACLE_LOG2[method]:
            want = prng_collision(lam, PRNG_K[method])
            if not _close(row.value, want, 1e-8):
                raise CheckFailure(f"{what}: {row.value}, birthday sum is {want}")
        return 0
    se, failed = _mc_row(row, what)
    bound = at_least_two(lam) + Z * se + 1.0 / sweep.trials
    if row.value > bound:
        raise CheckFailure(f"{what}: {row.value} exceeds P(N>=2) bound {bound}")
    if lam / sweep.t >= SEQUENTIAL_CUTOFF:
        tail = counter_tail(lam)
        tol = Z * math.sqrt(tail * (1.0 - tail) / sweep.trials) + 1.0 / sweep.trials
        if abs(row.value - tail) > tol:
            raise CheckFailure(f"{what}: {row.value}, counter tail is {tail} +- {tol}")
    return int(failed)


def _check_monotone(sweep: Sweep, seen: dict) -> None:
    """Exact collision probabilities never fall as lambda grows."""
    for method in sweep.methods:
        if method in BUCKET_METHODS:
            continue
        values = [seen[(method, e)].value for e in sweep.exponents()]
        for a, b in zip(values, values[1:]):
            if b < a * (1 - 1e-9):
                raise CheckFailure(f"correctness {method}: falls from {a} to {b}")


def _check_security(sweep, method, r, lam, row, what, worst, ref) -> int:
    if method == "per-connection" or method in PRNG_K:
        want = 1.0 / (IPID_SPACE - PRNG_K.get(method, 0))
        if row.value != want or row.std_err is not None:
            raise CheckFailure(f"{what}: {row.value}, closed form is {want}")
        return 0
    if method in COUNTER_METHODS:
        lam_i = lam if method == "global" else lam / r
        if row.std_err is not None:
            raise CheckFailure(f"{what}: exact value carries a std_err")
        if lam_i <= IPID_SPACE / 2:
            want = counter_guess(lam_i)
            ok = row.value >= want * (1 - 1e-9) if worst else _close(row.value, want, 1e-9)
            if not ok:
                raise CheckFailure(f"{what}: {row.value}, Poisson mode mass is {want}")
        return 0
    se, failed = _mc_row(row, what)
    if row.value < 1.0 / IPID_SPACE - Z * se:
        raise CheckFailure(f"{what}: {row.value} is below 2^-16")
    if worst:
        if ref is None or ref.std_err is None:
            raise CheckFailure(f"{what}: no uniform-split row to compare with")
        floor = ref.value - Z * ref.std_err - 1.0 / sweep.trials
        if row.value < floor:
            raise CheckFailure(f"{what}: {row.value} below uniform split {ref.value}")
    return int(failed)


# --- Replay properties ---------------------------------------------------


def check_ipid(v) -> None:
    if type(v) is not int or not 0 <= v < IPID_SPACE:
        raise CheckFailure(f"IPID {v!r} outside [0, 2^16)")


class Sequential:
    """Each output is the previous one plus 1, mod 2^16."""

    def __init__(self, start: int):
        self.prev = start

    def feed(self, v: int) -> None:
        check_ipid(v)
        if v != (self.prev + 1) % IPID_SPACE:
            raise CheckFailure(f"counter went {self.prev} -> {v}")
        self.prev = v


class NoRepeat:
    """No output equals any of the previous ``span`` outputs."""

    def __init__(self, span: int):
        self.span = span
        self.recent: deque = deque()
        self.members: set = set()

    def feed(self, v: int) -> None:
        check_ipid(v)
        if v in self.members:
            raise CheckFailure(f"{v} repeated within {self.span} outputs")
        if self.span:
            if len(self.recent) == self.span:
                self.members.discard(self.recent.popleft())
            self.recent.append(v)
            self.members.add(v)


class NonZero:
    def feed(self, v: int) -> None:
        check_ipid(v)
        if v == 0:
            raise CheckFailure("zero returned while zero is avoided")


class PerDestination:
    """A (src, dst) counter advances by exactly 1 per request while no
    purge runs; a purge (the table shrinks) forgets the expectations."""

    def __init__(self):
        self.last: dict = {}

    def feed(self, key, v: int, size_before: int, size_after: int) -> None:
        check_ipid(v)
        if size_after < size_before:
            self.last.clear()
        elif size_after - size_before != (key not in self.last):
            raise CheckFailure(f"table grew {size_before} -> {size_after} for {key}")
        elif key in self.last and v != (self.last[key] + 1) % IPID_SPACE:
            raise CheckFailure(f"destination {key} went {self.last[key]} -> {v}")
        self.last[key] = v


class PerBucket:
    """Bucket increments lie in [1, max(1, ticks since the bucket was last
    used)], and the bucket is SipHash-2-4(dst, src, proto) mod r under
    the selector's key."""

    def __init__(self, key: bytes, r: int, counters: list, now: int, index_of=None):
        self.key, self.r = key, r
        self.counters = list(counters)
        self.stamps = [now] * r
        self.index_of = {} if index_of is None else index_of  # flow -> bucket

    def bucket(self, src: int, dst: int, proto: int) -> int:
        ident = (src, dst, proto)
        j = self.index_of.get(ident)
        if j is None:
            j = self.index_of[ident] = ref_bucket_index(src, dst, proto, self.key, self.r)
        return j

    def feed(self, ident, reported_bucket: int, now: int, v: int) -> None:
        check_ipid(v)
        j = self.bucket(*ident)
        if reported_bucket != j:
            raise CheckFailure(f"flow {ident}: bucket {reported_bucket}, SipHash says {j}")
        inc = (v - self.counters[j]) % IPID_SPACE
        limit = max(1, now - self.stamps[j])
        if not 1 <= inc <= limit:
            raise CheckFailure(f"bucket {j}: increment {inc} outside [1, {limit}]")
        self.counters[j] = v
        self.stamps[j] = now


def check_conservation(start: int, end: int, count: int) -> None:
    """A global counter advanced by exactly the number of IPIDs handed out."""
    if (end - start) % IPID_SPACE != count % IPID_SPACE:
        raise CheckFailure(f"global counter moved {start} -> {end} over {count} requests")
