"""The seven IPv4 ID selection methods, each defined in one class.

Counter-based methods: a single globally incrementing counter, one
counter per connection, one counter per (src, dst) destination pair
with Windows-style purge sequences, and one counter per keyed-hash
bucket with Linux-style stochastic increments (in an exclusively locked
and a deliberately racy variant). PRNG-based methods: a searchable
queue of the last k values, an iterated Knuth shuffle reserving k
values, and stateless pure random selection.

``SELECTOR_CLASSES`` binds each method name to its class; ``METHODS``,
:func:`new_selector` and :class:`SelectorConfig` read it. Besides its
request methods, each class carries what the rest of the package needs
to know about the method:

* ``family``: which analysis gives its collision and guess
  probabilities (:class:`Family`);
* ``default_k``: reserved values when ``SelectorConfig.k`` is None;
* ``default_r``: the resource counts a sweep runs at when none is given
  (empty when the method has a single shared resource);
* ``check(config)``: validation of the fields only it uses;
* ``thread_requester(worker_id, records)``: a flat request closure for
  one benchmark worker, called with each record index of the trace in
  turn. ``records`` is the trace's record array (fields ``src``,
  ``dst``, ``proto``); a method that reads the flow binds the columns
  it needs from it once, as lists, so that a request is a list lookup.

Concurrency contracts per method:

* ``global``: the read-modify-write is one indivisible step.
* ``per-connection``: the caller owns the state; one requester at a time.
* ``per-destination``, ``prng-queue``, ``prng-shuffle``: one global
  mutual-exclusion region per request.
* ``per-bucket-exclusive``: the step is indivisible per bucket. It reads
  the clock and draws its increment first, then, under the bucket's
  lock, stores both only if the bucket's timestamp is still the one it
  read (and starts over otherwise), as Linux compares and exchanges it.
* ``per-bucket-racy``: the timestamp exchange and the counter add are
  each indivisible, but two concurrent requesters may interleave
  between them (the only permitted nondeterminism).
* ``prng-pure``: no shared state; each benchmark worker owns the
  generator of its stream.
"""
from __future__ import annotations

import enum
import functools
import struct
import threading
from collections import deque, namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .clock import MonotonicClock, seconds_to_ticks, tick_elapsed
from .constants import IPID_MASK, IPID_SPACE
from .rng import derive_seed, make_rng
from .siphash import siphash24, siphash24_rows

__all__ = [
    "METHODS",
    "SELECTOR_CLASSES",
    "ConfigError",
    "ConnectionState",
    "Family",
    "FlowKey",
    "SelectorConfig",
    "bucket_index",
    "bucket_indices",
    "fold_salt",
    "new_selector",
    "selector_class",
]

PORT_BEARING_PROTOCOLS = frozenset({6, 17})  # TCP, UDP

BUCKET_COUNT_MIN = 1 << 11
BUCKET_COUNT_MAX = 1 << 18
BUCKET_MEMO_SIZE = 1 << 12  # flows whose bucket a per-bucket selector remembers
DEFAULT_PURGE_THRESHOLD = 1 << 15
PURGE_INTERVAL_S = 0.5  # per-destination table checks at most this often
STALE_TIMEOUT_S = 60.0  # per-destination entries idle this long are stale
PURGE_BATCH_FLOOR = 1000  # a purge may always remove this many entries
ADD_CHECK_LIMIT = 5000  # more additions than this since a check force a purge
PURE_SALT_LOW_BITS = 32  # a prng-pure worker's salts start at worker_id << this


class Family(enum.Enum):
    """How a method's collision and guess probabilities are evaluated."""

    COUNTER = "sequential counter"  # Poisson tail; top-g of the next value
    BLIND = "blind per-connection"  # Poisson tail; unprobeable, g / 2^16
    BIRTHDAY = "PRNG birthday"  # birthday mixture outside the k reserved
    BUCKET = "stochastic bucket"  # simulated collisions; top-g of the exact next value


class ConfigError(ValueError):
    """Invalid selector configuration; the message names the field."""


@dataclass(frozen=True, slots=True)
class FlowKey:
    """Flow identity: addresses, protocol, and ports when port-bearing."""

    src_addr: int
    dst_addr: int
    protocol: int
    src_port: Optional[int] = None
    dst_port: Optional[int] = None

    def __post_init__(self):
        if not 0 <= self.src_addr <= 0xFFFFFFFF:
            raise ValueError(f"src_addr out of 32-bit range: {self.src_addr}")
        if not 0 <= self.dst_addr <= 0xFFFFFFFF:
            raise ValueError(f"dst_addr out of 32-bit range: {self.dst_addr}")
        if not 0 <= self.protocol <= 0xFF:
            raise ValueError(f"protocol out of 8-bit range: {self.protocol}")
        port_bearing = self.protocol in PORT_BEARING_PROTOCOLS
        has_ports = self.src_port is not None and self.dst_port is not None
        if port_bearing != has_ports:
            raise ValueError(
                "ports must be present exactly when the protocol is "
                f"port-bearing (protocol={self.protocol})"
            )
        for p in (self.src_port, self.dst_port):
            if p is not None and not 0 <= p <= 0xFFFF:
                raise ValueError(f"port out of 16-bit range: {p}")


@dataclass
class SelectorConfig:
    """Method choice plus every tunable shared by the selector family.

    ``k`` defaults per method (the class's ``default_k``: queue 2^13,
    shuffle 2^15, others 0).
    The per-bucket hash key is derived from ``seed``. ``seed=None``
    uses OS entropy (production default); a fixed seed makes every
    method's output sequence reproducible.
    """

    method: str
    r: int = BUCKET_COUNT_MIN
    k: Optional[int] = None
    purge_threshold: int = DEFAULT_PURGE_THRESHOLD
    avoid_zero: bool = True
    seed: Optional[int] = None

    def validate(self) -> None:
        selector_class(self.method).check(self)

    def resolved_k(self) -> int:
        if self.k is not None:
            return self.k
        return selector_class(self.method).default_k

    def resolved_hash_key(self) -> bytes:
        if self.seed is None:
            import secrets

            return secrets.token_bytes(16)
        return struct.pack(
            "<QQ",
            derive_seed(self.seed, "hash-key", 0),
            derive_seed(self.seed, "hash-key", 1),
        )


class ConnectionState:
    """One 16-bit counter; randomly initialized at connection establishment."""

    __slots__ = ("counter",)

    def __init__(self, counter: int):
        self.counter = counter & IPID_MASK


def fold_salt(salt: int) -> int:
    """XOR-fold a 64-bit salt into 16 bits (its four 16-bit words)."""
    return (salt ^ (salt >> 16) ^ (salt >> 32) ^ (salt >> 48)) & IPID_MASK


def bucket_index(flow: FlowKey, key: bytes, r: int) -> int:
    """Keyed-hash bucket for a flow: SipHash-2-4(dst, src, proto) mod r.

    Ports are deliberately not part of the hash input. Pure function of
    (flow, key, r).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    msg = struct.pack("<IIB", flow.dst_addr, flow.src_addr, flow.protocol)
    return siphash24(key, msg) % r


# the fields of a FlowKey that bucket_index reads
_HashedFields = namedtuple("_HashedFields", ["src_addr", "dst_addr", "protocol"])
_BUCKET_MESSAGE = np.dtype([("dst", "<u4"), ("src", "<u4"), ("proto", "u1")])  # struct "<IIB"


def bucket_indices(records: np.ndarray, key: bytes, r: int) -> np.ndarray:
    """:func:`bucket_index` of every record of a structured array with
    fields ``src``, ``dst`` and ``proto``, hashed column-wise in numpy."""
    if r < 1:
        raise ValueError("r must be >= 1")
    msg = np.empty(len(records), _BUCKET_MESSAGE)
    for name in _BUCKET_MESSAGE.names:
        msg[name] = records[name]
    return siphash24_rows(key, msg.view(np.uint8).reshape(len(records), _BUCKET_MESSAGE.itemsize)) % r


class _SelectorBase:
    """What every method defines; subclasses override the class attributes
    and define ``__init__(config, clock, rng)``, which :func:`new_selector`
    calls.

    ``method`` is filled in from ``SELECTOR_CLASSES``.
    """

    method: str = ""
    family: Family = Family.COUNTER
    default_k: int = 0
    default_r: tuple[int, ...] = ()  # empty: one shared resource
    derives_rng = False  # True: new_selector passes no derived generator

    @classmethod
    def check(cls, config: SelectorConfig) -> None:
        """Reject settings of the fields this method uses (ConfigError)."""

    def thread_requester(self, worker_id: int, records: Optional[np.ndarray] = None):
        """A flat ``request(i) -> IPID`` closure for one benchmark worker,
        where ``i`` indexes ``records``, the trace's record array, with
        the selector's methods and the record columns it reads bound once.
        Methods that never read the flow ignore ``records``."""
        raise NotImplementedError


class GloballyIncrementingSelector(_SelectorBase):
    """Single shared counter; +1 mod 2^16 per request, indivisibly."""

    def __init__(self, config: SelectorConfig, clock, rng):
        self._lock = threading.Lock()
        self._counter = rng.getrandbits(16)

    @property
    def counter(self) -> int:
        return self._counter

    @counter.setter
    def counter(self, value: int) -> None:
        with self._lock:
            self._counter = value & IPID_MASK

    def next_global(self) -> int:
        with self._lock:
            self._counter = v = (self._counter + 1) & IPID_MASK
        return v

    def thread_requester(self, worker_id: int, records=None):
        next_global = self.next_global
        return lambda i: next_global()


class PerConnectionSelector(_SelectorBase):
    """One counter per connection; the caller owns each state object."""

    family = Family.BLIND

    def __init__(self, config: SelectorConfig, clock, rng):
        self._rng = rng

    def new_connection(self) -> ConnectionState:
        return ConnectionState(self._rng.getrandbits(16))

    def next_per_connection(self, state: ConnectionState) -> int:
        state.counter = v = (state.counter + 1) & IPID_MASK
        return v

    def thread_requester(self, worker_id: int, records=None):
        # caller-owned counter: a request is a local increment
        counter = worker_id * 7919 & IPID_MASK

        def request(i, _mask=IPID_MASK):
            nonlocal counter
            counter = (counter + 1) & _mask
            return counter

        return request


class PerDestinationSelector(_SelectorBase):
    """Hash table of (src, dst) counters bounded by purge sequences.

    The table size is checked at most once per ``PURGE_INTERVAL_S``
    seconds. At a check, a purge runs when the table exceeds its purge
    threshold or more than ``ADD_CHECK_LIMIT`` entries were added since
    the last check; it removes up to max{PURGE_BATCH_FLOOR,
    added-since-check} stale entries. Entries are stale when last
    accessed more than ``STALE_TIMEOUT_S`` seconds ago, or
    unconditionally when the table exceeds twice its threshold.
    Purged-then-revisited destinations restart from a fresh random
    counter.

    Table layout: ``_table`` maps the key ``src << 32 | dst`` to
    ``stamp << 16 | counter``, where ``stamp`` is the tick of the
    destination's last access. Keys and values are ints, so no object is
    made per destination and the cyclic GC never tracks the table. An
    update assigns to an existing key, which keeps its place in
    insertion order, the order a purge walks.
    """

    default_r = (1 << 12, 1 << 15)  # two common purge thresholds

    def __init__(self, config: SelectorConfig, clock, rng):
        self._lock = threading.Lock()
        self._clock = clock
        self._rng = rng
        self._table: dict[int, int] = {}
        self._purge_interval = seconds_to_ticks(PURGE_INTERVAL_S)
        self._stale_ticks = seconds_to_ticks(STALE_TIMEOUT_S)
        self._threshold = config.purge_threshold
        self._last_check = clock.now()
        self._added_since_check = 0

    @classmethod
    def check(cls, config: SelectorConfig) -> None:
        if config.purge_threshold < 1:
            raise ConfigError(f"purge_threshold: {config.purge_threshold} must be >= 1")

    def __len__(self) -> int:
        return len(self._table)

    def next_per_destination(self, src_addr: int, dst_addr: int) -> int:
        return self._next(src_addr << 32 | dst_addr)

    def _next(self, key: int) -> int:
        with self._lock:
            now = self._clock.now()
            if tick_elapsed(self._last_check, now) >= self._purge_interval:
                self._purge_check(now)
            table = self._table
            entry = table.get(key)
            if entry is None:
                v = self._rng.getrandbits(16)
                self._added_since_check += 1
            else:
                v = (entry + 1) & IPID_MASK
            table[key] = now << 16 | v
            return v

    def _purge_check(self, now: int) -> None:
        added = self._added_since_check
        self._added_since_check = 0
        self._last_check = now
        table = self._table
        size = len(table)
        if size <= self._threshold and added <= ADD_CHECK_LIMIT:
            return
        all_stale = size > 2 * self._threshold
        cap = max(PURGE_BATCH_FLOOR, added)
        stale_ticks = self._stale_ticks
        stale = []
        for key, entry in table.items():
            if len(stale) >= cap:
                break
            if all_stale or tick_elapsed(entry >> 16, now) > stale_ticks:
                stale.append(key)
        for key in stale:
            del table[key]

    def thread_requester(self, worker_id: int, records=None):
        keys = (records["src"].astype(np.uint64) << 32 | records["dst"]).tolist()
        next_key = self._next
        return lambda i: next_key(keys[i])


class PerBucketSelector(_SelectorBase):
    """r keyed-hash buckets with stochastic increments, each bucket's
    step under its own lock.

    The increment is uniform over [1, max{1, elapsed ticks since the
    bucket was last touched}]. Bucket counters initialize to seeded
    random values; timestamps initialize to construction time.
    """

    family = Family.BUCKET
    default_r = (BUCKET_COUNT_MIN, BUCKET_COUNT_MAX)

    def __init__(self, config: SelectorConfig, clock, rng):
        self._clock = clock
        self._rng = rng
        self._r = config.r
        self._key = config.resolved_hash_key()
        now = clock.now()
        self._counters = [rng.getrandbits(16) for _ in range(config.r)]
        self._stamps = [now] * config.r
        self._locks = [threading.Lock() for _ in range(config.r)]
        key, r = self._key, config.r

        # A miss calls the module's bucket_index by name, so a wrapper
        # installed there sees every hash.
        @functools.lru_cache(maxsize=BUCKET_MEMO_SIZE)
        def index_of(dst: int, src: int, proto: int) -> int:
            return bucket_index(_HashedFields(src, dst, proto), key, r)

        self._index_of = index_of

    @classmethod
    def check(cls, config: SelectorConfig) -> None:
        if not BUCKET_COUNT_MIN <= config.r <= BUCKET_COUNT_MAX:
            raise ConfigError(
                f"r: bucket count {config.r} outside "
                f"[{BUCKET_COUNT_MIN}, {BUCKET_COUNT_MAX}]"
            )

    @property
    def hash_key(self) -> bytes:
        return self._key

    def bucket_index(self, flow: FlowKey) -> int:
        """The flow's bucket, remembered for the last ``BUCKET_MEMO_SIZE``
        distinct (dst, src, proto)."""
        return self._index_of(flow.dst_addr, flow.src_addr, flow.protocol)

    def bucket_counter(self, j: int) -> int:
        return self._counters[j]

    def next_per_bucket(self, flow: FlowKey) -> int:
        return self._step(self.bucket_index(flow))

    def _step(self, j: int) -> int:
        # The clock read and the draw come before the lock, so the locked
        # section makes no call: a thread cannot lose the GIL while it
        # holds a bucket lock, and no other thread queues behind it. A
        # step whose timestamp changed meanwhile starts over. Alone, it
        # reads the clock and draws exactly as a fully locked step would.
        # ``with`` takes the lock without a switch point, where a bare
        # ``lock.acquire()`` call may hand the GIL over right after it.
        stamps = self._stamps
        counters = self._counters
        lock = self._locks[j]
        while True:
            t_old = stamps[j]
            t_now = self._clock.now()
            delta = tick_elapsed(t_old, t_now)
            inc = 1 if delta <= 1 else self._rng.randint(1, delta)
            with lock:
                if stamps[j] == t_old:
                    stamps[j] = t_now
                    counters[j] = v = (counters[j] + inc) & IPID_MASK
                    return v

    def thread_requester(self, worker_id: int, records=None):
        buckets = bucket_indices(records, self._key, self._r).tolist()
        step = self._step
        return lambda i: step(buckets[i])


class PerBucketRacySelector(PerBucketSelector):
    """Per-bucket selection whose timestamp exchange and counter add are
    separate indivisible steps, so concurrent requests may interleave."""

    def _step(self, j: int) -> int:
        # Two short indivisible sections: the timestamp exchange and the
        # counter add. Other requests may interleave between them.
        lock = self._locks[j]
        t_now = self._clock.now()
        with lock:
            t_old = self._stamps[j]
            self._stamps[j] = t_now
        delta = tick_elapsed(t_old, t_now)
        inc = 1 if delta <= 1 else self._rng.randint(1, delta)
        counters = self._counters
        with lock:
            counters[j] = v = (counters[j] + inc) & IPID_MASK
        return v


class _PrngSelector(_SelectorBase):
    """A PRNG method: draws stay out of a window of k reserved values.
    Its constructor checks the config too, so a selector built from its
    class rather than through :func:`new_selector` cannot take a k that
    its draw loop never leaves."""

    family = Family.BIRTHDAY

    def __init__(self, config: SelectorConfig, clock, rng):
        self.check(config)

    @classmethod
    def check(cls, config: SelectorConfig) -> None:
        if config.k is not None and not 0 <= config.k < IPID_SPACE:
            raise ConfigError(f"k: reserved count {config.k} outside [0, 2^16)")


class PrngQueueSelector(_PrngSelector):
    """Uniform draws filtered through a FIFO of the last k values.

    A 2^16-entry membership table gives constant-time "already queued"
    checks; bit i is set exactly when value i is in the FIFO.
    """

    default_k = 1 << 13

    def __init__(self, config: SelectorConfig, clock, rng):
        super().__init__(config, clock, rng)
        self._lock = threading.Lock()
        self._rng = rng
        self._k = config.resolved_k()
        self._avoid_zero = config.avoid_zero
        self._queue: deque[int] = deque()
        self._member = bytearray(IPID_SPACE)

    @classmethod
    def check(cls, config: SelectorConfig) -> None:
        super().check(config)
        # a full FIFO must leave a value to draw, or the draw loop never ends
        if config.k is not None and config.avoid_zero and config.k > IPID_SPACE - 2:
            raise ConfigError(
                f"k: reserved count {config.k} leaves no nonzero value to draw; "
                "prng-queue with avoid_zero needs k <= 2^16 - 2"
            )

    def next_prng_queue(self) -> int:
        with self._lock:
            draw = self._rng.getrandbits
            member = self._member
            avoid = self._avoid_zero
            v = draw(16)
            while (avoid and v == 0) or member[v]:
                v = draw(16)
            k = self._k
            if k:
                q = self._queue
                if len(q) == k:
                    member[q.popleft()] = 0
                q.append(v)
                member[v] = 1
        return v

    def thread_requester(self, worker_id: int, records=None):
        next_queue = self.next_prng_queue
        return lambda i: next_queue()


class PrngShuffleSelector(_PrngSelector):
    """Iterated Knuth shuffle over the full 2^16-value permutation.

    Each returned value is swapped back among the previous 2^16 - k
    cyclic positions (including its own), so the head cannot reach it
    again for at least k + 1 further positions. A skipped zero (when
    zero-avoidance is on) consumes one of those positions without
    producing an output, so duplicate outputs are at least k apart:
    every window of k consecutive outputs is duplicate-free.
    """

    default_k = 1 << 15

    def __init__(self, config: SelectorConfig, clock, rng):
        super().__init__(config, clock, rng)
        self._lock = threading.Lock()
        self._rng = rng
        self._k = config.resolved_k()
        self._avoid_zero = config.avoid_zero
        perm = list(range(IPID_SPACE))
        rng.shuffle(perm)
        self._perm = perm
        self._head = 0

    @property
    def permutation(self) -> list[int]:
        return list(self._perm)

    def next_prng_shuffle(self) -> int:
        with self._lock:
            perm = self._perm
            randrange = self._rng.randrange
            span = IPID_SPACE - self._k  # swap distance drawn from [0, span-1]
            avoid = self._avoid_zero
            while True:
                i = self._head
                v = perm[i]
                j = (i - randrange(span)) & IPID_MASK
                perm[i], perm[j] = perm[j], perm[i]
                self._head = (i + 1) & IPID_MASK
                if v or not avoid:
                    return v

    def thread_requester(self, worker_id: int, records=None):
        next_shuffle = self.next_prng_shuffle
        return lambda i: next_shuffle()


class PrngPureSelector(_PrngSelector):
    """Stateless uniform selection salted per packet; no shared state.

    Stream i's generator is seeded with ``derive_seed(seed, "pure", i)``
    (OS entropy when the seed is None). :meth:`next_prng_pure` draws
    stream 0 and benchmark worker w's requester stream w, so workers
    never contend. A generator passed as ``rng`` serves every caller.
    """

    derives_rng = True

    def __init__(self, config: SelectorConfig, clock, rng):
        super().__init__(config, clock, rng)
        self._avoid_zero = config.avoid_zero
        self._seed = config.seed
        self._rng = rng
        self._draw = self._stream_draw(0)

    def _stream_draw(self, stream: int):
        rng, seed = self._rng, self._seed
        if rng is None:
            rng = make_rng(None if seed is None else derive_seed(seed, "pure", stream))
        return rng.getrandbits

    def next_prng_pure(self, salt: int = 0) -> int:
        draw = self._draw
        folded = fold_salt(salt)
        v = draw(16) ^ folded
        if self._avoid_zero:
            while v == 0:
                v = draw(16) ^ folded
        return v

    def thread_requester(self, worker_id: int, records=None):
        """Bind stream ``worker_id``'s generator once; each request salts
        its draw with a packet counter starting at ``worker_id << 32``."""
        draw = self._stream_draw(worker_id)
        avoid = self._avoid_zero
        # The salt is high + n, high a multiple of 2^PURE_SALT_LOW_BITS and
        # n below that (at most 2^32), so their bits are disjoint and the
        # salt's fold is fold(high) ^ n ^ (n >> 16): one-word arithmetic.
        low_limit = 1 << PURE_SALT_LOW_BITS
        high = worker_id << PURE_SALT_LOW_BITS
        high_fold = fold_salt(high)
        n = 0

        def request(_i=None, _mask=IPID_MASK) -> int:
            nonlocal high, high_fold, n
            n += 1
            if n == low_limit:  # carry into high
                high += n
                high_fold = fold_salt(high)
                n = 0
            folded = (n ^ (n >> 16) ^ high_fold) & _mask
            v = draw(16) ^ folded
            while avoid and v == 0:
                v = draw(16) ^ folded
            return v

        return request


# The one place a method name is bound to its class; METHODS keeps this order.
SELECTOR_CLASSES: dict[str, type[_SelectorBase]] = {
    "global": GloballyIncrementingSelector,
    "per-connection": PerConnectionSelector,
    "per-destination": PerDestinationSelector,
    "per-bucket-exclusive": PerBucketSelector,
    "per-bucket-racy": PerBucketRacySelector,
    "prng-queue": PrngQueueSelector,
    "prng-shuffle": PrngShuffleSelector,
    "prng-pure": PrngPureSelector,
}
for _name, _cls in SELECTOR_CLASSES.items():
    _cls.method = _name

METHODS = tuple(SELECTOR_CLASSES)


def selector_class(method: str) -> type[_SelectorBase]:
    """The class that defines ``method``; ConfigError for unknown names."""
    cls = SELECTOR_CLASSES.get(method)
    if cls is None:
        raise ConfigError(f"method: unknown {method!r}; expected one of {METHODS}")
    return cls


def new_selector(config: SelectorConfig, clock=None, rng=None):
    """Build a selector for ``config.method``; validates the config.

    ``clock`` (per-destination, per-bucket) defaults to the real
    monotonic tick clock; pass a :class:`~ipidlab.clock.VirtualClock`
    for deterministic tests. ``rng`` overrides the seeded generator.
    """
    config.validate()
    cls = SELECTOR_CLASSES[config.method]
    if rng is None and not cls.derives_rng:
        seed = config.seed
        rng = make_rng(None if seed is None else derive_seed(seed, config.method))
    if clock is None:
        clock = MonotonicClock()
    return cls(config, clock, rng)
