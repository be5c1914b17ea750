"""SipHash-2-4 with a 128-bit key: a pure-Python reference over one byte
string, and a numpy version over many equal-length messages at once.

Used to map flows to bucket indices. Both follow the reference
definition (2 compression rounds, 4 finalization rounds, little-endian
word loading, length byte in the top byte of the final word) and are
validated against the reference test vectors; :func:`siphash24_rows`
hashes a whole trace's flows in one pass, and :func:`siphash24` is the
oracle it is checked against.
"""
from __future__ import annotations

import struct

import numpy as np

_MASK64 = (1 << 64) - 1
_INIT = (0x736F6D6570736575, 0x646F72616E646F6D, 0x6C7967656E657261, 0x7465646279746573)


def _sipround(v0: int, v1: int, v2: int, v3: int) -> tuple[int, int, int, int]:
    v0 = (v0 + v1) & _MASK64
    v1 = ((v1 << 13) | (v1 >> 51)) & _MASK64
    v1 ^= v0
    v0 = ((v0 << 32) | (v0 >> 32)) & _MASK64
    v2 = (v2 + v3) & _MASK64
    v3 = ((v3 << 16) | (v3 >> 48)) & _MASK64
    v3 ^= v2
    v0 = (v0 + v3) & _MASK64
    v3 = ((v3 << 21) | (v3 >> 43)) & _MASK64
    v3 ^= v0
    v2 = (v2 + v1) & _MASK64
    v1 = ((v1 << 17) | (v1 >> 47)) & _MASK64
    v1 ^= v2
    v2 = ((v2 << 32) | (v2 >> 32)) & _MASK64
    return v0, v1, v2, v3


def siphash24(key: bytes, data: bytes) -> int:
    """64-bit SipHash-2-4 of ``data`` under a 16-byte ``key``."""
    if len(key) != 16:
        raise ValueError("siphash24 key must be exactly 16 bytes")
    k0, k1 = struct.unpack_from("<QQ", key)
    v0, v1, v2, v3 = k0 ^ _INIT[0], k1 ^ _INIT[1], k0 ^ _INIT[2], k1 ^ _INIT[3]

    n = len(data)
    end = n - (n % 8)
    for off in range(0, end, 8):
        (m,) = struct.unpack_from("<Q", data, off)
        v3 ^= m
        v0, v1, v2, v3 = _sipround(v0, v1, v2, v3)
        v0, v1, v2, v3 = _sipround(v0, v1, v2, v3)
        v0 ^= m
    # final word: remaining bytes, zero padded, length in the top byte
    m = (n & 0xFF) << 56
    tail = data[end:]
    m |= int.from_bytes(tail, "little")
    v3 ^= m
    v0, v1, v2, v3 = _sipround(v0, v1, v2, v3)
    v0, v1, v2, v3 = _sipround(v0, v1, v2, v3)
    v0 ^= m

    v2 ^= 0xFF
    for _ in range(4):
        v0, v1, v2, v3 = _sipround(v0, v1, v2, v3)
    return v0 ^ v1 ^ v2 ^ v3


def _sipround_rows(v0, v1, v2, v3, t) -> None:
    """One SipRound on uint64 arrays, in place; ``t`` is scratch space.
    uint64 arithmetic wraps mod 2^64, as the reference's masks do."""

    def rotl(v, b):
        np.right_shift(v, 64 - b, out=t)
        v <<= b
        v |= t

    v0 += v1
    rotl(v1, 13)
    v1 ^= v0
    rotl(v0, 32)
    v2 += v3
    rotl(v3, 16)
    v3 ^= v2
    v0 += v3
    rotl(v3, 21)
    v3 ^= v0
    v2 += v1
    rotl(v1, 17)
    v1 ^= v2
    rotl(v2, 32)


def siphash24_rows(key: bytes, rows: np.ndarray) -> np.ndarray:
    """64-bit SipHash-2-4 of each row of an (n, length) uint8 array under
    a 16-byte ``key``: a uint64 array whose entry i is
    ``siphash24(key, rows[i].tobytes())``."""
    if len(key) != 16:
        raise ValueError("siphash24 key must be exactly 16 bytes")
    n, length = rows.shape
    # every full word, then the final one: remaining bytes, zero padded,
    # length in the top byte
    n_words = length // 8 + 1
    padded = np.zeros((n, 8 * n_words), np.uint8)
    padded[:, :length] = rows
    padded[:, -1] = length & 0xFF
    words = padded.view("<u8")
    k0, k1 = struct.unpack_from("<QQ", key)
    v0, v1, v2, v3 = (np.full(n, k ^ c, np.uint64) for k, c in zip((k0, k1, k0, k1), _INIT))
    t = np.empty(n, np.uint64)
    for w in range(n_words):
        m = words[:, w]
        v3 ^= m
        _sipround_rows(v0, v1, v2, v3, t)
        _sipround_rows(v0, v1, v2, v3, t)
        v0 ^= m
    v2 ^= 0xFF
    for _ in range(4):
        _sipround_rows(v0, v1, v2, v3, t)
    return v0 ^ v1 ^ v2 ^ v3
