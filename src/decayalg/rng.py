"""Deterministic, cross-language-replayable random streams.

The generator is xoshiro256** seeded through splitmix64, fixed here so
that experiment outputs are byte-stable across platforms and easy to
reproduce outside Python.  All arithmetic is modulo 2^64.

splitmix64 (stepping a counter x):
    x += 0x9E3779B97F4A7C15
    z = x
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output z ^ (z >> 31)

xoshiro256** (state s0..s3, all updates mod 2^64):
    result = rotl64(s1 * 5, 7) * 9
    t  = s1 << 17
    s2 ^= s0;  s3 ^= s1;  s1 ^= s2;  s0 ^= s3
    s2 ^= t
    s3  = rotl64(s3, 45)

A stream is opened per (seed, stream) pair: the splitmix64 counter
starts at (seed + stream * 0x9E3779B97F4A7C15) mod 2^64 and its first
four outputs become s0..s3.  A pair therefore names its stream only
through that counter: (seed + G, stream - 1) opens the same stream as
(seed, stream), for G = 0x9E3779B97F4A7C15, and two pairs give distinct
streams exactly when their counters differ mod 2^64.  The experiments
open (seed, trial) for trial operators, and the kernel experiment draws
its grid values from (seed ^ 0x6B65726E, trial), which is the operator
stream of trial `trial` under the seed seed ^ 0x6B65726E.  Uniform doubles take the top 53 bits,
uniform = (next >> 11) * 2^-53 in [0, 1); normals come from the
Box-Muller transform (using 1 - uniform inside the logarithm, second
value cached).

Bulk draws.  `next_u64`, `normal` and `complex_normal` are the spec and
the test oracle; `u64_array`, `normals` and `complex_normals` return
exactly the same bits, many at a time, and leave the generator in the
same state.  The xoshiro256** update is linear over GF(2), so n steps
are cut into K lanes of L steps each (L a power of two near sqrt(n)):
lane j starts at A^(jL) s.  The jump matrix A^L is built on first use
for each L, by stepping the 256 unit states L times, and cached as 64
nibble tables (32 KiB), so one jump is 64 lookups XORed together.  All
lanes then step together in numpy uint64 arithmetic, and the scrambler
is applied to the whole block at once.  Box-Muller keeps the scalar formulas:
uniforms, 1 - u, sqrt and the products are correctly rounded in numpy
and so agree bit for bit, but log, cos and sin go through `math` (libm)
because numpy's own versions differ from libm in the last bit on some
inputs.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["splitmix64", "Xoshiro256StarStar", "box_muller", "uniforms"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


def splitmix64(x: int) -> tuple:
    """One splitmix64 step: returns (new_counter, output)."""
    x = (x + _GOLDEN) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return x, z ^ (z >> 31)


_UNIT = 2.0 ** -53
_NIBBLE_SHIFTS = np.arange(0, 64, 4, dtype=np.uint64)
_NIBBLE_ROWS = np.arange(64)
_JUMPS: dict = {}  # lane length L -> nibble tables of the jump matrix A^L


def _step_lanes(s: np.ndarray, steps: int, s1_out=None) -> None:
    """Step the lanes s (shape (4, K)) in place; s1_out[i] gets s1 before step i."""
    s0, s1, s2, s3 = s
    t = np.empty_like(s0)
    for i in range(steps):
        if s1_out is not None:
            s1_out[i] = s1
        np.left_shift(s1, np.uint64(17), out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.left_shift(s3, np.uint64(45), out=t)
        s3 >>= np.uint64(19)
        s3 |= t


def _jump_tables(lane: int) -> np.ndarray:
    """A^lane as 64 nibble tables: [b, v] is the image of the state whose nibble b is v.

    State bit i is bit i % 64 of word i // 64, so nibble b holds bits 4b..4b+3.
    """
    tables = _JUMPS.get(lane)
    if tables is None:
        i = np.arange(256)
        units = np.zeros((4, 256), dtype=np.uint64)
        units[i // 64, i] = np.uint64(1) << (i % 64).astype(np.uint64)
        _step_lanes(units, lane)  # column i is A^lane e_i
        images = units.T.reshape(64, 4, 4)
        tables = np.zeros((64, 16, 4), dtype=np.uint64)
        for k in range(4):
            tables[:, 1 << k:2 << k] = tables[:, :1 << k] ^ images[:, k, None]
        # concurrent first builds compute the same tables
        tables = _JUMPS.setdefault(lane, tables)
    return tables


def _jump(tables: np.ndarray, state: np.ndarray) -> np.ndarray:
    nibbles = ((state[:, None] >> _NIBBLE_SHIFTS) & np.uint64(0xF)).astype(np.intp)
    return np.bitwise_xor.reduce(tables[_NIBBLE_ROWS, nibbles.ravel()], axis=0)


def uniforms(words: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from words, as `uniform()` makes them."""
    return (words >> np.uint64(11)) * _UNIT


def _libm(fn, x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, x.ravel().tolist()), dtype=float, count=x.size).reshape(x.shape)


def box_muller(words: np.ndarray) -> np.ndarray:
    """Normals from consecutive word pairs, as `normal()` draws a fresh pair.

    words has an even last axis; pair (w_a, w_b) gives r cos(theta) then
    r sin(theta) in the same two places of the float64 result.
    """
    u1 = 1.0 - uniforms(words[..., 0::2])
    theta = 2.0 * math.pi * uniforms(words[..., 1::2])
    r = np.sqrt(-2.0 * _libm(math.log, u1))
    out = np.empty(words.shape, dtype=float)
    out[..., 0::2] = r * _libm(math.cos, theta)
    out[..., 1::2] = r * _libm(math.sin, theta)
    return out


class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 seeding and Box-Muller normals."""

    def __init__(self, seed: int, stream: int = 0):
        x = (int(seed) + int(stream) * _GOLDEN) & _MASK
        state = []
        for _ in range(4):
            x, z = splitmix64(x)
            state.append(z)
        if not any(state):  # pragma: no cover - unreachable with splitmix64
            state[0] = _GOLDEN
        self._s = state
        self._cached_normal = None

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK, 7) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def uniform(self) -> float:
        """A double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def normal(self) -> float:
        if self._cached_normal is not None:
            out, self._cached_normal = self._cached_normal, None
            return out
        u1 = 1.0 - self.uniform()  # in (0, 1]: the log is finite
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._cached_normal = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def complex_normal(self) -> complex:
        re = self.normal()
        im = self.normal()
        return complex(re, im)

    def u64_array(self, n: int) -> np.ndarray:
        """The next n words as uint64, the same as n calls to next_u64."""
        n = int(n)
        if n <= 0:
            return np.empty(0, dtype=np.uint64)
        lane = 1 << round(math.log2(n) / 2)  # the power of two nearest sqrt(n)
        lanes = -(-n // lane)
        s = np.empty((4, lanes), dtype=np.uint64)
        s[:, 0] = self._s
        if lanes > 1:
            tables = _jump_tables(lane)
            for j in range(1, lanes):
                s[:, j] = _jump(tables, s[:, j - 1])
        trace = np.empty((lane, lanes), dtype=np.uint64)
        last = n - (lanes - 1) * lane  # steps the last lane contributes
        _step_lanes(s, last, trace)
        self._s = s[:, -1].tolist()
        _step_lanes(s, lane - last, trace[last:])
        x = trace.T.reshape(-1)[:n] * np.uint64(5)
        return ((x << np.uint64(7)) | (x >> np.uint64(57))) * np.uint64(9)

    def normals(self, n: int) -> np.ndarray:
        """The next n normals as float64, the same as n calls to normal()."""
        out = np.empty(n, dtype=float)
        head = 0
        if n and self._cached_normal is not None:
            out[0], self._cached_normal, head = self._cached_normal, None, 1
        fresh = box_muller(self.u64_array(2 * ((n - head + 1) // 2)))
        out[head:] = fresh[: n - head]
        if fresh.size > n - head:
            self._cached_normal = float(fresh[-1])
        return out

    def complex_normals(self, n: int) -> np.ndarray:
        """The next n complex normals, the same as n calls to complex_normal()."""
        return self.normals(2 * n).view(np.complex128)
