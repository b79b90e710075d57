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

A generator is opened at a splitmix64 counter, whose first four outputs
become s0..s3.  Four consecutive outputs are never all zero: the output
mixer is a bijection that sends only 0 to 0.  Uniform doubles take the
top 53 bits, uniform = (next >> 11) * 2^-53 in [0, 1); normals come
from the Box-Muller transform (using 1 - uniform inside the logarithm,
second value cached).

Lanes.  Each random object an experiment draws (one block of an
operator, one cell of a grid) reads its own lane: the generator opened
at a key of integer parts.  `lane_key(*parts)` folds the parts through
splitmix64, h = 0 and then h = output of splitmix64 stepping the counter
h ^ (part mod 2^64), part by part.  The harness keys block (k, m) of
trial t by (seed, domain, t, *k, *m), so a block's words depend on
nothing but its key, not on where it sits among the other blocks, and
two different keys collide only by chance (a 2^-64 event per pair).
`lanes(counters, steps)` draws the first `steps` words of many lanes
at once: one vectorised splitmix64 pass seeds every lane, all lanes step
together in numpy uint64 arithmetic, and the scrambler is applied to the
whole block.  Row i equals `Xoshiro256StarStar(counters[i])` word for
word; the scalar methods are the spec and the test oracle.

Box-Muller over lane words keeps the scalar formulas: uniforms, 1 - u,
sqrt and the products are correctly rounded in numpy and so agree bit
for bit.  numpy's float64 cos and sin call the C
library once per element and give `math.cos`/`math.sin`'s bits (a test
guards this); its SIMD log differs from libm in the last bit on some
inputs, so log must give `math.log`'s bits another way.  Where long
double is the x87 format in 16 bytes (np.finfo(np.longdouble).nmant ==
63, itemsize 16) the log is taken once in extended precision and
rounded to double.  A significand test picks the elements within 0.05
ulp of a rounding midpoint: the 11 low significand bits that rounding
drops read within 102 of 1024.  Those are recomputed with `math.log`.
Every other element is then the correctly rounded log, which a libm log
within 0.55 ulp also returns (0.549 exactly; glibc documents 0.519 ulp).
On any other long double layout every log goes through `math.log`.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["splitmix64", "lane_key", "lane_keys", "lanes", "Xoshiro256StarStar", "box_muller",
           "uniforms"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


def splitmix64(x):
    """One splitmix64 step: returns (new_counter, output); x an int or a uint64 array."""
    x = (x + _GOLDEN) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return x, z ^ (z >> 31)


def lane_key(*parts: int) -> int:
    """The counter of the lane keyed by parts: h = 0, then h = splitmix64(h ^ part)[1]
    for each part mod 2^64."""
    h = 0
    for part in parts:
        h = splitmix64(h ^ (int(part) & _MASK))[1]
    return h


def lane_keys(prefix: tuple, rows) -> np.ndarray:
    """lane_key(*prefix, *row) of every row of the integer array rows (shape (n, j)), as uint64."""
    h = np.full(len(rows), lane_key(*prefix), dtype=np.uint64)
    for part in np.asarray(rows, dtype=np.int64).view(np.uint64).T:  # negatives wrap mod 2^64
        h = splitmix64(h ^ part)[1]
    return h


_UNIT = 2.0 ** -53
# s_j of a lane is the splitmix64 output that steps the counter + j G
_SEEDING = np.arange(4, dtype=np.uint64)[:, None] * np.uint64(_GOLDEN)


def _step_lanes(s: np.ndarray, rows) -> None:
    """Step the lanes s (shape (4, K)) in place, once per row; row i gets s1 after step i."""
    s0, s1, s2, s3 = s
    t = np.empty_like(s0)
    for row in rows:
        np.left_shift(s1, np.uint64(17), out=t)
        s2 ^= s0
        s3 ^= s1
        s1 = np.bitwise_xor(s1, s2, out=row)
        s0 ^= s3
        s2 ^= t
        np.left_shift(s3, np.uint64(45), out=t)
        s3 >>= np.uint64(19)
        s3 |= t
    s[1] = s1


def lanes(counters, steps: int) -> np.ndarray:
    """The first `steps` words of the lane at each splitmix64 counter, shape (n, steps).

    Row i holds what `steps` calls of Xoshiro256StarStar(counters[i]).next_u64 return.
    """
    counters = np.asarray(counters, dtype=np.uint64)
    s = splitmix64(counters + _SEEDING)[1]  # all lanes seeded in one pass
    trace = np.empty((max(steps, 1), counters.size), dtype=np.uint64)  # row i: s1 before step i
    trace[0] = s[1]
    _step_lanes(s, trace[1:steps])
    x = trace[:steps].T.copy().reshape(-1)
    t = trace.reshape(-1)[:x.size]  # the trace's memory, reused
    x *= np.uint64(5)
    np.left_shift(x, np.uint64(7), out=t)
    x >>= np.uint64(57)
    x |= t
    x *= np.uint64(9)
    return x.reshape(counters.size, steps)


def uniforms(words: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from words, as `uniform()` makes them."""
    return (words >> np.uint64(11)) * _UNIT


_X87_MANTISSA = 63  # np.finfo(np.longdouble).nmant of the x87 80-bit format


def _near_midpoints(ext: np.ndarray) -> np.ndarray:
    """Flat indices of the 16-byte x87 long doubles ext whose low 11 significand bits
    read within 102 of 1024: within 0.05 ulp of a double rounding midpoint."""
    low = ext.reshape(-1).view(np.uint64)[0::2] & np.uint64(0x7FF)
    low -= np.uint64(1024 - 102)  # wraps below the window
    return np.flatnonzero(low <= np.uint64(2 * 102))


def _libm_log(u: np.ndarray) -> np.ndarray:
    """math.log of each element of the float64 array u > 0, bit for bit.

    With 16-byte x87 long doubles the log is taken once in extended
    precision (relative error <= 2^-63, about 0.001 ulp of a double) and
    rounded to y, which drops the low 11 of its 64 significand bits.
    Where they read more than 102 from 1024, the midpoint, the true log
    lies within 0.451 ulp of y (0.5 - 103/2048 and the error), so y is its
    correct rounding, and a libm log with error below 0.549 ulp returns y
    too (glibc documents 0.519 ulp).  The other elements, about one in
    ten, go through math.log, as all do with other long double layouts.
    """
    if (np.finfo(np.longdouble).nmant, np.dtype(np.longdouble).itemsize) == (_X87_MANTISSA, 16):
        ext = np.log(u.astype(np.longdouble))
        y = ext.astype(float)
        redo = _near_midpoints(ext)
    else:
        y, redo = np.empty_like(u), np.arange(u.size)
    y.flat[redo] = np.fromiter(map(math.log, u.flat[redo].tolist()), dtype=float,
                               count=redo.size)
    return y


def box_muller(words: np.ndarray) -> np.ndarray:
    """Normals from consecutive word pairs, as `normal()` draws a fresh pair.

    words has an even last axis; pair (w_a, w_b) gives r cos(theta) then
    r sin(theta) in the same two places of the float64 result.
    """
    u1 = 1.0 - uniforms(words[..., 0::2])
    r = np.sqrt(-2.0 * _libm_log(u1))
    theta = 2.0 * math.pi * uniforms(words[..., 1::2])
    out = np.empty(words.shape, dtype=float)
    out[..., 0::2] = r * np.cos(theta)
    out[..., 1::2] = r * np.sin(theta)
    return out


class Xoshiro256StarStar:
    """xoshiro256** opened at a splitmix64 counter, with Box-Muller normals."""

    def __init__(self, counter: int):
        x = int(counter) & _MASK
        state = []
        for _ in range(4):
            x, z = splitmix64(x)
            state.append(z)
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
