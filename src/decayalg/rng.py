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
are cut into K lanes of L steps each, L the power of two nearest
sqrt(n/8) (this balances the ~10 numpy calls of each step against the
per-lane jump cost): lane j starts at A^(jL) s.  The lane starts come
from vectorised jumps by the doubling matrices A^L, A^2L, A^4L, ...:
lanes [d, 2d) are lanes [0, d) jumped together by A^(dL), so K lanes
take ceil(log2 K) jumps; past 256 lanes, blocks of 128 lanes jump by
A^(128L).  Each matrix is kept as the images of the 256 unit states
(8 KiB), built on first use (A^L by stepping the unit states L times,
each later one by squaring the one before) and cached per (L, level).
A jump expands the images into 64 nibble tables, so the image of a
state is 64 table rows XORed together.  All lanes then step together in
numpy uint64 arithmetic, and the scrambler is applied to the whole block
at once.  A trial's operator draws its words with one call.  Box-Muller
keeps the scalar formulas:
uniforms, 1 - u, sqrt and the products are correctly rounded in numpy
and so agree bit for bit.  numpy's float64 cos and sin call the C
library once per element and give `math.cos`/`math.sin`'s bits (a test
guards this); its SIMD log differs from libm in the last bit on some
inputs, so log must give `math.log`'s bits another way.  Where long
double is the x87 format (np.finfo(np.longdouble).nmant == 63) the log
is taken once in extended precision and rounded to double; the few
elements whose extended log lies within 0.05 ulp of a rounding midpoint
(0.45 ulp or more from the rounded value) are recomputed with
`math.log`.  Every other element is then the correctly rounded log,
which a libm log within 0.55 ulp also returns (0.549 exactly; glibc
documents 0.519 ulp).  On any other long double format every log goes
through `math.log`.
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
_NIBBLE_SHIFTS = np.arange(0, 64, 4, dtype=np.uint64)[:, None]
_NIBBLE_BASE = np.arange(64)
_LEVELS = 8  # doubling levels cached per lane length; later lanes jump in blocks of 128
_JUMPS: dict = {}  # (lane, level) -> unit images of A^(lane * 2^level)


def _step_lanes(s: np.ndarray, rows) -> None:
    """Step the lanes s (shape (4, K)) in place, once per row; row i gets s1 after step i.

    A row may be s[1] itself, for steps whose words are not kept.
    """
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


def _jump(images: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The GF(2) map sending unit state i to images[i] (shape (256, 4)), applied
    to every column of states (shape (4, M)).

    State bit i is bit i % 64 of word i // 64, so nibble b holds bits
    4b..4b+3.  Row 64 v + b of the nibble tables is the image of the state
    whose nibble b is v, and a state's image is the XOR of 64 table rows.
    The tables are built as 16 slabs of 64 rows, one XOR per doubling.
    """
    images = images.reshape(64, 4, 4)
    tables = np.zeros((16, 64, 4), dtype=np.uint64)
    for k in range(4):
        np.bitwise_xor(tables[:1 << k], images[:, k], out=tables[1 << k:2 << k])
    nibbles = (states[:, None, :] >> _NIBBLE_SHIFTS) & np.uint64(0xF)
    rows = nibbles.reshape(64, -1).astype(np.intp) * 64 + _NIBBLE_BASE[:, None]
    return np.bitwise_xor.reduce(np.take(tables.reshape(1024, 4), rows, axis=0), axis=0).T


def _jump_images(lane: int, level: int) -> np.ndarray:
    """The unit images of A^(lane * 2^level), built on first use and then shared.

    Level 0 steps the 256 unit states `lane` times; level i + 1 applies
    level i to its own images, squaring it.  Each matrix is published
    whole under its key, so threads that build one at the same time all
    use the first copy stored.
    """
    images = _JUMPS.get((lane, level))
    if images is None:
        if level == 0:
            i = np.arange(256)
            units = np.zeros((4, 256), dtype=np.uint64)
            units[i // 64, i] = np.uint64(1) << (i % 64).astype(np.uint64)
            _step_lanes(units, [units[1]] * lane)  # column i is A^lane e_i
        else:
            half = _jump_images(lane, level - 1)
            units = _jump(half, half.T)
        images = _JUMPS.setdefault((lane, level), np.ascontiguousarray(units.T))
    return images


def _lanes(n: int) -> tuple:
    """(L, K) for a draw of n >= 1 words: K lanes of L steps, L the power
    of two nearest sqrt(n/8)."""
    lane = 1 << max(0, round(math.log2(n / 8) / 2))
    return lane, -(-n // lane)


def uniforms(words: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from words, as `uniform()` makes them."""
    return (words >> np.uint64(11)) * _UNIT


_X87_MANTISSA = 63  # np.finfo(np.longdouble).nmant of the x87 80-bit format


def _libm_log(u: np.ndarray) -> np.ndarray:
    """math.log of each element of the float64 array u > 0, bit for bit.

    With x87 long doubles the log is taken once in extended precision
    (relative error <= 2^-63, about 0.001 ulp of a double) and rounded to
    y.  off = ext - y is exact.  Where |off| < 0.45 of the gap from y
    toward zero, the true log lies within 0.451 ulp of y, so y is its
    correct rounding, and a libm log with error below 0.549 ulp returns y
    too (glibc documents 0.519 ulp).  The elements within 0.05 ulp of a
    rounding midpoint, about one in ten, go through math.log.  Other long
    double formats take math.log everywhere.
    """
    if np.finfo(np.longdouble).nmant == _X87_MANTISSA:
        ext = u.astype(np.longdouble)
        np.log(ext, out=ext)
        y = ext.astype(float)
        ext -= y
        off = np.abs(ext.astype(float))
        # y * (1 - 2^-53) stays in y's binade unless |y| is a power of two,
        # where it steps down to the smaller gap
        redo = np.flatnonzero(off >= 0.45 * np.abs(np.spacing(y * (1.0 - _UNIT))))
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
        lane, lanes = _lanes(n)
        s = np.empty((4, lanes), dtype=np.uint64)
        s[:, 0] = self._s
        done = 1
        while done < lanes:  # lanes [done, done + count) are A^(span L) of the span before
            level = min(done.bit_length(), _LEVELS) - 1
            span = 1 << level
            count = min(span, lanes - done)
            s[:, done:done + count] = _jump(_jump_images(lane, level),
                                            s[:, done - span:done - span + count])
            done += count
        trace = np.empty((lane + 1, lanes), dtype=np.uint64)  # row i: s1 after i steps
        trace[0] = s[1]
        last = n - (lanes - 1) * lane  # steps the last lane contributes
        _step_lanes(s, trace[1:last + 1])
        self._s = s[:, -1].tolist()
        _step_lanes(s, trace[last + 1:lane])
        x = trace[:lane].T.copy().reshape(-1)
        t = trace.reshape(-1)[:x.size]  # the trace's memory, reused
        x *= np.uint64(5)
        np.left_shift(x, np.uint64(7), out=t)
        x >>= np.uint64(57)
        x |= t
        x *= np.uint64(9)
        return x[:n]

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
