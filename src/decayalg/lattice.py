"""Shared helpers for finite windows of the integer lattice Z^c.

A lattice index is an ordinary tuple of Python ints of length c (plain
ints are accepted where c == 1).  Finite windows are cubes [-R, R]^c
enumerated in lexicographic order, which fixes the raster layout used by
every dense representation in this package.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from itertools import product
from numbers import Integral, Real

import numpy as np

__all__ = [
    "as_number",
    "as_index",
    "only_keys",
    "window_indices",
    "window_array",
    "window_size",
    "flat_offset",
    "flat_offsets",
    "wrap_index",
]


def as_number(value, kind: type = float, what: str = "value"):
    """A JSON number as a `kind`, int or float; ValueError for a bool, a string or
    another non-number, and for int also for a fraction or a non-finite float."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, Real):
        raise ValueError(f"{what} is {value!r}, not a number")
    if kind is int and not isinstance(value, Integral) and \
            not (math.isfinite(value) and value == int(value)):
        raise ValueError(f"{what} is {value!r}, not an integer")
    return kind(value)


def as_index(n, c: int | None = None) -> tuple[int, ...]:
    """Normalize ``n`` (a sequence, or one number) to a tuple of ints, each read by
    as_number, optionally checking its length."""
    idx = tuple(as_number(v, int, "an index")
                for v in (n if isinstance(n, Iterable) else (n,)))
    if c is not None and len(idx) != c:
        raise ValueError(f"index {idx!r} does not have dimension {c}")
    return idx


def only_keys(obj, keys, what: str) -> None:
    """ValueError if the JSON object obj has a key outside `keys`: it would go unread."""
    unknown = set(obj) - set(keys)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")


def window_indices(radius: int, c: int) -> list[tuple[int, ...]]:
    """All indices of the cube [-radius, radius]^c in lexicographic order."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    rng = range(-radius, radius + 1)
    return [tuple(p) for p in product(rng, repeat=c)]


def window_array(radius: int, c: int) -> np.ndarray:
    """The indices of `window_indices` as rows of an (n, c) int64 array."""
    return np.array(window_indices(radius, c), dtype=np.int64)


def window_size(radius: int, c: int) -> int:
    return (2 * radius + 1) ** c


def flat_offset(n: tuple[int, ...], radius: int) -> int:
    """Position of index ``n`` in the lexicographic enumeration of the cube."""
    width = 2 * radius + 1
    pos = 0
    for v in n:
        if abs(v) > radius:
            raise IndexError(f"index {n} outside window of radius {radius}")
        pos = pos * width + (v + radius)
    return pos


def flat_offsets(idx: np.ndarray, radius: int) -> np.ndarray:
    """`flat_offset` of each row of an (n, c) int array; rows must lie in the cube."""
    width = 2 * radius + 1
    pos = np.zeros(idx.shape[0], dtype=np.int64)
    for col in idx.T:
        pos = pos * width + (col + radius)
    return pos


def wrap_index(n: tuple[int, ...], radius: int) -> tuple[int, ...]:
    """Reduce ``n`` modulo the window, mapping into [-radius, radius]^c.

    The window has odd side length 2*radius + 1, so every residue class
    has exactly one representative in the cube.
    """
    width = 2 * radius + 1
    return tuple((v + radius) % width - radius for v in n)
