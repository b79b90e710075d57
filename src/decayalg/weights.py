r"""Admissible decay weights on the integer lattice Z^c.

A weight is a function g on Z^c that controls how fast sequence
coefficients are allowed to grow or forced to decay.  Admissibility means

    (a) g(0) = 1,
    (b) g(m + n) <= g(m) g(n)        (submultiplicative),
    (c) g(-n) = g(n)                 (symmetric),
    (d) g(n) >= 1,
    (e) lim_n  ln g(n t) / n = 0     (no exponential growth along rays).

This module implements the four-parameter family

    g(n) = exp(a |n|^b) * (1 + |n|)^s * ln^t(e + |n|),

with a >= 0, 0 <= b < 1, s >= 0, t >= 0, and |n| one of the l1, l2 or
linf norms of the index.  The a-term at n = 0 is defined to be 1 for
every b (including b = 0, where the formula text alone would be
ambiguous); this is the unique reading under which axiom (a) holds on
the whole parameter domain.

All axioms hold analytically for this family; :func:`verify_axioms`
re-checks them numerically on a finite window and reports the worst
violation found, and :func:`grs_sequence` tabulates ln g(n t)/n so the
ray condition (e) can be inspected at finite range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .lattice import as_index, as_number, only_keys, window_indices

__all__ = ["Weight", "AxiomCheck", "AxiomReport", "verify_axioms", "grs_sequence"]

_INDEX_NORMS = ("l1", "l2", "linf")


@dataclass(frozen=True)
class Weight:
    """One member of the built-in admissible weight family.

    Parameters
    ----------
    a, b : float
        Sub-exponential factor exp(a |n|^b); requires a >= 0 and 0 <= b < 1.
        (b = 1 would grow exponentially along rays and break axiom (e).)
    s : float
        Polynomial factor (1 + |n|)^s; requires s >= 0.
    t : float
        Logarithmic factor ln^t(e + |n|); requires t >= 0.
    index_norm : str
        Which norm |n| means: "l1" (default), "l2" or "linf".  l1 keeps
        the base of the polynomial factor integral, hence exact.
    """

    a: float = 0.0
    b: float = 0.0
    s: float = 0.0
    t: float = 0.0
    index_norm: str = "l1"

    def __post_init__(self):
        if not (self.a >= 0):
            raise ValueError("weight parameter a must be >= 0")
        if not (0 <= self.b < 1):
            raise ValueError("weight parameter b must lie in [0, 1)")
        if not (self.s >= 0):
            raise ValueError("weight parameter s must be >= 0")
        if not (self.t >= 0):
            raise ValueError("weight parameter t must be >= 0")
        if self.index_norm not in _INDEX_NORMS:
            raise ValueError(f"index_norm must be one of {_INDEX_NORMS}")

    # -- evaluation ----------------------------------------------------

    def _magnitude(self, coords: np.ndarray) -> np.ndarray:
        """|n| for an (..., c) array of indices, per the configured norm."""
        coords = np.abs(np.asarray(coords, dtype=float))
        if self.index_norm == "l1":
            return coords.sum(axis=-1)
        if self.index_norm == "l2":
            return np.sqrt((coords * coords).sum(axis=-1))
        return coords.max(axis=-1)

    def eval_many(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an (..., c) array of lattice indices."""
        r = self._magnitude(coords)
        # The n = 0 value is pinned to 1 exactly rather than trusting
        # exp/log rounding (and 0**0) to land there.
        out = np.ones_like(r)
        nz = r > 0
        rnz = r[nz]
        val = np.exp(self.a * rnz**self.b) if self.a > 0 else np.ones_like(rnz)
        if self.s:
            val = val * (1.0 + rnz) ** self.s
        if self.t:
            val = val * np.log(np.e + rnz) ** self.t
        out[nz] = val
        return out

    def eval(self, n) -> float:
        """g(n) for a single lattice index (tuple, or plain int when c=1)."""
        coords = np.asarray(as_index(n), dtype=float)
        return float(self.eval_many(coords[np.newaxis, :])[0])

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "s": self.s,
            "t": self.t,
            "index_norm": self.index_norm,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Weight":
        only_keys(obj, ("a", "b", "s", "t", "index_norm"), "weight")
        return cls(
            **{key: as_number(obj.get(key, 0.0), float, key) for key in ("a", "b", "s", "t")},
            index_norm=str(obj.get("index_norm", "l1")),
        )


@dataclass
class AxiomCheck:
    """Outcome of one axiom check over a finite window."""

    name: str
    passed: bool
    worst: float
    witness: Optional[tuple] = None


@dataclass
class AxiomReport:
    window_radius: int
    c: int
    checks: list = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(ch.passed for ch in self.checks)

    def __getitem__(self, name: str) -> AxiomCheck:
        for ch in self.checks:
            if ch.name == name:
                return ch
        raise KeyError(name)


def verify_axioms(w: Weight, window_radius: int, c: int = 1) -> AxiomReport:
    """Numerically re-check axioms (a)-(d) on the cube [-R, R]^c.

    Submultiplicativity is checked for every pair m, n with m, n and
    m + n all inside the cube, up to relative tolerance 1e-12.  Failures
    are reported (with the worst witnessing pair), never raised.
    """
    if window_radius < 1:
        raise ValueError("window_radius must be >= 1")
    idx = window_indices(window_radius, c)
    coords = np.asarray(idx, dtype=np.int64)
    g = w.eval_many(coords)
    width = 2 * window_radius + 1
    grid = g.reshape((width,) * c)

    report = AxiomReport(window_radius=window_radius, c=c)

    # (a) unit value at the origin
    origin = g[coords.shape[0] // 2]  # lexicographic center of the cube
    report.checks.append(
        AxiomCheck("unit", passed=(origin == 1.0), worst=abs(origin - 1.0), witness=(0,) * c)
    )

    # (c) symmetry: the grid must be invariant under flipping every axis
    flipped = grid[(slice(None, None, -1),) * c]
    sym_diff = np.abs(grid - flipped)
    ws = np.unravel_index(int(np.argmax(sym_diff)), grid.shape)
    report.checks.append(
        AxiomCheck(
            "symmetric",
            passed=bool(np.all(sym_diff == 0.0)),
            worst=float(sym_diff.max()),
            witness=tuple(int(v) - window_radius for v in ws),
        )
    )

    # (d) bounded below by one
    amin = int(np.argmin(g))
    report.checks.append(
        AxiomCheck("at_least_one", passed=bool(np.all(g >= 1.0)), worst=float(g[amin]),
                   witness=tuple(idx[amin]))
    )

    # (b) submultiplicativity over all in-window pairs, chunked to bound memory
    worst_ratio = 0.0
    worst_pair = None
    K = coords.shape[0]
    chunk = max(1, (1 << 22) // max(K, 1))
    for lo in range(0, K, chunk):
        hi = min(K, lo + chunk)
        sums = coords[lo:hi, None, :] + coords[None, :, :]
        ok = np.all(np.abs(sums) <= window_radius, axis=-1)
        if not ok.any():
            continue
        pos = tuple((sums[ok] + window_radius).T)
        ratios = grid[pos] / (g[lo:hi, None] * g[None, :])[ok]
        j = int(np.argmax(ratios))
        if ratios[j] > worst_ratio:
            worst_ratio = float(ratios[j])
            ii, jj = np.nonzero(ok)
            worst_pair = (tuple(idx[lo + ii[j]]), tuple(idx[jj[j]]))
    report.checks.append(
        AxiomCheck(
            "submultiplicative",
            passed=worst_ratio <= 1.0 + 1e-12,
            worst=worst_ratio,
            witness=worst_pair,
        )
    )
    return report


def grs_sequence(w: Weight, t, n_max: int) -> np.ndarray:
    """The ray sequence ln g(n t) / n for n = 1 .. n_max.

    For an admissible weight this tends to 0 (and its limit equals its
    infimum over n, so the tail is the interesting part).  Rejects t = 0,
    where the ray degenerates.
    """
    direction = np.asarray(as_index(t), dtype=np.int64)
    if not direction.any():
        raise ValueError("ray direction t must be nonzero")
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    n = np.arange(1, n_max + 1, dtype=np.int64)
    coords = n[:, None] * direction[None, :]
    return np.log(w.eval_many(coords)) / n
