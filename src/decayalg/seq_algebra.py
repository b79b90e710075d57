r"""The truncated weighted convolution algebra on Z^c.

Finitely supported complex sequences form a commutative algebra under
convolution

    (a * b)_k = sum_m  a_m b_{k-m},

with unit delta (the indicator of 0) and shift basis eps^n (the
indicator of n).  The weighted norm sum_m g(m)|a_m| is submultiplicative
for any admissible weight g, and every point u of the torus induces a
character a -> sum_n u^n a_n.  A sequence is invertible exactly when its
symbol (the character image as u runs over the torus) never vanishes,
and this module makes that constructive at finite truncation: sample the
reciprocal symbol on a uniform grid, transform back, truncate, and
report the aliasing residual ||a * b - delta||_1.

Grids are uniform N-point tori per axis with N a power of two (the
transforms are plain radix-2 FFTs), and symbols are sampled with
theta_j = 2 pi j / N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .lattice import as_index, as_number, only_keys, window_indices
from .weights import Weight

__all__ = [
    "FiniteSeq",
    "TorusPoint",
    "SymbolVanishes",
    "WienerResult",
    "delta",
    "basis",
    "weighted_norm",
    "convolve",
    "character_eval",
    "symbol_on_grid",
    "check_sizes",
    "symbol_vanishes",
    "wiener_inverse",
]


class SymbolVanishes(ArithmeticError):
    """The sampled symbol has (numerically) a zero, so inversion is hopeless."""

    def __init__(self, message: str, min_modulus: float):
        super().__init__(message)
        self.min_modulus = min_modulus  # smallest sampled |symbol|


def _require_pow2(n: int, what: str) -> None:
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"{what} must be a power of two, got {n}")


@dataclass
class FiniteSeq:
    """A finitely supported sequence on Z^c.

    Coefficients live on the cube [-radius, radius]^c, stored densely in
    lexicographic raster order; everything outside the window is exactly
    zero by convention.  Real data is kept as float64 and reads back as
    floats (an operator's envelope, cd_operator.fit_envelope); other data is complex128.
    """

    c: int
    radius: int
    data: np.ndarray

    def __post_init__(self):
        shape = (2 * self.radius + 1,) * self.c
        self.data = np.asarray(self.data, np.complex128 if np.iscomplexobj(self.data) else float)
        if self.data.shape != shape:
            raise ValueError(f"data shape {self.data.shape} != window shape {shape}")

    # -- construction ----------------------------------------------------

    @classmethod
    def zeros(cls, c: int, radius: int, dtype=np.complex128) -> "FiniteSeq":
        return cls(c, radius, np.zeros((2 * radius + 1,) * c, dtype=dtype))

    @classmethod
    def from_entries(cls, entries: dict, c: Optional[int] = None) -> "FiniteSeq":
        """Build from a map index -> coefficient (indices as ints or tuples) on the
        smallest window that holds them."""
        norm = {}
        for n, v in entries.items():
            idx = as_index(n, c)
            c = len(idx)
            norm[idx] = norm.get(idx, 0.0) + complex(v)
        if c is None:
            raise ValueError("cannot infer dimension from empty entries")
        radius = max((max(abs(v) for v in n) for n in norm), default=0)
        seq = cls.zeros(c, radius)
        for n, v in norm.items():
            seq.data[tuple(i + radius for i in n)] = v
        return seq

    # -- access ----------------------------------------------------------

    def __getitem__(self, n) -> complex | float:
        idx = as_index(n, self.c)
        if any(abs(i) > self.radius for i in idx):
            return self.data.dtype.type(0).item()
        return self.data[tuple(i + self.radius for i in idx)].item()

    def support(self) -> Iterator[tuple[tuple[int, ...], complex | float]]:
        """Yield (index, coefficient) over nonzero entries, raster order."""
        for flat in np.flatnonzero(self.data.ravel()):
            pos = np.unravel_index(int(flat), self.data.shape)
            yield tuple(int(p) - self.radius for p in pos), self.data[pos].item()

    def l1_norm(self) -> float:
        return float(np.abs(self.data).sum())

    # -- arithmetic convenience -------------------------------------------

    def __add__(self, other: "FiniteSeq") -> "FiniteSeq":
        return _lincomb(self, other, 1.0)

    def __sub__(self, other: "FiniteSeq") -> "FiniteSeq":
        return _lincomb(self, other, -1.0)

    def __mul__(self, scalar) -> "FiniteSeq":
        return FiniteSeq(self.c, self.radius, self.data * complex(scalar))

    __rmul__ = __mul__

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        entries = [
            {"index": list(n), "re": v.real, "im": v.imag}
            for n, v in sorted(self.support())
        ]
        return {"c": self.c, "radius": self.radius, "entries": entries}

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteSeq":
        only_keys(obj, ("c", "radius", "entries"), "seq")
        c, radius = (as_number(obj[key], int, key) for key in ("c", "radius"))
        if c < 1 or radius < 0:
            raise ValueError(f"need c >= 1 and radius >= 0, got c={c}, radius={radius}")
        seq = cls.zeros(c, radius)
        for e in obj["entries"]:
            only_keys(e, ("index", "re", "im"), "seq entry")
            idx = as_index(list(e["index"]), seq.c)
            if any(abs(i) > radius for i in idx):
                raise ValueError(f"entry index {idx} outside radius {radius}")
            seq.data[tuple(i + seq.radius for i in idx)] = complex(
                as_number(e["re"], float, "re"), as_number(e["im"], float, "im"))
        return seq


def _lincomb(a: FiniteSeq, b: FiniteSeq, sign: float) -> FiniteSeq:
    if a.c != b.c:
        raise ValueError("dimension mismatch")
    radius = max(a.radius, b.radius)
    out = FiniteSeq.zeros(a.c, radius)
    for seq, s in ((a, 1.0), (b, sign)):
        lo = radius - seq.radius
        sl = tuple(slice(lo, lo + 2 * seq.radius + 1) for _ in range(a.c))
        out.data[sl] += s * seq.data
    return out


def delta(c: int = 1) -> FiniteSeq:
    """The convolution unit: indicator of the origin."""
    seq = FiniteSeq.zeros(c, 0)
    seq.data[(0,) * c] = 1.0
    return seq


def basis(n, c: Optional[int] = None) -> FiniteSeq:
    """The shift basis element eps^n (indicator of n); basis(0) is delta."""
    idx = as_index(n, c)
    return FiniteSeq.from_entries({idx: 1.0})


@dataclass(frozen=True)
class TorusPoint:
    """A point u of the c-torus, stored by phases: u_j = exp(i theta_j)."""

    phases: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "phases", tuple(float(p) % (2.0 * math.pi) for p in self.phases)
        )

    @classmethod
    def from_grid(cls, j, N: int) -> "TorusPoint":
        idx = as_index(j)
        return cls(tuple(2.0 * math.pi * ji / N for ji in idx))

    def power(self, n) -> complex:
        """u^n = exp(i <theta, n>)."""
        idx = as_index(n, len(self.phases))
        return complex(np.exp(1j * sum(p * i for p, i in zip(self.phases, idx))))


def weighted_norm(a: FiniteSeq, g: Weight) -> float:
    """sum_m g(m) |a_m| over the (finite) support."""
    coords = np.asarray(window_indices(a.radius, a.c), dtype=np.int64)
    gvals = g.eval_many(coords).reshape(a.data.shape)
    return float((gvals * np.abs(a.data)).sum())


def convolve(a: FiniteSeq, b: FiniteSeq) -> FiniteSeq:
    """Exact convolution; the result window has radius R_a + R_b, real for real a and b."""
    if a.c != b.c:
        raise ValueError("dimension mismatch")
    # iterate the sparser factor, accumulate shifted copies of the denser one
    if np.count_nonzero(a.data) > np.count_nonzero(b.data):
        a, b = b, a
    out = FiniteSeq.zeros(a.c, a.radius + b.radius, np.result_type(a.data, b.data))
    width_b = 2 * b.radius + 1
    for n, v in a.support():
        sl = tuple(slice(i + a.radius, i + a.radius + width_b) for i in n)
        out.data[sl] += v * b.data
    return out


def character_eval(a: FiniteSeq, u: TorusPoint) -> complex:
    """The character value sum_n u^n a_n (an exact finite sum)."""
    if len(u.phases) != a.c:
        raise ValueError("torus point dimension mismatch")
    ns = np.arange(-a.radius, a.radius + 1)
    acc = a.data
    for theta in reversed(u.phases):
        acc = acc @ np.exp(1j * theta * ns)
    return complex(acc)


def symbol_on_grid(a: FiniteSeq, grid: int) -> np.ndarray:
    """Sample the symbol on the uniform N^c torus grid, theta_j = 2 pi j / N.

    N must be a power of two with N >= 2R + 1 (so that distinct
    coefficients never alias onto the same grid frequency).  The entry at
    multi-index j equals character_eval(a, u_j) up to FFT roundoff.
    """
    _require_pow2(grid, "grid")
    if grid < 2 * a.radius + 1:
        raise ValueError(
            f"grid {grid} too coarse for support radius {a.radius}: need N >= 2R+1"
        )
    padded = np.zeros((grid,) * a.c, dtype=np.complex128)
    for n, v in a.support():
        padded[tuple(i % grid for i in n)] += v
    return np.fft.ifftn(padded) * float(grid**a.c)


@dataclass
class WienerResult:
    """Truncated inverse plus the evidence for how good it is."""

    inverse: FiniteSeq
    residual: float          # ||a * inverse - delta||_1, exact convolution
    min_modulus: float       # smallest sampled |symbol|


_TORUS_LOG2 = 24  # the largest sampled torus, 2^24 points (256 MiB of complex128)


def check_sizes(grid: int, radius: int, out_radius: int, c: int) -> None:
    """ValueError unless grid is a power of two, the torus grid^c has at most
    2^24 points, out_radius >= 0 and grid >= 2(R + R') + 2 for the symbol
    radius R and R' = out_radius."""
    _require_pow2(grid, "grid")
    if c * (int(grid).bit_length() - 1) > _TORUS_LOG2:
        raise ValueError(f"a torus of grid^c = {grid}^{c} points exceeds 2^{_TORUS_LOG2}")
    if out_radius < 0:
        raise ValueError(f"out_radius must be >= 0, got {out_radius}")
    if grid < 2 * (radius + out_radius) + 2:
        raise ValueError(f"grid {grid} too short for radii R={radius}, R'={out_radius}: "
                         "need grid >= 2(R + R') + 2")


def symbol_vanishes(mod: np.ndarray) -> bool:
    """Whether sampled moduli of a symbol count as a zero: min <= 1e-13 max(1, max)."""
    return float(mod.min()) <= 1e-13 * max(1.0, float(mod.max()))


def wiener_inverse(a: FiniteSeq, grid: int, out_radius: int) -> WienerResult:
    """Invert a by reciprocal-symbol sampling.

    Samples 1/symbol on the N^c grid, transforms back, and keeps the
    coefficients in [-R', R']^c.  Requires N >= 2(R + R') + 2 so the kept
    coefficients see at most one aliased image, N^c <= 2^24, and a symbol bounded away
    from zero (SymbolVanishes otherwise).  The l1 residual of
    a * b - delta is computed exactly and returned, never judged here:
    callers decide what residual they accept.
    """
    check_sizes(grid, a.radius, out_radius, a.c)
    sym = symbol_on_grid(a, grid)
    mod = np.abs(sym)
    min_mod = float(mod.min())
    if symbol_vanishes(mod):
        raise SymbolVanishes(
            f"sampled symbol modulus {min_mod:.3e} is zero to machine precision", min_mod)
    coeffs = np.fft.fftn(1.0 / sym) / float(grid**a.c)
    inv = FiniteSeq.zeros(a.c, out_radius)
    for n in window_indices(out_radius, a.c):
        inv.data[tuple(i + out_radius for i in n)] = coeffs[tuple(i % grid for i in n)]
    return WienerResult(
        inverse=inv,
        residual=(convolve(a, inv) - delta(a.c)).l1_norm(),
        min_modulus=min_mod,
    )
