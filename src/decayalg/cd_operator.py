r"""Banded block operators dominated by a summable envelope.

An operator here acts on vectors of local blocks indexed by lattice
cells k in the cube [-N..N]^c:

    (T x)_k = sum_m  b_{k,m} x_{k-m},        |m|_inf <= W,

with d x d matrices b_{k,m}.  The band offsets m play the role of a
convolution variable: if beta_m bounds ||b_{k,m}|| uniformly in k, then
beta is a dominating envelope and sum_m beta_m bounds the operator norm.
Two boundary conventions are supported: "circulant" wraps the source
cell k-m back into the cube (period 2N+1 per axis), "dirichlet" drops
contributions from outside it.

Shift-invariant operators (b_{k,m} independent of k) are block Laurent
operators; their symbol sum_m b_m e^{i m.theta} is a matrix function on
the torus and, with the circulant boundary, its values at the grid
points of order 2N+1 carry exactly the spectrum of the dense form.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .lattice import as_index, flat_offset, window_indices, window_size, wrap_index
from .nuclear_blocks import (
    DenseBlock,
    NuclearFactorization,
    operator_norm,
    trace_norm,
)
from .seq_algebra import TorusPoint
from .weights import Weight

__all__ = [
    "CDOperator",
    "BlockVector",
    "Envelope",
    "EnvelopeReport",
    "InversionResult",
    "ShapeMismatch",
    "NotShiftInvariant",
    "NumericallySingular",
    "fit_envelope",
    "apply",
    "compose",
    "densify",
    "shift_decomposition",
    "laurent_symbol",
    "laurent_invertibility_test",
    "invert_one_plus",
    "decay_slope",
]

_BOUNDARIES = ("circulant", "dirichlet")


class ShapeMismatch(ValueError):
    """Operands disagree in dimension, window, band, or boundary."""


class NotShiftInvariant(ValueError):
    """The blocks of some offset vary with the cell index."""


class NumericallySingular(ArithmeticError):
    """The dense system is too ill-conditioned to invert reliably."""


def _norm_of_block(block: np.ndarray, kind: str) -> float:
    if kind == "nuclear":
        return trace_norm(block)
    if kind == "operator_1":
        return operator_norm(block, 1)
    if kind == "operator_2":
        return operator_norm(block, 2)
    if kind == "operator_inf":
        return operator_norm(block, np.inf)
    raise ValueError(f"unknown norm kind {kind!r}")


@dataclass
class BlockVector:
    """A vector of d-dimensional payloads on the cells of [-N..N]^c."""

    c: int
    window_radius: int
    values: np.ndarray  # shape (n_cells, d)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        n = window_size(self.window_radius, self.c)
        if v.ndim != 2 or v.shape[0] != n:
            raise ShapeMismatch(
                f"expected {n} cells for radius {self.window_radius}, c={self.c}; "
                f"got array of shape {v.shape}"
            )
        self.values = v

    @property
    def local_dim(self) -> int:
        return self.values.shape[1]

    @classmethod
    def zeros(cls, c: int, window_radius: int, local_dim: int) -> "BlockVector":
        n = window_size(window_radius, c)
        return cls(c, window_radius, np.zeros((n, local_dim), dtype=np.complex128))

    def norm(self, p=2, cell_weight: float = 1.0) -> float:
        return lp_accumulate(self.values, p, cell_weight)

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)


def lp_accumulate(values: np.ndarray, p, cell_weight: float = 1.0) -> float:
    """One accumulation scheme for every lp norm over (cell, payload) arrays.

    Cells are iterated in their stored (lexicographic) order and the
    payload entries in raster order, so two arrays with equal layout give
    bitwise-equal norms.  cell_weight scales the p-th power mass of each
    cell (quadrature weight h^c for sampled cell payloads, 1 for plain
    coefficient payloads); the max-norm ignores it.
    """
    a = np.abs(np.asarray(values))
    if p == 1:
        return float(cell_weight * a.sum())
    if p == 2:
        return float(np.sqrt(cell_weight * (a * a).sum()))
    if p in (np.inf, float("inf"), "inf"):
        return float(a.max(initial=0.0))
    raise ValueError(f"unsupported exponent {p!r}")


@dataclass
class CDOperator:
    """Banded block operator with explicit boundary convention."""

    c: int
    window_radius: int
    band_radius: int
    local_dim: int
    boundary: str
    blocks: Dict[Tuple[tuple, tuple], np.ndarray] = field(default_factory=dict)
    factorizations: Optional[Dict[Tuple[tuple, tuple], NuclearFactorization]] = None

    def __post_init__(self):
        if self.boundary not in _BOUNDARIES:
            raise ValueError(f"boundary must be one of {_BOUNDARIES}")
        d = self.local_dim
        normalized = {}
        for (k, m), blk in self.blocks.items():
            k = as_index(k, self.c)
            m = as_index(m, self.c)
            if max(abs(x) for x in k) > self.window_radius:
                raise ShapeMismatch(f"cell index {k} outside window")
            if max(abs(x) for x in m) > self.band_radius:
                raise ShapeMismatch(f"offset {m} outside band")
            b = np.asarray(blk, dtype=np.complex128)
            if b.shape != (d, d):
                raise ShapeMismatch(f"block at {(k, m)} has shape {b.shape}, want {(d, d)}")
            normalized[(k, m)] = b
        self.blocks = normalized

    @property
    def n_cells(self) -> int:
        return window_size(self.window_radius, self.c)

    @classmethod
    def shift_invariant(cls, c: int, window_radius: int, band_radius: int,
                        local_dim: int, boundary: str,
                        offset_blocks: dict) -> "CDOperator":
        """Fill every cell with the same per-offset block."""
        blocks = {}
        for m, blk in offset_blocks.items():
            m = as_index(m, c)
            for k in window_indices(window_radius, c):
                blocks[(k, m)] = np.asarray(blk, dtype=np.complex128)
        return cls(c, window_radius, band_radius, local_dim, boundary, blocks)

    def band_offsets(self) -> list:
        return sorted({m for (_, m) in self.blocks})

    # ---- serialization ------------------------------------------------

    def to_json(self) -> dict:
        items = []
        for (k, m) in sorted(self.blocks):
            items.append({
                "k": list(k),
                "m": list(m),
                "block": DenseBlock(self.blocks[(k, m)]).to_json(),
            })
        return {
            "c": self.c,
            "N": self.window_radius,
            "W": self.band_radius,
            "d": self.local_dim,
            "boundary": self.boundary,
            "blocks": items,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CDOperator":
        blocks = {}
        for item in obj["blocks"]:
            k = tuple(int(x) for x in item["k"])
            m = tuple(int(x) for x in item["m"])
            blocks[(k, m)] = DenseBlock.from_json(item["block"]).entries
        return cls(
            c=int(obj["c"]),
            window_radius=int(obj["N"]),
            band_radius=int(obj["W"]),
            local_dim=int(obj["d"]),
            boundary=obj["boundary"],
            blocks=blocks,
        )


def _source_cell(op: CDOperator, k: tuple, m: tuple) -> Optional[tuple]:
    src = tuple(ki - mi for ki, mi in zip(k, m))
    if op.boundary == "circulant":
        return wrap_index(src, op.window_radius)
    if max(abs(x) for x in src) > op.window_radius:
        return None
    return src


def apply(op: CDOperator, x: BlockVector) -> BlockVector:
    """Apply the operator; accumulation runs in (offset, cell) order."""
    if x.c != op.c or x.window_radius != op.window_radius:
        raise ShapeMismatch("vector window does not match operator window")
    if x.local_dim != op.local_dim:
        raise ShapeMismatch(
            f"vector payload dim {x.local_dim} != operator dim {op.local_dim}"
        )
    out = np.zeros_like(x.values)
    for (k, m) in sorted(op.blocks, key=lambda km: (km[1], km[0])):
        src = _source_cell(op, k, m)
        if src is None:
            continue
        out[flat_offset(k, op.window_radius)] += (
            op.blocks[(k, m)] @ x.values[flat_offset(src, op.window_radius)]
        )
    return BlockVector(op.c, op.window_radius, out)


def compose(a: CDOperator, b: CDOperator) -> CDOperator:
    """The product operator; its band is the sum of the factors' bands.

    Offsets add without wrapping; only the hop through the intermediate
    cell respects the boundary convention, which keeps the dense form of
    the composition equal to the product of the dense forms.
    """
    for attr in ("c", "window_radius", "local_dim", "boundary"):
        if getattr(a, attr) != getattr(b, attr):
            raise ShapeMismatch(f"operands differ in {attr}")
    by_cell: Dict[tuple, list] = {}
    for (j, m2), blk in b.blocks.items():
        by_cell.setdefault(j, []).append((m2, blk))
    out: Dict[Tuple[tuple, tuple], np.ndarray] = {}
    for (k, m1), blk_a in sorted(a.blocks.items(), key=lambda kv: kv[0]):
        j = _source_cell(a, k, m1)
        if j is None:
            continue
        for m2, blk_b in by_cell.get(j, ()):
            m = tuple(x + y for x, y in zip(m1, m2))
            key = (k, m)
            prod = blk_a @ blk_b
            if key in out:
                out[key] += prod
            else:
                out[key] = prod
    return CDOperator(
        c=a.c,
        window_radius=a.window_radius,
        band_radius=a.band_radius + b.band_radius,
        local_dim=a.local_dim,
        boundary=a.boundary,
        blocks=out,
    )


def densify(op: CDOperator) -> np.ndarray:
    """The full matrix on the flattened window, (2N+1)^c * d square."""
    n, d = op.n_cells, op.local_dim
    dense = np.zeros((n * d, n * d), dtype=np.complex128)
    for (k, m) in sorted(op.blocks):
        j = _source_cell(op, k, m)
        if j is None:
            continue
        rk = flat_offset(k, op.window_radius)
        rj = flat_offset(j, op.window_radius)
        # += rather than =: with a band wider than the window two offsets
        # can wrap onto the same source cell, and they accumulate
        dense[rk * d:(rk + 1) * d, rj * d:(rj + 1) * d] += op.blocks[(k, m)]
    return dense


def shift_decomposition(op: CDOperator) -> list:
    """Split into single-offset layers T = sum_m T_m, sorted by offset.

    Applying the layers separately and adding the results in this order
    reproduces apply(op, x) addition for addition.
    """
    by_offset: Dict[tuple, dict] = {}
    for (k, m), blk in op.blocks.items():
        by_offset.setdefault(m, {})[(k, m)] = blk
    out = []
    for m in sorted(by_offset):
        out.append((m, CDOperator(
            c=op.c,
            window_radius=op.window_radius,
            band_radius=op.band_radius,
            local_dim=op.local_dim,
            boundary=op.boundary,
            blocks=by_offset[m],
        )))
    return out


def _offset_block_if_invariant(op: CDOperator, m: tuple) -> np.ndarray:
    """The common block of offset m, or NotShiftInvariant."""
    zero = np.zeros((op.local_dim, op.local_dim), dtype=np.complex128)
    ref = None
    for k in window_indices(op.window_radius, op.c):
        blk = op.blocks.get((k, m))
        cur = zero if blk is None else blk
        if ref is None:
            ref = cur
        elif not np.array_equal(ref, cur):
            raise NotShiftInvariant(f"blocks of offset {m} vary with the cell")
    return ref if ref is not None else zero


def laurent_symbol(op: CDOperator, u: TorusPoint) -> np.ndarray:
    """Evaluate sum_m b_m e^{i m.theta}; requires exact shift invariance."""
    if len(u.phases) != op.c:
        raise ShapeMismatch("torus point rank does not match operator rank")
    acc = np.zeros((op.local_dim, op.local_dim), dtype=np.complex128)
    for m in op.band_offsets():
        acc += _offset_block_if_invariant(op, m) * u.power(m)
    return acc


@dataclass
class LaurentReport:
    """Grid check of the matrix symbol's invertibility."""

    invertible: bool
    min_singular_value: float
    argmin: TorusPoint
    margin: float
    grid: int


def laurent_invertibility_test(op: CDOperator, grid: int,
                               margin: float = 0.0) -> LaurentReport:
    """Minimum singular value of the symbol over the uniform grid."""
    if grid < 1:
        raise ValueError("grid must have at least one point per axis")
    best = np.inf
    best_u = None
    for j in itertools.product(range(grid), repeat=op.c):
        u = TorusPoint.from_grid(j, grid)
        s = np.linalg.svd(laurent_symbol(op, u), compute_uv=False)
        smin = float(s[-1]) if s.size else 0.0
        if smin < best:
            best, best_u = smin, u
    return LaurentReport(
        invertible=bool(best > margin),
        min_singular_value=best,
        argmin=best_u,
        margin=margin,
        grid=grid,
    )


# ------------------------------------------------------------ envelopes


@dataclass
class Envelope:
    """Per-offset dominating bounds beta_m on the cube |m|_inf <= W."""

    c: int
    radius: int
    values: np.ndarray  # float array of shape (2W+1,)*c
    norm_kind: str = "nuclear"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        want = (2 * self.radius + 1,) * self.c
        if v.shape != want:
            raise ShapeMismatch(f"envelope array shape {v.shape}, want {want}")
        if (v < 0).any():
            raise ValueError("envelope values must be nonnegative")
        self.values = v

    def beta(self, m) -> float:
        m = as_index(m, self.c)
        if max(abs(x) for x in m) > self.radius:
            return 0.0
        return float(self.values[tuple(x + self.radius for x in m)])

    def l1(self) -> float:
        return float(self.values.sum())


def fit_envelope(op: CDOperator, norm_kind: str = "nuclear") -> Envelope:
    """The tightest constant-in-k envelope: beta_m = max_k ||b_{k,m}||."""
    shape = (2 * op.band_radius + 1,) * op.c
    vals = np.zeros(shape, dtype=float)
    for (k, m), blk in op.blocks.items():
        idx = tuple(x + op.band_radius for x in m)
        vals[idx] = max(vals[idx], _norm_of_block(blk, norm_kind))
    return Envelope(op.c, op.band_radius, vals, norm_kind)


def _report_order(c: int, radius: int) -> list:
    # radius shells first, lexicographic within a shell
    return sorted(window_indices(radius, c),
                  key=lambda m: (max(abs(x) for x in m), m))


@dataclass
class EnvelopeReport:
    """Envelope rows paired with weight values and their running sum."""

    c: int
    radius: int
    norm_kind: str
    rows: list  # (m, beta, weight, weighted, cumsum)

    @classmethod
    def build(cls, env: Envelope, weight: Weight) -> "EnvelopeReport":
        order = _report_order(env.c, env.radius)
        coords = np.array(order, dtype=float).reshape(len(order), env.c)
        gvals = weight.eval_many(coords)
        rows = []
        running = 0.0
        for m, g in zip(order, gvals):
            beta = env.beta(m)
            weighted = float(g) * beta
            running += weighted
            rows.append((m, beta, float(g), weighted, running))
        return cls(env.c, env.radius, env.norm_kind, rows)

    @property
    def total(self) -> float:
        return self.rows[-1][4] if self.rows else 0.0

    @property
    def final_increment(self) -> float:
        return self.rows[-1][3] if self.rows else 0.0

    def to_csv(self, path) -> None:
        header = [f"m_{i + 1}" for i in range(self.c)]
        header += ["beta", "weight", "weighted_beta", "cumsum"]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for m, beta, g, weighted, running in self.rows:
                writer.writerow(
                    [str(x) for x in m]
                    + [repr(beta), repr(g), repr(weighted), repr(running)]
                )


def decay_slope(env: Envelope, floor: float = 1e-14) -> float:
    """Least-squares slope of ln(beta_m) against |m|_inf, above the floor."""
    xs, ys = [], []
    for m in window_indices(env.radius, env.c):
        b = env.beta(m)
        if b > floor:
            xs.append(max(abs(x) for x in m))
            ys.append(np.log(b))
    if len(xs) < 2:
        return float("nan")
    slope, _ = np.polyfit(np.array(xs, dtype=float), np.array(ys), 1)
    return float(slope)


# ------------------------------------------------------------- inversion


@dataclass
class InversionResult:
    """(1 + T)^{-1} = 1 + T1 with the quality certificates of the solve."""

    t1: CDOperator
    residual: float
    condition: float
    envelope: Envelope  # nuclear envelope of t1
    envelope_report: EnvelopeReport


def invert_one_plus(op: CDOperator, weight: Weight,
                    cond_limit: float = 1e12) -> InversionResult:
    """Invert 1 + T on the circulant window and re-expand the correction.

    The dense system is solved by LU factorization with partial pivoting
    (refusing condition numbers above cond_limit); the correction
    (1+T)^{-1} - 1 is re-blocked over the full band W = N, and its fitted
    nuclear envelope and weighted envelope report are attached.
    """
    if op.boundary != "circulant":
        raise ValueError("inversion is defined on the circulant window")
    n, d = op.n_cells, op.local_dim
    dense = densify(op)
    a = np.eye(n * d, dtype=np.complex128) + dense
    condition = float(np.linalg.cond(a))
    if not np.isfinite(condition) or condition > cond_limit:
        raise NumericallySingular(f"condition {condition:.3e} exceeds {cond_limit:.1e}")
    a_inv = np.linalg.inv(a)
    corr = a_inv - np.eye(n * d, dtype=np.complex128)
    residual = operator_norm(a @ a_inv - np.eye(n * d, dtype=np.complex128), 2)

    # re-block the correction: for each pair of cells the offset
    # m = wrap(k - j) is unique within the band W = N
    radius = op.window_radius
    blocks = {}
    for k in window_indices(radius, op.c):
        rk = flat_offset(k, radius)
        for j in window_indices(radius, op.c):
            rj = flat_offset(j, radius)
            m = wrap_index(tuple(ki - ji for ki, ji in zip(k, j)), radius)
            blocks[(k, m)] = corr[rk * d:(rk + 1) * d, rj * d:(rj + 1) * d].copy()
    t1 = CDOperator(
        c=op.c,
        window_radius=radius,
        band_radius=radius,
        local_dim=d,
        boundary="circulant",
        blocks=blocks,
    )
    envelope = fit_envelope(t1, "nuclear")
    return InversionResult(
        t1=t1, residual=float(residual), condition=condition, envelope=envelope,
        envelope_report=EnvelopeReport.build(envelope, weight),
    )
