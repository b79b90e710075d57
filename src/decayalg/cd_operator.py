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

The module only computes: an envelope beta comes back as a real
seq_algebra.FiniteSeq, an element of the algebra l_1(Z^c), and the
weighted envelope tables of a report are built and written by the harness.

Stored form.  An operator keeps its blocks as one (n_blocks, d, d)
complex128 `stack` and an (n_blocks, 2, c) int64 `keys` table whose row
i holds the cell k and the offset m of block i; optional nuclear
factor terms are two more stacks, `factors`, the one form in which an
operator carries them.  All are given and validated in bulk once, at
construction, and are read-only afterwards.  `blocks` is a read-only
{(k, m): block} view whose values are rows of the stack.
The `route` of an operator's `Plan` is the one place a block is routed
to its source cell; apply, densify, compose, the kernel assembly and the
re-blocking of an inverse all go through it, and the plan's `pairs` are
the cell and source rows of a sampled kernel.  The first four add their
terms with one np.add.at over terms sorted by target and then by the
order of a block-by-block walk over sorted keys.  The results
rely on add.at being unbuffered: it adds repeated indices one at a time,
in index order, so every target sums its terms in that walk's order.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Optional

import numpy as np

from .lattice import (
    as_index,
    as_number,
    flat_offsets,
    window_array,
    window_indices,
    window_size,
)
from .seq_algebra import FiniteSeq, TorusPoint

__all__ = [
    "CDOperator",
    "Plan",
    "band_plan",
    "geometry_plan",
    "BlockVector",
    "InversionResult",
    "ShapeMismatch",
    "NotShiftInvariant",
    "NumericallySingular",
    "block_norms",
    "factored_trace_norms",
    "fit_envelope",
    "apply",
    "compose",
    "densify",
    "shift_decomposition",
    "laurent_symbol",
    "invert_one_plus",
    "decay_slope",
]

_BOUNDARIES = ("circulant", "dirichlet")


class ShapeMismatch(ValueError):
    """Operands disagree in dimension, window, band, or boundary."""


class NotShiftInvariant(ValueError):
    """The blocks of some offset vary with the cell index."""


class NumericallySingular(ArithmeticError):
    """The solve of the dense system certifies no condition number within the limit."""


def block_norms(stack: np.ndarray, kind: str) -> np.ndarray:
    """The norm of every block of an (n, d, d) stack, the one place a block norm is
    taken: "nuclear" sums LAPACK's singular values; "operator_1", "operator_2" and
    "operator_inf" are the induced p -> p norms.  A 0 x 0 block has norm 0."""
    if kind in ("nuclear", "operator_2"):
        s = np.linalg.svd(stack, compute_uv=False)
        return s.sum(axis=-1) if kind == "nuclear" else s.max(axis=-1, initial=0.0)
    if kind in ("operator_1", "operator_inf"):
        return np.abs(stack).sum(axis=-2 if kind == "operator_1" else -1).max(axis=-1, initial=0.0)
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


def _table(blocks: Mapping, c: int, d: int) -> tuple:
    """(keys, stack) of a {(k, m): d x d block} dict, in its order.

    Indices go through as_index (a plain int is accepted for c == 1);
    a key that normalizes onto an earlier one replaces its block.
    """
    table = {(as_index(a, c), as_index(b, c)): blk for (a, b), blk in blocks.items()}
    try:
        keys = np.array(list(table), dtype=np.int64).reshape(len(table), 2, c)
        return keys, np.array(list(table.values()) or np.zeros((0, d, d)), dtype=np.complex128)
    except OverflowError as exc:
        raise ShapeMismatch("an index does not fit in int64") from exc
    except ValueError as exc:  # blocks of differing shapes
        raise ShapeMismatch(f"blocks differ in shape, want {(d, d)}") from exc


class CDOperator:
    """Banded block operator with explicit boundary convention.

    Built from a {(k, m): d x d block} dict, or from its stored arrays by
    `from_arrays`; row i of `stack` is the block at (keys[i, 0], keys[i, 1]),
    the cell k and the offset m.  `factors`, set only by `from_arrays`, is a
    pair (a, y) of (n_blocks, rank, d) stacks with block i =
    sum_j outer(y[i, j], a[i, j]); a block of lower rank is padded with zero
    terms, which add exactly nothing.  They are the only form in which an
    operator carries factor terms.  `nominal_norms`, when set, is the
    (n_blocks,) array of the trace norms the generator scaled each block to
    (see fit_envelope); only generated operators carry them.  `plan` is the
    `Plan` of the key table, the operator's own or one shared by every
    operator over the same key array.
    """

    def __init__(self, c: int, window_radius: int, band_radius: int,
                 local_dim: int, boundary: str, blocks: Optional[Mapping] = None):
        self._set(c, window_radius, band_radius, local_dim, boundary,
                  *_table(blocks or {}, c, local_dim))

    @classmethod
    def from_arrays(cls, c: int, window_radius: int, band_radius: int,
                    local_dim: int, boundary: str, keys, stack,
                    factors: Optional[tuple] = None,
                    plan: Optional["Plan"] = None,
                    nominal_norms: Optional[np.ndarray] = None) -> "CDOperator":
        """An operator over a key table and a block stack, validated in bulk.

        The arrays are kept, not copied, and become read-only.  A shared
        `plan` must be over this very key array and geometry.
        """
        op = cls.__new__(cls)
        op._set(c, window_radius, band_radius, local_dim, boundary, keys, stack, plan,
                factors, nominal_norms)
        return op

    def _set(self, c, window_radius, band_radius, local_dim, boundary, keys, stack,
             plan=None, factors=None, nominal_norms=None) -> None:
        """Validate and keep every array: one shape check each, one bounds check per key part."""
        if boundary not in _BOUNDARIES:
            raise ValueError(f"boundary must be one of {_BOUNDARIES}")
        self.c, self.window_radius, self.band_radius = c, window_radius, band_radius
        self.local_dim, self.boundary = local_dim, boundary
        stack = np.asarray(stack, dtype=np.complex128)
        keys = np.asarray(keys, dtype=np.int64)
        n = len(stack)
        if stack.shape[1:] != (local_dim, local_dim):
            raise ShapeMismatch(f"blocks have shape {stack.shape[1:]}, "
                                f"want {(local_dim, local_dim)}")
        if keys.shape != (n, 2, c):
            raise ShapeMismatch(f"key table has shape {keys.shape}, want {(n, 2, c)}")
        for part, radius, name in ((0, window_radius, "cell index"), (1, band_radius, "offset")):
            outside = np.flatnonzero(
                ((keys[:, part] < -radius) | (keys[:, part] > radius)).any(axis=1))
            if outside.size:
                raise ShapeMismatch(
                    f"{name} {tuple(keys[outside[0], part].tolist())} outside radius {radius}")
        self.keys, self.stack = _read_only(keys, stack)
        if plan is None:
            plan = Plan(keys, window_radius, band_radius, boundary)
        elif plan.keys is not keys or (plan.window_radius, plan.band_radius, plan.boundary) != \
                (window_radius, band_radius, boundary):
            raise ShapeMismatch("the plan is over another key table or geometry")
        self.plan = plan
        if factors is not None:
            a, y = (np.asarray(f, dtype=np.complex128) for f in factors)
            if a.shape != y.shape or a.ndim != 3 or a.shape[::2] != (n, local_dim):
                raise ShapeMismatch(f"factor stacks of shapes {a.shape} and {y.shape}")
            factors = _read_only(a, y)
        if nominal_norms is not None:
            nominal_norms = np.asarray(nominal_norms, dtype=float)
            if nominal_norms.shape != (n,):
                raise ShapeMismatch(f"{nominal_norms.shape} nominal norms for {n} blocks")
            nominal_norms.flags.writeable = False
        self.factors, self.nominal_norms = factors, nominal_norms

    @cached_property
    def blocks(self) -> Mapping:
        """Read-only {(k, m): block} view in row order, built on first use; the
        blocks are rows of `stack`."""
        return MappingProxyType({(tuple(a), tuple(b)): blk
                                 for (a, b), blk in zip(self.keys.tolist(), self.stack)})

    @property
    def n_blocks(self) -> int:
        return len(self.stack)

    @property
    def n_cells(self) -> int:
        return window_size(self.window_radius, self.c)

    @classmethod
    def shift_invariant(cls, c: int, window_radius: int, band_radius: int,
                        local_dim: int, boundary: str,
                        offset_blocks: dict) -> "CDOperator":
        """Fill every cell with the same per-offset block."""
        cells = window_indices(window_radius, c)
        return cls(c, window_radius, band_radius, local_dim, boundary,
                   {(k, m): blk for m, blk in offset_blocks.items() for k in cells})

    # ---- serialization ------------------------------------------------

    def to_json(self) -> dict:
        """Blocks in sorted (k, m) order, each as {"d", "re", "im"}."""
        items = [{"k": k, "m": m, "block": {"d": self.local_dim, "re": blk.real.tolist(),
                                             "im": blk.imag.tolist()}}
                 for (k, m), blk in sorted(zip(self.keys.tolist(), self.stack),
                                           key=lambda row: row[0])]
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
        """The operator of `to_json`; ValueError for a misshapen or non-finite block or
        a number that is not a JSON number (an integer for an index or a size)."""
        blocks = {}
        for item in obj["blocks"]:
            k, m = (as_index(list(item[key])) for key in ("k", "m"))
            blk = item["block"]
            re, im = (np.array([[as_number(x, float, part) for x in row] for row in blk[part]])
                      for part in ("re", "im"))
            if re.shape != im.shape or re.shape != (as_number(blk["d"], int, "d"),) * 2:
                raise ValueError("inconsistent block dimensions in JSON")
            if not (np.isfinite(re).all() and np.isfinite(im).all()):
                raise ValueError("block entries must be finite")
            blocks[(k, m)] = z = np.empty(re.shape, dtype=np.complex128)
            z.real, z.imag = re, im  # re + 1j * im would turn a -0.0 real part into 0.0
        c, n, w, d = (as_number(obj[key], int, key) for key in ("c", "N", "W", "d"))
        return cls(c, n, w, d, obj["boundary"], blocks)


# --------------------------------------------------------------- routing


@dataclass(frozen=True, eq=False)
class Plan:
    """What depends only on a key table of (cell, offset) rows and its geometry;
    each part is computed on first use and kept as read-only arrays."""

    keys: np.ndarray  # (n, 2, c) int64
    window_radius: int
    band_radius: int
    boundary: str

    @cached_property
    def route(self) -> tuple:
        """(rows, cells, sources) of the blocks that land in the window, in (cell, offset) order.

        cells and sources are the flat window rows of each block's cell k and
        source k - m.  The circulant boundary wraps the source into the
        window; the dirichlet boundary drops a block whose source is outside.
        """
        keys, radius, band = self.keys, self.window_radius, self.band_radius
        cells = flat_offsets(keys[:, 0], radius)
        code = cells * window_size(band, keys.shape[2]) + flat_offsets(keys[:, 1], band)
        rows = np.argsort(code, kind="stable")  # the code is unique per block
        src = keys[rows, 0] - keys[rows, 1]
        if self.boundary == "circulant":
            src = (src + radius) % (2 * radius + 1) - radius
        inside = np.abs(src).max(axis=1, initial=0) <= radius
        return _read_only(rows[inside], cells[rows[inside]], flat_offsets(src[inside], radius))

    @cached_property
    def in_order(self) -> bool:
        """Whether the route takes every row in stored order, as for generated operators."""
        rows = self.route[0]
        return bool(len(rows) == len(self.keys) and (np.diff(rows) > 0).all())

    def gather(self, stack: np.ndarray) -> np.ndarray:
        """stack[rows] of the route; a C-contiguous stack itself when in order."""
        return stack if self.in_order and stack.flags.c_contiguous else stack[self.route[0]]

    @cached_property
    def pairs(self) -> tuple:
        """(group, order, cells, sources) of the kernel assembly: each routed block's
        kernel block, the order its terms add in (ascending offset), and the flat
        window rows of each kernel block's cell and source, ascending by pair."""
        rows, cells, sources = self.route
        n = window_size(self.window_radius, self.keys.shape[2])
        codes, group = np.unique(cells * n + sources, return_inverse=True)
        return _read_only(group, flat_offsets(self.keys[rows, 1], self.band_radius),
                          codes // n, codes % n)


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def band_plan(c: int, window_radius: int, band_radius: int, boundary: str,
              drawn: tuple) -> Plan:
    """The `Plan` over the key table of every cell with the `drawn` flat offsets
    of the band: cells in window order, then offsets in `drawn` order."""
    cells = window_array(window_radius, c)
    keys = np.empty((len(cells) * len(drawn), 2, c), dtype=np.int64)
    keys[:, 0] = np.repeat(cells, len(drawn), axis=0)
    keys[:, 1] = np.tile(window_array(band_radius, c)[list(drawn)], (len(cells), 1))
    keys.flags.writeable = False
    return Plan(keys, window_radius, band_radius, boundary)


# the process's one plan of a generated geometry, shared by its trials
geometry_plan = lru_cache(maxsize=16)(band_plan)


def sum_groups(values: np.ndarray, group: np.ndarray, order: np.ndarray) -> np.ndarray:
    """out[g] = sum of values[group == g] in ascending `order`.

    group must take every value 0..G-1.  The first term of a group is
    assigned, not added to zero, as a dict that stores a key's first
    product and adds the rest would do.
    """
    if group.max(initial=-1) + 1 == len(group):  # one term per group
        out = np.empty_like(values)
        out[group] = values
        return out
    ranked = np.lexsort((order, group))
    g = group[ranked]
    first = np.diff(g, prepend=-1) != 0
    out = np.empty((group.max(initial=-1) + 1,) + values.shape[1:], dtype=values.dtype)
    out[g[first]] = values[ranked[first]]
    np.add.at(out, g[~first], values[ranked[~first]])
    return out


def apply(op: CDOperator, x: BlockVector) -> BlockVector:
    """Apply the operator; each cell adds its terms in ascending offset order."""
    if x.c != op.c or x.window_radius != op.window_radius:
        raise ShapeMismatch("vector window does not match operator window")
    if x.local_dim != op.local_dim:
        raise ShapeMismatch(
            f"vector payload dim {x.local_dim} != operator dim {op.local_dim}"
        )
    _, cells, sources = op.plan.route
    out = np.zeros_like(x.values)
    np.add.at(out, cells, (op.plan.gather(op.stack) @ x.values[sources, :, None])[..., 0])
    return BlockVector(op.c, op.window_radius, out)


def compose(a: CDOperator, b: CDOperator) -> CDOperator:
    """The product operator; its band is the sum of the factors' bands.

    Offsets add without wrapping; only the hop through the intermediate
    cell respects the boundary convention, which keeps the dense form of
    the composition equal to the product of the dense forms.  A product
    block sums its terms in ascending order of the first factor's offset;
    the result's blocks come in sorted (k, m) order.
    """
    for attr in ("c", "window_radius", "local_dim", "boundary"):
        if getattr(a, attr) != getattr(b, attr):
            raise ShapeMismatch(f"operands differ in {attr}")
    rows_a, cells_a, sources_a = a.plan.route
    # pair every block (k, m1) of a with each block (j, m2) of b at its source j
    cells_b = flat_offsets(b.keys[:, 0], b.window_radius)
    per_cell = np.bincount(cells_b, minlength=a.n_cells)
    first = np.cumsum(per_cell) - per_cell
    fan = per_cell[sources_a]
    ia = np.repeat(rows_a, fan)
    step = np.repeat(first[sources_a] - (np.cumsum(fan) - fan), fan)
    ib = np.argsort(cells_b, kind="stable")[step + np.arange(len(ia))]

    band = a.band_radius + b.band_radius
    m1 = a.keys[ia, 1]
    m = m1 + b.keys[ib, 1]
    target = np.repeat(cells_a, fan) * window_size(band, a.c) + flat_offsets(m, band)
    codes, group = np.unique(target, return_inverse=True)
    stack = sum_groups(a.stack[ia] @ b.stack[ib], group, flat_offsets(m1, a.band_radius))
    keys = np.empty((len(codes), 2, a.c), dtype=np.int64)
    keys[group, 0] = a.keys[ia, 0]
    keys[group, 1] = m
    return CDOperator.from_arrays(a.c, a.window_radius, band, a.local_dim,
                                  a.boundary, keys, stack)


def densify(op: CDOperator) -> np.ndarray:
    """The full matrix on the flattened window, (2N+1)^c * d square."""
    n, d = op.n_cells, op.local_dim
    dense = np.zeros((n * d, n * d), dtype=np.complex128)
    _, cells, sources = op.plan.route
    # added, not assigned: with a band wider than the window two offsets
    # can wrap onto the same source cell, and they accumulate
    np.add.at(dense.reshape(n, d, n, d), (cells, slice(None), sources), op.plan.gather(op.stack))
    return dense


def shift_decomposition(op: CDOperator) -> list:
    """Split into single-offset layers T = sum_m T_m, sorted by offset.

    Applying the layers separately and adding the results in this order
    reproduces apply(op, x) addition for addition.
    """
    offsets = flat_offsets(op.keys[:, 1], op.band_radius)
    out = []
    for code in np.unique(offsets):
        rows = np.flatnonzero(offsets == code)
        out.append((tuple(op.keys[rows[0], 1].tolist()), CDOperator.from_arrays(
            op.c, op.window_radius, op.band_radius, op.local_dim, op.boundary,
            op.keys[rows], op.stack[rows],
        )))
    return out


def _offset_blocks(op: CDOperator) -> tuple:
    """(offsets, blocks): each stored offset, ascending, with its common block.

    Each offset's rows are scattered to their cells, an absent cell
    counting as a zero block; NotShiftInvariant if some cell's block
    differs from the first cell's.
    """
    offsets, group = np.unique(flat_offsets(op.keys[:, 1], op.band_radius),
                               return_inverse=True)
    d = op.local_dim
    grid = np.zeros((len(offsets), op.n_cells, d, d), dtype=np.complex128)
    grid[group, flat_offsets(op.keys[:, 0], op.window_radius)] = op.stack
    varies = np.flatnonzero(~(grid == grid[:, :1]).all(axis=(1, 2, 3)))
    offsets = window_array(op.band_radius, op.c)[offsets]
    if varies.size:
        raise NotShiftInvariant(
            f"blocks of offset {tuple(offsets[varies[0]].tolist())} vary with the cell")
    return offsets, grid[:, 0]


def laurent_symbol(op: CDOperator, u: TorusPoint) -> np.ndarray:
    """Evaluate sum_m b_m e^{i m.theta}; requires exact shift invariance."""
    if len(u.phases) != op.c:
        raise ShapeMismatch("torus point rank does not match operator rank")
    acc = np.zeros((op.local_dim, op.local_dim), dtype=np.complex128)
    for m, blk in zip(*_offset_blocks(op)):
        acc += blk * u.power(m)
    return acc


# ------------------------------------------------------------ envelopes


def fit_envelope(op: CDOperator, norm_kind: str = "nuclear") -> FiniteSeq:
    """The tightest constant-in-k envelope: beta_m = max_k ||b_{k,m}||, the norm
    one of block_norms' kinds; the one envelope fit, T1's in invert_one_plus too.

    The nuclear maximum is exact, the float of the maximum of every block's
    LAPACK trace norm, yet it takes few of them.  At each offset one block,
    its lead, takes a trace norm L; another block needs one only if an
    estimate of its trace norm, times 1 + 1e-12, exceeds L.  The estimate
    must be within a relative 1e-12 (about 4500 eps) of the computed trace
    norm, so that a skipped block's is below L.  It is one of two:

    - The nominal norms of a generated operator (op.nominal_norms, with its
      factors), when d <= 16, every entry is finite and every nominal norm
      lies in [2^-1000, 2^1000]; the lead is the block with the largest.  The
      generator draws X (d x r) and Y (r x d), forms g = XY, takes a trace
      norm t of g (closed-form for r <= 2, LAPACK's above) and stores
      G = fl(s g), s = fl(nu / t), nu = fl(beta_m r) the nominal norm
      (factored_trace_norms).  To first order in eps, with p(d) the modest
      constant of LAPACK's backward stable SVD (Users' Guide, section 4.9)
      and c1 that of two-column Gram-Schmidt (Higham 2002, theorem 19.13),

          |S1_lapack(G) - nu| <= (p(d) + d/4 + 4 kappa + c1 kappa^2 + 4) d eps nu,

      kappa = ||X||_F ||Y||_F / ||g||_F for r <= 2 and 0 above.  With
      u = eps/2: LAPACK's singular values are exact for a matrix within
      p(d) u of its input, so by Weyl each trace norm it takes is within
      (p(d) + 1) d u; rounding s g moves the trace norm by sqrt(d) u and
      the quotient s rounds by u.  For r <= 2, t^2 = ||g||_F^2 +
      2 sqrt(det(X^H X) det(Y Y^H)) rounds by (d^2 + 1) u in its sum of
      squares, g is XY to within 4 kappa u ||g||_F, which moves S1 by
      sqrt(d) times that, and the Gram determinants are exact for factors
      within c1 u ||X||_F and c1 u ||Y||_F of X and Y, c1 = c1(d, 2), which
      moves t by 2 c1 kappa^2 u.
      kappa = 1 at r = 1, and at r = 2 the nominal norms are used only if
      d kappa^2 <= 512, kappa read off the factor stacks (s Y, X^T) and G.
      With d <= 16 the bound is then at most
      (16 p(d) + 512 c1 + 490) eps nu, inside the margin for any p(d) <= 100
      and c1 <= 4.  The range keeps G, s and every sum clear of the
      subnormals and of overflow: Box-Muller normals have modulus below
      8.6, so t <= 74 r d^1.5 < 2^17.  Without it, the envelope of an
      l1 = 1e-320 profile came out 0.7% off at d = 4.  The bound is far above
      the deviations seen: at most 2.5 d eps nu in 1.6e7 simulated rank-1
      and rank-2 blocks, d = 2 to 4.
    - Otherwise, the upper bound B(g) = min(sum_j ||g e_j||_2,
      sum_i ||e_i^T g||_2) >= ||g||_S1 of every block, whose lead has the
      largest ||g||_F; by Cauchy-Schwarz both sums are at most sqrt(d) ||g||_F.
      Bounds and trace norms carry relative errors of order d eps (9e-16 at
      d = 4, a 1000th of the margin).  B is taken in chunks, blocks scaled by
      powers of two so that no square under- or overflows.

    A non-finite entry takes every block's trace norm, which raises as LAPACK
    does.
    """
    radius, stack = op.band_radius, op.stack
    offsets = flat_offsets(op.keys[:, 1], radius)
    beta = np.zeros(window_size(radius, op.c))
    estimates = (_nominal_estimates(op) or _trace_norm_bounds(stack)) \
        if norm_kind == "nuclear" else None
    if estimates is None:
        np.maximum.at(beta, offsets, block_norms(stack, norm_kind))
    else:
        bound, lead_key, scale = estimates
        top = np.zeros(len(beta))
        np.maximum.at(top, offsets, lead_key)
        first = np.flatnonzero(lead_key == top[offsets])
        first = first[np.unique(offsets[first], return_index=True)[1]]  # one per offset
        np.maximum.at(beta, offsets[first], block_norms(stack[first], norm_kind))
        rest = bound * (1.0 + 1e-12) > beta[offsets] * scale
        rest[first] = False
        np.maximum.at(beta, offsets[rest], block_norms(stack[rest], norm_kind))
    return FiniteSeq(op.c, radius, beta.reshape((2 * radius + 1,) * op.c))


_FIT_CHUNK = 1 << 13  # entries per chunk of the trace-norm bounds: caps their temporaries


def _nominal_estimates(op: CDOperator) -> Optional[tuple]:
    """(nu, nu, 1.0) of op's nominal norms nu where fit_envelope's margin holds for them, else None."""
    nominal, stack, d = op.nominal_norms, op.stack, op.local_dim
    if nominal is None or op.factors is None or d > 16 or not np.isfinite(stack).all() or \
            not 2.0 ** -1000 <= nominal.min(initial=1.0) <= nominal.max(initial=1.0) <= 2.0 ** 1000:
        return None
    a, y = op.factors
    if a.shape[1] == 2:  # kappa^2 = ||y||_F^2 ||a / nu||_F^2 / ||G / nu||_F^2, (a, y) = (s Y, X^T)
        unit = 1.0 / nominal[:, None, None]
        xx, yy, gg = (_squares(z).sum(axis=-1) for z in (y, a * unit, stack * unit))
        if not (d * xx * yy <= 512.0 * gg).all():
            return None
    return nominal, nominal, 1.0


def _squares(z: np.ndarray) -> np.ndarray:
    """Squared 2-norms along the last axis of a complex array."""
    return (z.real ** 2 + z.imag ** 2).sum(axis=-1)


def _gram_det(v: np.ndarray) -> np.ndarray:
    """det(v v^H) per pair of rows v0 = v[:, 0], v1 = v[:, 1], as
    ||v0||^2 ||v1 - (v0^H v1 / ||v0||^2) v0||^2: no cancellation, unlike ad - bc."""
    v0, v1 = v[:, 0], v[:, 1]
    n0 = _squares(v0)
    return n0 * _squares(v1 - ((v0.conj() * v1).sum(axis=-1) / n0)[:, None] * v0)


def factored_trace_norms(g: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Trace norms of the blocks g = xs @ ys, xs of shape (n, d, r) and ys (n, r, d).

    For r <= 2 in closed form, ||g||_S1^2 = ||g||_F^2 + 2 s1 s2 with (s1 s2)^2 =
    det(X^H X) det(Y Y^H), no s1 s2 term for r = 1; larger r take block_norms.
    fit_envelope bounds how far the closed form rounds from LAPACK's trace norm.
    """
    if xs.shape[-1] > 2:
        return block_norms(g, "nuclear")
    sq = _squares(g.reshape(len(g), -1))
    if xs.shape[-1] == 2:
        sq = sq + 2.0 * np.sqrt(_gram_det(xs.transpose(0, 2, 1)) * _gram_det(ys))
    return np.sqrt(sq)


def _trace_norm_bounds(stack: np.ndarray) -> Optional[tuple]:
    """(B(g) 2^s, ||g||_F, 2^s) of each block g, |s| <= 1000 scaling its largest
    real or imaginary part into [0.5, 1) where it can; None if one is not finite."""
    n, d = stack.shape[:2]
    bound, frob, scale = np.empty(n), np.empty(n), np.empty(n)
    per, ones = max(1, _FIT_CHUNK // max(1, d * d)), np.ones(d)
    for start in range(0, n, per):
        part = slice(start, start + per)
        z = np.ascontiguousarray(stack[part]).view(np.float64)  # (k, d, 2d): re, im, ...
        top = np.abs(z).reshape(len(z), -1).max(axis=1, initial=0.0)
        if not np.isfinite(top).all():
            return None
        scale[part] = np.ldexp(1.0, np.clip(-np.frexp(top)[1], -1000, 1000))
        sq = z * scale[part, None, None]
        sq *= sq
        rows, cols = sq @ np.ones(2 * d), ones @ sq  # |e_i^T g|^2; |g e_j|^2 in re, im parts
        f = np.sqrt(rows @ ones)
        bound[part] = np.minimum(np.sqrt(rows) @ ones,
                                 np.sqrt(cols[:, 0::2] + cols[:, 1::2]) @ ones)
        frob[part] = f / scale[part]
    return bound, frob, scale


def decay_slope(env: FiniteSeq) -> float:
    """Least-squares slope of ln(beta_m) against |m|_inf, over the beta_m above 1e-14."""
    beta = env.data.reshape(-1)  # in window_array order
    above = beta > 1e-14
    if above.sum() < 2:
        return float("nan")
    xs = np.abs(window_array(env.radius, env.c)[above]).max(axis=1).astype(float)
    slope, _ = np.polyfit(xs, np.log(beta[above]), 1)
    return float(slope)


# ------------------------------------------------------------- inversion


@dataclass
class InversionResult:
    """(1 + T)^{-1} = 1 + T1 with the certificate of its own solve."""

    t1: CDOperator  # the correction (1+T)^{-1} - 1 over the full band W = N
    residual: float  # sqrt(||R||_1 ||R||_inf) of the computed R = (1+T)X - 1
    condition: float  # a bound on ||1+T||_2 over sigma_min_lower
    sigma_min_lower: float  # a lower bound on the smallest singular value of 1 + T
    envelope: FiniteSeq  # nuclear envelope of t1
    t_envelope: FiniteSeq  # nuclear envelope of T


def _norm_bound(m: np.ndarray) -> float:
    """sqrt(||m||_1 ||m||_inf), a bound on ||m||_2 (Hoelder), exactly 0 for m = 0;
    the product may overflow to inf or underflow to 0."""
    a = np.abs(m)
    with np.errstate(over="ignore", under="ignore"):
        return float(np.sqrt(a.sum(axis=0).max(initial=0.0) * a.sum(axis=1).max(initial=0.0)))


def _gamma(n: int) -> float:
    """sqrt(2) gamma_{n+2}, gamma_k = k u / (1 - k u): the constant of a computed complex
    inner product of length n, |fl(x^T y) - x^T y| <= sqrt(2) gamma_{n+2} |x|^T |y|
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, section 3.6)."""
    ku = (n + 2) * 2.0 ** -53
    return 2.0 ** 0.5 * ku / (1.0 - ku)


def invert_one_plus(op: CDOperator) -> InversionResult:
    """Invert 1 + T on the circulant window and certify the inverse from its solve.

    The system A = 1 + T is solved by LU with partial pivoting, and the
    correction X - 1 of the computed inverse X is re-blocked over the full
    band W = N as T1, which is always returned; its nuclear envelope beta1
    is fit_envelope's, by the bound route, as T1 has no nominal norms.  The
    certificate is a posteriori (Higham 2002, sections 3.5-3.6 and 14;
    Rump, Verification methods, Acta Numerica 19, 2010):
    with R = AX - 1, ||R||_2 < 1 proves A invertible and
    sigma_min(A) >= (1 - ||R||_2) / ||X||_2.  Every norm is bounded from
    the dense matrices the solve holds, in O((nd)^2):

    - residual = sqrt(||R||_1 ||R||_inf) of the computed R;
    - e_round = gamma sqrt(||A||_1 ||A||_inf ||X||_1 ||X||_inf) bounds the
      rounding of forming R, gamma = _gamma(nd);
    - ||A||_2 <= min(sqrt(||A||_1 ||A||_inf), 1 + l1(beta)), beta the
      fitted nuclear envelope of T;
    - ||X||_2 <= min(sqrt(||X||_1 ||X||_inf), 1 + l1(beta1));
    - sigma_min_lower = (1 - residual - e_round) / (the bound on ||X||_2),
      and condition = (the bound on ||A||_2) / sigma_min_lower.

    The inverse is accepted when residual + e_round < 1 and condition <=
    1e12; else NumericallySingular, with condition inf where the
    LU fails, the inverse is not finite, the bound on ||X||_2 underflows to
    0 or the residual certifies nothing.
    The bounds are evaluated in floating point, without directed rounding,
    and certify the circulant window operator, not the operator on Z^c.
    """
    if op.boundary != "circulant":
        raise ValueError("inversion is defined on the circulant window")
    n, d = op.n_cells, op.local_dim
    diagonal = slice(None, None, n * d + 1)
    a = densify(op)  # densify never writes -0.0, so this is eye + dense bit for bit
    a.reshape(-1)[diagonal] += 1
    try:
        x = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        x = None
    if x is None or not np.isfinite(x).all():
        raise NumericallySingular("condition inf exceeds 1.0e+12")
    r = a @ x
    r.reshape(-1)[diagonal] -= 1
    residual, a_norm, x_norm = _norm_bound(r), _norm_bound(a), _norm_bound(x)
    del r, a
    x.reshape(-1)[diagonal] -= 1  # the correction (1+T)^{-1} - 1

    # re-block the correction over the full band W = N, where each block (k, m)
    # has its own source cell; the plan is not cached, its route is as large as T1
    radius = op.window_radius
    plan = band_plan(op.c, radius, radius, "circulant", tuple(range(n)))
    _, cells, sources = plan.route  # rows 0..n^2-1: the keys come in route order
    t1 = CDOperator.from_arrays(op.c, radius, radius, d, "circulant", plan.keys,
                                x.reshape(n, d, n, d)[cells, :, sources], plan=plan)
    del x  # freed before the fit
    fitted = fit_envelope(t1)

    t_envelope = fit_envelope(op, "nuclear")
    e_round = _gamma(n * d) * a_norm * x_norm
    x_bound = min(x_norm, 1.0 + fitted.l1_norm())  # 0 only where ||X||_1 ||X||_inf underflows
    lower = (1.0 - residual - e_round) / x_bound if x_bound > 0 else 0.0
    condition = min(a_norm, 1.0 + t_envelope.l1_norm()) / lower if lower > 0 else np.inf
    if not condition <= 1e12:
        raise NumericallySingular(f"condition {condition:.3e} exceeds 1.0e+12")
    return InversionResult(t1, residual, condition, lower, fitted, t_envelope)
