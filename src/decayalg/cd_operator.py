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

The module only computes: an envelope comes back as an `Envelope` of
numbers, and the weighted envelope tables of a report are built and
written by the harness.

Stored form.  An operator keeps its blocks as one (n_blocks, d, d)
complex128 `stack` and an (n_blocks, 2, c) int64 `keys` table whose row
i holds the cell k and the offset m of block i; optional nuclear
factor terms are two more stacks, `factors`, the one form in which an
operator carries them.  All are validated in bulk once, at
construction, and are read-only afterwards.  `blocks` is a read-only
{(k, m): block} view whose values are rows of the stack.
The `route` of an operator's `Plan` is the one place a block is routed
to its source cell; apply, densify, compose, the kernel assembly and the
re-blocking of an inverse all go through it.  The first four add their
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
    flat_offsets,
    window_array,
    window_indices,
    window_size,
)
from .seq_algebra import TorusPoint

__all__ = [
    "CDOperator",
    "Plan",
    "band_plan",
    "geometry_plan",
    "BlockVector",
    "Envelope",
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
    "invert_one_plus",
    "invert_stacked",
    "decay_slope",
]

_BOUNDARIES = ("circulant", "dirichlet")


class ShapeMismatch(ValueError):
    """Operands disagree in dimension, window, band, or boundary."""


class NotShiftInvariant(ValueError):
    """The blocks of some offset vary with the cell index."""


class NumericallySingular(ArithmeticError):
    """The dense system is too ill-conditioned to invert reliably."""


def _block_norms(stack: np.ndarray, kind: str) -> np.ndarray:
    """The norm of every block of an (n, d, d) stack."""
    if kind == "nuclear":
        return np.linalg.svd(stack, compute_uv=False).sum(axis=-1)
    if kind == "operator_1":
        return np.abs(stack).sum(axis=-2).max(axis=-1, initial=0.0)
    if kind == "operator_2":
        return np.linalg.svd(stack, compute_uv=False)[:, 0]
    if kind == "operator_inf":
        return np.abs(stack).sum(axis=-1).max(axis=-1, initial=0.0)
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


# ----------------------------------------------------------- block store


class BlockStore:
    """Blocks kept as one stack plus a key table of index pairs.

    Row i of `stack` is the block at the key (keys[i, 0], keys[i, 1]),
    each an index of the lattice Z^c.  Both arrays are read-only.
    """

    c: int
    keys: np.ndarray  # (n_blocks, 2, c) int64
    stack: np.ndarray  # (n_blocks, r, r) complex128

    def _store(self, keys, stack, block_shape: tuple, radii: tuple,
               names: tuple) -> None:
        """Validate and keep the arrays: one shape check, one bounds check per key part."""
        stack = np.asarray(stack, dtype=np.complex128)
        keys = np.asarray(keys, dtype=np.int64)
        if stack.shape[1:] != block_shape:
            raise ShapeMismatch(f"blocks have shape {stack.shape[1:]}, want {block_shape}")
        if keys.shape != (len(stack), 2, self.c):
            raise ShapeMismatch(f"key table has shape {keys.shape}, "
                                f"want {(len(stack), 2, self.c)}")
        for part, (radius, name) in enumerate(zip(radii, names)):
            outside = np.flatnonzero(
                ((keys[:, part] < -radius) | (keys[:, part] > radius)).any(axis=1))
            if outside.size:
                raise ShapeMismatch(
                    f"{name} {tuple(keys[outside[0], part].tolist())} outside radius {radius}"
                )
        keys.flags.writeable = False
        stack.flags.writeable = False
        self.keys, self.stack = keys, stack

    @staticmethod
    def _table(blocks: Mapping, c: int, block_shape: tuple) -> tuple:
        """(keys, stack) of a {(index, index): block} dict, in its order.

        Indices go through as_index (a plain int is accepted for c == 1);
        a key that normalizes onto an earlier one replaces its block.
        """
        table = {(as_index(a, c), as_index(b, c)): blk for (a, b), blk in blocks.items()}
        try:
            keys = np.array(list(table), dtype=np.int64).reshape(len(table), 2, c)
            return keys, np.array(list(table.values()) or np.zeros((0,) + block_shape),
                                  dtype=np.complex128)
        except OverflowError as exc:
            raise ShapeMismatch("an index does not fit in int64") from exc
        except ValueError as exc:  # blocks of differing shapes
            raise ShapeMismatch(f"blocks differ in shape, want {block_shape}") from exc

    @cached_property
    def blocks(self) -> Mapping:
        """Read-only {(index tuple, index tuple): block} view in row order, built
        on first use; the blocks are rows of `stack`."""
        return MappingProxyType({(tuple(a), tuple(b)): blk
                                 for (a, b), blk in zip(self.keys.tolist(), self.stack)})

    @property
    def n_blocks(self) -> int:
        return len(self.stack)


class CDOperator(BlockStore):
    """Banded block operator with explicit boundary convention.

    Built from a {(k, m): d x d block} dict, or from its stored arrays by
    `from_arrays`.  `factors`, when set, is a pair (a, y) of
    (n_blocks, rank, d) stacks with block i = sum_j outer(y[i, j], a[i, j]);
    a block of lower rank is padded with zero terms, which add exactly
    nothing.  They are the only form in which an operator carries factor
    terms.  `plan` is the `Plan` of the key table, the operator's own or
    one shared by every operator over the same key array.
    """

    def __init__(self, c: int, window_radius: int, band_radius: int,
                 local_dim: int, boundary: str, blocks: Optional[Mapping] = None):
        self._set(c, window_radius, band_radius, local_dim, boundary,
                  *self._table(blocks or {}, c, (local_dim, local_dim)))
        self.factors = None

    @classmethod
    def from_arrays(cls, c: int, window_radius: int, band_radius: int,
                    local_dim: int, boundary: str, keys, stack,
                    factors: Optional[tuple] = None,
                    plan: Optional["Plan"] = None) -> "CDOperator":
        """An operator over a key table and a block stack, validated in bulk.

        The arrays are kept, not copied, and become read-only.  A shared
        `plan` must be over this very key array and geometry.
        """
        op = cls.__new__(cls)
        op._set(c, window_radius, band_radius, local_dim, boundary, keys, stack, plan)
        op.factors = factors
        return op

    def _set(self, c, window_radius, band_radius, local_dim, boundary, keys, stack,
             plan=None) -> None:
        if boundary not in _BOUNDARIES:
            raise ValueError(f"boundary must be one of {_BOUNDARIES}")
        self.c, self.window_radius, self.band_radius = c, window_radius, band_radius
        self.local_dim, self.boundary = local_dim, boundary
        self._store(keys, stack, (local_dim, local_dim), (window_radius, band_radius),
                    ("cell index", "offset"))
        if plan is None:
            plan = Plan(self.keys, window_radius, band_radius, boundary)
        elif plan.keys is not self.keys or \
                (plan.window_radius, plan.band_radius, plan.boundary) != \
                (window_radius, band_radius, boundary):
            raise ShapeMismatch("the plan is over another key table or geometry")
        self.plan = plan

    @property
    def factors(self) -> Optional[tuple]:
        """The factor term stacks (a, y), or None."""
        return self._factors

    @factors.setter
    def factors(self, factors: Optional[tuple]) -> None:
        if factors is not None:
            a, y = (np.asarray(f, dtype=np.complex128) for f in factors)
            if a.shape != y.shape or a.ndim != 3 or a.shape[::2] != (self.n_blocks, self.local_dim):
                raise ShapeMismatch(f"factor stacks of shapes {a.shape} and {y.shape}")
            a.flags.writeable = y.flags.writeable = False
            factors = (a, y)
        self._factors = factors

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
        """The operator of `to_json`; ValueError for a misshapen or non-finite block."""
        blocks = {}
        for item in obj["blocks"]:
            k = tuple(int(x) for x in item["k"])
            m = tuple(int(x) for x in item["m"])
            blk = item["block"]
            re, im = (np.asarray(blk[part], dtype=float) for part in ("re", "im"))
            if re.shape != im.shape or re.shape != (blk["d"], blk["d"]):
                raise ValueError("inconsistent block dimensions in JSON")
            if not (np.isfinite(re).all() and np.isfinite(im).all()):
                raise ValueError("block entries must be finite")
            blocks[(k, m)] = re + 1j * im
        return cls(
            c=int(obj["c"]),
            window_radius=int(obj["N"]),
            band_radius=int(obj["W"]),
            local_dim=int(obj["d"]),
            boundary=obj["boundary"],
            blocks=blocks,
        )


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
    def pairs(self) -> tuple:
        """(group, order, keys) of the kernel assembly: each routed block's
        kernel block, the order its terms add in (ascending offset), and the
        kernel's key table of cell pairs."""
        rows, cells, sources = self.route
        window = window_array(self.window_radius, self.keys.shape[2])
        n = len(window)
        codes, group = np.unique(cells * n + sources, return_inverse=True)
        return _read_only(group, flat_offsets(self.keys[rows, 1], self.band_radius),
                          np.stack((window[codes // n], window[codes % n]), axis=1))


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
    rows, cells, sources = op.plan.route
    out = np.zeros_like(x.values)
    np.add.at(out, cells, (op.stack[rows] @ x.values[sources, :, None])[..., 0])
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
    rows, cells, sources = op.plan.route
    # added, not assigned: with a band wider than the window two offsets
    # can wrap onto the same source cell, and they accumulate
    np.add.at(dense.reshape(n, d, n, d), (cells, slice(None), sources), op.stack[rows])
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


@dataclass
class Envelope:
    """Per-offset dominating bounds beta_m on the cube |m|_inf <= W."""

    c: int
    radius: int
    values: np.ndarray  # float array of shape (2W+1,)*c

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
    vals = np.zeros((2 * op.band_radius + 1,) * op.c, dtype=float)
    np.maximum.at(vals.reshape(-1), flat_offsets(op.keys[:, 1], op.band_radius),
                  _block_norms(op.stack, norm_kind))
    return Envelope(op.c, op.band_radius, vals)


def decay_slope(env: Envelope, floor: float = 1e-14) -> float:
    """Least-squares slope of ln(beta_m) against |m|_inf, above the floor."""
    beta = env.values.reshape(-1)  # in window_array order
    above = beta > floor
    if above.sum() < 2:
        return float("nan")
    xs = np.abs(window_array(env.radius, env.c)[above]).max(axis=1).astype(float)
    slope, _ = np.polyfit(xs, np.log(beta[above]), 1)
    return float(slope)


# ------------------------------------------------------------- inversion


@dataclass
class InversionResult:
    """(1 + T)^{-1} = 1 + T1 with the quality certificates of the solve."""

    t1: Optional[CDOperator]  # None when invert_stacked was asked not to keep it
    residual: float
    condition: float
    envelope: Envelope  # nuclear envelope of t1


def invert_one_plus(op: CDOperator, cond_limit: float = 1e12) -> InversionResult:
    """Invert 1 + T on the circulant window: invert_stacked of one operator."""
    (res,) = invert_stacked([op], cond_limit)
    if isinstance(res, NumericallySingular):
        raise res
    return res


def invert_stacked(ops: list, cond_limit: float = 1e12, keep_t1: bool = True) -> list:
    """Invert each 1 + T: one InversionResult or NumericallySingular per operator.

    Each system is solved by LU with partial pivoting, and the correction
    (1+T)^{-1} - 1 is re-blocked over the full band W = N with its fitted
    nuclear envelope (t1 itself only if keep_t1).  One stacked SVD of every
    1 + T and (1+T)(1+T)^{-1} - 1 gives each condition number as
    np.linalg.cond and each residual as operator_norm(., 2), bit for bit.
    So the solve runs before the cond_limit check: a refused operator, or
    one whose 1 + T the LU finds exactly singular, costs one inversion.
    """
    if any(op.boundary != "circulant" for op in ops):
        raise ValueError("inversion is defined on the circulant window")
    if not ops:
        return []
    nd = ops[0].n_cells * ops[0].local_dim  # a dimension of another op fails to broadcast
    stack = np.zeros((2 * len(ops), nd, nd), dtype=np.complex128)
    solved = [_solve_into(op, stack[2 * i], stack[2 * i + 1], keep_t1)
              for i, op in enumerate(ops)]
    s = np.linalg.svd(stack, compute_uv=False)
    with np.errstate(all="ignore"):
        condition = s[0::2, 0] / s[0::2, -1]
    # svd raises on a NaN entry, so a NaN here is 0/0 or inf/inf, which
    # np.linalg.cond reads as infinitely ill-conditioned
    condition[np.isnan(condition)] = np.inf
    out = []
    for cond, residual, done in zip(condition.tolist(), s[1::2, 0].tolist(), solved):
        if not np.isfinite(cond) or cond > cond_limit:
            out.append(NumericallySingular(f"condition {cond:.3e} exceeds {cond_limit:.1e}"))
        elif done is None:
            out.append(NumericallySingular(f"LU failed at condition {cond:.3e}"))
        else:
            out.append(InversionResult(done[0], residual, cond, done[1]))
    return out


def _solve_into(op: CDOperator, a: np.ndarray, r: np.ndarray, keep_t1: bool) -> Optional[tuple]:
    """Write 1 + T into a and (1+T)(1+T)^{-1} - 1 into r; (t1 or None, its envelope).

    None, r left zero, if the LU fails or the inverse is not finite.
    """
    n, d = op.n_cells, op.local_dim
    a[...] = densify(op)  # densify never writes -0.0, so this is eye + dense bit for bit
    a.reshape(-1)[:: n * d + 1] += 1
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        a_inv = None
    if a_inv is None or not np.isfinite(a_inv).all():
        return None
    np.matmul(a, a_inv, out=r)
    r.reshape(-1)[:: n * d + 1] -= 1
    a_inv.reshape(-1)[:: n * d + 1] -= 1  # the correction (1+T)^{-1} - 1

    # re-block the correction over the full band W = N, where each block (k, m)
    # has its own source cell; the plan is not cached, its route is as large as T1
    radius = op.window_radius
    plan = band_plan(op.c, radius, radius, "circulant", tuple(range(n)))
    _, cells, sources = plan.route  # rows 0..n^2-1: the keys come in route order
    t1 = CDOperator.from_arrays(op.c, radius, radius, d, "circulant", plan.keys,
                                a_inv.reshape(n, d, n, d)[cells, :, sources], plan=plan)
    return (t1 if keep_t1 else None), fit_envelope(t1, "nuclear")
