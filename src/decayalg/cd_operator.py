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
    "decay_slope",
]

_BOUNDARIES = ("circulant", "dirichlet")


class ShapeMismatch(ValueError):
    """Operands disagree in dimension, window, band, or boundary."""


class NotShiftInvariant(ValueError):
    """The blocks of some offset vary with the cell index."""


class NumericallySingular(ArithmeticError):
    """The solve of the dense system certifies no condition number within the limit."""


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
    def in_order(self) -> bool:
        """Whether the route takes every row in stored order, as for generated operators."""
        rows = self.route[0]
        return bool(len(rows) == len(self.keys) and (np.diff(rows) > 0).all())

    def gather(self, stack: np.ndarray) -> np.ndarray:
        """stack[rows] of the route; a C-contiguous stack itself when in order."""
        return stack if self.in_order and stack.flags.c_contiguous else stack[self.route[0]]

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
    """The tightest constant-in-k envelope: beta_m = max_k ||b_{k,m}||.

    The nuclear maximum is exact yet takes few trace norms: ||g||_F <= ||g||_S1
    <= B(g) = min(sqrt(d) ||g||_F, sum_j ||g e_j||_2, sum_i ||e_i^T g||_2), so
    only each offset's largest-Frobenius block (trace norm L) and the blocks
    with B (1 + 1e-12) > L need one.  Computed bounds and trace norms carry
    relative errors of order d eps (9e-16 at d = 4, a 1000th of that margin),
    so a skipped block's computed trace norm is below L and each maximum is
    the float of the maximum over all blocks.  B is taken in chunks, blocks
    scaled by powers of two so that no square under- or overflows; a non-finite
    entry takes every block's trace norm, which raises as LAPACK does.
    """
    return _fitted(op.c, op.band_radius, flat_offsets(op.keys[:, 1], op.band_radius),
                   op.stack, norm_kind)


_FIT_CHUNK = 1 << 13  # entries per chunk of the trace-norm bounds: caps their temporaries


def _fitted(c: int, radius: int, offsets: np.ndarray, stack: np.ndarray, kind: str) -> Envelope:
    """The largest norm of the blocks at each flat offset, as in fit_envelope."""
    beta = np.zeros(window_size(radius, c))
    bounds = _trace_norm_bounds(stack) if kind == "nuclear" else None
    if bounds is None:
        np.maximum.at(beta, offsets, _block_norms(stack, kind))
    else:
        bound, frob, scale = bounds
        top = np.zeros(len(beta))
        np.maximum.at(top, offsets, frob)
        first = np.flatnonzero(frob == top[offsets])
        first = first[np.unique(offsets[first], return_index=True)[1]]  # one per offset
        np.maximum.at(beta, offsets[first], _block_norms(stack[first], kind))
        rest = bound * (1.0 + 1e-12) > beta[offsets] * scale
        rest[first] = False
        np.maximum.at(beta, offsets[rest], _block_norms(stack[rest], kind))
    return Envelope(c, radius, beta.reshape((2 * radius + 1,) * c))


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
        bound[part] = np.minimum(np.minimum(np.sqrt(d) * f, np.sqrt(rows) @ ones),
                                 np.sqrt(cols[:, 0::2] + cols[:, 1::2]) @ ones)
        frob[part] = f / scale[part]
    return bound, frob, scale


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
    """(1 + T)^{-1} = 1 + T1 with the certificate of its own solve."""

    t1: Optional[CDOperator]  # None when invert_one_plus was asked not to keep it
    residual: float  # sqrt(||R||_1 ||R||_inf) of the computed R = (1+T)X - 1
    condition: float  # a bound on ||1+T||_2 over sigma_min_lower
    sigma_min_lower: float  # a lower bound on the smallest singular value of 1 + T
    envelope: Envelope  # nuclear envelope of t1
    t_envelope: Envelope  # nuclear envelope of T


def _norm_bound(m: np.ndarray) -> float:
    """sqrt(||m||_1 ||m||_inf), a bound on ||m||_2 (Hoelder), exactly 0 for m = 0."""
    a = np.abs(m)
    return float(np.sqrt(a.sum(axis=0).max(initial=0.0) * a.sum(axis=1).max(initial=0.0)))


def _gamma(n: int) -> float:
    """sqrt(2) gamma_{n+2}, gamma_k = k u / (1 - k u): the constant of a computed complex
    inner product of length n, |fl(x^T y) - x^T y| <= sqrt(2) gamma_{n+2} |x|^T |y|
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, section 3.6)."""
    ku = (n + 2) * 2.0 ** -53
    return 2.0 ** 0.5 * ku / (1.0 - ku)


def invert_one_plus(op: CDOperator, cond_limit: float = 1e12,
                    keep_t1: bool = True) -> InversionResult:
    """Invert 1 + T on the circulant window and certify the inverse from its solve.

    The system A = 1 + T is solved by LU with partial pivoting, and the
    correction X - 1 of the computed inverse X is re-blocked over the full
    band W = N with its fitted nuclear envelope beta1 (t1 itself only if
    keep_t1).  The certificate is a posteriori (Higham 2002, sections
    3.5-3.6 and 14; Rump, Verification methods, Acta Numerica 19, 2010):
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
    cond_limit; else NumericallySingular, with condition inf where the
    LU fails, the inverse is not finite or the residual certifies nothing.
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
        raise NumericallySingular(f"condition inf exceeds {cond_limit:.1e}")
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
    blocks = x.reshape(n, d, n, d)[cells, :, sources]
    t1 = CDOperator.from_arrays(op.c, radius, radius, d, "circulant", plan.keys, blocks,
                                plan=plan) if keep_t1 else None
    del x, plan, cells, sources  # freed before the fit, unless t1 keeps the plan
    # block i has flat offset i % n
    fitted = _fitted(op.c, radius, np.tile(np.arange(n), n), blocks, "nuclear")

    t_envelope = fit_envelope(op, "nuclear")
    e_round = _gamma(n * d) * a_norm * x_norm
    lower = (1.0 - residual - e_round) / min(x_norm, 1.0 + fitted.l1())
    condition = min(a_norm, 1.0 + t_envelope.l1()) / lower if lower > 0 else np.inf
    if not condition <= cond_limit:
        raise NumericallySingular(f"condition {condition:.3e} exceeds {cond_limit:.1e}")
    return InversionResult(t1, residual, condition, lower, fitted, t_envelope)
