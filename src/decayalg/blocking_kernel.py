r"""Blocking isometry between sampled functions and block vectors.

A function on the union of unit cells k + [0,1)^c, k in [-N..N]^c, is
stored by q^c samples per cell (midpoint grid, raster order).  Cutting
it into per-cell payloads is the blocking map; it is an isometry once
the cell payload carries the quadrature L_p norm

    ||v||_p = (h^c sum_i |v_i|^p)^{1/p},     h = 1/q,

and both sides here literally share one accumulation routine, so the
equality is bitwise, not just up to rounding.

A banded block operator that carries nuclear factor terms (`op.factors`,
block = sum_i y_i (x) a_i) turns into a sampled integral kernel: the block
feeding cell k from cell l is b_{k,k-l} / h^c, assembled from the
rank-one terms, and applying the kernel with the h^c quadrature weight
reproduces the block operator exactly.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .cd_operator import (
    BlockStore,
    BlockVector,
    CDOperator,
    ShapeMismatch,
    lp_accumulate,
    route,
    sum_groups,
)
from .lattice import flat_offsets, window_array, window_indices, window_size

__all__ = [
    "GridFunction",
    "Kernel",
    "MissingFactorization",
    "block",
    "unblock",
    "assemble_kernel",
    "apply_kernel",
    "attach_svd_factorizations",
    "write_grid_function",
    "read_grid_function",
]


@dataclass
class GridFunction:
    """Samples of a function over the cells of [-N..N]^c, q^c per cell."""

    c: int
    window_radius: int
    q: int
    values: np.ndarray  # shape (n_cells, q^c); raster order inside a cell

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("need at least one sample per axis")
        v = np.asarray(self.values, dtype=np.complex128)
        want = (window_size(self.window_radius, self.c), self.q ** self.c)
        if v.shape != want:
            raise ShapeMismatch(f"sample array shape {v.shape}, want {want}")
        self.values = v

    @property
    def cell_volume_weight(self) -> float:
        return self.q ** (-self.c)

    def lp_norm(self, p) -> float:
        return lp_accumulate(self.values, p, self.cell_volume_weight)

    @classmethod
    def from_callable(cls, func, c: int, window_radius: int, q: int) -> "GridFunction":
        """Sample func at the midpoint grid of every cell."""
        cells = list(window_indices(window_radius, c))
        vals = np.zeros((len(cells), q ** c), dtype=np.complex128)
        for row, k in enumerate(cells):
            for col, i in enumerate(itertools.product(range(q), repeat=c)):
                x = tuple(ki + (ij + 0.5) / q for ki, ij in zip(k, i))
                vals[row, col] = func(x if c > 1 else x[0])
        return cls(c, window_radius, q, vals)


def block(f: GridFunction) -> BlockVector:
    """Cut a sampled function into per-cell payloads (exact relabeling)."""
    return BlockVector(f.c, f.window_radius, f.values.copy())


def unblock(v: BlockVector, q: int) -> GridFunction:
    """Reassemble a sampled function from per-cell payloads."""
    if v.local_dim != q ** v.c:
        raise ShapeMismatch(
            f"payload dim {v.local_dim} is not q^c = {q ** v.c}"
        )
    return GridFunction(v.c, v.window_radius, q, v.values.copy())


class Kernel(BlockStore):
    """A sampled integral kernel between cell pairs of the window.

    Its q^c x q^c blocks are stored like a CDOperator's, keyed by the
    cell pair (k, l) instead of (cell, offset).
    """

    def __init__(self, c: int, window_radius: int, q: int, blocks: Mapping):
        self._set(c, window_radius, q, *self._table(blocks, c, (q ** c, q ** c)))

    @classmethod
    def from_arrays(cls, c: int, window_radius: int, q: int, keys, stack) -> "Kernel":
        kern = cls.__new__(cls)
        kern._set(c, window_radius, q, keys, stack)
        return kern

    def _set(self, c, window_radius, q, keys, stack) -> None:
        self.c, self.window_radius, self.q = c, window_radius, q
        self._store(keys, stack, (q ** c, q ** c), (window_radius,) * 2, ("cell", "cell"))


class MissingFactorization(ValueError):
    """A kernel was requested from an operator without factor terms."""


def attach_svd_factorizations(op: CDOperator) -> CDOperator:
    """Set op.factors to the minimal (SVD) decompositions of its blocks.

    Terms of zero singular value come out as zero terms, which add
    exactly nothing.
    """
    u, s, vh = np.linalg.svd(op.stack)
    op.factors = (s[..., None] * vh, u.transpose(0, 2, 1))
    return op


def _kernel_grouping(op: CDOperator) -> tuple:
    """(group, order, keys): each routed block's kernel block, the order its
    terms add in (ascending offset), and the kernel's key table."""
    rows, cells, sources = route(op)
    n = op.n_cells
    codes, group = np.unique(cells * n + sources, return_inverse=True)
    window = window_array(op.window_radius, op.c)
    grouping = group, flat_offsets(op.keys[rows, 1], op.band_radius), \
        np.stack((window[codes // n], window[codes % n]), axis=1)
    for part in grouping:
        part.flags.writeable = False
    return grouping


def assemble_kernel(op: CDOperator, q: int) -> Kernel:
    """Build the sampled kernel of a block operator with q^c = d.

    The operator must carry its factor terms (`op.factors`); the kernel
    block is their rank-one assembly divided by the cell quadrature weight h^c.
    Offsets that wrap onto the same source cell accumulate, mirroring
    the circulant apply, in ascending order of the offset.  The grouping
    depends only on the geometry; an operator's plan keeps it.
    """
    if q ** op.c != op.local_dim:
        raise ShapeMismatch(
            f"local dim {op.local_dim} does not match q^c = {q ** op.c}"
        )
    if op.factors is None:
        raise MissingFactorization("operator carries no factor terms")
    h_pow = q ** (-op.c)
    rows = route(op)[0]
    grouping = op.plan.kernel if op.plan is not None else None
    if grouping is None:
        grouping = _kernel_grouping(op)
        if op.plan is not None:
            op.plan.kernel = grouping
    group, order, keys = grouping
    a, y = op.factors[0][rows], op.factors[1][rows]
    assembled = np.zeros((len(rows), op.local_dim, op.local_dim), dtype=np.complex128)
    term = np.empty_like(assembled)
    for j in range(a.shape[1]):
        assembled += np.multiply(y[:, j, :, None], a[:, j, None, :], out=term)
    assembled /= h_pow
    return Kernel.from_arrays(op.c, op.window_radius, q, keys,
                              sum_groups(assembled, group, order))


def apply_kernel(kernel: Kernel, f: GridFunction) -> GridFunction:
    """Integrate the kernel against f with the midpoint quadrature.

    Each output cell adds its blocks in ascending order of the source cell.
    """
    if (f.c, f.window_radius, f.q) != (kernel.c, kernel.window_radius, kernel.q):
        raise ShapeMismatch("grid function does not match kernel geometry")
    h_pow = kernel.q ** (-kernel.c)
    rows_k = flat_offsets(kernel.keys[:, 0], kernel.window_radius)
    rows_l = flat_offsets(kernel.keys[:, 1], kernel.window_radius)
    rows = np.lexsort((rows_l, rows_k))
    prod = (kernel.stack[rows] @ f.values[rows_l[rows], :, None])[..., 0]
    out = np.zeros_like(f.values)
    np.add.at(out, rows_k[rows], prod * h_pow)
    return GridFunction(f.c, f.window_radius, f.q, out)


# ----------------------------------------------------------------- files


def write_grid_function(f: GridFunction, path) -> None:
    """One JSON header line, then the samples as little-endian complex128.

    The payload is laid out cell-major (cells in lexicographic order,
    raster order inside each cell); each sample is a little-endian pair
    of 64-bit floats (re, im).
    """
    header = {"c": f.c, "N": f.window_radius, "q": f.q}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(f.values).astype("<c16").tobytes())


def read_grid_function(path) -> GridFunction:
    with open(path, "rb") as fh:
        first = fh.readline()
        try:
            header = json.loads(first.decode("ascii"))
            c, n, q = int(header["c"]), int(header["N"]), int(header["q"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"bad grid-function header: {exc}") from exc
        payload = fh.read()
    n_cells = window_size(n, c)
    expected = n_cells * (q ** c) * 16
    if len(payload) != expected:
        raise ValueError(
            f"payload is {len(payload)} bytes, expected {expected}"
        )
    vals = np.frombuffer(payload, dtype="<c16").astype(np.complex128)
    return GridFunction(c, n, q, vals.reshape(n_cells, q ** c))

