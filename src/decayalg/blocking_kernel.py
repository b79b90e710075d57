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
reproduces the block operator exactly.  A kernel is what assemble_kernel
builds: its blocks as one stack, row i feeding the flat window row
cells[i] from the row sources[i], the rows ascending by (cell, source) pair;
both row arrays are the `pairs` of the operator's plan.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .cd_operator import (
    BlockVector,
    CDOperator,
    ShapeMismatch,
    lp_accumulate,
    sum_groups,
)
from .lattice import window_indices, window_size

__all__ = [
    "GridFunction",
    "Kernel",
    "MissingFactorization",
    "block",
    "unblock",
    "assemble_kernel",
    "apply_kernel",
    "attach_svd_factorizations",
    "grid_bytes",
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


@dataclass(frozen=True, eq=False)
class Kernel:
    """A sampled integral kernel between cell pairs of the window: q^c x q^c
    block i of `stack` feeds the flat window row cells[i] from the row
    sources[i], the rows ascending by pair; all three arrays are read-only."""

    c: int
    window_radius: int
    q: int
    cells: np.ndarray  # (n_blocks,) int64
    sources: np.ndarray  # (n_blocks,) int64
    stack: np.ndarray  # (n_blocks, q^c, q^c) complex128


class MissingFactorization(ValueError):
    """A kernel was requested from an operator without factor terms."""


def attach_svd_factorizations(op: CDOperator) -> CDOperator:
    """A new operator over op's keys, stack and plan whose factor terms are the
    minimal (SVD) decompositions of its blocks; op itself is unchanged.

    Terms of zero singular value come out as zero terms, which add
    exactly nothing.
    """
    u, s, vh = np.linalg.svd(op.stack)
    return CDOperator.from_arrays(op.c, op.window_radius, op.band_radius, op.local_dim,
                                  op.boundary, op.keys, op.stack, plan=op.plan,
                                  factors=(s[..., None] * vh, u.transpose(0, 2, 1)))


def assemble_kernel(op: CDOperator, q: int) -> Kernel:
    """Build the sampled kernel of a block operator with q^c = d.

    The operator must carry its factor terms (`op.factors`); the kernel
    block is their rank-one assembly divided by the cell quadrature weight h^c.
    Offsets that wrap onto the same source cell accumulate, mirroring
    the circulant apply, in ascending order of the offset; the grouping
    and the kernel's rows are the `pairs` of the operator's plan.
    """
    if q ** op.c != op.local_dim:
        raise ShapeMismatch(
            f"local dim {op.local_dim} does not match q^c = {q ** op.c}"
        )
    if op.factors is None:
        raise MissingFactorization("operator carries no factor terms")
    h_pow = q ** (-op.c)
    group, order, cells, sources = op.plan.pairs
    a, y = (op.plan.gather(f) for f in op.factors)
    assembled = np.zeros((len(group), op.local_dim, op.local_dim), dtype=np.complex128)
    term = np.empty_like(assembled)
    for j in range(a.shape[1]):
        assembled += np.multiply(y[:, j, :, None], a[:, j, None, :], out=term)
    assembled /= h_pow
    stack = sum_groups(assembled, group, order)
    stack.flags.writeable = False
    return Kernel(op.c, op.window_radius, q, cells, sources, stack)


def apply_kernel(kernel: Kernel, f: GridFunction) -> GridFunction:
    """Integrate the kernel against f with the midpoint quadrature.

    Each output cell adds its blocks in ascending order of the source cell.
    """
    if (f.c, f.window_radius, f.q) != (kernel.c, kernel.window_radius, kernel.q):
        raise ShapeMismatch("grid function does not match kernel geometry")
    h_pow = kernel.q ** (-kernel.c)
    prod = (kernel.stack @ f.values[kernel.sources, :, None])[..., 0]
    out = np.zeros_like(f.values)
    np.add.at(out, kernel.cells, prod * h_pow)
    return GridFunction(f.c, f.window_radius, f.q, out)


# ----------------------------------------------------------------- files


def grid_bytes(f: GridFunction) -> bytes:
    """The grid file: one JSON header line, then the samples as little-endian complex128.

    The payload is laid out cell-major (cells in lexicographic order,
    raster order inside each cell); each sample is a little-endian pair
    of 64-bit floats (re, im).
    """
    header = json.dumps({"c": f.c, "N": f.window_radius, "q": f.q}, sort_keys=True)
    return header.encode("ascii") + b"\n" + f.values.astype("<c16").tobytes()
