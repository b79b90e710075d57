"""The stacked operator paths against block-by-block references.

Every operation on a CDOperator or a Kernel works on the whole stored
block stack at once.  The references below walk the blocks one at a
time in sorted key order, as a dict-of-blocks implementation does; the
stacked paths must agree with them bit for bit (compared as uint64
views, so signed zeros count), and with dense matrix products up to
rounding.  Operators are stored in sorted key order or in a drawn row
order, so a path cannot get its order of additions from the store.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decayalg.blocking_kernel import (
    GridFunction,
    Kernel,
    apply_kernel,
    assemble_kernel,
    attach_svd_factorizations,
)
from decayalg.cd_operator import (
    BlockVector,
    CDOperator,
    NotShiftInvariant,
    Plan,
    ShapeMismatch,
    apply,
    band_plan,
    block_norms,
    compose,
    densify,
    fit_envelope,
    geometry_plan,
    invert_one_plus,
    laurent_symbol,
)
from decayalg.lattice import flat_offset, window_indices, window_size, wrap_index
from decayalg.nuclear_blocks import operator_norm, trace_norm
from decayalg.seq_algebra import TorusPoint


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


# ------------------------------------------------------------ references


def ref_source(op, k, m):
    src = tuple(ki - mi for ki, mi in zip(k, m))
    if op.boundary == "circulant":
        return wrap_index(src, op.window_radius)
    if max(abs(x) for x in src) > op.window_radius:
        return None
    return src


def ref_apply(op, x):
    out = np.zeros_like(x.values)
    for (k, m) in sorted(op.blocks, key=lambda km: (km[1], km[0])):
        src = ref_source(op, k, m)
        if src is not None:
            out[flat_offset(k, op.window_radius)] += (
                op.blocks[(k, m)] @ x.values[flat_offset(src, op.window_radius)]
            )
    return out


def ref_densify(op):
    n, d = op.n_cells, op.local_dim
    dense = np.zeros((n * d, n * d), dtype=np.complex128)
    for (k, m) in sorted(op.blocks):
        j = ref_source(op, k, m)
        if j is not None:
            rk = flat_offset(k, op.window_radius)
            rj = flat_offset(j, op.window_radius)
            dense[rk * d:(rk + 1) * d, rj * d:(rj + 1) * d] += op.blocks[(k, m)]
    return dense


def ref_compose(a, b):
    by_cell = {}
    for (j, m2), blk in b.blocks.items():
        by_cell.setdefault(j, []).append((m2, blk))
    out = {}
    for (k, m1), blk_a in sorted(a.blocks.items(), key=lambda kv: kv[0]):
        j = ref_source(a, k, m1)
        if j is None:
            continue
        for m2, blk_b in by_cell.get(j, ()):
            key = (k, tuple(x + y for x, y in zip(m1, m2)))
            prod = blk_a @ blk_b
            if key in out:
                out[key] += prod
            else:
                out[key] = prod
    return out


# one block's norm by numpy directly, independent of block_norms
_NORMS = {
    "nuclear": lambda b: float(np.linalg.svd(b, compute_uv=False).sum()),
    "operator_1": lambda b: float(np.abs(b).sum(axis=0).max(initial=0.0)),
    "operator_2": lambda b: float(np.linalg.svd(b, compute_uv=False).max(initial=0.0)),
    "operator_inf": lambda b: float(np.abs(b).sum(axis=1).max(initial=0.0)),
}


def ref_fit_envelope(op, kind):
    vals = np.zeros((2 * op.band_radius + 1,) * op.c)
    for (k, m), blk in op.blocks.items():
        idx = tuple(x + op.band_radius for x in m)
        vals[idx] = max(vals[idx], _NORMS[kind](blk))
    return vals


def ref_svd_terms(blk):
    """(a, y) terms of one block's SVD from numpy, zero singular values dropped."""
    u, s, vh = np.linalg.svd(blk)
    return [(sigma * vh[i], u[:, i]) for i, sigma in enumerate(s) if sigma > 0.0]


def ref_assemble_kernel(op, q, terms):
    h_pow = q ** (-op.c)
    zero = np.zeros((op.local_dim, op.local_dim), dtype=np.complex128)
    blocks = {}
    for (k, m) in sorted(op.blocks):
        src = ref_source(op, k, m)
        if src is None:
            continue
        contrib = sum((np.outer(y, a) for a, y in terms[(k, m)]), zero) / h_pow
        if (k, src) in blocks:
            blocks[(k, src)] += contrib
        else:
            blocks[(k, src)] = contrib
    return blocks


def ref_apply_kernel(kernel, f):
    h_pow = kernel.q ** (-kernel.c)
    out = np.zeros_like(f.values)
    for (k, l) in sorted(kernel.blocks):
        rk = flat_offset(k, kernel.window_radius)
        rl = flat_offset(l, kernel.window_radius)
        out[rk] += (kernel.blocks[(k, l)] @ f.values[rl]) * h_pow
    return out


def ref_laurent_symbol(op, u):
    """Offsets ascending; each offset's block looked up cell by cell, absent = zero."""
    zero = np.zeros((op.local_dim, op.local_dim), dtype=np.complex128)
    acc = zero.copy()
    for m in sorted({m for _, m in op.blocks}):
        cells = [op.blocks.get((k, m), zero) for k in window_indices(op.window_radius, op.c)]
        if not all(np.array_equal(cells[0], blk) for blk in cells):
            raise NotShiftInvariant(m)
        acc += cells[0] * u.power(m)
    return acc


def ref_reblock(corr, c, radius, d):
    blocks = {}
    for k in window_indices(radius, c):
        rk = flat_offset(k, radius)
        for j in window_indices(radius, c):
            rj = flat_offset(j, radius)
            m = wrap_index(tuple(ki - ji for ki, ji in zip(k, j)), radius)
            blocks[(k, m)] = corr[rk * d:(rk + 1) * d, rj * d:(rj + 1) * d]
    return blocks


# ------------------------------------------------------------ operators


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def in_drawn_order(rng, op):
    """The operator with its stored rows, factor rows too, in a drawn order."""
    perm = rng.permutation(op.n_blocks)
    factors = None if op.factors is None else tuple(f[perm] for f in op.factors)
    return CDOperator.from_arrays(op.c, op.window_radius, op.band_radius, op.local_dim,
                                  op.boundary, op.keys[perm], op.stack[perm], factors)


def random_op(rng, c, N, W, d, boundary, density, shuffle=False):
    blocks = {}
    for k in window_indices(N, c):
        for m in window_indices(W, c):
            if rng.random() < density:
                blocks[(k, m)] = rand_complex(rng, d, d)
    op = CDOperator(c, N, W, d, boundary, blocks)
    return in_drawn_order(rng, op) if shuffle else op


def low_rank_op(rng, c, N, W, q, boundary, density, shuffle=False):
    """Blocks of every rank 0..d, so SVD factorizations vary in length."""
    d = q ** c
    blocks = {}
    for k in window_indices(N, c):
        for m in window_indices(W, c):
            if rng.random() < density:
                blk = np.zeros((d, d), dtype=np.complex128)
                r = int(rng.integers(0, d + 1))
                blk[:r, :r] = rand_complex(rng, r, r)
                blocks[(k, m)] = blk
    op = attach_svd_factorizations(CDOperator(c, N, W, d, boundary, blocks))
    return in_drawn_order(rng, op) if shuffle else op


# windows up to radius 3 (c=1) or 2 (c=2), bands up to two wider than the
# window, so circulant offsets wrap onto shared source cells; stores in
# sorted key order or shuffled
geometry = st.integers(1, 2).flatmap(lambda c: st.tuples(
    st.just(c),
    st.integers(0, 3 if c == 1 else 2),
    st.integers(0, 2),
    st.sampled_from(["circulant", "dirichlet"]),
    st.sampled_from([0.4, 1.0]),
    st.integers(0, 2**32 - 1),
    st.booleans(),
))


def build(geom, d):
    c, N, extra, boundary, density, seed, shuffle = geom
    rng = np.random.default_rng(seed)
    W = N + extra if extra else N // 2
    return rng, random_op(rng, c, N, W, d, boundary, density, shuffle)


@settings(max_examples=40, deadline=None)
@given(geom=geometry, d=st.integers(1, 4))
def test_apply_and_densify_equal_block_by_block(geom, d):
    rng, op = build(geom, d)
    x = BlockVector(op.c, op.window_radius, rand_complex(rng, op.n_cells, d))
    assert_bitwise(apply(op, x).values, ref_apply(op, x))
    dense = ref_densify(op)
    assert_bitwise(densify(op), dense)
    np.testing.assert_allclose(apply(op, x).flat(), dense @ x.flat(), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(geom=geometry, d=st.integers(1, 4))
def test_fit_envelope_equals_block_by_block(geom, d):
    _, op = build(geom, d)
    for kind in _NORMS:
        assert_bitwise(fit_envelope(op, kind).values, ref_fit_envelope(op, kind))


@pytest.mark.parametrize("d", [0, 1, 2, 5])
def test_block_norms_equal_numpy_block_by_block(d):
    """The one norm table against numpy on each block, bit for bit, d = 0 included;
    trace_norm and operator_norm are its one-block case."""
    rng = np.random.default_rng(d)
    stack = rand_complex(rng, 7, d, d)
    stack[1] = 0.0
    for kind, norm in _NORMS.items():
        want = np.array([norm(blk) for blk in stack])
        assert_bitwise(block_norms(stack, kind), want)
        assert_bitwise(block_norms(stack[:0], kind), np.zeros(0))
        assert [fit_envelope(CDOperator(1, 0, 0, d, "circulant", {((0,), (0,)): blk}),
                             kind).values[0] for blk in stack] == list(want)
    for blk in stack:
        assert trace_norm(blk) == _NORMS["nuclear"](blk)
        for p, kind in ((1, "operator_1"), (2, "operator_2"), (np.inf, "operator_inf"),
                        (float("inf"), "operator_inf"), ("inf", "operator_inf")):
            assert operator_norm(blk, p) == _NORMS[kind](blk)
    for p in (0, 3, 1.5, -np.inf, "1", "2", None):
        with pytest.raises(ValueError):
            operator_norm(stack[0], p)
    with pytest.raises(ValueError):
        block_norms(stack, "frobenius")


@settings(max_examples=30, deadline=None)
@given(geom=geometry, d=st.integers(1, 3), extra_b=st.integers(0, 2))
def test_compose_equals_block_by_block_and_dense_product(geom, d, extra_b):
    rng, a = build(geom, d)
    c, N, _, boundary, density, _, shuffle = geom
    b = random_op(rng, c, N, extra_b, d, boundary, density, shuffle)
    ab = compose(a, b)
    want = ref_compose(a, b)
    assert sorted(ab.blocks) == list(ab.blocks) == sorted(want)
    for key, blk in want.items():
        assert_bitwise(ab.blocks[key], blk)
    np.testing.assert_allclose(densify(ab), ref_densify(a) @ ref_densify(b), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(geom=geometry, q=st.integers(1, 2))
def test_kernel_paths_equal_block_by_block(geom, q):
    c, N, extra, boundary, density, seed, shuffle = geom
    rng = np.random.default_rng(seed)
    W = N + extra if extra else N // 2
    op = low_rank_op(rng, c, N, W, q, boundary, density, shuffle)
    # the reference terms drop zero singular values; the stored terms keep
    # them as zero terms, which add exactly nothing
    terms = {key: ref_svd_terms(blk) for key, blk in op.blocks.items()}
    kern = assemble_kernel(op, q)
    want = ref_assemble_kernel(op, q, terms)
    assert set(kern.blocks) == set(want)
    for key, blk in want.items():
        assert_bitwise(kern.blocks[key], blk)

    f = GridFunction(c, N, q, rand_complex(rng, op.n_cells, q ** c))
    if shuffle:
        perm = rng.permutation(kern.n_blocks)
        kern = Kernel.from_arrays(c, N, q, kern.keys[perm], kern.stack[perm])
    got = apply_kernel(kern, f).values
    assert_bitwise(got, ref_apply_kernel(kern, f))
    # the kernel with its quadrature weight is the operator's dense form
    np.testing.assert_allclose(got.reshape(-1), ref_densify(op) @ f.values.reshape(-1),
                               atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(geom=geometry, d=st.integers(1, 3), theta=st.floats(0.0, 6.3),
       change=st.sampled_from(["none", "drop-zero", "drop", "perturb"]))
def test_laurent_symbol_equals_cell_by_cell(geom, d, theta, change):
    rng, op = build(geom, d)
    c, N = op.c, op.window_radius
    offset_blocks = {m: rand_complex(rng, d, d) for _, m in op.blocks}
    if offset_blocks and change == "drop-zero":
        offset_blocks[next(iter(offset_blocks))] *= 0.0
    op = CDOperator.shift_invariant(c, N, op.band_radius, d, op.boundary, offset_blocks)
    blocks = dict(op.blocks)
    if change == "drop-zero":  # absent cells of an offset equal its stored zero blocks
        blocks = {k: b for k, b in blocks.items() if b.any() or rng.random() < 0.5}
    elif blocks and change != "none":
        key = list(blocks)[int(rng.integers(len(blocks)))]
        if change == "perturb":
            blocks[key] = blocks[key] + 1e-300
        else:
            del blocks[key]
    op = CDOperator(c, N, op.band_radius, d, op.boundary, blocks)
    u = TorusPoint((theta,) * c)
    try:
        want = ref_laurent_symbol(op, u)
    except NotShiftInvariant:
        with pytest.raises(NotShiftInvariant):
            laurent_symbol(op, u)
    else:
        assert_bitwise(laurent_symbol(op, u), want)


@pytest.mark.parametrize("c,N,d", [(1, 3, 2), (2, 1, 2), (1, 0, 3)])
def test_invert_reblocking_equals_block_by_block(c, N, d):
    rng = np.random.default_rng(7 + c + N + d)
    op = random_op(rng, c, N, min(N, 1), d, "circulant", 1.0)
    op = CDOperator(c, N, op.band_radius, d, "circulant",
                    {key: 0.05 * blk for key, blk in op.blocks.items()})
    res = invert_one_plus(op)
    n = op.n_cells * d
    corr = np.linalg.inv(np.eye(n) + densify(op)) - np.eye(n)
    want = ref_reblock(corr, c, N, d)
    assert list(res.t1.blocks) == sorted(want)  # T1's blocks come in sorted (k, m) order
    for key, blk in want.items():
        assert_bitwise(res.t1.blocks[key], blk)
    assert_bitwise(res.envelope.values, ref_fit_envelope(res.t1, "nuclear"))


@pytest.mark.parametrize("c,N,d", [(1, 3, 2), (2, 1, 2), (1, 0, 3)])
def test_invert_reblocks_through_an_uncached_full_band_plan(c, N, d):
    """T1's keys and route are those of the shared builder's full-band plan and
    of a plan over a copy of T1's table; the route keeps every row in order."""
    op = random_op(np.random.default_rng(c + N + d), c, N, min(N, 1), d, "circulant", 0.5)
    cached = geometry_plan.cache_info()
    t1 = invert_one_plus(CDOperator(c, N, op.band_radius, d, "circulant",
                                    {key: 0.05 * blk for key, blk in op.blocks.items()})).t1
    assert geometry_plan.cache_info() == cached  # T1's plan is not kept in the cache
    n = window_size(N, c)
    built = band_plan(c, N, N, "circulant", tuple(range(n)))
    fresh = Plan(t1.keys.copy(), N, N, "circulant")
    assert t1.plan.keys is t1.keys
    for plan in (built, fresh):
        for got, want in zip((t1.keys, *t1.plan.route), (plan.keys, *plan.route), strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want)
    assert t1.plan.route[0].tolist() == list(range(n * n))
    for part in (t1.keys, t1.stack, *t1.plan.route, built.keys, *built.route):
        assert not part.flags.writeable


def test_gather_skips_only_an_in_order_route():
    """A generated geometry's route takes every row in order, so gathering by it
    hands back a C-contiguous stack itself; any other route or layout copies."""
    rng = np.random.default_rng(11)
    stack = rand_complex(rng, 2 * 25 * 9, 2, 2)  # 25 cells, 9 offsets, twice
    dropping = band_plan(2, 2, 1, "dirichlet", tuple(range(9)))
    shuffled = Plan(band_plan(2, 2, 1, "circulant", tuple(range(9))).keys[::-1].copy(),
                    2, 1, "circulant")
    for plan, in_order in ((band_plan(2, 2, 1, "circulant", tuple(range(9))), True),
                           (dropping, False), (shuffled, False)):
        assert plan.in_order is in_order
        for s in (stack[:225], stack[::2]):  # a C-contiguous stack, then a strided one
            got = plan.gather(s)
            assert (got is s) == (in_order and s.flags.c_contiguous)
            assert_bitwise(got, s[plan.route[0]])


def test_store_is_read_only_and_validated_in_bulk():
    blk = np.eye(2, dtype=complex)
    op = CDOperator(1, 2, 1, 2, "circulant", {(0, 1): blk, ((1,), (0,)): 2 * blk})
    assert list(op.blocks) == [((0,), (1,)), ((1,), (0,))]  # ints normalized for c=1
    assert op.keys.shape == (2, 2, 1) and op.stack.shape == (2, 2, 2)
    with pytest.raises(TypeError):
        op.blocks[((0,), (0,))] = blk
    with pytest.raises(ValueError):
        op.blocks[((0,), (1,))][0, 0] = 5.0
    with pytest.raises(ValueError):
        CDOperator(1, 2, 1, 2, "circulant", {(0, 0): blk, (1, 0): np.eye(3)})
    assert window_size(2, 1) == op.n_cells
    with pytest.raises(KeyError):  # lookups take the tuple keys the view yields
        op.blocks[(0, 1)]

    # a shuffled store: the view is built once and follows the key table's rows
    shuffled = random_op(np.random.default_rng(5), 2, 2, 1, 2, "circulant", 0.5, shuffle=True)
    keys = [(tuple(k), tuple(m)) for k, m in shuffled.keys.tolist()]
    assert shuffled.blocks is shuffled.blocks
    assert list(shuffled.blocks) == keys and keys != sorted(keys)
    view = dict(shuffled.blocks)
    assert list(view) == list(dict(zip(keys, shuffled.stack)))
    for got, want in zip(view.values(), shuffled.stack, strict=True):
        assert_bitwise(got, want)
        assert np.shares_memory(got, shuffled.stack)
    absent = next((k, m) for k in window_indices(2, 2) for m in window_indices(1, 2)
                  if (k, m) not in view)
    for key in (absent, ((3, 0), (0, 0)), keys[0][0], (1, 2)):
        with pytest.raises(KeyError):
            shuffled.blocks[key]
    with pytest.raises(TypeError):
        shuffled.blocks[keys[0]] = blk
    with pytest.raises(ValueError):
        shuffled.blocks[keys[0]][0, 0] = 5.0


@pytest.mark.parametrize("index", [-2**63, -2**63 + 1, 2**63, 2**64])
def test_an_index_outside_the_window_is_refused_at_any_magnitude(index):
    blk = np.eye(2, dtype=complex)
    for key in (((index,), (0,)), ((0,), (index,))):
        with pytest.raises(ShapeMismatch):
            CDOperator(1, 2, 1, 2, "circulant", {key: blk})
        with pytest.raises(ShapeMismatch):
            Kernel(1, 2, 1, {key: np.eye(1)})
    if -2**63 <= index < 2**63:
        with pytest.raises(ShapeMismatch, match="outside radius"):
            CDOperator.from_arrays(1, 2, 1, 2, "circulant", [[[index], [0]]], [blk])
