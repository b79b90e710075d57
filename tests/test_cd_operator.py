"""Tests for banded block operators: apply/compose/densify, symbols, envelopes."""

import json

import numpy as np
import pytest

from decayalg.cd_operator import (
    BlockVector,
    CDOperator,
    NotShiftInvariant,
    NumericallySingular,
    ShapeMismatch,
    apply,
    compose,
    decay_slope,
    densify,
    fit_envelope,
    invert_one_plus,
    laurent_symbol,
    lp_accumulate,
    shift_decomposition,
)
from decayalg.harness import _envelope_csv, _envelope_table
from decayalg.lattice import as_index, window_indices, window_size
from decayalg.nuclear_blocks import operator_norm, trace_norm
from decayalg.seq_algebra import FiniteSeq, TorusPoint, convolve
from decayalg.weights import Weight


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_op(rng, c=1, N=3, W=1, d=2, boundary="circulant", density=1.0):
    blocks = {}
    for k in window_indices(N, c):
        for m in window_indices(W, c):
            if rng.random() <= density:
                blocks[(k, m)] = rand_complex(rng, d, d)
    return CDOperator(c, N, W, d, boundary, blocks)


def random_vector(rng, c, N, d):
    n = window_size(N, c)
    return BlockVector(c, N, rand_complex(rng, n, d))


def match_multisets(xs, ys, tol):
    """Greedy nearest matching; returns the worst matched distance."""
    assert len(xs) == len(ys)
    remaining = list(ys)
    worst = 0.0
    for x in xs:
        dists = [abs(x - y) for y in remaining]
        i = int(np.argmin(dists))
        worst = max(worst, dists[i])
        remaining.pop(i)
    return worst


# -------------------------------------------------------- apply / densify


@pytest.mark.parametrize("boundary", ["circulant", "dirichlet"])
@pytest.mark.parametrize("c,N,W,d", [(1, 4, 2, 2), (1, 3, 5, 1), (2, 2, 1, 2)])
def test_apply_matches_dense(boundary, c, N, W, d):
    rng = np.random.default_rng(hash((boundary, c, N, W, d)) % 2**32)
    op = random_op(rng, c, N, W, d, boundary, density=0.8)
    x = random_vector(rng, c, N, d)
    got = apply(op, x).flat()
    want = densify(op) @ x.flat()
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_boundary_conventions_differ_only_at_the_edge():
    rng = np.random.default_rng(3)
    offsets = {m: rand_complex(rng, 2, 2) for m in window_indices(1, 1)}
    circ = CDOperator.shift_invariant(1, 3, 1, 2, "circulant", offsets)
    diri = CDOperator.shift_invariant(1, 3, 1, 2, "dirichlet", offsets)
    x = BlockVector.zeros(1, 3, 2)
    x.values[3] = [1.0, 2.0]  # center cell; band cannot reach the edge
    np.testing.assert_allclose(
        apply(circ, x).values, apply(diri, x).values, atol=0
    )
    y = random_vector(rng, 1, 3, 2)
    assert not np.allclose(apply(circ, y).values, apply(diri, y).values)


def test_apply_shape_checks():
    rng = np.random.default_rng(5)
    op = random_op(rng, 1, 2, 1, 2)
    with pytest.raises(ShapeMismatch):
        apply(op, BlockVector.zeros(1, 3, 2))
    with pytest.raises(ShapeMismatch):
        apply(op, BlockVector.zeros(1, 2, 3))


# --------------------------------------------------------------- compose


@pytest.mark.parametrize("boundary", ["circulant", "dirichlet"])
def test_compose_matches_dense_product(boundary):
    rng = np.random.default_rng(11 if boundary == "circulant" else 13)
    for _ in range(20):
        c = 1
        N = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        wa = int(rng.integers(0, 3))
        wb = int(rng.integers(0, 3))
        a = random_op(rng, c, N, wa, d, boundary, density=0.7)
        b = random_op(rng, c, N, wb, d, boundary, density=0.7)
        ab = compose(a, b)
        assert ab.band_radius == wa + wb
        np.testing.assert_allclose(
            densify(ab), densify(a) @ densify(b), atol=1e-12
        )


def test_compose_two_dimensional():
    rng = np.random.default_rng(17)
    a = random_op(rng, 2, 1, 1, 2, "circulant")
    b = random_op(rng, 2, 1, 1, 2, "circulant")
    np.testing.assert_allclose(
        densify(compose(a, b)), densify(a) @ densify(b), atol=1e-12
    )


def test_compose_rejects_mismatch():
    rng = np.random.default_rng(19)
    a = random_op(rng, 1, 2, 1, 2, "circulant")
    b = random_op(rng, 1, 2, 1, 2, "dirichlet")
    with pytest.raises(ShapeMismatch):
        compose(a, b)
    c = random_op(rng, 1, 3, 1, 2, "circulant")
    with pytest.raises(ShapeMismatch):
        compose(a, c)


# --------------------------------------------------- shift decomposition


@pytest.mark.parametrize("boundary", ["circulant", "dirichlet"])
def test_shift_decomposition_reassembles_exactly(boundary):
    rng = np.random.default_rng(23)
    op = random_op(rng, 1, 3, 2, 2, boundary, density=0.6)
    x = random_vector(rng, 1, 3, 2)
    layers = shift_decomposition(op)
    assert [m for m, _ in layers] == sorted({m for (_, m) in op.blocks})
    total = np.zeros_like(x.values)
    for _, layer in layers:
        total = total + apply(layer, x).values
    # layer-by-layer reassembly repeats the exact same additions
    assert np.array_equal(total, apply(op, x).values)
    dense_total = sum(densify(layer) for _, layer in layers)
    assert np.array_equal(dense_total, densify(op))


# ------------------------------------------------------- Laurent symbols


def test_laurent_symbol_values():
    rng = np.random.default_rng(29)
    b0, b1, bm1 = (rand_complex(rng, 2, 2) for _ in range(3))
    op = CDOperator.shift_invariant(
        1, 4, 1, 2, "circulant", {(0,): b0, (1,): b1, (-1,): bm1}
    )
    u = TorusPoint((0.7,))
    want = b0 + b1 * np.exp(0.7j) + bm1 * np.exp(-0.7j)
    np.testing.assert_allclose(laurent_symbol(op, u), want, atol=1e-14)


def test_laurent_symbol_rejects_varying_blocks():
    rng = np.random.default_rng(31)
    op = random_op(rng, 1, 2, 1, 2, "circulant")
    with pytest.raises(NotShiftInvariant):
        laurent_symbol(op, TorusPoint((0.0,)))


def test_circulant_spectrum_equals_symbol_spectrum():
    # with the circulant boundary, the dense eigenvalues are exactly the
    # symbol eigenvalues collected over the grid of order 2N+1
    rng = np.random.default_rng(37)
    N, d = 3, 2
    offsets = {m: rand_complex(rng, d, d) for m in window_indices(1, 1)}
    op = CDOperator.shift_invariant(1, N, 1, d, "circulant", offsets)
    dense_eigs = np.linalg.eigvals(densify(op))
    L = 2 * N + 1
    sym_eigs = []
    for j in range(L):
        sym = laurent_symbol(op, TorusPoint.from_grid((j,), L))
        sym_eigs.extend(np.linalg.eigvals(sym))
    assert match_multisets(list(dense_eigs), sym_eigs, 1e-9) <= 1e-9


# -------------------------------------------------------------- envelopes


def test_fit_envelope_values():
    b_small = np.diag([0.5, 0.0]).astype(complex)
    b_large = np.diag([1.0, 2.0]).astype(complex)
    op = CDOperator(
        1, 2, 1, 2, "circulant",
        blocks={
            ((0,), (1,)): b_small,
            ((1,), (1,)): b_large,
            ((0,), (0,)): np.eye(2, dtype=complex),
        },
    )
    env = fit_envelope(op, "nuclear")
    # an envelope is a real sequence of the convolution algebra and reads back as floats
    assert isinstance(env, FiniteSeq) and env.data.dtype == np.float64
    assert type(env[(1,)]) is float and type(env[(5,)]) is float
    assert all(type(v) is float for _, v in env.support())
    assert env[(1,)] == pytest.approx(3.0)  # max over cells
    assert env[(0,)] == pytest.approx(2.0)
    assert env[(-1,)] == 0.0
    assert env[(5,)] == 0.0
    assert env.l1_norm() == pytest.approx(5.0)
    env1 = fit_envelope(op, "operator_1")
    assert env1[(1,)] == pytest.approx(2.0)


def test_envelope_validation():
    with pytest.raises(ValueError, match="window shape"):
        FiniteSeq(1, 2, np.zeros(3))


def test_envelope_report_order_and_cumsum():
    # rows walk outward shell by shell, lexicographic inside a shell
    env = FiniteSeq(2, 1, np.ones((3, 3)))
    rows = _envelope_table(env, Weight())
    ms = [tuple(row[:2]) for row in rows]
    assert ms[0] == (0, 0)
    assert set(ms[1:]) == set(window_indices(1, 2)) - {(0, 0)}
    assert ms[1] == (-1, -1)
    cums = [row[-1] for row in rows]
    assert cums == sorted(cums)
    assert rows[-1][-1] == pytest.approx(9.0)
    assert rows[-1][-2] == pytest.approx(1.0)


def test_envelope_report_csv():
    env = FiniteSeq(1, 1, np.array([0.25, 1.0, 0.5]))
    rows = _envelope_table(env, Weight(s=1.0))
    lines = _envelope_csv(env, Weight(s=1.0))[0].splitlines()
    assert lines[0] == "m_1,beta,weight,weighted_beta,cumsum"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 1.0
    # weight (1+|m|) doubles the outer betas
    last = lines[3].split(",")
    assert last[0] == "1"
    assert float(last[3]) == pytest.approx(1.0)
    assert float(last[4]) == pytest.approx(rows[-1][-1])


def test_decay_slope_exponential():
    ms = np.arange(-5, 6)
    env = FiniteSeq(1, 5, np.exp(-np.abs(ms, dtype=float)))
    assert decay_slope(env) == pytest.approx(-1.0, abs=1e-12)
    flat = FiniteSeq(1, 2, np.zeros(5))
    assert np.isnan(decay_slope(flat))


# -------------------------------------------------------------- inversion


def test_invert_one_plus_matches_dense_inverse():
    rng = np.random.default_rng(41)
    N, d = 3, 2
    op = random_op(rng, 1, N, 1, d, "circulant")
    # scale down so 1 + T is comfortably invertible
    op = CDOperator(op.c, op.window_radius, op.band_radius, op.local_dim,
                    op.boundary, {km: 0.1 * blk for km, blk in op.blocks.items()})
    res = invert_one_plus(op)
    n = op.n_cells * d
    dense = densify(op)
    want = np.linalg.inv(np.eye(n) + dense) - np.eye(n)
    np.testing.assert_allclose(densify(res.t1), want, atol=1e-12)
    assert res.residual <= 1e-12
    assert res.condition >= 1.0
    assert res.t1.band_radius == N
    table = _envelope_table(res.envelope, Weight(s=1.0))
    assert table[-1][-1] > 0
    # the table's betas really dominate the re-blocked correction
    for (k, m), blk in res.t1.blocks.items():
        assert trace_norm(blk) <= table[0][-1] + table[-1][-1]


def test_invert_one_plus_rejects_singular_and_dirichlet():
    op = CDOperator.shift_invariant(
        1, 2, 0, 2, "circulant", {(0,): -np.eye(2, dtype=complex)}
    )
    with pytest.raises(NumericallySingular):
        invert_one_plus(op)
    rng = np.random.default_rng(43)
    diri = random_op(rng, 1, 2, 1, 2, "dirichlet")
    with pytest.raises(ValueError):
        invert_one_plus(diri)


def test_invert_one_plus_residual_identity():
    # T = 0: the correction is zero and the envelope table is all zeros
    op = CDOperator(1, 2, 0, 2, "circulant", blocks={})
    res = invert_one_plus(op)
    assert res.residual == 0.0
    assert res.condition == pytest.approx(1.0)
    np.testing.assert_array_equal(densify(res.t1), np.zeros((10, 10)))
    assert _envelope_table(res.envelope, Weight())[-1][-1] == 0.0



def test_invert_one_plus_bounds_dominate_the_exact_values():
    # each certificate bounds its exact value from the safe side; the residual
    # is compared up to the test-side SVD's own rounding
    rng = np.random.default_rng(47)
    for scale in (0.02, 0.1, 0.2, 0.3, 0.45):
        op = CDOperator(1, 3, 1, 2, "circulant",
                        {km: scale * blk for km, blk in random_op(rng).blocks.items()})
        a = np.eye(14) + densify(op)
        res = invert_one_plus(op)
        s = np.linalg.svd(a, compute_uv=False)
        r = a @ np.linalg.inv(a) - np.eye(14)
        assert res.residual >= operator_norm(r, 2) * (1 - 1e-12)
        assert res.condition >= np.linalg.cond(a)
        assert 0 < res.sigma_min_lower <= s[-1]
        np.testing.assert_array_equal(res.t_envelope.data, fit_envelope(op, "nuclear").data)


@pytest.mark.parametrize("inverse", ["raises", "not finite"])
def test_invert_one_plus_refuses_a_failed_lu(monkeypatch, inverse):
    # the LU fails though 1 + T is well conditioned: no inverse, nothing certified
    rng = np.random.default_rng(53)
    op = CDOperator(1, 2, 1, 2, "circulant",
                    {km: 0.1 * blk for km, blk in random_op(rng, N=2).blocks.items()})

    def failing_inv(a):
        if inverse == "raises":
            raise np.linalg.LinAlgError("Singular matrix")
        return np.full_like(a, np.nan)

    monkeypatch.setattr(np.linalg, "inv", failing_inv)
    with pytest.raises(NumericallySingular) as exc:
        invert_one_plus(op)
    assert str(exc.value) == "condition inf exceeds 1.0e+12"


@pytest.mark.parametrize("block, message", [
    (-np.eye(2), "condition inf exceeds 1.0e+12"),  # exactly singular: the LU fails
    # the inverse is exact, but rounding a product of norms 1e13 certifies nothing
    (np.array([[0.0, 1e13], [0.0, 0.0]]), "condition inf exceeds 1.0e+12"),
    (np.diag([-1 + 1e-13, 0.5]), "condition 1.543e+13 exceeds 1.0e+12"),
], ids=["minus-one", "nilpotent", "near-singular"])
def test_invert_one_plus_refusal_messages(block, message):
    op = CDOperator.shift_invariant(1, 2, 0, 2, "circulant", {(0,): block.astype(complex)})
    with pytest.raises(NumericallySingular) as exc:
        invert_one_plus(op)
    assert str(exc.value) == message


# ---------------------------------------------------------- serialization


def test_cd_operator_json_round_trip():
    rng = np.random.default_rng(47)
    op = random_op(rng, 2, 1, 1, 2, "dirichlet", density=0.5)
    obj = json.loads(json.dumps(op.to_json()))
    back = CDOperator.from_json(obj)
    assert back.c == op.c
    assert back.window_radius == op.window_radius
    assert back.band_radius == op.band_radius
    assert back.local_dim == op.local_dim
    assert back.boundary == op.boundary
    assert set(back.blocks) == set(op.blocks)
    for key, blk in op.blocks.items():
        np.testing.assert_array_equal(back.blocks[key], blk)
    # entries are sorted by (cell, offset) for reproducible files
    keys = [(tuple(it["k"]), tuple(it["m"])) for it in obj["blocks"]]
    assert keys == sorted(keys)


def test_cd_operator_json_round_trip_keeps_the_sign_of_zero():
    # re + 1j * im would read a -0.0 real part back as 0.0
    parts = [(-0.0, 2.0), (2.0, -0.0), (-0.0, -0.0)]
    stack = np.empty((3, 2, 2), dtype=np.complex128)
    stack.real, stack.imag = 1.0, 1.0
    for blk, (re, im) in zip(stack, parts):
        blk[0, 0] = complex(re, im)
    op = CDOperator.shift_invariant(1, 2, 1, 2, "circulant",
                                    {(m,): blk for m, blk in zip((-1, 0, 1), stack)})
    back = CDOperator.from_json(json.loads(json.dumps(op.to_json())))
    assert set(back.blocks) == set(op.blocks)
    for key, blk in op.blocks.items():
        assert np.array_equal(back.blocks[key].view(np.uint64), blk.view(np.uint64))


def test_cd_operator_from_json_rejects_bad_blocks():
    # operator files come from outside the program: shapes and entries are checked
    op = CDOperator(1, 1, 0, 2, "circulant", blocks={((0,), (0,)): np.eye(2)})
    for edit in (
        lambda blk: blk.update(re=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),  # not square
        lambda blk: blk.update(im=[[0.0, 0.0]]),                         # re/im differ
        lambda blk: blk.update(d=3),                                     # wrong d
        lambda blk: blk["re"][0].__setitem__(0, float("nan")),
        lambda blk: blk["im"][1].__setitem__(1, float("inf")),
    ):
        obj = json.loads(json.dumps(op.to_json()))
        edit(obj["blocks"][0]["block"])
        with pytest.raises(ValueError):
            CDOperator.from_json(obj)


def test_cd_operator_validation():
    with pytest.raises(ValueError):
        CDOperator(1, 2, 1, 2, "reflecting", blocks={})
    with pytest.raises(ShapeMismatch):
        CDOperator(1, 2, 1, 2, "circulant",
                   blocks={((5,), (0,)): np.eye(2, dtype=complex)})
    with pytest.raises(ShapeMismatch):
        CDOperator(1, 2, 1, 2, "circulant",
                   blocks={((0,), (2,)): np.eye(2, dtype=complex)})
    with pytest.raises(ShapeMismatch):
        CDOperator(1, 2, 1, 2, "circulant",
                   blocks={((0,), (0,)): np.eye(3, dtype=complex)})


@pytest.mark.parametrize("read", [
    lambda: as_index([0.5]),
    lambda: as_index([1.9]),
    lambda: as_index(True),
    lambda: as_index("0"),
    lambda: CDOperator(1, 2, 1, 1, "circulant", {((0.7,), (1.2,)): np.eye(1)}),
    lambda: FiniteSeq.from_entries({(0.5,): 1.0}),
    lambda: FiniteSeq(1, 1, np.ones(3))[[True]],
    lambda: Weight(s=1.0).eval([1.9]),
], ids=["fraction", "fraction-above-1", "bool", "string", "operator-key", "seq-entry",
        "envelope-beta", "weight-eval"])
def test_an_index_that_is_no_integer_raises(read):
    # int() would have truncated each of these to an integer index
    with pytest.raises(ValueError, match="an index is"):
        read()


def test_numpy_integers_and_integral_floats_read_as_indices():
    assert as_index(np.int64(3)) == (3,)
    assert as_index([2.0, np.int64(-1)], 2) == (2, -1)
    assert all(type(x) is int for x in as_index(np.array([1, 2])))
    op = CDOperator(1, 2, 1, 1, "circulant", {((np.int64(1),), (-1.0,)): np.eye(1)})
    assert list(op.blocks) == [((1,), (-1,))]
    # an operator file's index must still be a list, never a bare number
    obj = op.to_json()
    obj["blocks"][0]["k"] = 1
    with pytest.raises(TypeError):
        CDOperator.from_json(obj)


# ------------------------------------------------------------ block vectors


def test_block_vector_norms():
    v = BlockVector(1, 1, np.array([[3.0, 0.0], [0.0, 4.0], [0.0, 0.0]]))
    assert v.norm(1) == pytest.approx(7.0)
    assert v.norm(2) == pytest.approx(5.0)
    assert v.norm(np.inf) == pytest.approx(4.0)
    # the quadrature weight scales the p-th power mass
    assert v.norm(2, cell_weight=0.25) == pytest.approx(2.5)
    assert v.norm(1, cell_weight=0.5) == pytest.approx(3.5)
    assert v.norm(np.inf, cell_weight=0.25) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        v.norm(3)


def test_lp_accumulate_is_layout_stable():
    rng = np.random.default_rng(53)
    a = rand_complex(rng, 6, 4)
    assert lp_accumulate(a, 2) == lp_accumulate(a.copy(), 2)
    assert lp_accumulate(a, 1) == pytest.approx(np.abs(a).sum())


def test_block_vector_validation():
    with pytest.raises(ShapeMismatch):
        BlockVector(1, 2, np.zeros((4, 2)))


# ------------------------------------------------- global norm inequalities


@pytest.mark.parametrize("p,kind", [(1, "operator_1"), (2, "operator_2"),
                                    ("inf", "operator_inf")])
def test_apply_bounded_by_envelope_l1(p, kind):
    # |T x|_p <= (sum_m beta_m) |x|_p with beta fitted in the matching norm
    rng = np.random.default_rng(61)
    for trial in range(100):
        c = int(rng.integers(1, 3))
        N = int(rng.integers(1, 4 if c == 1 else 3))
        W = int(rng.integers(0, min(N, 2) + 1))
        d = int(rng.integers(1, 4))
        boundary = ("circulant", "dirichlet")[trial % 2]
        op = random_op(rng, c=c, N=N, W=W, d=d, boundary=boundary)
        x = random_vector(rng, c, N, d)
        bound = fit_envelope(op, kind).l1_norm() * x.norm(p)
        assert apply(op, x).norm(p) <= bound * (1 + 1e-10)


def test_composition_envelope_subconvolutive():
    # nuclear envelope of a product is dominated by the convolution of factors
    rng = np.random.default_rng(62)
    cases = [dict(c=1, N=3, W=1, d=2), dict(c=1, N=4, W=2, d=3),
             dict(c=2, N=2, W=1, d=2)]
    for boundary in ("circulant", "dirichlet"):
        for kw in cases:
            a = random_op(rng, boundary=boundary, **kw)
            b = random_op(rng, boundary=boundary, **kw)
            alpha = fit_envelope(a, "nuclear")
            beta = fit_envelope(b, "nuclear")
            ab = compose(a, b)
            gamma = fit_envelope(ab, "nuclear")
            conv = convolve(alpha, beta)
            for m in window_indices(ab.band_radius, ab.c):
                assert gamma[m] <= conv[m] + 1e-10


def test_inverse_is_two_sided_identity():
    # (1+T)(1+T1) x == x == (1+T1)(1+T) x within 1e-8 relative
    rng = np.random.default_rng(63)
    for _ in range(10):
        op = random_op(rng, c=1, N=4, W=2, d=2, boundary="circulant")
        scale = 0.5 / fit_envelope(op, "nuclear").l1_norm()
        op = CDOperator(op.c, op.window_radius, op.band_radius, op.local_dim,
                        op.boundary, {km: blk * scale for km, blk in op.blocks.items()})
        t1 = invert_one_plus(op).t1
        x = random_vector(rng, 1, 4, 2)
        for first, second in ((t1, op), (op, t1)):
            y = x.values + apply(first, x).values
            y = BlockVector(1, 4, y)
            z = y.values + apply(second, y).values
            err = np.linalg.norm(z - x.values) / np.linalg.norm(x.values)
            assert err <= 1e-8


# ----------------------------------------------------------- worked examples


def test_scalar_shift_inverse_is_geometric():
    # T = alpha * (shift by one): the inverse envelope is the geometric
    # sequence alpha^m, up to the circulant wrap factor 1/(1 - (-alpha)^L)
    alpha, N = 0.3, 8
    L = 2 * N + 1
    op = CDOperator.shift_invariant(1, N, 1, 1, "circulant",
                                    {(1,): [[alpha]]})
    t1 = invert_one_plus(op).t1
    env = fit_envelope(t1, "nuclear")
    wrap = 1.0 / (1.0 - (-alpha) ** L)
    for m in range(-N, N + 1):
        expected = alpha ** (m % L) * wrap
        if m == 0:
            expected = abs(wrap - 1.0)  # identity part is excluded from T1
        assert env[(m,)] == pytest.approx(expected, rel=1e-9, abs=1e-15)


def test_laurent_example_diagonal_plus_shift():
    # b_0 = diag(2, 3), b_1 = I: the symbol is diag(2 + u, 3 + u) whose
    # smallest singular value over the torus is 1, attained at u = -1
    op = CDOperator.shift_invariant(
        1, 4, 1, 2, "circulant",
        {(0,): np.diag([2.0, 3.0]), (1,): np.eye(2)},
    )
    smin = [np.linalg.svd(laurent_symbol(op, TorusPoint.from_grid((j,), 256)),
                          compute_uv=False)[-1] for j in range(256)]
    assert min(smin) == pytest.approx(1.0, abs=1e-12)
    assert TorusPoint.from_grid((int(np.argmin(smin)),), 256).phases == pytest.approx((np.pi,))


def test_fit_envelope_ones_block_example():
    # shift-invariant blocks e^{-|m|} * (all-ones d x d): nuclear envelope
    # picks up the factor d
    d, N, W = 3, 3, 2
    ones = np.ones((d, d))
    offset_blocks = {(m,): np.exp(-abs(m)) * ones for m in range(-W, W + 1)}
    op = CDOperator.shift_invariant(1, N, W, d, "circulant", offset_blocks)
    env = fit_envelope(op, "nuclear")
    for m in range(-W, W + 1):
        assert env[(m,)] == pytest.approx(d * np.exp(-abs(m)), rel=1e-12)
