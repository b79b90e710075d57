"""Tests for the blocking isometry and sampled integral kernels."""

import numpy as np
import pytest

from decayalg.blocking_kernel import (
    GridFunction,
    MissingFactorization,
    apply_kernel,
    assemble_kernel,
    attach_svd_factorizations,
    block,
    grid_bytes,
    unblock,
)
from decayalg.cd_operator import (
    BlockVector,
    CDOperator,
    ShapeMismatch,
    apply,
)
from decayalg.harness import ExperimentConfig, generate_operator, run_kernel, verify_report
from decayalg.lattice import window_indices, window_size


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_grid_function(rng, c=1, N=2, q=3):
    n = window_size(N, c)
    return GridFunction(c, N, q, rand_complex(rng, n, q ** c))


def random_factored_op(rng, c=1, N=2, q=2, W=1, boundary="circulant", density=1.0):
    d = q ** c
    blocks = {}
    for k in window_indices(N, c):
        for m in window_indices(W, c):
            if rng.random() <= density:
                blocks[(k, m)] = rand_complex(rng, d, d)
    op = CDOperator(c, N, W, d, boundary, blocks)
    return attach_svd_factorizations(op)


# ------------------------------------------------------------- blocking


def test_block_unblock_round_trip_exact():
    rng = np.random.default_rng(71)
    f = random_grid_function(rng, c=2, N=1, q=2)
    back = unblock(block(f), q=2)
    assert np.array_equal(back.values, f.values)
    assert (back.c, back.window_radius, back.q) == (f.c, f.window_radius, f.q)


@pytest.mark.parametrize("p", [1, 2, np.inf])
def test_blocking_is_an_lp_isometry_bitwise(p):
    # both sides run the identical accumulation on the identical layout,
    # so the norms agree exactly, not merely within a tolerance
    rng = np.random.default_rng(73)
    for c, N, q in [(1, 3, 4), (2, 1, 3), (1, 0, 5)]:
        f = random_grid_function(rng, c, N, q)
        v = block(f)
        assert f.lp_norm(p) == v.norm(p, cell_weight=f.cell_volume_weight)


def test_lp_norm_of_constant_one():
    # the window [-1..1] covers measure 3; the constant 1 has L_p norm 3^(1/p)
    f = GridFunction(1, 1, 4, np.ones((3, 4)))
    assert f.lp_norm(1) == pytest.approx(3.0)
    assert f.lp_norm(2) == pytest.approx(np.sqrt(3.0))
    assert f.lp_norm(np.inf) == pytest.approx(1.0)


def test_from_callable_midpoint_quadrature():
    # the midpoint rule integrates linear functions exactly
    f = GridFunction.from_callable(lambda x: x, 1, 0, 2)
    np.testing.assert_allclose(f.values, [[0.25, 0.75]])
    assert f.lp_norm(1) == pytest.approx(0.5)
    g = GridFunction.from_callable(lambda x: x[0] + 2 * x[1], 2, 0, 2)
    assert g.lp_norm(1) == pytest.approx(1.5)


def test_unblock_requires_matching_payload():
    v = BlockVector.zeros(1, 1, 5)
    with pytest.raises(ShapeMismatch):
        unblock(v, q=2)


# ---------------------------------------------------------------- kernels


@pytest.mark.parametrize("boundary", ["circulant", "dirichlet"])
def test_kernel_reproduces_operator(boundary):
    rng = np.random.default_rng(79)
    for _ in range(10):
        c, N, q, W = 1, 2, 2, 1
        op = random_factored_op(rng, c, N, q, W, boundary, density=0.8)
        f = random_grid_function(rng, c, N, q)
        kern = assemble_kernel(op, q)
        via_kernel = apply_kernel(kern, f)
        via_blocks = unblock(apply(op, block(f)), q)
        scale = max(1e-30, np.abs(via_blocks.values).max())
        err = np.abs(via_kernel.values - via_blocks.values).max() / scale
        assert err <= 1e-12


def test_kernel_two_dimensional():
    rng = np.random.default_rng(83)
    op = random_factored_op(rng, c=2, N=1, q=2, W=1)
    f = random_grid_function(rng, c=2, N=1, q=2)
    kern = assemble_kernel(op, 2)
    via_kernel = apply_kernel(kern, f)
    via_blocks = unblock(apply(op, block(f)), 2)
    np.testing.assert_allclose(via_kernel.values, via_blocks.values, atol=1e-10)


def with_factors(op, factors=None):
    """An operator over op's arrays and plan with the given factor terms."""
    return CDOperator.from_arrays(op.c, op.window_radius, op.band_radius, op.local_dim,
                                  op.boundary, op.keys, op.stack, plan=op.plan, factors=factors)


def test_kernel_block_values_rank_one():
    # a single rank-one factor term: the kernel block is outer(y, a)/h^c,
    # fed into cell 0 (flat row 1 of the window [-1..1]) from cell 0
    a = np.array([1.0, 2.0], dtype=complex)
    y = np.array([0.5, -1.0], dtype=complex)
    op = CDOperator.from_arrays(1, 1, 0, 2, "circulant", [[[0], [0]]], [np.outer(y, a)],
                                factors=(a[None, None], y[None, None]))
    kern = assemble_kernel(op, q=2)
    assert kern.cells.tolist() == kern.sources.tolist() == [1]
    np.testing.assert_allclose(kern.stack[0], np.outer(y, a) * 2.0, atol=1e-15)


def test_kernel_requires_factorizations():
    rng = np.random.default_rng(89)
    op = with_factors(random_factored_op(rng, 1, 1, 2, 1))
    with pytest.raises(MissingFactorization):
        assemble_kernel(op, 2)
    # every block needs its terms: an operator cannot hold stacks for a subset
    a, y = random_factored_op(rng, 1, 1, 2, 1).factors
    with pytest.raises(ShapeMismatch):
        with_factors(op, (a[1:], y[1:]))


def test_attaching_factorizations_makes_a_new_operator():
    rng = np.random.default_rng(91)
    op = with_factors(random_factored_op(rng, 2, 1, 2, 1))
    factored = attach_svd_factorizations(op)
    assert factored is not op and op.factors is None
    assert factored.keys is op.keys and factored.stack is op.stack and factored.plan is op.plan
    a, y = factored.factors
    assert a.shape == y.shape == (op.n_blocks, 4, 4)
    assert not (a.flags.writeable or y.flags.writeable)
    np.testing.assert_allclose(np.einsum("nji,njk->nik", y, a), op.stack, atol=1e-12)


@pytest.mark.parametrize("c, N, W, boundary", [
    (1, 2, 1, "circulant"), (1, 1, 3, "circulant"), (1, 2, 1, "dirichlet"),
    (2, 1, 2, "circulant"), (2, 2, 1, "dirichlet")])
def test_kernel_rows_are_the_plans_pairs_in_ascending_order(c, N, W, boundary):
    rng = np.random.default_rng(93)
    op = random_factored_op(rng, c, N, 2, W, boundary, density=0.7)
    kern = assemble_kernel(op, 2)
    assert kern.cells is op.plan.pairs[2] and kern.sources is op.plan.pairs[3]
    assert len(kern.cells) == len(kern.sources) == len(kern.stack)
    code = kern.cells * op.n_cells + kern.sources
    assert (np.diff(code) > 0).all()
    for part in (kern.cells, kern.sources, kern.stack):
        assert not part.flags.writeable
    with pytest.raises(AttributeError):
        kern.q = 3


def test_kernel_requires_matching_q():
    rng = np.random.default_rng(97)
    op = random_factored_op(rng, 1, 1, 2, 1)  # d = 2
    with pytest.raises(ShapeMismatch):
        assemble_kernel(op, 3)


def test_kernel_validation():
    f = GridFunction(1, 1, 2, np.zeros((3, 2)))
    kern = assemble_kernel(random_factored_op(np.random.default_rng(99), 1, 2, 2, 1), 2)
    with pytest.raises(ShapeMismatch):
        apply_kernel(kern, f)


# ------------------------------------------------------------------ files


def test_grid_function_file_round_trip():
    rng = np.random.default_rng(101)
    f = random_grid_function(rng, c=2, N=1, q=2)
    raw = grid_bytes(f)
    header, _, payload = raw.partition(b"\n")
    assert header == b'{"N": 1, "c": 2, "q": 2}'
    assert len(payload) == 9 * 4 * 16
    back = np.frombuffer(payload, "<c16").reshape(f.values.shape)
    assert np.array_equal(back, f.values)
    # rendering the same function twice gives identical bytes
    assert grid_bytes(f) == raw


def test_kernel_block_csv(tmp_path):
    # the kernel run writes trial 0's centre block as rows i,j,re,im (raster indices)
    cfg = ExperimentConfig(seed=5, window_radius=2, local_dim=2, q=2, block_rank=2)
    report = run_kernel(cfg, out_dir=tmp_path)
    assert report["records"][0]["kernel_block_csv"] == "kernel_block_trial_000.csv"
    lines = (tmp_path / "kernel_block_trial_000.csv").read_text().splitlines()
    assert lines[0] == "i,j,re,im"
    assert len(lines) == 5
    kern = assemble_kernel(generate_operator(cfg, 0), cfg.q)
    centre, = np.flatnonzero((kern.cells == 2) & (kern.sources == 2))  # cell 0 of [-2..2]
    blk = kern.stack[centre]
    cells = [line.split(",") for line in lines[1:]]
    assert [(int(i), int(j)) for i, j, _, _ in cells] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for i, j, re, im in cells:
        assert complex(float(re), float(im)) == blk[int(i), int(j)]


def test_kernel_run_with_a_zero_centre_writes_no_block_csv(tmp_path):
    # no block sits at offset 0, so the centre kernel block does not exist
    profile = {"kind": "table", "values": [0.2, 0.0, 0.2]}
    cfg = ExperimentConfig(seed=5, window_radius=2, local_dim=2, q=2, envelope_profile=profile)
    report = run_kernel(cfg, out_dir=tmp_path)
    assert not (tmp_path / "kernel_block_trial_000.csv").exists()
    assert "kernel_block_csv" not in report["records"][0]
    assert verify_report(tmp_path / "report.json") == []
