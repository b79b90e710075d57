"""The pruned nuclear envelope fit against every block's trace norm, bit for bit.

`fit_envelope(op, "nuclear")` takes LAPACK trace norms of only the blocks
whose nominal norm (on a generated operator) or cheap upper bound can
reach their offset's maximum.  The maximum it returns must be the very
float of the maximum over all blocks, compared as uint64 so signed zeros
count, whatever the block sizes, ranks, magnitudes, ties, chunk
boundaries and row order.
"""

import json

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from decayalg import cd_operator, harness
from decayalg.cd_operator import CDOperator, fit_envelope, invert_one_plus
from decayalg.harness import (ConfigError, ExperimentConfig, generate_operator, run_gen,
                              verify_report)
from decayalg.lattice import flat_offsets, window_array


def full_fit(op):
    """The maximum of every block's own LAPACK trace norm, per offset, from numpy
    directly rather than the code under test."""
    vals = np.zeros((2 * op.band_radius + 1,) * op.c)
    for m, blk in zip(flat_offsets(op.keys[:, 1], op.band_radius), op.stack):
        tn = float(np.linalg.svd(blk, compute_uv=False).sum())
        vals.reshape(-1)[m] = max(vals.reshape(-1)[m], tn)
    return vals


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def operators(draw):
    """Blocks of full or lower rank, scaled unitaries (whose bound is tight), zero
    blocks, and tied, scaled or rotated copies of an earlier block at the same
    offset, at magnitudes from 1e-150 to 1e150."""
    c = draw(st.sampled_from([1, 2]))
    radius = draw(st.integers(0, 3 if c == 1 else 1))
    band = draw(st.integers(0, radius))
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells, offsets = window_array(radius, c), window_array(band, c)
    rows = draw(st.lists(st.integers(0, len(cells) * len(offsets) - 1), unique=True,
                         max_size=24))
    base = draw(st.integers(-150, 150))
    blocks, seen = {}, {}
    for row in rows:
        k, m = tuple(cells[row // len(offsets)]), tuple(offsets[row % len(offsets)])
        kind = draw(st.sampled_from(["full", "low_rank", "unitary", "zero", "tie", "scaled",
                                     "rotated"]))
        earlier = seen.get(m)
        if kind == "zero":
            blk = np.zeros((d, d), dtype=complex)
        elif kind == "unitary":  # sqrt(d) ||g||_F is its trace norm
            blk = 10.0 ** draw(st.integers(-150, 150)) * unitary(rng, d)
        elif kind == "tie" and earlier is not None:
            blk = earlier.copy()
        elif kind == "scaled" and earlier is not None:
            blk = earlier * draw(st.sampled_from([2.0, 0.5, -1.0, 1j, 1 + 2**-52, 1 - 2**-53]))
        elif kind == "rotated" and earlier is not None:  # the same exact singular values
            blk = unitary(rng, d) @ earlier @ unitary(rng, d)
        else:
            rank = d if kind == "full" else draw(st.integers(0, d))
            scale = 10.0 ** draw(st.one_of(st.just(base), st.integers(-150, 150)))
            blk = scale * ((rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank)))
                           @ rng.standard_normal((rank, d)))
        seen.setdefault(m, blk)
        blocks[(k, m)] = blk
    return CDOperator(c, radius, band, d, "circulant", blocks)


@settings(max_examples=300, deadline=None)
@given(op=operators(), chunk=st.sampled_from([1, 3, 64, cd_operator._FIT_CHUNK]))
def test_pruned_fit_equals_the_full_maximum(op, chunk):
    saved, cd_operator._FIT_CHUNK = cd_operator._FIT_CHUNK, chunk
    try:
        got = fit_envelope(op, "nuclear").values
    finally:
        cd_operator._FIT_CHUNK = saved
    assert_bitwise(got, full_fit(op))


@pytest.mark.parametrize("scale", [1e-310, 1e-300, 1e-160, 3.0, 1e160, 1e300, 1e307])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
def test_pruned_fit_of_tight_bounds_far_outside_the_squares_range(d, scale):
    """Scaled unitaries at one offset: sqrt(d) ||g||_F equals their trace norm,
    so only the rounding margin keeps the largest computed one; at these
    magnitudes a squared entry would under- or overflow unscaled."""
    rng = np.random.default_rng(d)
    op = CDOperator(1, 20, 0, d, "circulant",
                    {((k,), (0,)): scale * unitary(rng, d) for k in range(-20, 21)})
    assert_bitwise(fit_envelope(op, "nuclear").values, full_fit(op))


def test_pruned_fit_of_empty_operators():
    for op in (CDOperator(1, 2, 1, 3, "circulant", {}), CDOperator(2, 1, 1, 2, "dirichlet", {})):
        assert_bitwise(fit_envelope(op, "nuclear").values, full_fit(op))


def test_pruned_fit_takes_few_trace_norms(monkeypatch):
    """A generated operator and its inverse's correction: bitwise the full
    maximum, from under half of the block SVDs."""
    cfg = ExperimentConfig.from_json({
        "c": 1, "N": 16, "W": 4, "d": 4, "block_rank": 4, "trials": 1, "seed": 3,
        "weight": {"a": 0.5, "b": 0.5, "index_norm": "l1"},
        "envelope_profile": {"kind": "exponential", "rate": 1.0, "l1": 0.5},
        "boundary": "circulant"})
    op = generate_operator(cfg, 0)
    ops = (op, invert_one_plus(op).t1)
    wants = [full_fit(x) for x in ops]
    svd, counted = np.linalg.svd, []

    def counting(a, *args, **kwargs):
        counted.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    for x, want in zip(ops, wants):
        counted.clear()
        assert_bitwise(fit_envelope(x, "nuclear").values, want)
        assert sum(counted) < x.n_blocks / 2


def test_the_inversion_fits_t1_with_fit_envelope():
    """invert_one_plus's envelope of T1 equals the full maximum over T1's blocks."""
    rng = np.random.default_rng(5)
    for c, radius, d in ((1, 4, 3), (2, 1, 2)):
        cells = window_array(radius, c)
        blocks = {(tuple(k), tuple(m)): 0.1 * (rng.standard_normal((d, d)) + 1j)
                  for k in cells for m in window_array(1, c)}
        res = invert_one_plus(CDOperator(c, radius, 1, d, "circulant", blocks))
        assert_bitwise(res.envelope.values, full_fit(res.t1))


@pytest.mark.parametrize("bad", [np.nan, complex(0, np.nan)])
def test_a_nan_block_still_raises(bad):
    blocks = {((0,), (0,)): np.eye(2, dtype=complex), ((1,), (0,)): np.array([[bad, 0], [0, 1]])}
    op = CDOperator(1, 1, 0, 2, "circulant", blocks)
    with pytest.raises(np.linalg.LinAlgError):
        fit_envelope(op, "nuclear")


# ------------------------------------------------ generated operators' nominal norms


def generated_config(c=1, N=3, W=1, d=2, rank=1, profile=None, seed=0):
    return ExperimentConfig.from_json({
        "c": c, "N": N, "W": W, "d": d, "block_rank": rank, "trials": 1, "seed": seed,
        "weight": {"a": 0.5, "b": 0.5, "index_norm": "l1"},
        "envelope_profile": profile or {"kind": "exponential", "rate": 1.0, "l1": 0.5},
        "boundary": "circulant"})


@st.composite
def generated_configs(draw):
    """Table profiles with zeros at l1 from 1e-320 to 1e300, so both the nominal
    route and its fallback for blocks near the subnormal range are drawn; ranks
    from 1 to d take the closed-form trace norms and LAPACK's."""
    c = draw(st.sampled_from([1, 2]))
    radius = draw(st.integers(1, 4 if c == 1 else 2))
    band = draw(st.integers(0, min(radius, 2 if c == 1 else 1)))
    d = draw(st.integers(1, 4))
    n_offsets = (2 * band + 1) ** c
    values = draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 0.5, 2.0 ** -30, 3.7]),
                           min_size=n_offsets, max_size=n_offsets).filter(any))
    try:
        return generated_config(c, radius, band, d, draw(st.integers(1, d)), {
            "kind": "table", "values": values,
            "l1": 10.0 ** draw(st.floats(-320, 300))}, draw(st.integers(0, 2**32)))
    except ConfigError:  # l1 over a small profile sum overflows
        reject()


@settings(max_examples=200, deadline=None)
@given(cfg=generated_configs())
def test_the_fit_from_nominal_norms_equals_the_full_maximum(cfg):
    op = generate_operator(cfg, 0)
    assert op.nominal_norms is not None
    assert_bitwise(fit_envelope(op, "nuclear").values, full_fit(op))


def counted_svds(monkeypatch):
    svd, counted = np.linalg.svd, []

    def counting(a, *args, **kwargs):
        counted.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return counted


def test_the_nominal_fit_takes_one_trace_norm_per_offset(monkeypatch):
    """invert-1d's geometry: 9 block SVDs of 297 blocks and no bound pass,
    while the same operator without its nominal norms takes the bound route."""
    cfg = generated_config(N=16, W=4, d=4, rank=4, seed=5)
    for trial in range(4):
        op = generate_operator(cfg, trial)
        bare = CDOperator.from_arrays(op.c, op.window_radius, op.band_radius, op.local_dim,
                                      op.boundary, op.keys, op.stack)
        want = fit_envelope(bare, "nuclear").values
        with monkeypatch.context() as patch:
            counted = counted_svds(patch)
            patch.setattr(cd_operator, "_trace_norm_bounds", None)  # any call fails
            got = fit_envelope(op, "nuclear").values
        assert sum(counted) == 9
        assert_bitwise(got, want)
        assert_bitwise(got, full_fit(op))


@pytest.mark.parametrize("l1, outside", [(1e-320, True), (1e300, False), (1e305, True)])
def test_nominal_norms_outside_the_normal_range_take_the_bound_route(monkeypatch, l1, outside):
    op = generate_operator(generated_config(d=3, rank=2, profile={
        "kind": "exponential", "rate": 1.0, "l1": l1}), 0)
    bounded, bounds = [], cd_operator._trace_norm_bounds
    monkeypatch.setattr(cd_operator, "_trace_norm_bounds",
                        lambda stack: bounded.append(1) or bounds(stack))
    assert_bitwise(fit_envelope(op, "nuclear").values, full_fit(op))
    assert bounded == ([1] if outside else [])


def test_a_cancelling_rank_2_block_takes_the_bound_route(monkeypatch):
    """X's columns nearly equal and Y's rows opposite: g = XY cancels to 1e-6 of
    ||X||_F ||Y||_F, so the closed-form trace norm behind the nominal norms is
    not trusted and the fit bounds every block."""
    op = generate_operator(generated_config(d=2, rank=2), 0)
    a, y = (f.copy() for f in op.factors)
    y[0, 1], a[0, 1] = y[0, 0] * (1 + 1e-6), -a[0, 0]
    stack = op.stack.copy()
    stack[0] = np.outer(y[0, 0], a[0, 0]) + np.outer(y[0, 1], a[0, 1])
    cancelled = CDOperator.from_arrays(op.c, op.window_radius, op.band_radius, op.local_dim,
                                       op.boundary, op.keys, stack, factors=(a, y),
                                       nominal_norms=op.nominal_norms)
    bounded, bounds = [], cd_operator._trace_norm_bounds
    monkeypatch.setattr(cd_operator, "_trace_norm_bounds",
                        lambda stack: bounded.append(1) or bounds(stack))
    assert_bitwise(fit_envelope(op, "nuclear").values, full_fit(op))
    assert bounded == []
    assert_bitwise(fit_envelope(cancelled, "nuclear").values, full_fit(cancelled))
    assert bounded == [1]


def test_a_dropped_block_keeps_the_other_nominal_norms(monkeypatch):
    cfg = generated_config(N=3, W=1, d=4, rank=3)
    full = generate_operator(cfg, 0)
    trace_norms = harness.factored_trace_norms

    def one_zero(g, xs, ys):
        tn = trace_norms(g, xs, ys)
        tn[1] = 0.0
        return tn

    monkeypatch.setattr(harness, "factored_trace_norms", one_zero)
    with np.errstate(divide="ignore", invalid="ignore"):
        op = generate_operator(cfg, 0)
    assert op.n_blocks == full.n_blocks - 1
    assert_bitwise(op.nominal_norms, np.delete(full.nominal_norms, 1))
    assert_bitwise(fit_envelope(op, "nuclear").values, full_fit(op))


@pytest.mark.parametrize("rank", [1, 2, 4])
def test_gen_reports_verify_by_the_bound_route(tmp_path, rank):
    """verify-report re-derives a gen record's envelope_l1 from the operator
    JSON, which carries no nominal norms: the two routes agree."""
    cfg = generated_config(c=2, N=2, W=1, d=4, rank=rank, seed=9)
    report = run_gen(cfg, out_dir=tmp_path)
    assert verify_report(tmp_path / "report.json") == []
    back = CDOperator.from_json(json.loads((tmp_path / "operator_trial_000.json").read_text()))
    assert back.nominal_norms is None
    op = generate_operator(cfg, 0)
    assert op.nominal_norms is not None
    assert report["records"][0]["envelope_l1"] == fit_envelope(back, "nuclear").l1() \
        == fit_envelope(op, "nuclear").l1()


@pytest.mark.parametrize("bad", [np.nan, complex(0, np.nan)])
def test_a_nan_block_with_nominal_norms_still_raises(bad):
    op = generate_operator(generated_config(d=2, rank=2), 0)
    stack = op.stack.copy()
    stack[-1, 0, 0] = bad  # a block that is neither a lead nor a candidate
    broken = CDOperator.from_arrays(op.c, op.window_radius, op.band_radius, op.local_dim,
                                    op.boundary, op.keys, stack,
                                    nominal_norms=op.nominal_norms)
    with pytest.raises(np.linalg.LinAlgError):
        fit_envelope(broken, "nuclear")


def test_nominal_norms_are_checked_and_read_only():
    op = generate_operator(generated_config(), 0)
    with pytest.raises(cd_operator.ShapeMismatch):
        CDOperator.from_arrays(op.c, op.window_radius, op.band_radius, op.local_dim,
                               op.boundary, op.keys, op.stack,
                               nominal_norms=op.nominal_norms[1:])
    assert not op.nominal_norms.flags.writeable
    for derived in (CDOperator.from_json(op.to_json()), cd_operator.compose(op, op),
                    invert_one_plus(op).t1, CDOperator(1, 3, 1, 2, "circulant", dict(op.blocks))):
        assert derived.nominal_norms is None
