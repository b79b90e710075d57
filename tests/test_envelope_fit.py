"""The pruned nuclear envelope fit against every block's trace norm, bit for bit.

`fit_envelope(op, "nuclear")` takes LAPACK trace norms of only the blocks
whose cheap upper bound can reach their offset's maximum.  The maximum it
returns must be the very float of the maximum over all blocks, compared as
uint64 so signed zeros count, whatever the block sizes, ranks, magnitudes,
ties, chunk boundaries and row order.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decayalg import cd_operator
from decayalg.cd_operator import CDOperator, fit_envelope, invert_one_plus
from decayalg.harness import ExperimentConfig, generate_operator
from decayalg.lattice import flat_offsets, window_array
from decayalg.nuclear_blocks import trace_norm


def full_fit(op):
    """The maximum of every block's own LAPACK trace norm, per offset."""
    vals = np.zeros((2 * op.band_radius + 1,) * op.c)
    for m, blk in zip(flat_offsets(op.keys[:, 1], op.band_radius), op.stack):
        vals.reshape(-1)[m] = max(vals.reshape(-1)[m], trace_norm(blk))
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


def test_the_inversion_fits_t1_without_building_it():
    """invert_one_plus's envelope of T1 is the same with and without T1 kept, and
    equals the full maximum over T1's blocks."""
    rng = np.random.default_rng(5)
    for c, radius, d in ((1, 4, 3), (2, 1, 2)):
        cells = window_array(radius, c)
        blocks = {(tuple(k), tuple(m)): 0.1 * (rng.standard_normal((d, d)) + 1j)
                  for k in cells for m in window_array(1, c)}
        op = CDOperator(c, radius, 1, d, "circulant", blocks)
        kept, bare = invert_one_plus(op, keep_t1=True), invert_one_plus(op, keep_t1=False)
        assert bare.t1 is None
        assert_bitwise(bare.envelope.values, kept.envelope.values)
        assert_bitwise(kept.envelope.values, full_fit(kept.t1))


@pytest.mark.parametrize("bad", [np.nan, complex(0, np.nan)])
def test_a_nan_block_still_raises(bad):
    blocks = {((0,), (0,)): np.eye(2, dtype=complex), ((1,), (0,)): np.array([[bad, 0], [0, 1]])}
    op = CDOperator(1, 1, 0, 2, "circulant", blocks)
    with pytest.raises(np.linalg.LinAlgError):
        fit_envelope(op, "nuclear")
