"""Known-answer and behavioral tests for the deterministic generator."""

import math
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decayalg import rng
from decayalg.rng import Xoshiro256StarStar, box_muller, splitmix64


def test_splitmix64_known_answers():
    # widely published first outputs for counter = 0
    x, z = splitmix64(0)
    assert z == 0xE220A8397B1DCDAF
    x, z = splitmix64(x)
    assert z == 0x6E789E6AA1B965F4
    x, z = splitmix64(x)
    assert z == 0x06C45D188009454F


def test_xoshiro_reference_sequence():
    # force the canonical reference state (1, 2, 3, 4)
    gen = Xoshiro256StarStar(0)
    gen._s = [1, 2, 3, 4]
    assert gen.next_u64() == 11520
    assert gen.next_u64() == 0
    assert gen.next_u64() == 1509978240
    # fourth output, verified by stepping the update rule by hand
    assert gen.next_u64() == 1215971899390074240


def test_streams_are_reproducible_and_distinct():
    a = Xoshiro256StarStar(7, stream=0)
    b = Xoshiro256StarStar(7, stream=0)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    c = Xoshiro256StarStar(7, stream=1)
    d = Xoshiro256StarStar(8, stream=0)
    first = Xoshiro256StarStar(7, stream=0).next_u64()
    assert c.next_u64() != first
    assert d.next_u64() != first
    # the documented stream domain: a pair names its stream only through
    # the splitmix64 counter seed + stream * G mod 2^64
    e = Xoshiro256StarStar(7 + 0x9E3779B97F4A7C15, stream=0)
    assert e.next_u64() == Xoshiro256StarStar(7, stream=1).next_u64()


def test_uniform_range_and_moments():
    gen = Xoshiro256StarStar(123)
    xs = [gen.uniform() for _ in range(20000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    mean = sum(xs) / len(xs)
    assert mean == pytest.approx(0.5, abs=0.02)
    assert gen.uniform_in(2.0, 4.0) >= 2.0


def test_normal_moments():
    gen = Xoshiro256StarStar(99)
    xs = [gen.normal() for _ in range(20000)]
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / len(xs)
    assert mean == pytest.approx(0.0, abs=0.05)
    assert var == pytest.approx(1.0, abs=0.05)
    # the cached second value keeps the stream aligned
    g1 = Xoshiro256StarStar(5)
    g2 = Xoshiro256StarStar(5)
    seq1 = [g1.normal() for _ in range(7)]
    seq2 = [g2.normal() for _ in range(7)]
    assert seq1 == seq2


def test_complex_normal_draws_real_then_imaginary():
    g1 = Xoshiro256StarStar(11)
    g2 = Xoshiro256StarStar(11)
    z = g1.complex_normal()
    assert z.real == g2.normal()
    assert z.imag == g2.normal()
    assert math.isfinite(abs(z))


# ------------------------------------------------------------ bulk draws
#
# The bulk path must reproduce the scalar methods bit for bit and leave the
# generator where the scalar calls would.  Lane lengths are powers of two
# near sqrt(n), so these lengths fill the last lane exactly, leave it one
# short, or spill one word into a new lane.


@pytest.mark.parametrize("n", [0, 1, 2, 3, 63, 64, 65, 4095, 4096, 4097, 5000, 16384])
def test_u64_array_equals_scalar_words(n):
    bulk = Xoshiro256StarStar(17, stream=n)
    scalar = Xoshiro256StarStar(17, stream=n)
    words = bulk.u64_array(n)
    assert words.dtype == np.uint64
    assert words.tolist() == [scalar.next_u64() for _ in range(n)]
    assert bulk._s == scalar._s


# A draw of n words runs K lanes of L steps (L the power of two nearest
# sqrt(n/8)).  Lanes [d, 2d) jump from lanes [0, d) up to 256 lanes and in
# blocks of 128 beyond, so K = 2^k and 2^k + 1 are the edges; for each K
# the smallest n leaves one word in the last lane and the largest fills it.
# 139,425 and 19,305 words are one trial of the two benchmark workloads.


def sizes_with_lane_counts(counts, limit=30000):
    found = {}
    for n in range(1, limit):
        k = rng._lanes(n)[1]
        if k in counts:
            lo, hi = found.get(k, (n, n))
            found[k] = (min(lo, n), max(hi, n))
    assert set(found) == set(counts)
    return sorted({n for pair in found.values() for n in pair})


LANE_EDGE_SIZES = sizes_with_lane_counts({2, 3, 4, 5, 8, 9, 64, 65, 128, 129,
                                          256, 257, 384, 385})


@pytest.mark.parametrize("n", LANE_EDGE_SIZES + [19305, 139425])
def test_u64_array_at_lane_count_edges_and_workload_sizes(n):
    bulk = Xoshiro256StarStar(29, stream=n)
    scalar = Xoshiro256StarStar(29, stream=n)
    assert bulk.u64_array(n).tolist() == [scalar.next_u64() for _ in range(n)]
    assert bulk._s == scalar._s


def stepped_unit_images(steps):
    """{k: images of the 256 unit states after k scalar steps} for k in steps."""
    gens = []
    for i in range(256):
        gen = Xoshiro256StarStar(0)
        gen._s = [0, 0, 0, 0]
        gen._s[i // 64] = 1 << (i % 64)
        gens.append(gen)
    images = {}
    for k in range(1, max(steps) + 1):
        for gen in gens:
            gen.next_u64()
        if k in steps:
            images[k] = np.array([gen._s for gen in gens], dtype=np.uint64)
    return images


@pytest.mark.parametrize("lane", [1, 2])
def test_doubling_tables_are_stepped_powers(monkeypatch, lane):
    # level i of lane L is A^(2^i L), here against the unit states stepped one by one
    monkeypatch.setattr(rng, "_JUMPS", {})
    levels = range(rng._LEVELS)
    want = stepped_unit_images({lane << level for level in levels})
    for level in levels:
        assert np.array_equal(rng._jump_images(lane, level), want[lane << level])


def test_first_draws_from_many_threads_on_an_empty_cache(monkeypatch):
    # more threads than cores, switching often, all building the same matrices
    monkeypatch.setattr(rng, "_JUMPS", {})
    n, workers = 19305, 4
    barrier = threading.Barrier(workers)
    words = [None] * workers

    def draw(k):
        gen = Xoshiro256StarStar(5, stream=k)
        barrier.wait(timeout=60)
        words[k] = gen.u64_array(n)

    threads = [threading.Thread(target=draw, args=(k,)) for k in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k in range(workers):
        scalar = Xoshiro256StarStar(5, stream=k)
        assert words[k].tolist() == [scalar.next_u64() for _ in range(n)]
    # one matrix per level, and no level past the cap
    lane = rng._lanes(n)[0]
    assert set(rng._JUMPS) == {(lane, level) for level in range(rng._LEVELS)}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**20),
       sizes=st.lists(st.integers(0, 3000), min_size=1, max_size=4))
def test_u64_array_state_continuity(seed, stream, sizes):
    # bulk -> scalar -> bulk -> ... matches one scalar stream
    bulk = Xoshiro256StarStar(seed, stream)
    scalar = Xoshiro256StarStar(seed, stream)
    for n in sizes:
        assert bulk.u64_array(n).tolist() == [scalar.next_u64() for _ in range(n)]
        assert bulk.next_u64() == scalar.next_u64()
    assert bulk._s == scalar._s


def bits(a):
    return np.asarray(a).view(np.uint64)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 600))
def test_complex_normals_equal_scalar_bitwise(seed, n):
    bulk = Xoshiro256StarStar(seed)
    scalar = Xoshiro256StarStar(seed)
    z = bulk.complex_normals(n)
    want = np.array([scalar.complex_normal() for _ in range(n)], dtype=np.complex128)
    assert z.shape == (n,)
    assert np.array_equal(bits(z), bits(want))
    assert bulk._s == scalar._s and bulk._cached_normal == scalar._cached_normal


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       sizes=st.lists(st.integers(0, 50), min_size=1, max_size=5))
def test_normals_keep_the_cached_value(seed, sizes):
    # odd counts leave a cached normal that the next draw, bulk or scalar, uses
    bulk = Xoshiro256StarStar(seed)
    scalar = Xoshiro256StarStar(seed)
    for n in sizes:
        got = bulk.normals(n)
        assert np.array_equal(bits(got), bits([scalar.normal() for _ in range(n)]))
        assert bulk._cached_normal == scalar._cached_normal
        assert bulk.normal() == scalar.normal()
    assert bulk._s == scalar._s


def test_box_muller_matches_a_fresh_pair():
    words = Xoshiro256StarStar(3).u64_array(8).reshape(2, 4)
    out = box_muller(words)
    scalar = Xoshiro256StarStar(3)
    assert np.array_equal(bits(out.ravel()), bits([scalar.normal() for _ in range(8)]))


def test_numpy_trig_equals_libm_on_stream_angles():
    # box_muller takes cos and sin from numpy; they must give libm's bits
    theta = 2.0 * math.pi * rng.uniforms(Xoshiro256StarStar(41, stream=2).u64_array(1 << 17))
    values = theta.tolist()
    assert np.array_equal(bits(np.cos(theta)), bits([math.cos(t) for t in values]))
    assert np.array_equal(bits(np.sin(theta)), bits([math.sin(t) for t in values]))


def log_inputs(seed, stream, n):
    return 1.0 - rng.uniforms(Xoshiro256StarStar(seed, stream=stream).u64_array(n))


def libm_logs(u):
    return np.array([math.log(x) for x in np.ravel(u).tolist()]).reshape(np.shape(u))


@pytest.mark.parametrize("seed, stream", [(0, 0), (7, 3), (0x6B65726E, 11), (2**63 + 5, 1)])
def test_libm_log_equals_math_log_on_stream_values(seed, stream):
    u = log_inputs(seed, stream, 1 << 20)  # 2^22 values over the four cases
    assert np.array_equal(bits(rng._libm_log(u)), bits(libm_logs(u)))


def test_libm_log_edge_inputs_and_shape():
    u = np.array([[1.0, 1.0 - 2.0 ** -53, 2.0 ** -53], [0.5, 0.25, 1.0 - 2.0 ** -52]])
    got = rng._libm_log(u)
    assert got.shape == u.shape
    assert np.array_equal(bits(got), bits(libm_logs(u)))
    assert bits(got[0, 0]) == bits(0.0)  # +0, not -0


def test_libm_log_falls_back_where_the_extended_rounding_differs(monkeypatch):
    # where rounding the extended log disagrees with math.log, only the
    # fallback can give math.log's bits; about one value in a thousand
    u = log_inputs(5, 2, 1 << 16)
    if np.finfo(np.longdouble).nmant == rng._X87_MANTISSA:
        rounded = np.log(u.astype(np.longdouble)).astype(float)
        u = u[bits(rounded) != bits(libm_logs(u))]
        assert u.size > 10
    calls = []
    log = math.log
    monkeypatch.setattr(math, "log", lambda x: calls.append(x) or log(x))
    got = rng._libm_log(u)
    monkeypatch.undo()
    assert np.array_equal(bits(got), bits(libm_logs(u)))
    assert sorted(calls) == sorted(u.tolist())


def spacing_redo(u):
    """The elements the spacing test sent to math.log: the extended log's offset
    from its rounding y is at least 0.45 of the gap from y toward zero."""
    ext = np.log(u.astype(np.longdouble))
    y = ext.astype(float)
    off = np.abs((ext - y).astype(float))
    return np.flatnonzero(off >= 0.45 * np.abs(np.spacing(y * (1.0 - 2.0 ** -53))))


@pytest.mark.skipif(np.finfo(np.longdouble).nmant != rng._X87_MANTISSA
                    or np.dtype(np.longdouble).itemsize != 16,
                    reason="the significand test reads 16-byte x87 long doubles")
@pytest.mark.parametrize("seed, stream", [(0, 0), (7, 3), (0x6B65726E, 11), (2**63 + 5, 1)])
def test_significand_test_picks_the_spacing_tests_elements(seed, stream):
    u = log_inputs(seed, stream, 1 << 20)  # 2^22 values over the four cases
    redo = rng._near_midpoints(np.log(u.astype(np.longdouble)))
    assert 0.09 < redo.size / u.size < 0.11
    assert np.array_equal(redo, spacing_redo(u))


def test_a_16_byte_long_double_that_is_not_x87_takes_math_log(monkeypatch):
    # binary128 (aarch64, say) is 16 bytes with a 112-bit significand
    finfo = np.finfo
    monkeypatch.setattr(np, "finfo", lambda t: SimpleNamespace(nmant=112)
                        if np.dtype(t) == np.longdouble else finfo(t))
    calls = []
    log = math.log
    monkeypatch.setattr(math, "log", lambda x: calls.append(x) or log(x))
    u = log_inputs(9, 4, 4096).reshape(64, 64)
    got = rng._libm_log(u)
    monkeypatch.undo()
    assert np.array_equal(bits(got), bits(libm_logs(u)))
    assert calls == u.ravel().tolist()


def test_libm_log_without_extended_precision(monkeypatch):
    monkeypatch.setattr(rng, "_X87_MANTISSA", -1)  # no long double format matches
    u = log_inputs(3, 1, 4096).reshape(64, 64)
    got = rng._libm_log(u)
    assert got.shape == u.shape
    assert np.array_equal(bits(got), bits(libm_logs(u)))
