"""Known-answer and behavioral tests for the deterministic generator."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decayalg import rng
from decayalg.rng import Xoshiro256StarStar, box_muller, lane_key, lane_keys, lanes, splitmix64


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
    a = Xoshiro256StarStar(7)
    b = Xoshiro256StarStar(7)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    first = Xoshiro256StarStar(7).next_u64()
    assert Xoshiro256StarStar(8).next_u64() != first
    # format version 2 opened (seed, trial) at the counter seed + trial * G, so
    # (seed + G, trial - 1) named the same stream; lane keys hash every part
    gold = 0x9E3779B97F4A7C15
    assert lane_key(7 + gold, 0) != lane_key(7, 1)
    assert lane_key(7, 0, 1, 2) != lane_key(7, 0, 2, 1)


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


# ----------------------------------------------------------------- lanes
#
# lanes() must give each lane the words of the scalar generator opened at
# its counter.  33 and 65 words are one block of the kernel-2d and
# invert-1d benchmark workloads, which draw 4,225 and 297 lanes a trial.


def scalar_words(counter, n):
    gen = Xoshiro256StarStar(int(counter))
    return [gen.next_u64() for _ in range(n)]


@pytest.mark.parametrize("steps", [1, 2, 33, 65])
@pytest.mark.parametrize("count", [0, 1, 4225])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**64 - 1))
def test_lanes_equal_scalar_generators(seed, steps, count):
    counters = lane_keys((seed,), np.arange(count)[:, None])
    words = lanes(counters, steps)
    assert words.dtype == np.uint64 and words.shape == (count, steps)
    assert words.tolist() == [scalar_words(c, steps) for c in counters]


@given(seed=st.integers(0, 2**64 - 1),
       parts=st.lists(st.lists(st.integers(-2**63, 2**63 - 1), min_size=3, max_size=3),
                      max_size=5))
def test_lane_keys_fold_every_row_like_lane_key(seed, parts):
    rows = np.array(parts, dtype=np.int64).reshape(len(parts), 3)
    assert lane_keys((seed, 1), rows).tolist() == [lane_key(seed, 1, *row) for row in parts]
    assert lane_key(seed, -1) == lane_key(seed, 2**64 - 1)  # parts count mod 2^64


@pytest.mark.parametrize("n", [0, 1, 2, 3, 63, 64, 65, 4095, 4096, 4097, 5000, 16384])
def test_u64_array_equals_scalar_words(n):
    # one long lane
    words = lanes([lane_key(17, n)], n)
    assert words.dtype == np.uint64
    assert words[0].tolist() == scalar_words(lane_key(17, n), n)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 18, 253, 513, 1017, 1024, 1040, 2048, 2049,
                               4081, 4128, 8193, 12257, 12289, 16384, 16448, 24576, 24640,
                               19305, 139425])
def test_u64_array_at_lane_count_edges_and_workload_sizes(n):
    # n words as lanes of 33 words, the last one cut short: up to kernel-2d's 4,225 lanes
    counters = lane_keys((29, n), np.arange(-(-n // 33))[:, None])
    want = [w for c in counters for w in scalar_words(c, 33)]
    assert lanes(counters, 33).reshape(-1)[:n].tolist() == want[:n]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**20),
       sizes=st.lists(st.integers(0, 3000), min_size=1, max_size=4))
def test_u64_array_state_continuity(seed, stream, sizes):
    # a lane's first n words are the same however many are drawn, and the scalar continues them
    counters = [lane_key(seed, stream, i) for i in range(3)]
    longest = lanes(counters, max(sizes) + 1)
    for n in sizes:
        assert np.array_equal(lanes(counters, n), longest[:, :n])
    assert longest[2].tolist() == scalar_words(counters[2], max(sizes) + 1)


def bits(a):
    return np.asarray(a).view(np.uint64)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 600))
def test_complex_normals_equal_scalar_bitwise(seed, n):
    z = box_muller(lanes([seed], 2 * n)).view(np.complex128)[0]
    scalar = Xoshiro256StarStar(seed)
    want = np.array([scalar.complex_normal() for _ in range(n)], dtype=np.complex128)
    assert z.shape == (n,)
    assert np.array_equal(bits(z), bits(want))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       sizes=st.lists(st.integers(0, 50), min_size=1, max_size=5))
def test_normals_keep_the_cached_value(seed, sizes):
    # odd counts leave a cached normal that the next scalar draw uses, so the
    # scalar normals are Box-Muller of consecutive word pairs however they are cut
    scalar = Xoshiro256StarStar(seed)
    got = [x for n in sizes for x in (scalar.normal() for _ in range(n))]
    total = sum(sizes)
    want = box_muller(lanes([seed], total + total % 2))[0, :total]
    assert np.array_equal(bits(got), bits(want))


def test_box_muller_matches_a_fresh_pair():
    words = lanes([3], 8).reshape(2, 4)
    out = box_muller(words)
    scalar = Xoshiro256StarStar(3)
    assert np.array_equal(bits(out.ravel()), bits([scalar.normal() for _ in range(8)]))


def test_numpy_trig_equals_libm_on_stream_angles():
    # box_muller takes cos and sin from numpy; they must give libm's bits
    theta = 2.0 * math.pi * rng.uniforms(lane_words(41, 2, 1 << 17))
    values = theta.tolist()
    assert np.array_equal(bits(np.cos(theta)), bits([math.cos(t) for t in values]))
    assert np.array_equal(bits(np.sin(theta)), bits([math.sin(t) for t in values]))


def lane_words(seed, stream, n):
    """n words (a multiple of 1024) from lanes of 1024 words keyed by (seed, stream, i)."""
    return lanes(lane_keys((seed, stream), np.arange(n // 1024)[:, None]), 1024).reshape(-1)


def log_inputs(seed, stream, n):
    return 1.0 - rng.uniforms(lane_words(seed, stream, n))


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
