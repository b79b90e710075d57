"""Known-answer and behavioral tests for the deterministic generator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
