import numpy as np
import pytest

from decayalg.seq_algebra import (
    FiniteSeq,
    SymbolVanishes,
    TorusPoint,
    basis,
    character_eval,
    convolve,
    delta,
    symbol_on_grid,
    weighted_norm,
    wiener_inverse,
)
from decayalg.weights import Weight


def random_seq(rng, c, radius, density=0.7):
    shape = (2 * radius + 1,) * c
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    data *= rng.random(shape) < density
    return FiniteSeq(c, radius, data)


def conv_oracle(a, b):
    """Brute-force dictionary convolution, independent of the array path."""
    out = {}
    for n, va in a.support():
        for m, vb in b.support():
            k = tuple(ni + mi for ni, mi in zip(n, m))
            out[k] = out.get(k, 0.0) + va * vb
    return out


# ---------------------------------------------------------------- basics


def test_delta_is_unit():
    rng = np.random.default_rng(0)
    for c in (1, 2):
        a = random_seq(rng, c, 3)
        ad = convolve(delta(c), a)
        assert np.allclose(ad.data, a.data, rtol=0, atol=0)


def test_basis_shift_composition():
    e1 = basis(2)
    e2 = basis(-5)
    prod = convolve(e1, e2)
    assert prod[(-3,)] == 1.0
    assert prod.l1_norm() == 1.0


def test_geometric_identity():
    # (1 + x)(1 - x) = 1 - x^2
    a = delta(1) + basis(1)
    b = delta(1) - basis(1)
    prod = convolve(a, b)
    assert prod[(0,)] == 1.0
    assert prod[(2,)] == -1.0
    assert prod[(1,)] == 0.0


def test_convolve_matches_bruteforce():
    rng = np.random.default_rng(1)
    for c in (1, 2):
        for _ in range(20):
            a = random_seq(rng, c, int(rng.integers(0, 4)))
            b = random_seq(rng, c, int(rng.integers(0, 4)))
            got = convolve(a, b)
            want = conv_oracle(a, b)
            assert got.radius == a.radius + b.radius
            for n, v in want.items():
                assert got[n] == pytest.approx(v, rel=1e-13, abs=1e-13)


def test_real_data_stays_real():
    rng = np.random.default_rng(4)
    real = FiniteSeq(1, 2, rng.random(5))
    cplx = random_seq(rng, 1, 1, density=1.0)
    assert real.data.dtype == np.float64 and FiniteSeq(1, 1, [1, 2, 3]).data.dtype == np.float64
    assert cplx.data.dtype == np.complex128
    assert type(real[(1,)]) is float and type(real[(7,)]) is float
    assert type(cplx[(1,)]) is complex and type(cplx[(7,)]) is complex
    assert convolve(real, real).data.dtype == np.float64
    assert convolve(real, cplx).data.dtype == np.complex128
    # a real convolution is the real part of the complex one, value for value
    np.testing.assert_array_equal(convolve(real, real).data,
                                  convolve(real, FiniteSeq(1, 2, real.data + 0j)).data.real)


def test_weighted_norm_values():
    g = Weight(s=1.0)
    assert weighted_norm(delta(1), g) == 1.0
    assert weighted_norm(basis((3, -4)), g) == g.eval((3, -4))
    a = FiniteSeq.from_entries({1: 2.0, -1: 3.0})
    assert weighted_norm(a, g) == 2.0 * 2 + 3.0 * 2


def test_weighted_norm_submultiplicative():
    rng = np.random.default_rng(2)
    weights = [Weight(), Weight(s=2.0), Weight(a=0.5, b=0.5, t=1.0)]
    for _ in range(100):
        c = int(rng.integers(1, 3))
        a = random_seq(rng, c, int(rng.integers(0, 7)))
        b = random_seq(rng, c, int(rng.integers(0, 7)))
        ab = convolve(a, b)
        for g in weights:
            na, nb, nab = weighted_norm(a, g), weighted_norm(b, g), weighted_norm(ab, g)
            assert nab <= na * nb * (1 + 1e-12)


def test_convolve_commutative_associative():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = random_seq(rng, 1, 3)
        b = random_seq(rng, 1, 4)
        cseq = random_seq(rng, 1, 2)
        ab = convolve(a, b)
        ba = convolve(b, a)
        assert np.allclose(ab.data, ba.data, rtol=1e-12, atol=1e-12)
        left = convolve(ab, cseq)
        right = convolve(a, convolve(b, cseq))
        assert np.allclose(left.data, right.data, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------- characters


def test_character_on_unit_and_basis():
    u = TorusPoint((0.7,))
    assert character_eval(delta(1), u) == pytest.approx(1.0)
    n = (3,)
    assert character_eval(basis(n), u) == pytest.approx(u.power(n))


def test_character_homomorphism():
    rng = np.random.default_rng(4)
    for _ in range(100):
        c = int(rng.integers(1, 3))
        a = random_seq(rng, c, int(rng.integers(0, 5)))
        b = random_seq(rng, c, int(rng.integers(0, 5)))
        u = TorusPoint(tuple(rng.uniform(0, 2 * np.pi, size=c)))
        lhs = character_eval(convolve(a, b), u)
        rhs = character_eval(a, u) * character_eval(b, u)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


def test_character_bounded_by_weighted_norm():
    rng = np.random.default_rng(5)
    g = Weight(s=1.0)
    for _ in range(50):
        a = random_seq(rng, 1, 4)
        u = TorusPoint((float(rng.uniform(0, 2 * np.pi)),))
        assert abs(character_eval(a, u)) <= weighted_norm(a, g) * (1 + 1e-12)


# ---------------------------------------------------------------- symbols


def test_symbol_grid_matches_direct_evaluation():
    rng = np.random.default_rng(6)
    for c, N in ((1, 16), (2, 8)):
        a = random_seq(rng, c, 2)
        sym = symbol_on_grid(a, N)
        scale = np.abs(sym).max() + 1.0
        for pos in [(0,) * c, (1,) * c, (N - 1,) * c]:
            u = TorusPoint.from_grid(pos, N)
            direct = character_eval(a, u)
            assert abs(sym[pos] - direct) <= 1e-12 * scale


def test_symbol_grid_examples():
    assert np.allclose(symbol_on_grid(delta(1), 8), np.ones(8))
    roots = symbol_on_grid(basis(1), 8)
    assert np.allclose(roots, np.exp(2j * np.pi * np.arange(8) / 8), atol=1e-14)


def test_symbol_grid_rejects_bad_sizes():
    a = basis(3)  # radius 3 needs N >= 7
    with pytest.raises(ValueError):
        symbol_on_grid(a, 4)
    with pytest.raises(ValueError):
        symbol_on_grid(a, 12)  # not a power of two


# ---------------------------------------------------------------- inversion


def test_wiener_inverse_geometric_closed_form():
    a = 2.0 * delta(1) + basis(1)
    res = wiener_inverse(a, 1024, 40)
    ks = np.arange(0, 41)
    closed = (-1.0) ** ks * 2.0 ** -(ks + 1.0)
    got = np.array([res.inverse[(int(k),)] for k in ks])
    assert np.abs(got - closed).max() <= 1e-12
    neg = np.array([res.inverse[(-int(k),)] for k in range(1, 41)])
    assert np.abs(neg).max() <= 1e-12
    assert res.min_modulus == pytest.approx(1.0, abs=1e-12)


def test_wiener_inverse_of_delta():
    res = wiener_inverse(delta(1), 8, 0)
    assert res.inverse[(0,)] == pytest.approx(1.0)
    assert res.residual <= 1e-15


def test_wiener_inverse_symmetric_vs_dense_oracle():
    # independent oracle: solve the dense circulant system C b = e_0
    a = 3.0 * delta(1) + basis(1) + basis(-1)
    N, Rp = 2048, 60
    res = wiener_inverse(a, N, Rp)
    assert res.residual <= 1e-10

    col = np.zeros(N, dtype=complex)
    for n, v in a.support():
        col[n[0] % N] += v
    C = np.empty((N, N), dtype=complex)
    for i in range(N):
        C[:, i] = np.roll(col, i)
    e0 = np.zeros(N, dtype=complex)
    e0[0] = 1.0
    bfull = np.linalg.solve(C, e0)
    for k in range(-Rp, Rp + 1):
        assert res.inverse[(k,)] == pytest.approx(bfull[k % N], rel=1e-10, abs=1e-12)


def test_wiener_inverse_round_trip_restricted():
    rng = np.random.default_rng(7)
    for _ in range(10):
        radius = int(rng.integers(1, 5))
        noise = random_seq(rng, 1, radius, density=1.0)
        noise = noise * (0.4 / max(noise.l1_norm(), 1e-9))
        a = 2.0 * delta(1) + noise  # symbol stays within [1.6, 2.4]
        res = wiener_inverse(a, 512, 40)
        err = convolve(a, res.inverse) - delta(1)
        half = 20
        inside = sum(
            abs(v) for n, v in err.support() if abs(n[0]) <= half
        )
        assert inside <= 1e-9


def test_wiener_inverse_errors():
    bad = delta(1) - basis(1)  # symbol vanishes at u = 1
    with pytest.raises(SymbolVanishes):
        wiener_inverse(bad, 1024, 10)
    a = 2.0 * delta(1) + basis(1)
    with pytest.raises(ValueError):
        wiener_inverse(a, 64, 40)  # N < 2(R+R')+2
    with pytest.raises(ValueError):
        wiener_inverse(a, 100, 10)  # not a power of two


# ---------------------------------------------------------------- serialization


def test_json_round_trip():
    rng = np.random.default_rng(8)
    a = random_seq(rng, 2, 3)
    back = FiniteSeq.from_json(a.to_json())
    assert back.c == a.c and back.radius == a.radius
    assert np.array_equal(back.data, a.data)
