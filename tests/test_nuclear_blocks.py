"""Tests for trace norms, factorizations, and the continuation inverse."""

import numpy as np
import pytest

from decayalg.nuclear_blocks import (
    Diverged,
    HomotopyPath,
    NotContractive,
    PathHitsSpectrum,
    StepTooLarge,
    build_path,
    homotopy_inverse,
    neumann_inverse,
    operator_norm,
    svd_factorization,
    trace_norm,
)


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------- norms


def test_trace_norm_diagonal():
    assert trace_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0, abs=1e-13)
    # a nilpotent block still has a singular value
    assert trace_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0)
    assert trace_norm(np.zeros((3, 3))) == 0.0


def test_trace_norm_vs_gram_eigenvalues():
    # independent route: singular values are the square roots of the
    # eigenvalues of A^H A, computed by the dedicated Hermitian solver
    rng = np.random.default_rng(42)
    for _ in range(50):
        d = int(rng.integers(1, 9))
        a = rand_complex(rng, d, d)
        expected = np.sqrt(np.clip(np.linalg.eigvalsh(a.conj().T @ a), 0, None)).sum()
        assert trace_norm(a) == pytest.approx(expected, rel=1e-10)


def test_trace_norm_vs_characteristic_polynomial():
    # second independent route for one d=5 case: Faddeev-LeVerrier
    # character polynomial of A^H A, then np.roots
    rng = np.random.default_rng(7)
    a = rand_complex(rng, 5, 5)
    m = a.conj().T @ a
    d = 5
    coeffs = [1.0]
    n_k = np.zeros((d, d), dtype=np.complex128)
    c_k = 1.0
    for k in range(1, d + 1):
        n_k = m @ (n_k + c_k * np.eye(d))
        c_k = -np.trace(n_k) / k
        coeffs.append(c_k)
    roots = np.roots(np.array(coeffs))
    expected = np.sqrt(np.clip(roots.real, 0, None)).sum()
    assert trace_norm(a) == pytest.approx(expected, rel=1e-8)


def test_operator_norms_explicit():
    a = np.array([[1.0, -2.0], [3.0, 4.0]])
    assert operator_norm(a, 1) == pytest.approx(6.0)  # max column sum
    assert operator_norm(a, np.inf) == pytest.approx(7.0)  # max row sum
    # 2-norm of a rank-one matrix uv^T is |u||v|
    u = np.array([1.0, 2.0, 2.0])
    v = np.array([3.0, 4.0])
    assert operator_norm(np.outer(u, v)[:2, :2], 2) <= 15.0
    assert operator_norm(np.outer(v, v), 2) == pytest.approx(25.0, rel=1e-12)
    with pytest.raises(ValueError):
        operator_norm(a, 3)


def test_norm_comparison_and_triangle():
    rng = np.random.default_rng(101)
    for _ in range(100):
        d = int(rng.integers(1, 9))
        a = rand_complex(rng, d, d)
        b = rand_complex(rng, d, d)
        tn_a = trace_norm(a)
        assert operator_norm(a, 2) <= tn_a + 1e-10
        assert tn_a <= d * operator_norm(a, 2) + 1e-10
        assert trace_norm(a + b) <= tn_a + trace_norm(b) + 1e-10


def test_ideal_property():
    # multiplying a trace-class block by a bounded one costs at most the
    # operator norm of the bounded factor, on either side
    rng = np.random.default_rng(11)
    for _ in range(200):
        d = int(rng.integers(1, 9))
        a = rand_complex(rng, d, d)
        b = rand_complex(rng, d, d)
        tn_ab = trace_norm(a @ b)
        assert tn_ab <= trace_norm(a) * operator_norm(b, 2) * (1 + 1e-10)
        assert tn_ab <= operator_norm(a, 2) * trace_norm(b) * (1 + 1e-10)


# ------------------------------------------------------- factorizations


def test_svd_factorization_reassembles():
    rng = np.random.default_rng(19)
    for _ in range(25):
        d = int(rng.integers(1, 7))
        a = rand_complex(rng, d, d)
        fact = svd_factorization(a)
        np.testing.assert_allclose(fact.assemble(), a, atol=1e-12)
        assert fact.cost() == pytest.approx(trace_norm(a), rel=1e-12)


def test_svd_factorization_rank_one():
    y = np.array([1.0, 2.0, 0.0])
    a = np.array([0.0, 3.0, 4.0])
    m = np.outer(y, a)
    fact = svd_factorization(m)
    assert len(fact.terms) == 1
    assert fact.cost() == pytest.approx(np.linalg.norm(y) * np.linalg.norm(a))
    np.testing.assert_allclose(fact.assemble(), m, atol=1e-12)


def test_svd_factorization_zero_matrix():
    fact = svd_factorization(np.zeros((4, 4)))
    assert fact.terms == []
    assert fact.cost() == 0.0
    np.testing.assert_allclose(fact.assemble(), np.zeros((4, 4)))


# ------------------------------------------------------- Neumann series


def test_neumann_scalar_case():
    # (A - B) with A = 2, B = 0.5: inverse is 1/1.5
    a_inv = np.array([[0.5]])
    b = np.array([[0.5]])
    out = neumann_inverse(a_inv, b, tol=1e-15)
    assert out[0, 0] == pytest.approx(1.0 / 1.5, abs=1e-14)


def test_neumann_matches_direct_solve():
    rng = np.random.default_rng(23)
    for _ in range(20):
        d = 6
        a = np.eye(d) + 0.1 * rand_complex(rng, d, d)
        b = 0.02 * rand_complex(rng, d, d)
        a_inv = np.linalg.inv(a)
        out = neumann_inverse(a_inv, b, tol=1e-14)
        np.testing.assert_allclose(out, np.linalg.inv(a - b), atol=1e-11)


def test_neumann_zero_perturbation():
    a_inv = np.diag([0.5, 0.25])
    out = neumann_inverse(a_inv, np.zeros((2, 2)))
    np.testing.assert_allclose(out, a_inv)


def test_neumann_rejects_noncontractive():
    with pytest.raises(NotContractive):
        neumann_inverse(np.eye(2), np.eye(2) * 1.5)


def test_neumann_diverged_when_budget_too_small():
    with pytest.raises(Diverged):
        neumann_inverse(np.eye(1), np.array([[0.95]]), tol=1e-300, max_terms=5)


# --------------------------------------------------------- continuation


def test_homotopy_trivial_path_diagonal():
    # J = diag(0.5, 0), nu = 1: inverse of 1 - J is diag(2, 1)
    j = np.diag([0.5, 0.0])
    path = HomotopyPath(samples=[1.0], resolvent_bound=2.0)
    res = homotopy_inverse(j, 1.0, path, tol=1e-15)
    np.testing.assert_allclose(res.inverse, np.diag([2.0, 1.0]), atol=1e-12)
    assert res.scalar_part == 1.0
    np.testing.assert_allclose(res.nuclear_part, np.diag([1.0, 0.0]), atol=1e-12)
    assert res.nuclear_trace_norm == pytest.approx(1.0, abs=1e-12)
    assert res.resolvent_bound == pytest.approx(2.0, rel=1e-12)


def test_homotopy_rank_two_matches_lu():
    # a normal rank-2 block with moderate eigenvalues, continued along a
    # hand-built path of 10 linear steps from 0.1 to 1
    rng = np.random.default_rng(31)
    d = 8
    q, _ = np.linalg.qr(rand_complex(rng, d, d))
    lam = np.zeros(d, dtype=np.complex128)
    lam[0], lam[1] = 0.6, -0.4
    j = q @ np.diag(lam) @ q.conj().T
    zs = list(np.linspace(0.1, 1.0, 11))
    m_bound = max(
        operator_norm(np.linalg.inv(np.eye(d) - z * j), 2) for z in zs
    )
    path = HomotopyPath(samples=zs, resolvent_bound=m_bound)
    res = homotopy_inverse(j, 1.0, path, tol=1e-14)
    expected = np.linalg.inv(np.eye(d) - j)
    np.testing.assert_allclose(res.inverse, expected, atol=1e-10)
    # the certificate reports the worst conditioning along the path
    assert res.max_condition >= 1.0


def test_homotopy_inverse_is_two_sided():
    rng = np.random.default_rng(37)
    d = 6
    g = rand_complex(rng, d, d)
    j = 0.4 * g / max(1e-12, np.abs(np.linalg.eigvals(g)).max())
    nu = 1.0
    path = build_path(j, None, nu)
    res = homotopy_inverse(j, nu, path, tol=1e-14)
    eye = np.eye(d)
    np.testing.assert_allclose(res.inverse @ (eye - nu * j), eye, atol=1e-10)
    np.testing.assert_allclose((eye - nu * j) @ res.inverse, eye, atol=1e-10)


def test_homotopy_requires_path_ending_at_nu():
    path = HomotopyPath(samples=[0.5], resolvent_bound=2.0)
    with pytest.raises(ValueError):
        homotopy_inverse(np.diag([0.1]), 1.0, path)


def test_homotopy_step_too_large():
    # one huge step toward a near-singular endpoint violates the bound
    j = np.array([[0.9]])
    path = HomotopyPath(samples=[0.1, 1.0], resolvent_bound=10.0)
    with pytest.raises(StepTooLarge):
        homotopy_inverse(j, 1.0, path)


def test_path_validation():
    with pytest.raises(ValueError):
        HomotopyPath(samples=[], resolvent_bound=1.0)
    with pytest.raises(ValueError):
        HomotopyPath(samples=[0.5, 0.0, 1.0], resolvent_bound=1.0)


# ----------------------------------------------------------- build_path


def test_build_path_avoids_reciprocal_eigenvalue():
    # eigenvalue 2 puts a singularity at multiplier 0.5
    j = np.diag([2.0, 0.1])
    path = build_path(j, 0.1, 0.4)
    assert path.samples[0] == pytest.approx(0.1)
    assert path.samples[-1] == pytest.approx(0.4)
    assert path.margin == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(PathHitsSpectrum):
        build_path(j, 0.1, 0.9)


def test_build_path_auto_start():
    rng = np.random.default_rng(41)
    d = 5
    j = rand_complex(rng, d, d)
    j = 0.5 * j / np.abs(np.linalg.eigvals(j)).max()
    path = build_path(j, None, 1.0)
    # the auto start keeps the bootstrap series contractive outright
    assert abs(path.samples[0]) * trace_norm(j) <= 0.4 + 1e-12
    assert path.samples[-1] == pytest.approx(1.0)
    # certified steps
    tn = trace_norm(j)
    assert path.max_step() * tn < 0.5 / path.resolvent_bound
    res = homotopy_inverse(j, 1.0, path)
    np.testing.assert_allclose(
        res.inverse, np.linalg.inv(np.eye(d) - j), atol=1e-9
    )


def test_build_path_zero_block():
    path = build_path(np.zeros((3, 3)), None, 2.0)
    assert len(path.samples) == 1
    assert path.samples[0] == pytest.approx(2.0)
    res = homotopy_inverse(np.zeros((3, 3)), 2.0, path)
    np.testing.assert_allclose(res.inverse, np.eye(3))
    assert res.nuclear_trace_norm == 0.0


def test_build_path_rejects_zero_target():
    with pytest.raises(ValueError):
        build_path(np.eye(2), None, 0.0)
