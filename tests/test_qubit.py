import numpy as np
import pytest

from conal.basis import embed, unembed
from conal.linalg import sqrt_psd
from conal.qubit import (
    IDENTITY_VEC,
    cross_relations,
    minkowski4,
    post_inner_products,
    post_norms,
    qubit_positive,
    sandwich,
    sqrt_vec,
    square_vec,
)
from conal.sampling import random_psd


@pytest.fixture
def tau(bases):
    return bases[2]


def random_cone_vec(rng, tau):
    return embed(random_psd(rng, 2), tau)


#: Coefficients of the conjugation identity
#: ``A rho A = K1 (a . rho) A + K2 eta(a, a) (rho - Tr(rho) I)``.
SANDWICH_K1 = 0.5
SANDWICH_K2 = 0.25


def sandwich_compact(a, rho):
    """Oracle for :func:`sandwich` written as a combination of a, rho and I."""
    a = np.asarray(a, dtype=float)
    rho = np.asarray(rho, dtype=float)
    norm = minkowski4(a, a)
    return SANDWICH_K1 * float(a @ rho) * a + SANDWICH_K2 * norm * (rho - rho[0] * IDENTITY_VEC)


def dense_sandwich(a, rho, tau):
    A = unembed(np.asarray(a, dtype=float), tau)
    R = unembed(np.asarray(rho, dtype=float), tau)
    return embed(A @ R @ A, tau)


def test_qubit_positive_examples():
    assert qubit_positive([1, 0, 0, 1])
    assert not qubit_positive([1, 0, 0, 1.01])
    assert not qubit_positive([-1, 0, 0, 0])


def test_sandwich_examples(tau):
    rho = np.array([1.0, 0.3, -0.4, 0.2])
    assert np.allclose(sandwich([2, 0, 0, 0], rho), rho, atol=1e-15)
    assert np.allclose(sandwich([0, 0, 0, 2], [1, 1, 0, 0]), [1, -1, 0, 0], atol=1e-15)
    assert np.allclose(sandwich([1, 0, 0, 1], [1, 0, 0, -1]), np.zeros(4), atol=1e-15)


def test_sandwich_against_dense_oracle(rng, tau):
    for _ in range(1000):
        a = random_cone_vec(rng, tau)
        rho = random_cone_vec(rng, tau)
        assert np.max(np.abs(sandwich(a, rho) - dense_sandwich(a, rho, tau))) < 1e-12


def test_sandwich_compact_identical(rng, tau):
    assert np.allclose(
        sandwich_compact([2, 0, 0, 0], [1, 0, 0, 0]), [1, 0, 0, 0], atol=1e-15
    )
    for _ in range(1000):
        a = random_cone_vec(rng, tau)
        rho = random_cone_vec(rng, tau)
        assert np.max(np.abs(sandwich_compact(a, rho) - sandwich(a, rho))) < 1e-12


def test_sandwich_constants_derived_from_oracle(tau):
    # Solve A rho A = k1 (a.rho) A + k2 eta(a,a) (rho - Tr(rho) I) for the
    # constants using the identity and Z-projector conjugations, then check
    # the implemented values (ratio 2 between them).
    rho_vec = np.array([1.0, 0.2, 0.0, 0.4])
    rows, targets = [], []
    for a_vec in (np.array([2.0, 0, 0, 0]), np.array([1.0, 0, 0, 1])):
        lhs = dense_sandwich(a_vec, rho_vec, tau)
        dot = float(a_vec @ rho_vec)
        norm = minkowski4(a_vec, a_vec)
        shifted = rho_vec - rho_vec[0] * IDENTITY_VEC
        for mu in range(4):
            rows.append([dot * a_vec[mu], norm * shifted[mu]])
            targets.append(lhs[mu])
    solution, residual, *_ = np.linalg.lstsq(np.array(rows), np.array(targets), rcond=None)
    k1, k2 = solution
    assert k1 == pytest.approx(0.5, abs=1e-12)
    assert k2 == pytest.approx(0.25, abs=1e-12)
    assert np.max(np.abs(np.array(rows) @ solution - np.array(targets))) < 1e-12
    assert SANDWICH_K1 == 0.5 and SANDWICH_K2 == 0.25
    assert SANDWICH_K1 / SANDWICH_K2 == pytest.approx(2.0)


def test_square_examples():
    assert np.allclose(square_vec([2, 0, 0, 0]), [2, 0, 0, 0], atol=1e-15)
    assert np.allclose(square_vec([3, 0, 0, 1]), [5, 0, 0, 3], atol=1e-15)
    assert np.allclose(square_vec([1, 0, 0, 1]), [1, 0, 0, 1], atol=1e-15)


def test_sqrt_examples():
    assert np.allclose(sqrt_vec([5, 0, 0, 3]), [3, 0, 0, 1], atol=1e-13)
    assert np.allclose(sqrt_vec([2, 0, 0, 0]), [2, 0, 0, 0], atol=1e-13)
    assert np.allclose(sqrt_vec([1, 0, 0, 1]), [1, 0, 0, 1], atol=1e-13)


def test_sqrt_rejects_zero_and_indefinite():
    with pytest.raises(ValueError):
        sqrt_vec(np.zeros(4))
    with pytest.raises(ValueError):
        sqrt_vec([0, 0, 0, 2])


def test_square_sqrt_against_dense(rng, tau):
    for _ in range(1000):
        a = random_cone_vec(rng, tau)
        A = unembed(a, tau)
        assert np.max(np.abs(square_vec(a) - embed(A @ A, tau))) < 1e-10
        assert np.max(np.abs(sqrt_vec(a) - embed(sqrt_psd(A), tau))) < 1e-10
        assert np.max(np.abs(square_vec(sqrt_vec(a)) - a)) < 1e-10


def test_cross_relations_examples():
    eta_sqrt, _, _ = cross_relations([2, 0, 0, 0], [1, 0, 0, 0])
    assert eta_sqrt == pytest.approx(4.0, abs=1e-12)
    eta_sqrt, _, sqrt_dot = cross_relations([5, 0, 0, 3], [1, 0, 0, 0])
    assert eta_sqrt == pytest.approx(8.0, abs=1e-12)
    assert sqrt_dot == pytest.approx(3.0, abs=1e-12)


def test_cross_relations_against_direct(rng, tau):
    for _ in range(1000):
        a = random_cone_vec(rng, tau)
        rho = random_cone_vec(rng, tau)
        eta_sqrt, sq_dot, sqrt_dot = cross_relations(a, rho)
        root = sqrt_vec(a)
        assert eta_sqrt == pytest.approx(minkowski4(root, root), abs=1e-10)
        assert sq_dot == pytest.approx(float(square_vec(a) @ rho), abs=1e-10)
        assert sqrt_dot == pytest.approx(float(root @ rho), abs=1e-10)


def test_cross_relations_rejects_zero():
    with pytest.raises(ValueError):
        cross_relations(np.zeros(4), np.ones(4))


def test_post_inner_products_identity_effect(rng, tau):
    for _ in range(50):
        r0 = random_cone_vec(rng, tau)
        r1 = random_cone_vec(rng, tau)
        full4, _, _, _ = post_inner_products([2, 0, 0, 0], r0, r1)
        assert full4 == pytest.approx(float(r0 @ r1), abs=1e-10)


def test_post_inner_products_annihilation():
    full4, rescaled4, bloch3, rescaled3 = post_inner_products(
        [1, 0, 0, 1], [1, 0, 0, -1], [1, 0, 0, -1], rescaled=False
    )
    assert full4 == pytest.approx(0.0, abs=1e-15)
    assert rescaled4 is None and rescaled3 is None
    with pytest.raises(ValueError):
        post_inner_products([1, 0, 0, 1], [1, 0, 0, -1], [1, 0, 0, -1])


def test_post_inner_products_pure_effect_collapses(rng):
    # Light-like effect: the rescaled post states coincide (3-dot 1).
    for _ in range(50):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        e = np.concatenate([[1.0], n])
        r = np.concatenate([[1.0], rng.uniform(-0.5, 0.5, 3)])
        if float(e @ r) <= 1e-6:
            continue
        _, _, _, rescaled3 = post_inner_products(e, r, r)
        assert rescaled3 == pytest.approx(1.0, abs=1e-10)


def test_post_inner_products_against_dense(rng, tau):
    for _ in range(1000):
        e = random_cone_vec(rng, tau)
        r0 = random_cone_vec(rng, tau)
        r1 = random_cone_vec(rng, tau)
        root = sqrt_vec(e)
        u0 = sandwich(root, r0)
        u1 = sandwich(root, r1)
        full4, rescaled4, bloch3, rescaled3 = post_inner_products(e, r0, r1)
        assert full4 == pytest.approx(float(u0 @ u1), abs=1e-10)
        assert bloch3 == pytest.approx(float(u0[1:] @ u1[1:]), abs=1e-10)
        scale = u0[0] * u1[0]
        assert rescaled4 == pytest.approx(float(u0 @ u1) / scale, abs=1e-10)
        assert rescaled3 == pytest.approx(float(u0[1:] @ u1[1:]) / scale, rel=1e-8, abs=1e-8)
        n4, _, n3, _ = post_norms(e, r0)
        assert n4 == pytest.approx(float(u0 @ u0), abs=1e-10)
        assert n3 == pytest.approx(float(u0[1:] @ u0[1:]), abs=1e-10)


def test_post_norms_purity(rng, tau):
    rho_pure = embed(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex), tau)
    _, _, _, n3p = post_norms([2, 0, 0, 0], rho_pure)
    assert n3p == pytest.approx(1.0, abs=1e-12)
    n = np.array([0.6, 0.8, 0.0])
    effect_pure = np.concatenate([[1.0], n])
    _, _, _, n3p = post_norms(effect_pure, np.array([1.0, 0, 0, 0]))
    assert n3p == pytest.approx(1.0, abs=1e-12)


def test_post_norms_example_against_dense(tau):
    e = np.array([1.0, 0.5, 0, 0])
    rho = np.array([1.0, 0, 0, 0.5])
    u = sandwich(sqrt_vec(e), rho)
    n4, n4p, n3, n3p = post_norms(e, rho)
    assert n4 == pytest.approx(float(u @ u), abs=1e-12)
    assert n3 == pytest.approx(float(u[1:] @ u[1:]), abs=1e-12)
    assert n4p == pytest.approx(float(u @ u) / u[0] ** 2, abs=1e-12)
    assert n3p == pytest.approx(float(u[1:] @ u[1:]) / u[0] ** 2, abs=1e-12)


def test_lightlike_in_lightlike_out(rng):
    for _ in range(200):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        pure = np.concatenate([[1.0], n])
        other = np.concatenate([[1.0], rng.uniform(-0.4, 0.4, 3)])
        for e, rho in ((pure, other), (other, pure)):
            u = sandwich(sqrt_vec(np.asarray(e)), np.asarray(rho))
            assert abs(minkowski4(u, u)) < 1e-10


def test_rotational_covariance(rng, tau):
    for _ in range(200):
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(Q) < 0:
            Q[:, 0] = -Q[:, 0]
        a = random_cone_vec(rng, tau)
        rho = random_cone_vec(rng, tau)

        def rotate(v):
            return np.concatenate([[v[0]], Q @ v[1:]])

        lhs = sandwich(rotate(a), rotate(rho))
        rhs = rotate(sandwich(a, rho))
        assert np.max(np.abs(lhs - rhs)) < 1e-10
