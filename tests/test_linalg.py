import numpy as np
import pytest

from conal.linalg import as_floats, dot_last, is_positive, polar_decompose, sqrt_psd
from conal.sampling import random_complex, random_hermitian, random_psd, random_unitary

Z = np.diag([1.0, -1.0])


def test_is_positive_examples():
    assert is_positive(np.eye(2))
    assert not is_positive(Z)
    assert is_positive(np.diag([4.0, 1.0]))


def test_is_positive_rejects_non_hermitian():
    with pytest.raises(ValueError, match="hermitian"):
        is_positive(np.array([[0, 1], [0, 0]], dtype=complex))


def test_is_positive_tolerance():
    almost = np.diag([1.0, -5e-11])
    assert is_positive(almost, tol=1e-10)
    assert not is_positive(almost, tol=1e-12)


def test_sqrt_psd_examples():
    assert np.allclose(sqrt_psd(np.eye(2)), np.eye(2), atol=1e-12)
    assert np.allclose(sqrt_psd(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]), atol=1e-12)
    proj = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(sqrt_psd(proj), proj, atol=1e-12)


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(ValueError, match="positive semidefinite"):
        sqrt_psd(Z)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_sqrt_psd_reconstruction(d, rng):
    for _ in range(50):
        A = random_psd(rng, d)
        B = sqrt_psd(A)
        assert np.max(np.abs(B @ B - A)) < 1e-10
        assert np.linalg.eigvalsh(B)[0] >= -1e-12


def test_polar_of_unitary(rng):
    U = random_unitary(rng, 3)
    W, P = polar_decompose(U)
    assert np.max(np.abs(W - U)) < 1e-12
    assert np.max(np.abs(P - np.eye(3))) < 1e-12


def test_polar_of_positive_diagonal():
    U, P = polar_decompose(np.diag([2.0, 3.0]).astype(complex))
    assert np.max(np.abs(U - np.eye(2))) < 1e-12
    assert np.max(np.abs(P - np.diag([2.0, 3.0]))) < 1e-12


def test_polar_sign_mix():
    M = Z @ np.diag([2.0, 1.0])
    U, P = polar_decompose(M)
    assert np.max(np.abs(U @ P - M)) < 1e-12
    assert np.max(np.abs(P - np.diag([2.0, 1.0]))) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_polar_random(d, rng):
    for _ in range(50):
        M = random_complex(rng, d)
        U, P = polar_decompose(M)
        assert np.max(np.abs(U @ P - M)) < 1e-10
        assert np.max(np.abs(U.conj().T @ U - np.eye(d))) < 1e-10
        assert np.max(np.abs(P - sqrt_psd(M.conj().T @ M))) < 1e-10


def test_polar_singular_still_unitary(rng):
    M = np.zeros((3, 3), dtype=complex)
    M[0, 0] = 2.0
    U, P = polar_decompose(M)
    assert np.max(np.abs(U.conj().T @ U - np.eye(3))) < 1e-12
    assert np.max(np.abs(U @ P - M)) < 1e-12


def test_polar_rejects_rectangular():
    with pytest.raises(ValueError):
        polar_decompose(np.zeros((2, 3)))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_trace_of_positive_products(d, rng):
    for _ in range(100):
        B = random_psd(rng, d)
        C = random_psd(rng, d)
        A = random_hermitian(rng, d)
        assert np.trace(B @ C).real >= -1e-10
        assert np.trace(B @ A @ B @ A).real >= -1e-10


def test_dot_last_rows_equal_matmul_bitwise(rng):
    scale = 10.0 ** rng.uniform(-8.0, 8.0, (500, 1, 4))
    u = rng.standard_normal((500, 3, 4)) * scale
    v = rng.standard_normal((500, 1, 4)) * scale[..., ::-1]
    rows = dot_last(u, v)
    assert rows.shape == (500, 3)
    for i in range(500):
        for k in range(3):
            assert rows[i, k] == u[i, k] @ v[i, 0]
    assert dot_last(u[0, 0], v[0, 0]).shape == ()
    assert dot_last(u[:0], v[:0]).shape == (0, 3)


def test_as_floats_converts_only_0d_values():
    a = np.arange(3.0)
    out = as_floats(np.float64(1.5), np.array(2.0), 3, a, None)
    assert out[:3] == (1.5, 2.0, 3.0) and all(type(x) is float for x in out[:3])
    assert out[3] is a and out[4] is None
