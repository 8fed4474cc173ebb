import numpy as np
import pytest

from conal.basis import build_basis, embed, hs_inner, unembed
from conal.cone import cone_contains, is_generalized_pure, minkowski_product, psi_matrix
from conal.linalg import is_positive, polar_decompose, sqrt_psd
from conal.sampling import random_hermitian, random_psd, random_pure

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Standard Gell-Mann matrices, Tr(g_a g_b) = 2 delta_ab.
GELL_MANN_3 = [
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
    np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex),
    np.diag([1, 1, -2]).astype(complex) / np.sqrt(3),
]


def gram(basis):
    return np.einsum("mij,nji->mn", basis, basis).real


def test_qubit_basis_is_identity_and_paulis():
    basis = build_basis(2)
    assert np.array_equal(basis[0], I2)
    assert np.array_equal(basis[1], PAULI_X)
    assert np.array_equal(basis[2], PAULI_Y)
    assert np.array_equal(basis[3], PAULI_Z)


def test_qubit_gram_all_sixteen_pairs():
    basis = build_basis(2)
    assert np.max(np.abs(gram(basis) - 2 * np.eye(4))) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_gram_is_d_times_identity(d, bases):
    assert np.max(np.abs(gram(bases[d]) - d * np.eye(d * d))) < 1e-12


def test_d3_matches_rescaled_gell_mann():
    # Oracle: scaling matrices with Tr(g_a g_b) = 2 delta_ab by sqrt(3/2)
    # gives Gram 3I; all 81 traces checked, and the built basis matches.
    scaled = [np.sqrt(3 / 2) * g for g in GELL_MANN_3]
    for a, ga in enumerate(scaled):
        for b, gb in enumerate(scaled):
            expected = 3.0 if a == b else 0.0
            assert abs(np.trace(ga @ gb).real - expected) < 1e-12
    basis = build_basis(3)
    for built, oracle in zip(basis[1:], scaled):
        assert np.max(np.abs(built - oracle)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_traceless_beyond_identity(d, bases):
    for t in bases[d][1:]:
        assert abs(np.trace(t)) < 1e-12


@pytest.mark.parametrize("bad", [1, 0, -3])
def test_invalid_dimension_rejected(bad):
    with pytest.raises(ValueError):
        build_basis(bad)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_embed_identity(d, bases):
    v = embed(np.eye(d), bases[d])
    expected = np.zeros(d * d)
    expected[0] = d
    assert np.allclose(v, expected, atol=1e-12)


def test_cached_basis_is_read_only():
    basis = build_basis(3)
    assert build_basis(3) is basis
    assert not basis.flags.writeable
    with pytest.raises(ValueError):
        basis[0, 0, 0] = 2.0


@pytest.mark.parametrize("d", [2, 3, 5])
def test_stacked_embed_rows_equal_single_embeds(d, rng, bases):
    """``embed`` and every general-d function that takes stacks: rows equal single calls bit for bit."""
    basis = bases[d]
    stack = np.stack([random_hermitian(rng, d) for _ in range(6)]).reshape(2, 3, d, d)
    rows = embed(stack, basis)
    assert rows.shape == (2, 3, d * d)
    # Pure, mixed and indefinite rows, so the predicates take both values.
    vecs = np.concatenate([embed(random_pure(rng, d, (2,)), basis), rows[0]])
    products = minkowski_product(vecs, vecs[::-1])
    inside, pure = cone_contains(vecs), is_generalized_pure(vecs, basis)
    matrices, psd = unembed(vecs, basis), random_psd(rng, d, (5,))
    positive = is_positive(matrices)
    roots, (U, P), psi = sqrt_psd(psd), polar_decompose(stack[0]), psi_matrix(stack[0], basis)
    assert matrices.shape == (5, d, d) and inside.shape == pure.shape == products.shape == (5,)
    assert pure.tolist()[:2] == [True, True] and not pure.all() and inside.any()
    assert positive.shape == (5,) and positive.any() and not positive.all()
    for idx in np.ndindex(2, 3):
        single = embed(stack[idx], basis)
        assert single.shape == (d * d,)
        assert np.array_equal(rows[idx], single)
    for k, v in enumerate(vecs):
        assert np.array_equal(matrices[k], unembed(v, basis))
        assert positive[k] == is_positive(matrices[k])
        assert products[k] == minkowski_product(v, vecs[::-1][k])
        assert inside[k] == cone_contains(v) and pure[k] == is_generalized_pure(v, basis)
        assert np.array_equal(roots[k], sqrt_psd(psd[k]))
    for k in range(3):
        assert all(np.array_equal(x[k], y) for x, y in zip((U, P), polar_decompose(stack[0, k])))
        assert np.array_equal(psi[k], psi_matrix(stack[0, k], basis))
    # One bad matrix fails a stack with the single call's error.
    psd[3] -= 2.0 * np.linalg.eigvalsh(psd[3])[-1] * np.eye(d)
    for bad in (psd[3], psd):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            sqrt_psd(bad)


def test_embed_projector_and_mixed(bases):
    proj = np.array([[1, 0], [0, 0]], dtype=complex)
    assert np.allclose(embed(proj, bases[2]), [1, 0, 0, 1], atol=1e-12)
    assert np.allclose(embed(I2 / 2, bases[2]), [1, 0, 0, 0], atol=1e-12)


def test_unembed_examples(bases):
    assert np.allclose(unembed(np.array([2.0, 0, 0, 0]), bases[2]), I2, atol=1e-12)
    proj = unembed(np.array([1.0, 0, 0, 1]), bases[2])
    assert np.allclose(proj, [[1, 0], [0, 0]], atol=1e-12)
    assert np.allclose(unembed(np.zeros(9), bases[3]), np.zeros((3, 3)), atol=1e-15)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_round_trip(d, rng, bases):
    for _ in range(100):
        A = random_hermitian(rng, d)
        assert np.max(np.abs(unembed(embed(A, bases[d]), bases[d]) - A)) < 1e-12


def test_hs_inner_examples(bases):
    assert hs_inner(I2, I2) == pytest.approx(2.0, abs=1e-15)
    assert hs_inner(PAULI_X, PAULI_Z) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_isometry(d, rng, bases):
    for _ in range(100):
        A = random_hermitian(rng, d)
        B = random_hermitian(rng, d)
        lhs = hs_inner(A, B)
        rhs = float(embed(A, bases[d]) @ embed(B, bases[d])) / d
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def test_dimension_mismatch_errors(bases):
    with pytest.raises(ValueError):
        embed(np.eye(3), bases[2])
    with pytest.raises(ValueError):
        unembed(np.zeros(9), bases[2])
    with pytest.raises(ValueError):
        hs_inner(np.eye(2), np.eye(3))
