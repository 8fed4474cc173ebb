import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conal.basis import build_basis, embed, unembed
from conal.cone import (
    ambient_dim,
    cone_contains,
    fixed_states,
    is_generalized_pure,
    is_positive_vec,
    minkowski_diagonal,
    minkowski_product,
    outcome_probability,
    psi_matrix,
)
from conal.linalg import is_positive, sqrt_psd
from conal.qubit import qubit_positive
from conal.sampling import (
    random_complex,
    random_density,
    random_psd,
    random_pure,
    random_unitary,
)

Z = np.diag([1.0, -1.0]).astype(complex)


def test_ambient_dim():
    assert ambient_dim(np.zeros(4)) == 2
    assert ambient_dim(np.zeros(25)) == 5
    with pytest.raises(ValueError):
        ambient_dim(np.zeros(5))


def test_minkowski_diagonal():
    assert np.array_equal(minkowski_diagonal(2), [1, -1, -1, -1])
    d3 = minkowski_diagonal(3)
    assert d3[0] == 2 and np.all(d3[1:] == -1) and len(d3) == 9


def test_minkowski_product_examples(rng, bases):
    assert minkowski_product([1, 0, 0, 1], [1, 0, 0, 1]) == pytest.approx(0.0)
    assert minkowski_product([1, 0, 0, 0], [1, 0, 0, 0]) == pytest.approx(1.0)
    v = embed(random_pure(rng, 3), bases[3])
    assert minkowski_product(v, v) == pytest.approx(0.0, abs=1e-12)


def test_cone_contains_examples(rng, bases):
    assert cone_contains(np.array([1.0, 0, 0, 0]))
    assert not cone_contains(np.array([1.0, 0, 0, 2]))
    assert not cone_contains(np.array([-1.0, 0, 0, 0]))
    assert cone_contains(np.zeros(4))
    for d in (2, 3):
        assert not cone_contains(embed(-1e-10 * np.eye(d), bases[d]))
    # Pure states of height 1e3 at d = 16: the rounding of |v|^2 exceeds 1e-9 absolute.
    for _ in range(20):
        assert cone_contains(embed(1e3 * random_pure(rng, 16), build_basis(16)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    d=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.floats(-8.0, 8.0),
    kind=st.sampled_from(["psd", "pure", "outside"]),
)
def test_cone_contains_is_scale_invariant(d, seed, exponent, kind):
    rng = np.random.default_rng(seed)
    if kind == "outside":
        # Spatial part twice the cone radius sqrt(d - 1) at unit height.
        u = rng.standard_normal(d * d - 1)
        v = np.concatenate(([1.0], 2.0 * np.sqrt(d - 1) * u / np.linalg.norm(u)))
    else:
        v = embed((random_psd if kind == "psd" else random_pure)(rng, d), build_basis(d))
    assert cone_contains(v) is (kind != "outside")
    assert cone_contains(10.0**exponent * v) is (kind != "outside")


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_psd_matrices_land_in_cone(d, rng, bases):
    for _ in range(250):
        assert cone_contains(embed(random_psd(rng, d), bases[d]))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_pure_states_lightlike_at_unit_height(d, rng, bases):
    for _ in range(250):
        v = embed(random_pure(rng, d), bases[d])
        assert abs(minkowski_product(v, v)) <= 1e-12
        assert abs(v[0] - 1.0) <= 1e-12


def test_is_positive_vec_examples(bases):
    for d in (2, 3):
        v = np.zeros(d * d)
        v[0] = d
        assert is_positive_vec(v, bases[d])
    v = embed(np.diag([1.0, 1.0, -0.01]), bases[3])
    assert not is_positive_vec(v, bases[3])


def test_cone_strictly_larger_than_positives_for_d3(bases):
    # Light-like vector of the revolution cone whose matrix has a negative
    # eigenvalue: eigenvalues (2/3, 2/3, -1/3) give trace 1 and squared
    # Hilbert-Schmidt norm 1, hence exactly on the cone boundary.
    A = np.diag([2 / 3, 2 / 3, -1 / 3]).astype(complex)
    v = embed(A, bases[3])
    assert abs(minkowski_product(v, v)) < 1e-12
    assert cone_contains(v)
    assert not is_positive_vec(v, bases[3])


def test_qubit_closed_form_agrees_with_eigenvalues(rng, bases):
    for _ in range(1000):
        v = 2.0 * rng.standard_normal(4)
        assert qubit_positive(v) == is_positive(unembed(v, bases[2]))
        assert is_positive_vec(v, bases[2]) == qubit_positive(v)


def test_is_generalized_pure_examples(rng, bases):
    assert is_generalized_pure(np.array([1.0, 0, 0, 1]), bases[2])
    assert not is_generalized_pure(np.array([1.0, 0, 0, 0]), bases[2])
    # Any light-like qubit vector with positive height is a pure ray.
    for _ in range(50):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        height = rng.uniform(0.1, 3.0)
        v = np.concatenate([[height], height * direction])
        assert is_generalized_pure(v, bases[2])
        assert minkowski_product(v, v) == pytest.approx(0.0, abs=1e-12)


def test_generalized_pure_from_projectors(rng, bases):
    for d in (2, 3, 4):
        scale = rng.uniform(0.5, 2.0)
        v = embed(scale * random_pure(rng, d), bases[d])
        assert is_generalized_pure(v, bases[d])
        assert not is_generalized_pure(np.zeros(d * d), bases[d])


def _psi_einsum(A, basis):
    """The two-einsum conjugation matrix, kept as the oracle for psi_matrix."""
    d = basis.shape[1]
    conjugated = np.einsum("ij,njk,lk->nil", A, basis, A.conj())
    return np.einsum("nij,mji->mn", conjugated, basis).real / d


@pytest.mark.parametrize("d", [2, 3, 4, 8, 12, 16])
def test_psi_matches_einsum_oracle(d, rng):
    gell_mann = build_basis(d)
    # A rotated basis U tau U^dagger is orthogonal too but not Gell-Mann.
    U = random_unitary(rng, d)
    for basis in (gell_mann, U @ gell_mann @ U.conj().T):
        for _ in range(3):
            A = random_complex(rng, d)
            want = _psi_einsum(A, basis)
            got = psi_matrix(A, basis)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_psi_identity(bases):
    for d in (2, 3):
        assert np.allclose(psi_matrix(np.eye(d), bases[d]), np.eye(d * d), atol=1e-12)


def test_psi_pauli_z(bases):
    assert np.allclose(psi_matrix(Z, bases[2]), np.diag([1.0, -1, -1, 1]), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_psi_reproduces_conjugation(d, rng, bases):
    for _ in range(100):
        A = random_complex(rng, d)
        rho = random_density(rng, d)
        lhs = psi_matrix(A, bases[d]) @ embed(rho, bases[d])
        rhs = embed(A @ rho @ A.conj().T, bases[d])
        assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_psi_homomorphism(d, rng, bases):
    for _ in range(100):
        A = random_complex(rng, d)
        B = random_complex(rng, d)
        lhs = psi_matrix(A @ B, bases[d])
        rhs = psi_matrix(A, bases[d]) @ psi_matrix(B, bases[d])
        assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_psi_unitary_is_special_orthogonal_fixing_axis(d, rng, bases):
    eye = np.eye(d * d)
    for _ in range(100):
        U = random_unitary(rng, d)
        R = psi_matrix(U, bases[d])
        assert np.max(np.abs(R.T @ R - eye)) < 1e-10
        assert abs(np.linalg.det(R) - 1.0) < 1e-8
        assert np.max(np.abs(R[:, 0] - eye[:, 0])) < 1e-10
        assert np.max(np.abs(R[0, :] - eye[0, :])) < 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_psi_phase_invariance(d, rng, bases):
    for _ in range(100):
        U = random_unitary(rng, d)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        diff = psi_matrix(phase * U, bases[d]) - psi_matrix(U, bases[d])
        assert np.max(np.abs(diff)) < 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_psi_effect_symmetric_psd(d, rng, bases):
    for _ in range(100):
        root = sqrt_psd(random_psd(rng, d))
        R = psi_matrix(root, bases[d])
        assert np.max(np.abs(R - R.T)) < 1e-12
        assert np.linalg.eigvalsh((R + R.T) / 2)[0] >= -1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_psi_effect_preserves_purity(d, rng, bases):
    for _ in range(100):
        root = sqrt_psd(random_psd(rng, d))
        v = embed(random_pure(rng, d), bases[d])
        image = psi_matrix(root, bases[d]) @ v
        if image[0] > 1e-8:
            assert is_generalized_pure(image, bases[d], tol=1e-8)


@pytest.mark.parametrize("d", [2, 3])
def test_rank_one_effect_acts_as_projection(d, rng, bases):
    for _ in range(100):
        root = random_pure(rng, d) * rng.uniform(0.2, 1.0)
        e_vec = embed(root, bases[d])
        rho_vec = embed(random_density(rng, d), bases[d])
        lhs = psi_matrix(root, bases[d]) @ rho_vec
        rhs = (float(e_vec @ rho_vec) / d) * e_vec
        assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_post_height_is_probability(d, rng, bases):
    for _ in range(100):
        E = random_psd(rng, d)
        E /= np.linalg.eigvalsh(E)[-1] * rng.uniform(1.0, 3.0)
        rho = random_density(rng, d)
        post = psi_matrix(sqrt_psd(E), bases[d]) @ embed(rho, bases[d])
        expected = outcome_probability(embed(E, bases[d]), embed(rho, bases[d]))
        assert post[0] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(np.trace(E @ rho).real, abs=1e-12)


def test_outcome_probability_examples(bases):
    full = embed(np.eye(2), bases[2])
    assert outcome_probability(full, np.array([1.0, 0.3, -0.2, 0.1])) == pytest.approx(1.0)
    up = np.array([1.0, 0, 0, 1])
    down = np.array([1.0, 0, 0, -1])
    assert outcome_probability(up, down) == pytest.approx(0.0, abs=1e-15)
    assert outcome_probability(up, np.array([1.0, 0, 0, 0])) == pytest.approx(0.5)


def test_fixed_states_identity(bases):
    pairs = fixed_states(np.eye(2), bases[2])
    assert all(w == pytest.approx(1.0, abs=1e-12) for w, _ in pairs)


def test_fixed_states_projector(bases):
    proj = np.array([[1, 0], [0, 0]], dtype=complex)
    pairs = fixed_states(proj, bases[2])
    target = np.array([1.0, 0, 0, 1]) / 2.0  # unit eigenvector direction
    best = max(pairs, key=lambda wv: abs(float(wv[1] @ target)))
    w, v = best
    assert w == pytest.approx(1.0, abs=1e-12)
    aligned = v * np.sign(v[0])
    assert np.allclose(aligned / np.linalg.norm(aligned), target / np.linalg.norm(target), atol=1e-12)


def test_fixed_states_diagonal(bases):
    a, b = 0.9, 0.4
    pairs = fixed_states(np.diag([a, b]).astype(complex), bases[2])
    values = sorted(w for w, _ in pairs)
    assert values == pytest.approx(sorted([a * a, b * b, a * b, a * b]), abs=1e-12)
    # phi(|0><0|) and phi(|1><1|) are eigenvectors with eigenvalues a^2, b^2.
    up = np.array([1.0, 0, 0, 1]) / np.sqrt(2)
    down = np.array([1.0, 0, 0, -1]) / np.sqrt(2)
    M = dict()
    for w, v in pairs:
        for name, ref in (("up", up), ("down", down)):
            if abs(abs(float(v @ ref)) - 1.0) < 1e-10:
                M[name] = w
    assert M["up"] == pytest.approx(a * a, abs=1e-12)
    assert M["down"] == pytest.approx(b * b, abs=1e-12)


def test_fixed_states_rejects_non_psd(bases):
    with pytest.raises(ValueError):
        fixed_states(Z, bases[2])


def test_dimension_mismatch(bases):
    with pytest.raises(ValueError):
        minkowski_product(np.zeros(4), np.zeros(9))
    with pytest.raises(ValueError):
        outcome_probability(np.zeros(4), np.zeros(9))
    with pytest.raises(ValueError):
        psi_matrix(np.eye(3), bases[2])
