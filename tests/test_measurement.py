import numpy as np
import pytest

from conal.basis import embed
from conal.cone import is_generalized_pure, outcome_probability, psi_matrix
from conal.linalg import sqrt_psd
from conal.measurement import (
    GeneralizedMeasurement,
    Povm,
    apply_all,
    apply_outcome,
    split,
    validate,
)
from conal.sampling import (
    random_density,
    random_kraus_set,
    random_pure,
    random_unitary,
)

P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def test_validate_identity_singleton():
    report = validate(GeneralizedMeasurement(dim=2, kraus=(np.eye(2),)))
    assert report.passes
    assert report.completeness_residual < 1e-15


def test_validate_projective_pair(bases):
    report = validate(Povm(dim=2, effects=(P0, P1)))
    assert report.passes
    assert np.allclose(report.conal_sum, [2, 0, 0, 0], atol=1e-12)
    assert all(w >= -1e-12 for w in report.min_effect_eigenvalues)


def test_validate_incomplete_pair_reports_residual():
    report = validate(GeneralizedMeasurement(dim=2, kraus=(P0, P0)))
    assert not report.passes
    assert report.completeness_residual == pytest.approx(1.0, abs=1e-12)
    assert any("completeness" in f for f in report.failures)


def test_validate_flags_indefinite_effect():
    report = validate(Povm(dim=2, effects=(np.diag([1.5, 0.5]), np.diag([-0.5, 0.5]))))
    assert not report.passes
    assert any("negative eigenvalue" in f for f in report.failures)


def test_split_unitary(rng):
    U = random_unitary(rng, 2)
    ((W, root),) = split(GeneralizedMeasurement(dim=2, kraus=(U,)))
    assert np.max(np.abs(W - U)) < 1e-12
    assert np.max(np.abs(root - np.eye(2))) < 1e-12


def test_split_positive_operator():
    M = np.diag([0.8, 0.6]).astype(complex)
    other = sqrt_psd(np.eye(2) - M @ M)
    ((U0, R0), (U1, R1)) = split(GeneralizedMeasurement(dim=2, kraus=(M, other)))
    assert np.max(np.abs(U0 - np.eye(2))) < 1e-12
    assert np.max(np.abs(R0 - M)) < 1e-12
    assert np.max(np.abs(U1 @ R1 - other)) < 1e-12


def test_split_reconstructs_random_measurement(rng):
    for _ in range(50):
        meas = GeneralizedMeasurement(dim=2, kraus=random_kraus_set(rng, 2, 2))
        for M, (U, root) in zip(meas.kraus, split(meas)):
            assert np.max(np.abs(U @ root - M)) < 1e-10
            assert np.max(np.abs(root - sqrt_psd(M.conj().T @ M))) < 1e-10
            assert np.max(np.abs(U.conj().T @ U - np.eye(2))) < 1e-10


def test_apply_outcome_identity(rng, bases):
    rho = random_density(rng, 2)
    rec = apply_outcome(np.eye(2), rho, bases[2])
    assert rec.probability == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rec.rescaled, embed(rho, bases[2]), atol=1e-12)


def test_apply_outcome_zero_probability(bases):
    rec = apply_outcome(P0, P1, bases[2])
    assert rec.probability == pytest.approx(0.0, abs=1e-15)
    assert not rec.rescaled_defined
    assert rec.rescaled is None


def test_apply_outcome_projective_collapse(bases):
    rec = apply_outcome(P0, np.eye(2) / 2, bases[2])
    assert rec.probability == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(rec.rescaled, [1, 0, 0, 1], atol=1e-12)


def test_apply_all_projective(bases):
    meas = GeneralizedMeasurement(dim=2, kraus=(P0, P1))
    c, s = 0.6, 0.8
    rho = np.array([[0.5 * (1), 0.5 * (c - 1j * s)], [0.5 * (c + 1j * s), 0.5]], dtype=complex)
    records = apply_all(meas, rho, bases[2])
    assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-12)
    assert records[0].probability == pytest.approx(0.5, abs=1e-12)


def test_apply_all_single_identity(rng, bases):
    records = apply_all(
        GeneralizedMeasurement(dim=2, kraus=(np.eye(2),)), random_density(rng, 2), bases[2]
    )
    assert len(records) == 1
    assert records[0].probability == pytest.approx(1.0, abs=1e-12)


def test_apply_all_rejects_invalid(rng, bases):
    with pytest.raises(ValueError, match="invalid measurement"):
        apply_all(GeneralizedMeasurement(dim=2, kraus=(P0, P0)), random_density(rng, 2), bases[2])


def test_merged_outcomes_add_unrescaled(rng, bases):
    # Coarse-graining outcomes adds their unrescaled vectors; summing all
    # of them gives the non-selective post state.
    for _ in range(25):
        meas = GeneralizedMeasurement(dim=2, kraus=random_kraus_set(rng, 2, 3))
        rho = random_density(rng, 2)
        records = apply_all(meas, rho, bases[2])
        merged = (
            meas.kraus[0] @ rho @ meas.kraus[0].conj().T
            + meas.kraus[1] @ rho @ meas.kraus[1].conj().T
        )
        assert np.allclose(
            records[0].unrescaled + records[1].unrescaled,
            embed(merged, bases[2]),
            atol=1e-12,
        )
        non_selective = sum(M @ rho @ M.conj().T for M in meas.kraus)
        assert np.allclose(
            sum(rec.unrescaled for rec in records),
            embed(non_selective, bases[2]),
            atol=1e-12,
        )


def test_povm_application_uses_effect_roots(rng, bases):
    for _ in range(10):
        kraus = random_kraus_set(rng, 2, 2)
        effects = [M.conj().T @ M for M in kraus]
        rho = random_density(rng, 2)
        povm_records = apply_all(Povm(dim=2, effects=tuple(effects)), rho, bases[2])
        root_records = apply_all(
            GeneralizedMeasurement(dim=2, kraus=tuple(sqrt_psd(E) for E in effects)),
            rho,
            bases[2],
        )
        for a, b in zip(povm_records, root_records):
            assert a.probability == pytest.approx(b.probability, abs=1e-12)
            assert np.allclose(a.unrescaled, b.unrescaled, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_probability_normalization_and_height(d, rng, bases):
    for _ in range(200):
        meas = GeneralizedMeasurement(
            dim=d, kraus=random_kraus_set(rng, d, int(rng.integers(2, 5)))
        )
        rho = random_density(rng, d)
        records = apply_all(meas, rho, bases[d])
        assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-10)
        for M, rec in zip(meas.kraus, records):
            assert rec.unrescaled[0] == pytest.approx(rec.probability, abs=1e-10)
            born = outcome_probability(
                embed(M.conj().T @ M, bases[d]), embed(rho, bases[d])
            )
            assert rec.probability == pytest.approx(born, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_rotation_equivalence(d, rng, bases):
    # A kraus operator and its positive part give identical statistics; the
    # rescaled outputs differ exactly by the rotation of the unitary factor.
    for _ in range(500):
        meas = GeneralizedMeasurement(
            dim=d, kraus=random_kraus_set(rng, d, int(rng.integers(2, 5)))
        )
        rho = random_density(rng, d)
        for M in meas.kraus:
            root = sqrt_psd(M.conj().T @ M)
            with_u = apply_outcome(M, rho, bases[d])
            without = apply_outcome(root, rho, bases[d])
            assert with_u.probability == pytest.approx(without.probability, abs=1e-12)
            if not with_u.rescaled_defined:
                continue
            assert np.linalg.norm(with_u.rescaled) == pytest.approx(
                np.linalg.norm(without.rescaled), abs=1e-10
            )
            U, _ = split(GeneralizedMeasurement(dim=d, kraus=(M,)))[0]
            rotated = psi_matrix(U, bases[d]) @ without.rescaled
            assert np.max(np.abs(rotated - with_u.rescaled)) < 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_purity_preservation(d, rng, bases):
    for _ in range(200):
        meas = GeneralizedMeasurement(
            dim=d, kraus=random_kraus_set(rng, d, int(rng.integers(2, 5)))
        )
        rho = random_pure(rng, d)
        for rec in apply_all(meas, rho, bases[d]):
            if rec.rescaled_defined and rec.probability > 1e-8:
                assert is_generalized_pure(rec.rescaled, bases[d], tol=1e-8)
