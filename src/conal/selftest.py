"""Seeded verification registry runnable from the command line.

Each check draws its randomness from a single generator, so a fixed seed
makes the whole run bit-reproducible.  A check yields ``(residual, where)``
pairs and returns a :class:`CheckResult`: the worst residual, the tolerance
it must not exceed, and the input where it occurred.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from . import (
    apply_all,
    build_basis,
    cone_contains,
    embed,
    hs_inner,
    is_generalized_pure,
    is_positive,
    minkowski_product,
    optimal_repair,
    polar_decompose,
    psi_matrix,
    qubit_positive,
    sandwich,
    sqrt_psd,
    sqrt_vec,
    square_vec,
    stationarity_check,
    sweep,
    unembed,
)
from .measurement import GeneralizedMeasurement
from .optimize import golden_section
from .qubit import cross_relations, post_inner_products
from .sampling import (
    random_complex,
    random_density,
    random_hermitian,
    random_kraus_set,
    random_psd,
    random_pure,
    random_unitary,
)
from .tradeoff import pipeline_residual, repair_objective

__all__ = ["run_selftest", "CHECKS", "CheckResult"]


class CheckResult(NamedTuple):
    """Worst residual of one check, its tolerance, and the input where it occurred."""

    worst: float
    tol: float
    argworst: dict

    @property
    def ok(self) -> bool:
        return self.worst <= self.tol


def _check(tol: float):
    """Turn a generator of ``(residual, where)`` pairs into a check returning a CheckResult.

    The first largest residual names ``argworst``; the reported worst is
    never below zero, since negative residuals are margins of inequalities.
    """

    def decorate(pairs):
        @functools.wraps(pairs)
        def check(rng) -> CheckResult:
            worst, argworst = max(pairs(rng), key=lambda pair: pair[0])
            return CheckResult(max(0.0, worst), tol, argworst)

        return check

    return decorate


@_check(1e-12)
def _check_basis_gram(rng):
    for d in range(2, 6):
        basis = build_basis(d)
        gram = np.einsum("mij,nji->mn", basis, basis).real
        yield float(np.max(np.abs(gram - d * np.eye(d * d)))), {"d": d}


@_check(1e-12)
def _check_isometry(rng):
    for d in range(2, 6):
        basis = build_basis(d)
        for trial in range(25):
            A = random_hermitian(rng, d)
            B = random_hermitian(rng, d)
            lhs = hs_inner(A, B)
            rhs = float(embed(A, basis) @ embed(B, basis)) / d
            yield abs(lhs - rhs) / (1.0 + abs(lhs)), {"d": d, "trial": trial}


@_check(1e-12)
def _check_round_trip(rng):
    for d in range(2, 6):
        basis = build_basis(d)
        for trial in range(25):
            A = random_hermitian(rng, d)
            residual = float(np.max(np.abs(unembed(embed(A, basis), basis) - A)))
            yield residual, {"d": d, "trial": trial}


@_check(1e-10)
def _check_trace_positivity(rng):
    for d in (2, 3, 4):
        for trial in range(25):
            B = random_psd(rng, d)
            C = random_psd(rng, d)
            A = random_hermitian(rng, d)
            at = {"d": d, "trial": trial}
            yield -float(np.trace(B @ C).real), at
            yield -float(np.trace(B @ A @ B @ A).real), at


@_check(1e-10)
def _check_sqrt_psd(rng):
    for d in (2, 3, 5):
        for trial in range(20):
            A = random_psd(rng, d)
            B = sqrt_psd(A)
            at = {"d": d, "trial": trial}
            yield float(np.max(np.abs(B @ B - A))), at
            yield -float(np.linalg.eigvalsh(B)[0]), at


@_check(1e-10)
def _check_polar(rng):
    for d in (2, 3, 4):
        for trial in range(20):
            M = random_complex(rng, d)
            U, P = polar_decompose(M)
            at = {"d": d, "trial": trial}
            yield float(np.max(np.abs(U @ P - M))), at
            yield float(np.max(np.abs(U.conj().T @ U - np.eye(d)))), at


@_check(1e-10)
def _check_psi_homomorphism(rng):
    for d in (2, 3):
        basis = build_basis(d)
        for trial in range(20):
            A = random_complex(rng, d)
            B = random_complex(rng, d)
            lhs = psi_matrix(A @ B, basis)
            rhs = psi_matrix(A, basis) @ psi_matrix(B, basis)
            yield float(np.max(np.abs(lhs - rhs))), {"d": d, "trial": trial}


@_check(1e-8)
def _check_psi_unitary(rng):
    for d in (2, 3):
        basis = build_basis(d)
        eye = np.eye(d * d)
        for trial in range(20):
            U = random_unitary(rng, d)
            R = psi_matrix(U, basis)
            at = {"d": d, "trial": trial}
            yield float(np.max(np.abs(R.T @ R - eye))), at
            yield abs(np.linalg.det(R) - 1.0), at
            yield float(np.max(np.abs(R[:, 0] - eye[:, 0]))), at
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            yield float(np.max(np.abs(psi_matrix(phase * U, basis) - R))), at


@_check(1e-10)
def _check_psi_effect(rng):
    for d in (2, 3):
        basis = build_basis(d)
        for trial in range(20):
            root = sqrt_psd(random_psd(rng, d))
            R = psi_matrix(root, basis)
            at = {"d": d, "trial": trial}
            yield float(np.max(np.abs(R - R.T))), at
            yield -float(np.linalg.eigvalsh((R + R.T) / 2)[0]), at


@_check(0.5)
def _check_cone_membership(rng):
    for d in range(2, 6):
        basis = build_basis(d)
        for trial in range(50):
            v = embed(random_psd(rng, d), basis)
            yield float(not cone_contains(v)), {"d": d, "trial": trial}


@_check(1e-10)
def _check_pure_lightlike(rng):
    for d in range(2, 6):
        basis = build_basis(d)
        for trial in range(50):
            v = embed(random_pure(rng, d), basis)
            at = {"d": d, "trial": trial}
            yield abs(minkowski_product(v, v)), at
            yield abs(v[0] - 1.0), at
            yield float(not is_generalized_pure(v, basis)), at


@_check(0.5)
def _check_qubit_positivity(rng):
    basis = build_basis(2)
    for trial in range(200):
        v = rng.standard_normal(4) * 2.0
        yield float(qubit_positive(v) != is_positive(unembed(v, basis))), {"trial": trial}


@_check(1e-10)
def _check_qubit_sandwich(rng):
    basis = build_basis(2)
    for trial in range(100):
        a = embed(random_psd(rng, 2), basis)
        r = embed(random_psd(rng, 2), basis)
        A = unembed(a, basis)
        R = unembed(r, basis)
        dense = embed(A @ R @ A, basis)
        yield float(np.max(np.abs(sandwich(a, r) - dense))), {"trial": trial}


@_check(1e-9)
def _check_qubit_roots(rng):
    basis = build_basis(2)
    for trial in range(100):
        a = embed(random_psd(rng, 2), basis)
        A = unembed(a, basis)
        at = {"trial": trial}
        yield float(np.max(np.abs(square_vec(a) - embed(A @ A, basis)))), at
        yield float(np.max(np.abs(sqrt_vec(a) - embed(sqrt_psd(A), basis)))), at
        r = embed(random_psd(rng, 2), basis)
        eta_sqrt, sq_dot, sqrt_dot = cross_relations(a, r)
        yield abs(eta_sqrt - minkowski_product(sqrt_vec(a), sqrt_vec(a))), at
        yield abs(sq_dot - float(square_vec(a) @ r)), at
        yield abs(sqrt_dot - float(sqrt_vec(a) @ r)), at


@_check(1e-8)
def _check_qubit_post_products(rng):
    basis = build_basis(2)
    for trial in range(100):
        e = embed(random_psd(rng, 2), basis)
        r0 = embed(random_psd(rng, 2), basis)
        r1 = embed(random_psd(rng, 2), basis)
        root = sqrt_vec(e)
        u0 = sandwich(root, r0)
        u1 = sandwich(root, r1)
        full4, rescaled4, bloch3, rescaled3 = post_inner_products(e, r0, r1)
        heights = u0[0] * u1[0]
        at = {"trial": trial}
        yield abs(full4 - float(u0 @ u1)), at
        yield abs(bloch3 - float(u0[1:] @ u1[1:])), at
        yield abs(rescaled4 - float(u0 @ u1) / heights), at
        yield abs(rescaled3 - float(u0[1:] @ u1[1:]) / heights), at


@_check(1e-10)
def _check_measurement_statistics(rng):
    for d in (2, 3):
        basis = build_basis(d)
        for trial in range(25):
            meas = GeneralizedMeasurement(
                dim=d, kraus=random_kraus_set(rng, d, rng.integers(2, 5))
            )
            rho = random_density(rng, d)
            records = apply_all(meas, rho, basis)
            at = {"d": d, "trial": trial}
            yield abs(sum(r.probability for r in records) - 1.0), at
            for rec in records:
                yield abs(rec.unrescaled[0] - rec.probability), at


@_check(1e-6)
def _check_repair(rng):
    for _ in range(100):
        p, q = rng.uniform(0.02, 0.5, 2)
        delta = rng.uniform(0.0, 1.5)
        omega, d_min = optimal_repair(p, q, delta)
        w_num, d_num = golden_section(
            lambda w: repair_objective(p, q, delta, w), -np.pi / 2, np.pi / 2, 1e-9
        )
        at = {"p": p, "q": q, "delta": delta}
        yield abs(omega - w_num), at
        yield abs(d_min - d_num), at


@_check(1e-9)
def _check_tradeoff_match(rng):
    points = [pt for c in (0.3, 1 / np.sqrt(2.0), 0.9) for pt in sweep(c, (0.0, 0.4, 0.8, 1.0))]
    worst, (c, beta) = pipeline_residual(points)
    yield worst, {"c": c, "beta": beta}


@_check(1e-5)
def _check_stationarity(rng):
    for c, beta in ((0.5, 0.4), (0.8, 0.6)):
        report = stationarity_check(c, beta)
        at = {"c": c, "beta": beta}
        yield report.max_constrained_derivative, at
        yield report.mirror_max_residual, at


CHECKS = [
    ("basis_gram", _check_basis_gram),
    ("isometry", _check_isometry),
    ("embed_round_trip", _check_round_trip),
    ("trace_positivity", _check_trace_positivity),
    ("sqrt_psd", _check_sqrt_psd),
    ("polar_decomposition", _check_polar),
    ("psi_homomorphism", _check_psi_homomorphism),
    ("psi_unitary_rotation", _check_psi_unitary),
    ("psi_effect_symmetric_psd", _check_psi_effect),
    ("psd_inside_cone", _check_cone_membership),
    ("pure_states_lightlike", _check_pure_lightlike),
    ("qubit_positivity_closed_form", _check_qubit_positivity),
    ("qubit_sandwich_oracle", _check_qubit_sandwich),
    ("qubit_roots_oracle", _check_qubit_roots),
    ("qubit_post_products_oracle", _check_qubit_post_products),
    ("measurement_statistics", _check_measurement_statistics),
    ("repair_arcsin_vs_golden", _check_repair),
    ("tradeoff_closed_vs_pipeline", _check_tradeoff_match),
    ("stationarity", _check_stationarity),
]


def run_selftest(seed: int = 0, out=print) -> tuple[int, int]:
    """Run every check with a fixed seed; returns (passed, failed) counts.

    A failing check's line also names the input of its worst residual.
    """
    rng = np.random.default_rng(seed)
    passed = failed = 0
    for name, check in CHECKS:
        result = check(rng)
        line = f"{name:32s} residual {result.worst:.3e} (tol {result.tol:.1e})"
        if result.ok:
            passed += 1
            out(f"ok   {line}")
        else:
            failed += 1
            where = " ".join(f"{k}={v:.12g}" for k, v in result.argworst.items())
            out(f"FAIL {line} at {where}")
    out(f"{passed} passed, {failed} failed")
    return passed, failed
