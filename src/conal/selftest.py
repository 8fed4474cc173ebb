"""Seeded verification registry runnable from the command line.

Each check draws its randomness from a single generator, so a fixed seed
makes the whole run bit-reproducible.  A check draws all its samples of one
dimension as one stack, in the order a loop over trials would draw them,
and runs each kernel and each dense oracle once on the stack.  It returns
its ``(input, residual)`` array with the inputs in draw order, and
:func:`_check` reduces that to a :class:`CheckResult`: the worst residual,
the tolerance it must not exceed, and the input where it occurred.
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
    unembed,
)
from .linalg import dot_last
from .measurement import GeneralizedMeasurement
from .optimize import golden_section
from .qubit import cross_relations, post_inner_products
from .sampling import (
    gram,
    hermitian_part,
    random_complex,
    random_density,
    random_hermitian,
    random_kraus_set,
    random_psd,
    random_pure,
    random_unitary,
)
from .tradeoff import VERIFY_TOL, closed_form_table, pipeline_residual, repair_objective

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
    """Turn a function returning ``(residuals, inputs)`` into a check returning a CheckResult.

    ``inputs`` is the list of inputs, each a dict, in draw order, and
    ``residuals`` an array whose leading axis runs over them; further axes
    hold each input's residuals.  ``np.argmax`` over the flattened array
    picks the first largest residual, which names ``argworst``, and ranks a
    NaN above every number, so a NaN is reported and fails.  A negative
    worst is reported as zero, since negative residuals are margins of
    inequalities.
    """

    def decorate(residuals_of):
        @functools.wraps(residuals_of)
        def check(rng) -> CheckResult:
            residuals, inputs = residuals_of(rng)
            flat = np.asarray(residuals, dtype=float).reshape(len(inputs), -1)
            k = int(np.argmax(flat))
            worst = float(flat.flat[k])
            return CheckResult(0.0 if worst < 0.0 else worst, tol, inputs[k // flat.shape[1]])

        return check

    return decorate


def _trials(n: int) -> list[dict]:
    return [{"trial": t} for t in range(n)]


def _per_dim(dims, trials: int, residuals_at):
    """``residuals_at(d)``, ``trials`` rows each, over ``dims`` in turn, with the inputs of the rows."""
    residuals = np.concatenate([np.reshape(residuals_at(d), (trials, -1)) for d in dims])
    return residuals, [{"d": d, "trial": t} for d in dims for t in range(trials)]


def _max_abs(X: np.ndarray, axis=(-2, -1)) -> np.ndarray:
    """Largest entry magnitude of each matrix (or, with ``axis=-1``, vector) of a stack."""
    return np.max(np.abs(X), axis=axis)


def _trace(X: np.ndarray) -> np.ndarray:
    return np.trace(X, axis1=-2, axis2=-1)


@_check(1e-12)
def _check_basis_gram(rng):
    dims = range(2, 6)
    residuals = []
    for d in dims:
        basis = build_basis(d)
        gram_matrix = np.einsum("mij,nji->mn", basis, basis).real
        residuals.append(np.max(np.abs(gram_matrix - d * np.eye(d * d))))
    return residuals, [{"d": d} for d in dims]


@_check(1e-12)
def _check_isometry(rng):
    def residuals(d):
        basis = build_basis(d)
        H = random_hermitian(rng, d, (25, 2))
        A, B = H[:, 0], H[:, 1]
        lhs = _trace(A @ B).real
        rhs = dot_last(embed(A, basis), embed(B, basis)) / d
        return abs(lhs - rhs) / (1.0 + abs(lhs))

    return _per_dim(range(2, 6), 25, residuals)


@_check(1e-12)
def _check_round_trip(rng):
    def residuals(d):
        basis = build_basis(d)
        A = random_hermitian(rng, d, (25,))
        return _max_abs(unembed(embed(A, basis), basis) - A)

    return _per_dim(range(2, 6), 25, residuals)


@_check(1e-10)
def _check_trace_positivity(rng):
    def residuals(d):
        G = random_complex(rng, d, (25, 3))
        B, C, A = gram(G[:, 0]), gram(G[:, 1]), hermitian_part(G[:, 2])
        return np.stack([-_trace(B @ C).real, -_trace(B @ A @ B @ A).real], axis=-1)

    return _per_dim((2, 3, 4), 25, residuals)


@_check(1e-10)
def _check_sqrt_psd(rng):
    def residuals(d):
        A = random_psd(rng, d, (20,))
        B = sqrt_psd(A)
        return np.stack([_max_abs(B @ B - A), -np.linalg.eigvalsh(B)[:, 0]], axis=-1)

    return _per_dim((2, 3, 5), 20, residuals)


@_check(1e-10)
def _check_polar(rng):
    def residuals(d):
        M = random_complex(rng, d, (20,))
        U, P = polar_decompose(M)
        return np.stack([_max_abs(U @ P - M), _max_abs(U.conj().swapaxes(-1, -2) @ U - np.eye(d))], axis=-1)

    return _per_dim((2, 3, 4), 20, residuals)


@_check(1e-10)
def _check_psi_homomorphism(rng):
    def residuals(d):
        basis = build_basis(d)
        AB = random_complex(rng, d, (20, 2))
        A, B = AB[:, 0], AB[:, 1]
        return _max_abs(psi_matrix(A @ B, basis) - psi_matrix(A, basis) @ psi_matrix(B, basis))

    return _per_dim((2, 3), 20, residuals)


@_check(1e-8)
def _check_psi_unitary(rng):
    def residuals(d):
        basis = build_basis(d)
        eye = np.eye(d * d)
        U = np.empty((20, d, d), dtype=complex)
        phase = np.empty(20, dtype=complex)
        # Each unitary is followed by its phase in the stream, so trials draw in a loop.
        for t in range(20):
            U[t] = random_unitary(rng, d)
            phase[t] = np.exp(1j * rng.uniform(0, 2 * np.pi))
        R = psi_matrix(U, basis)
        return np.stack([
            _max_abs(R.swapaxes(-1, -2) @ R - eye),
            abs(np.linalg.det(R) - 1.0),
            _max_abs(R[:, :, 0] - eye[:, 0], axis=-1),
            _max_abs(psi_matrix(phase[:, None, None] * U, basis) - R),
        ], axis=-1)

    return _per_dim((2, 3), 20, residuals)


@_check(1e-10)
def _check_psi_effect(rng):
    def residuals(d):
        R = psi_matrix(sqrt_psd(random_psd(rng, d, (20,))), build_basis(d))
        RT = R.swapaxes(-1, -2)
        return np.stack([_max_abs(R - RT), -np.linalg.eigvalsh((R + RT) / 2)[:, 0]], axis=-1)

    return _per_dim((2, 3), 20, residuals)


@_check(0.5)
def _check_cone_membership(rng):
    def residuals(d):
        return ~cone_contains(embed(random_psd(rng, d, (50,)), build_basis(d)))

    return _per_dim(range(2, 6), 50, residuals)


@_check(1e-10)
def _check_pure_lightlike(rng):
    def residuals(d):
        basis = build_basis(d)
        v = embed(random_pure(rng, d, (50,)), basis)
        return np.stack([
            abs(minkowski_product(v, v)),
            abs(v[:, 0] - 1.0),
            ~is_generalized_pure(v, basis),
        ], axis=-1)

    return _per_dim(range(2, 6), 50, residuals)


@_check(0.5)
def _check_qubit_positivity(rng):
    v = rng.standard_normal((200, 4)) * 2.0
    return qubit_positive(v) != is_positive(unembed(v, build_basis(2))), _trials(200)


@_check(1e-10)
def _check_qubit_sandwich(rng):
    basis = build_basis(2)
    ar = embed(random_psd(rng, 2, (100, 2)), basis)
    a, r = ar[:, 0], ar[:, 1]
    A, R = unembed(a, basis), unembed(r, basis)
    return _max_abs(sandwich(a, r) - embed(A @ R @ A, basis), axis=-1), _trials(100)


@_check(1e-9)
def _check_qubit_roots(rng):
    basis = build_basis(2)
    ar = embed(random_psd(rng, 2, (100, 2)), basis)
    a, r = ar[:, 0], ar[:, 1]
    A = unembed(a, basis)
    root = sqrt_vec(a)
    square = square_vec(a)
    eta_sqrt, sq_dot, sqrt_dot = cross_relations(a, r)
    return np.stack([
        _max_abs(square - embed(A @ A, basis), axis=-1),
        _max_abs(root - embed(sqrt_psd(A), basis), axis=-1),
        abs(eta_sqrt - minkowski_product(root, root)),
        abs(sq_dot - dot_last(square, r)),
        abs(sqrt_dot - dot_last(root, r)),
    ], axis=-1), _trials(100)


@_check(1e-8)
def _check_qubit_post_products(rng):
    basis = build_basis(2)
    e, r0, r1 = np.moveaxis(embed(random_psd(rng, 2, (100, 3)), basis), 1, 0)
    root = sqrt_vec(e)
    u0 = sandwich(root, r0)
    u1 = sandwich(root, r1)
    full4, rescaled4, bloch3, rescaled3 = post_inner_products(e, r0, r1)
    dot4, dot3 = dot_last(u0, u1), dot_last(u0[:, 1:], u1[:, 1:])
    heights = u0[:, 0] * u1[:, 0]
    return np.stack([
        abs(full4 - dot4),
        abs(bloch3 - dot3),
        abs(rescaled4 - dot4 / heights),
        abs(rescaled3 - dot3 / heights),
    ], axis=-1), _trials(100)


@_check(1e-10)
def _check_measurement_statistics(rng):
    def residuals(d):
        basis = build_basis(d)
        worst = []
        # The outcome count is drawn from the stream, so trials draw in a loop;
        # a trial's row is its largest residual, since all of them share its input.
        for _ in range(25):
            meas = GeneralizedMeasurement(
                dim=d, kraus=random_kraus_set(rng, d, rng.integers(2, 5))
            )
            records = apply_all(meas, random_density(rng, d), basis)
            row = [abs(sum(rec.probability for rec in records) - 1.0)]
            row += [abs(rec.unrescaled[0] - rec.probability) for rec in records]
            worst.append(np.max(row))
        return worst

    return _per_dim((2, 3), 25, residuals)


@_check(1e-6)
def _check_repair(rng):
    samples = [(*rng.uniform(0.02, 0.5, 2), rng.uniform(0.0, 1.5)) for _ in range(100)]
    omegas, d_mins = optimal_repair(*np.array(samples).T)
    numeric = [
        golden_section(lambda w: repair_objective(p, q, delta, w), -np.pi / 2, np.pi / 2, 1e-9)
        for p, q, delta in samples
    ]
    residuals = np.abs(np.stack([omegas, d_mins], axis=-1) - np.array(numeric))
    return residuals, [{"p": p, "q": q, "delta": delta} for p, q, delta in samples]


@_check(VERIFY_TOL)
def _check_tradeoff_match(rng):
    c, beta = np.meshgrid((0.3, 1 / np.sqrt(2.0), 0.9), (0.0, 0.4, 0.8, 1.0), indexing="ij")
    worst, (c, beta) = pipeline_residual(closed_form_table(c, beta))
    return [worst], [{"c": c, "beta": beta}]


@_check(1e-5)
def _check_stationarity(rng):
    points = ((0.5, 0.4), (0.8, 0.6))
    reports = [stationarity_check(c, beta) for c, beta in points]
    residuals = [(r.max_constrained_derivative, r.mirror_max_residual) for r in reports]
    return residuals, [{"c": c, "beta": beta} for c, beta in points]


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
