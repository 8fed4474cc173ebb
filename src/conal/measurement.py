"""Generalized measurements: validation, polar splitting, and per-outcome action.

A measurement is a finite set of complex operators ``M_m`` with
``sum_m M_m^dagger M_m = I``; the effects ``E_m = M_m^dagger M_m`` form the
associated POVM.  Each outcome acts by conjugation: the unrescaled
post-measurement state ``M_m rho M_m^dagger`` has trace (coordinate height)
equal to the outcome probability, and polar-splitting ``M_m = U_m sqrt(E_m)``
separates a pure distortion from a repair rotation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import build_basis, embed
from .linalg import DEFAULT_PSD_TOL, PROBABILITY_FLOOR, polar_decompose, sqrt_psd

__all__ = [
    "GeneralizedMeasurement",
    "Povm",
    "OutcomeRecord",
    "ValidationReport",
    "effects_of",
    "validate",
    "split",
    "apply_outcome",
    "apply_all",
    "PROBABILITY_FLOOR",
]

#: Default entrywise tolerance on ``sum_m M_m^dagger M_m = I``.
COMPLETENESS_TOL = 1e-9


def _operator_tuple(ops, d: int, what: str) -> tuple[np.ndarray, ...]:
    arrs = tuple(np.asarray(op, dtype=complex) for op in ops)
    if not arrs:
        raise ValueError(f"{what} needs at least one element")
    for op in arrs:
        if op.shape != (d, d):
            raise ValueError(f"{what} element has shape {op.shape}, expected ({d}, {d})")
    return arrs


@dataclass(frozen=True)
class GeneralizedMeasurement:
    """Ordered collection of measurement operators ``M_m``."""

    dim: int
    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "kraus", _operator_tuple(self.kraus, self.dim, "kraus")
        )


@dataclass(frozen=True)
class Povm:
    """Ordered collection of PSD effects ``E_m`` summing to the identity."""

    dim: int
    effects: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "effects", _operator_tuple(self.effects, self.dim, "effects")
        )


def effects_of(meas) -> list[np.ndarray]:
    """POVM effects of a measurement: ``M_m^dagger M_m`` or the effects themselves."""
    return list(_effect_stack(meas))


def _effect_stack(meas) -> np.ndarray:
    # One batched ``M^dagger M``; its rows equal single products bit for bit.
    if isinstance(meas, Povm):
        return np.stack(meas.effects)
    K = np.stack(meas.kraus)
    return K.conj().swapaxes(-1, -2) @ K


@dataclass(frozen=True)
class OutcomeRecord:
    """One measurement outcome: probability plus post-measurement vectors.

    ``unrescaled`` has height equal to ``probability``; ``rescaled`` is the
    unit-height state, or ``None`` when the probability is at the floor.
    """

    index: int
    probability: float
    unrescaled: np.ndarray
    rescaled: np.ndarray | None

    @property
    def rescaled_defined(self) -> bool:
        return self.rescaled is not None


@dataclass(frozen=True)
class ValidationReport:
    completeness_residual: float
    min_effect_eigenvalues: tuple[float, ...]
    conal_sum: np.ndarray
    passes: bool
    failures: tuple[str, ...] = field(default_factory=tuple)


def validate(
    meas,
    completeness_tol: float = COMPLETENESS_TOL,
    psd_tol: float = DEFAULT_PSD_TOL,
    basis: np.ndarray | None = None,
) -> ValidationReport:
    """Check completeness and effect positivity; never raises on failure.

    The report carries the entrywise completeness residual, the minimum
    eigenvalue of every effect, and the coordinate sum of the effects
    (which must be ``(d, 0, ..., 0)`` for a complete measurement).
    """
    d = meas.dim
    if basis is None:
        basis = build_basis(d)
    effects = _effect_stack(meas)
    total = sum(effects)
    residual = float(np.max(np.abs(total - np.eye(d))))
    hermitian = (effects + effects.conj().swapaxes(-1, -2)) / 2
    min_eigs = tuple(np.linalg.eigvalsh(hermitian)[:, 0].tolist())
    conal_sum = embed(hermitian, basis).sum(axis=0)
    failures = []
    if residual > completeness_tol:
        failures.append(f"completeness residual {residual:.3e} > {completeness_tol:.1e}")
    for m, w in enumerate(min_eigs):
        if w < -psd_tol:
            failures.append(f"effect {m} has negative eigenvalue {w:.3e}")
    return ValidationReport(
        completeness_residual=residual,
        min_effect_eigenvalues=min_eigs,
        conal_sum=conal_sum,
        passes=not failures,
        failures=tuple(failures),
    )


def split(meas: GeneralizedMeasurement) -> list[tuple[np.ndarray, np.ndarray]]:
    """Polar factors ``(U_m, sqrt(E_m))`` of every measurement operator."""
    return [polar_decompose(M) for M in meas.kraus]


def apply_outcome(
    M: np.ndarray, rho: np.ndarray, basis: np.ndarray, index: int = 0
) -> OutcomeRecord:
    """Apply one measurement operator to a unit-trace state.

    Probability is ``Tr(M^dagger M rho)``; the unrescaled vector is the
    embedding of ``M rho M^dagger``.
    """
    M = np.asarray(M, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    post = M @ rho @ M.conj().T
    unrescaled = embed(post, basis)
    probability = float(np.trace(post).real)
    rescaled = unrescaled / probability if probability > PROBABILITY_FLOOR else None
    return OutcomeRecord(
        index=index,
        probability=probability,
        unrescaled=unrescaled,
        rescaled=rescaled,
    )


def apply_all(meas, rho: np.ndarray, basis: np.ndarray | None = None) -> list[OutcomeRecord]:
    """Apply every outcome of a valid measurement to a unit-trace state.

    For a :class:`Povm` the canonical operators ``sqrt(E_m)`` are used.
    Raises if validation fails.
    """
    if basis is None:
        basis = build_basis(meas.dim)
    report = validate(meas, basis=basis)
    if not report.passes:
        raise ValueError("invalid measurement: " + "; ".join(report.failures))
    return _apply_valid(meas, rho, basis)


def _apply_valid(meas, rho: np.ndarray, basis: np.ndarray) -> list[OutcomeRecord]:
    """:func:`apply_all` for a measurement the caller has already validated.

    All outcomes in one stacked ``M rho M^dagger``, ``embed`` and trace; every
    record equals :func:`apply_outcome` of its operator bit for bit.
    """
    if isinstance(meas, Povm):
        operators = sqrt_psd(_effect_stack(meas))
    else:
        operators = np.stack(meas.kraus)
    posts = operators @ np.asarray(rho, dtype=complex) @ operators.conj().swapaxes(-1, -2)
    probabilities = np.trace(posts, axis1=-2, axis2=-1).real.tolist()
    return [
        OutcomeRecord(
            index=m,
            probability=p,
            unrescaled=u,
            rescaled=u / p if p > PROBABILITY_FLOOR else None,
        )
        for m, (p, u) in enumerate(zip(probabilities, embed(posts, basis)))
    ]
