"""Eigenvalue predicates and factorizations for hermitian and complex matrices."""

from __future__ import annotations

import numpy as np

__all__ = [
    "hermiticity_defect",
    "require_hermitian",
    "is_positive",
    "sqrt_psd",
    "polar_decompose",
]

#: Eigenvalues above this (negative) floor count as zero in PSD checks.
DEFAULT_PSD_TOL = 1e-10

#: Probabilities at or below this count as zero: the outcome has no rescaled state.
PROBABILITY_FLOOR = 1e-12

#: Largest tolerated deviation from hermiticity before input is rejected.
HERMITICITY_ATOL = 1e-9


def hermiticity_defect(A: np.ndarray) -> float:
    """Largest entrywise deviation of ``A`` from its conjugate transpose."""
    A = np.asarray(A, dtype=complex)
    return float(np.max(np.abs(A - A.conj().T)))


def require_hermitian(A: np.ndarray, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    """Validate that ``A`` is square and hermitian within ``atol``."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    defect = hermiticity_defect(A)
    if defect > atol:
        raise ValueError(f"matrix is not hermitian (max defect {defect:.3e})")
    return A


def is_positive(A: np.ndarray, tol: float = DEFAULT_PSD_TOL) -> bool:
    """True iff every eigenvalue of the hermitian matrix ``A`` is >= -tol."""
    A = require_hermitian(A)
    return bool(np.linalg.eigvalsh(A)[0] >= -tol)


def sqrt_psd(A: np.ndarray, tol: float = DEFAULT_PSD_TOL) -> np.ndarray:
    """Unique positive-semidefinite square root of a PSD matrix.

    Eigenvalues in ``[-tol, 0]`` are clamped to zero; anything below
    ``-tol`` raises.
    """
    A = require_hermitian(A)
    w, V = np.linalg.eigh(A)
    if w[0] < -tol:
        raise ValueError(
            f"matrix is not positive semidefinite (min eigenvalue {w[0]:.3e})"
        )
    w = np.sqrt(np.clip(w, 0.0, None))
    return (V * w) @ V.conj().T


def polar_decompose(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar factors ``(U, P)`` of a square complex matrix, ``M = U @ P``.

    ``U`` is unitary and ``P = sqrt(M^dagger M)`` is PSD.  Built from the
    SVD ``M = W S Vh``: ``U = W Vh`` and ``P = Vh^dagger S Vh``, so for
    singular ``M`` the unitary factor is automatically completed on the
    kernel of ``P``.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    W, s, Vh = np.linalg.svd(M)
    U = W @ Vh
    P = (Vh.conj().T * s) @ Vh
    return U, P
