"""Eigenvalue predicates and factorizations for hermitian and complex matrices.

Also the two array conventions shared by the broadcasting vector modules:
row-wise dot products over ``(..., n)`` stacks and floats out for scalars in.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "hermiticity_defect",
    "require_hermitian",
    "is_positive",
    "sqrt_psd",
    "polar_decompose",
    "dot_last",
    "entry",
    "as_floats",
]

#: Eigenvalues above this (negative) floor count as zero in PSD checks.
DEFAULT_PSD_TOL = 1e-10

#: Probabilities at or below this count as zero: the outcome has no rescaled state.
PROBABILITY_FLOOR = 1e-12

#: Largest tolerated deviation from hermiticity before input is rejected.
HERMITICITY_ATOL = 1e-9


def hermiticity_defect(A: np.ndarray) -> float:
    """Largest entrywise deviation of ``A`` (or of any matrix of a stack) from its conjugate transpose."""
    A = np.asarray(A, dtype=complex)
    return float(np.max(np.abs(A - A.conj().swapaxes(-1, -2))))


def require_hermitian(A: np.ndarray, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    """Validate that ``A`` (or every matrix of a ``(..., d, d)`` stack) is hermitian within ``atol``."""
    A = np.asarray(A, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    defect = hermiticity_defect(A)
    if defect > atol:
        raise ValueError(f"matrix is not hermitian (max defect {defect:.3e})")
    return A


def is_positive(A: np.ndarray, tol: float = DEFAULT_PSD_TOL) -> bool:
    """True iff every eigenvalue of the hermitian matrix ``A`` is >= -tol.

    A ``(..., d, d)`` stack gives a boolean array, one entry per matrix.
    """
    A = require_hermitian(A)
    positive = entry(np.linalg.eigvalsh(A), 0) >= -tol
    return positive if A.ndim > 2 else bool(positive)


def sqrt_psd(A: np.ndarray, tol: float = DEFAULT_PSD_TOL) -> np.ndarray:
    """Unique positive-semidefinite square root of a PSD matrix.

    Eigenvalues in ``[-tol, 0]`` are clamped to zero; anything below
    ``-tol`` raises.  A ``(..., d, d)`` stack is rooted matrix by matrix,
    each root equal to the single call bit for bit.
    """
    A = require_hermitian(A)
    w, V = np.linalg.eigh(A)
    if np.count_nonzero(entry(w, 0) < -tol):
        raise ValueError(
            f"matrix is not positive semidefinite (min eigenvalue {w.min():.3e})"
        )
    w = np.sqrt(np.clip(w, 0.0, None))
    return (V * w[..., None, :]) @ V.conj().swapaxes(-1, -2)


def polar_decompose(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar factors ``(U, P)`` of a square complex matrix, ``M = U @ P``.

    ``U`` is unitary and ``P = sqrt(M^dagger M)`` is PSD.  Built from the
    SVD ``M = W S Vh``: ``U = W Vh`` and ``P = Vh^dagger S Vh``, so for
    singular ``M`` the unitary factor is automatically completed on the
    kernel of ``P``.  A ``(..., d, d)`` stack is split matrix by matrix.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    W, s, Vh = np.linalg.svd(M)
    U = W @ Vh
    P = (Vh.conj().swapaxes(-1, -2) * s[..., None, :]) @ Vh
    return U, P


def dot_last(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot products over the last axis of two broadcasting ``(..., n)`` stacks.

    Each row is ``u_row @ v_row`` bit for bit (``np.vecdot`` does the same
    but needs NumPy 2); two vectors give that product as a scalar.
    """
    if u.ndim == v.ndim == 1:
        return u @ v
    return np.matmul(u[..., None, :], v[..., :, None])[..., 0, 0]


def entry(x: np.ndarray, k: int):
    """Entry ``k`` of the last axis: a NumPy scalar for a vector, an array for a stack.

    Taken through the transpose, since ``x[..., k]`` of a vector is a 0-d
    array, whose arithmetic is several times slower than a scalar's.
    """
    return x.T[k].T


def as_floats(*values) -> tuple:
    """``values`` with every 0-d entry as a Python float; arrays and ``None`` pass through."""
    return tuple(float(v) if v is not None and np.ndim(v) == 0 else v for v in values)
