"""Real-vector geometry of positive operators.

The coordinate image of the PSD matrices of dimension ``d`` is a convex
subcone of the cone of revolution

    Gamma = { v in R^{d*d} : sum_{i>=1} v_i^2 <= (d-1) v_0^2,  v_0 >= 0 },

the future light cone of the Minkowski metric ``diag(d-1, -1, ..., -1)``.
Rank-one (generalized pure) operators sit on the boundary: they are the
light-like vectors of positive height.  Membership in Gamma is necessary
for positivity and sufficient only for ``d == 2``; for larger ``d``
positivity is decided on the reconstructed matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import unembed
from .linalg import is_positive, require_hermitian

__all__ = [
    "ambient_dim",
    "minkowski_diagonal",
    "minkowski_product",
    "cone_contains",
    "is_positive_vec",
    "is_generalized_pure",
    "psi_matrix",
    "outcome_probability",
    "fixed_states",
]

#: Default tolerance for the boolean geometric predicates.
DEFAULT_GEOM_TOL = 1e-9


def ambient_dim(v: np.ndarray) -> int:
    """Hilbert-space dimension ``d`` of a coordinate vector of length ``d*d``."""
    n = len(v)
    d = math.isqrt(n)
    if d * d != n or d < 2:
        raise ValueError(f"vector length {n} is not a square of a dimension >= 2")
    return d


def minkowski_diagonal(d: int) -> np.ndarray:
    """Diagonal ``(d-1, -1, ..., -1)`` of the metric on ``R^{d*d}``."""
    eta = -np.ones(d * d)
    eta[0] = d - 1.0
    return eta


def minkowski_product(u: np.ndarray, v: np.ndarray) -> float:
    """Minkowski product ``(d-1) u_0 v_0 - sum_{i>=1} u_i v_i``."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"incompatible shapes {u.shape} and {v.shape}")
    d = ambient_dim(u)
    return float((d - 1) * u[0] * v[0] - u[1:] @ v[1:])


def cone_contains(v: np.ndarray, tol: float = DEFAULT_GEOM_TOL) -> bool:
    """Membership in the cone of revolution (necessary for positivity).

    ``tol`` is relative (``|v_1..|^2 - (d-1) v_0^2`` against ``tol`` times their
    sum, ``v_0`` against ``-tol |v|``), so ``k v`` and ``v`` agree for all ``k > 0``.
    """
    v = np.asarray(v, dtype=float)
    spatial, axial = v[1:] @ v[1:], (ambient_dim(v) - 1) * v[0] * v[0]
    return bool(v[0] >= -tol * math.sqrt(v @ v) and spatial - axial <= tol * (spatial + axial))


def is_positive_vec(
    v: np.ndarray, basis: np.ndarray, tol: float = DEFAULT_GEOM_TOL
) -> bool:
    """True iff the matrix reconstructed from ``v`` is PSD within ``tol``."""
    A = unembed(v, basis)
    return bool(np.linalg.eigvalsh(A)[0] >= -tol)


def is_generalized_pure(
    v: np.ndarray, basis: np.ndarray, tol: float = DEFAULT_GEOM_TOL
) -> bool:
    """True iff ``v`` is the image of a PSD rank-one matrix of positive trace.

    Decided on eigenvalues: PSD and largest eigenvalue equal to the trace
    within ``tol``.  Such vectors are light-like, so a true result implies
    a vanishing Minkowski norm.
    """
    v = np.asarray(v, dtype=float)
    w = np.linalg.eigvalsh(unembed(v, basis))
    trace = v[0]
    if trace <= tol or w[0] < -tol:
        return False
    return bool(abs(trace - w[-1]) <= tol * max(1.0, abs(trace)))


def psi_matrix(A: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Real matrix of the conjugation ``rho -> A rho A^dagger`` in coordinates.

    Entry ``(mu, nu)`` is ``Tr(A tau_nu A^dagger tau_mu) / d``.  The result
    is real for any complex ``A``; it is symmetric PSD when ``A`` is
    hermitian and orthogonal (fixing the height axis) when ``A`` is unitary.
    For any basis: ``T Y^T / d``, ``Y``'s rows ``vec((A tau_nu A^dagger)^T)``, ``T`` as in ``embed``.
    """
    A = np.asarray(A, dtype=complex)
    n, d = basis.shape[:2]
    if A.shape != (d, d):
        raise ValueError(f"operator has shape {A.shape}, expected ({d}, {d})")
    Y = (A @ basis @ A.conj().T).swapaxes(1, 2).reshape(n, n)
    return (basis.reshape(n, n) @ Y.T).real / d


def outcome_probability(e: np.ndarray, rho: np.ndarray) -> float:
    """Born probability ``Tr(E rho)`` from coordinates: ``(e . rho) / d``.

    ``rho`` is expected to have unit height (unit trace).
    """
    e = np.asarray(e, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if e.shape != rho.shape:
        raise ValueError(f"incompatible shapes {e.shape} and {rho.shape}")
    d = ambient_dim(e)
    return float(e @ rho) / d


def fixed_states(
    e_sqrt: np.ndarray, basis: np.ndarray, tol: float = 1e-10
) -> list[tuple[float, np.ndarray]]:
    """Eigenpairs of the conjugation matrix of a PSD operator, ascending.

    Any returned eigenvector that lies in the positive cone is (after
    rescaling to unit trace) a state left unchanged when this measurement
    element fires.
    """
    e_sqrt = require_hermitian(e_sqrt)
    if not is_positive(e_sqrt, tol):
        raise ValueError("measurement element square root must be PSD")
    M = psi_matrix(e_sqrt, basis)
    w, V = np.linalg.eigh((M + M.T) / 2)
    return [(float(w[i]), V[:, i].copy()) for i in range(len(w))]
