"""Hilbert-Schmidt orthogonal hermitian bases and the real coordinate embedding.

A basis for dimension ``d`` consists of the identity followed by ``d**2 - 1``
traceless hermitian matrices ``tau_mu`` normalized so that
``Tr(tau_mu tau_nu) = d * delta_mu_nu``.  Any hermitian ``A`` then has real
coordinates ``Tr(A tau_mu)``, and the trace inner product becomes ``1/d``
times the Euclidean dot product of the coordinate vectors.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["build_basis", "embed", "unembed", "hs_inner"]


def build_basis(d: int) -> np.ndarray:
    """Build the orthogonal hermitian basis for dimension ``d``.

    Index 0 is the identity.  For ``d == 2`` the remaining matrices are
    exactly the Pauli matrices X, Y, Z; for larger ``d`` they are the
    generalized Gell-Mann matrices (symmetric, antisymmetric and diagonal
    families) rescaled by ``sqrt(d/2)`` so the Gram matrix is ``d`` times
    the identity.

    Parameters
    ----------
    d : int
        Hilbert-space dimension, at least 2.

    Returns
    -------
    numpy.ndarray
        Read-only complex array of shape ``(d*d, d, d)``, cached per ``d``.
    """
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    return _gell_mann(d)


@functools.lru_cache(maxsize=8)
def _gell_mann(d: int) -> np.ndarray:
    mats = [np.eye(d, dtype=complex)]
    scale = np.sqrt(d / 2.0)
    for k in range(1, d):
        for j in range(k):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            mats.append(scale * sym)
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k] = -1.0j
            asym[k, j] = 1.0j
            mats.append(scale * asym)
        w = np.zeros(d, dtype=complex)
        w[:k] = 1.0
        w[k] = -k
        mats.append(scale * np.sqrt(2.0 / (k * (k + 1))) * np.diag(w))
    basis = np.stack(mats)
    basis.flags.writeable = False
    return basis


def embed(A: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Real coordinates ``(Tr(A tau_mu))_mu`` of a hermitian matrix or a stack.

    Shape ``(..., d, d)`` gives ``(..., d*d)``, each matrix one product ``vec(A^T) @ T^T``
    with the flattened basis ``T``, so a stack's rows equal single results bit for bit.
    Imaginary parts of the traces (rounding noise for hermitian input) are discarded.
    """
    A = np.asarray(A, dtype=complex)
    n, d = basis.shape[:2]
    if A.shape[-2:] != (d, d):
        raise ValueError(f"matrix has shape {A.shape}, expected (..., {d}, {d})")
    rows = A.swapaxes(-1, -2).reshape(*A.shape[:-2], 1, n)
    return (rows @ basis.reshape(n, n).T)[..., 0, :].real


def unembed(v: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Hermitian matrix ``(1/d) * sum_mu v_mu tau_mu`` from its coordinates."""
    v = np.asarray(v, dtype=float)
    d = basis.shape[1]
    if v.shape != (d * d,):
        raise ValueError(f"coordinate vector has length {v.shape}, expected {d * d}")
    return np.tensordot(v, basis, axes=([0], [0])) / d


def hs_inner(A: np.ndarray, B: np.ndarray) -> float:
    """Trace inner product ``Tr(A B)`` of two hermitian matrices."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"incompatible shapes {A.shape} and {B.shape}")
    return float(np.trace(A @ B).real)
