"""Seeded random matrices for tests, self-checks and experiments.

All generators take a ``numpy.random.Generator`` so runs are reproducible.
Those built from standard normals also take a leading ``shape``: one call
with ``shape=(n,)`` draws the same numbers, leaves the generator in the same
state and returns the same matrices, bit for bit, as ``n`` plain calls.
"""

from __future__ import annotations

import numpy as np

from .linalg import dot_last

__all__ = [
    "random_complex",
    "random_hermitian",
    "random_psd",
    "random_density",
    "random_pure",
    "random_unitary",
    "random_kraus_set",
    "hermitian_part",
    "gram",
]


def hermitian_part(G: np.ndarray) -> np.ndarray:
    """``(G + G^dagger) / 2`` of a matrix or a ``(..., d, d)`` stack."""
    return (G + G.conj().swapaxes(-1, -2)) / 2


def gram(G: np.ndarray) -> np.ndarray:
    """``G^dagger G`` of a matrix or a ``(..., d, d)`` stack."""
    return G.conj().swapaxes(-1, -2) @ G


def random_complex(rng: np.random.Generator, d: int, shape: tuple = ()) -> np.ndarray:
    """Complex matrix with independent standard-normal real and imaginary parts.

    The real part is drawn before the imaginary part, matrix by matrix.
    """
    x = rng.standard_normal((*shape, 2, d, d))
    return x[..., 0, :, :] + 1j * x[..., 1, :, :]


def random_hermitian(rng: np.random.Generator, d: int, shape: tuple = ()) -> np.ndarray:
    return hermitian_part(random_complex(rng, d, shape))


def random_psd(rng: np.random.Generator, d: int, shape: tuple = ()) -> np.ndarray:
    return gram(random_complex(rng, d, shape))


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    """Unit-trace PSD matrix."""
    B = random_psd(rng, d)
    return B / np.trace(B).real


def random_pure(rng: np.random.Generator, d: int, shape: tuple = ()) -> np.ndarray:
    """Rank-one unit-trace projector onto a random state vector."""
    x = rng.standard_normal((*shape, 2, d))
    psi = x[..., 0, :] + 1j * x[..., 1, :]
    # The sum of squares is the one ``np.linalg.norm`` forms for a single vector.
    psi /= np.sqrt(dot_last(psi.real, psi.real) + dot_last(psi.imag, psi.imag))[..., None]
    return psi[..., :, None] * psi.conj()[..., None, :]


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase fix."""
    Q, R = np.linalg.qr(random_complex(rng, d))
    phases = np.diag(R).copy()
    phases /= np.abs(phases)
    return Q * phases


def random_kraus_set(
    rng: np.random.Generator, d: int, n_outcomes: int
) -> list[np.ndarray]:
    """Random complete measurement: operators ``M_m`` with ``sum M_m^dag M_m = I``.

    Draws independent complex matrices ``G_m`` and right-normalizes by
    ``S^{-1/2}`` where ``S = sum G_m^dag G_m``.
    """
    if n_outcomes < 1:
        raise ValueError("need at least one outcome")
    Gs = random_complex(rng, d, (n_outcomes,))
    w, V = np.linalg.eigh(gram(Gs).sum(axis=0))
    S_inv_half = (V / np.sqrt(w)) @ V.conj().T
    return list(Gs @ S_inv_half)
