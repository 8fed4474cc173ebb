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
    "qr_unitary",
    "complete_kraus",
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


def qr_unitary(G: np.ndarray) -> np.ndarray:
    """Unitary QR factor of a matrix or a ``(..., d, d)`` stack, with the standard phase fix.

    The phases make ``R``'s diagonal positive, so a standard-normal complex
    ``G`` gives a Haar-distributed unitary.
    """
    Q, R = np.linalg.qr(G)
    phases = np.diagonal(R, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return Q * phases[..., None, :]


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase fix."""
    return qr_unitary(random_complex(rng, d))


def complete_kraus(G: np.ndarray) -> np.ndarray:
    """Right-normalize ``(..., n, d, d)`` operator sets to complete measurements.

    Each set ``G_m`` becomes ``G_m S^{-1/2}`` with ``S = sum_m G_m^dag G_m``,
    so that ``sum_m M_m^dag M_m = I``.  Zero operators leave ``S`` and the
    other operators unchanged bit for bit, so sets of different sizes can
    share one stack, zero-padded.
    """
    w, V = np.linalg.eigh(gram(G).sum(axis=-3))
    S_inv_half = (V / np.sqrt(w)[..., None, :]) @ V.conj().swapaxes(-1, -2)
    return G @ S_inv_half[..., None, :, :]


def random_kraus_set(
    rng: np.random.Generator, d: int, n_outcomes: int
) -> list[np.ndarray]:
    """Random complete measurement: operators ``M_m`` with ``sum M_m^dag M_m = I``.

    Draws independent complex matrices ``G_m`` and completes them with
    :func:`complete_kraus`.
    """
    if n_outcomes < 1:
        raise ValueError("need at least one outcome")
    return list(complete_kraus(random_complex(rng, d, (n_outcomes,))))
