"""Reference values the benchmark checks CLI output against.

Everything here is written independently of ``conal``: the tradeoff formulas
are evaluated in mpmath at 30 digits, and the coordinate basis is rebuilt
from its documented convention (identity, then for each k the symmetric and
antisymmetric pairs (j, k), j < k, then the k-th diagonal matrix, all scaled
so that Tr(tau_mu tau_nu) = d delta_mu_nu).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

MP_DIGITS = 30


def basis(d: int) -> np.ndarray:
    """Generalized Gell-Mann basis, shape ``(d*d, d, d)``, in the CLI's order."""
    scale = math.sqrt(d / 2.0)
    mats = [np.eye(d, dtype=complex)]
    for k in range(1, d):
        for j in range(k):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = scale
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k], asym[k, j] = -1j * scale, 1j * scale
            mats += [sym, asym]
        diag = np.zeros(d)
        diag[:k], diag[k] = 1.0, -k
        mats.append(np.diag(scale * math.sqrt(2.0 / (k * (k + 1))) * diag).astype(complex))
    return np.stack(mats)


def embed(X: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Coordinates ``Re Tr(X tau_mu)`` of a hermitian matrix."""
    return np.einsum("ij,mji->m", X, tau).real


def _xlog2x(t):
    return t * mpmath.log(t, 2) if t > 0 else mpmath.mpf(0)


def tradeoff_reference(c: float, betas: np.ndarray) -> dict[str, np.ndarray]:
    """I (bits), D and the per-outcome joint probabilities of the symmetric attack.

    D = 1/2 - 1/2 sqrt(1 + (c^2 - c^4)(beta^2 - 2 + 2 sqrt(1 - beta^2)))
    I = 1/2 [(1 + beta c) log2(1 + beta c) + (1 - beta c) log2(1 - beta c)]
    p0 = q1 = (1 + beta c) / 4,  q0 = p1 = (1 - beta c) / 4
    """
    out = {k: np.empty(len(betas)) for k in ("I", "D", "plus", "minus")}
    with mpmath.workdps(MP_DIGITS):
        cm = mpmath.mpf(float(c))
        for i, b in enumerate(betas):
            bm = mpmath.mpf(float(b))
            u = bm * cm
            radicand = 1 + (cm**2 - cm**4) * (bm**2 - 2 + 2 * mpmath.sqrt(1 - bm**2))
            out["D"][i] = float(mpmath.mpf(1) / 2 - mpmath.sqrt(radicand) / 2)
            out["I"][i] = float((_xlog2x(1 + u) + _xlog2x(1 - u)) / 2)
            out["plus"][i] = float((1 + u) / 4)
            out["minus"][i] = float((1 - u) / 4)
    return out
