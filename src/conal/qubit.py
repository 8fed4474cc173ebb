"""Closed-form qubit geometry on coordinate 4-vectors.

Every function here works purely on the Pauli coordinates
``a = (Tr A, Tr AX, Tr AY, Tr AZ)`` of a 2x2 hermitian matrix ``A`` and
never touches complex matrices.  The Minkowski form
``eta(a, b) = a_0 b_0 - a_1 b_1 - a_2 b_2 - a_3 b_3`` does most of the
work: positivity is ``eta(a, a) >= 0`` with nonnegative height, pure
states are light-like, and conjugation, squaring, square roots and
post-measurement inner products all reduce to a few dot products.
"""

from __future__ import annotations

import numpy as np

from .cone import DEFAULT_GEOM_TOL, cone_contains
from .linalg import PROBABILITY_FLOOR, as_floats, dot_last, entry

__all__ = [
    "minkowski4",
    "qubit_positive",
    "sandwich",
    "square_vec",
    "sqrt_vec",
    "cross_relations",
    "post_inner_products",
    "post_norms",
    "IDENTITY_VEC",
]

#: Coordinates of the 2x2 identity.
IDENTITY_VEC = np.array([2.0, 0.0, 0.0, 0.0])

#: Metric signs (1, -1, -1, -1) as an array, for componentwise use.
_ETA_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


def _as4(v, name: str = "vector", stacked: bool = False) -> np.ndarray:
    """``v`` as a float 4-vector, or with ``stacked`` as a ``(..., 4)`` stack of them."""
    v = np.asarray(v, dtype=float)
    if (v.ndim < 1 or v.shape[-1] != 4) if stacked else v.shape != (4,):
        raise ValueError(f"{name} must have exactly 4 components, got shape {v.shape}")
    return v


def _eta(u: np.ndarray, v: np.ndarray):
    """Minkowski product over the last axis of already-checked ``(..., 4)`` arrays.

    Components are taken from the transposes: on 4-vectors that is plain
    scalar indexing, several times faster than ``u[..., k]``.
    """
    u, v = u.T, v.T
    return (u[0] * v[0] - u[1] * v[1] - u[2] * v[2] - u[3] * v[3]).T


def minkowski4(u, v) -> float:
    """Minkowski product of two qubit coordinate vectors."""
    return float(_eta(_as4(u), _as4(v)))


def qubit_positive(v, tol: float = DEFAULT_GEOM_TOL) -> bool:
    """Closed-form positivity: ``eta(v, v) >= 0`` and ``v_0 >= 0``, within relative ``tol``.

    Equivalent to both eigenvalues ``(v_0 +/- |v vec|) / 2`` being
    nonnegative: at ``d = 2`` the cone of revolution is the PSD cone, so this
    is :func:`~conal.cone.cone_contains` on 4-vectors, with its scale-relative
    ``tol``.  A ``(..., 4)`` stack gives a boolean array.
    """
    return cone_contains(_as4(v, stacked=True), tol)


def sandwich(a, rho) -> np.ndarray:
    """Coordinates of ``A rho A`` from the coordinates of ``A`` and ``rho``.

    Valid for any hermitian ``A``; in measurement use ``a`` is the square
    root of an effect and the result is the unrescaled post-measurement
    state, whose height is the outcome probability.  ``a`` and ``rho`` may
    be broadcasting ``(..., 4)`` stacks.
    """
    a = _as4(a, "a", stacked=True)
    rho = _as4(rho, "rho", stacked=True)
    # A (1 x 4)(4 x 1) product per row sums exactly like ``a @ rho`` on 4-vectors.
    dot = (a[..., None, :] @ rho[..., :, None])[..., 0]
    norm = _eta(a, a)[..., None]
    return 0.5 * dot * a - 0.25 * norm * (_ETA_SIGNS * rho)


def square_vec(a) -> np.ndarray:
    """Coordinates of ``A**2``: ``a_0 a - (1/4) eta(a, a) * identity``, row by row on a ``(..., 4)`` stack."""
    a = _as4(a, "a", stacked=True)
    return a[..., :1] * a - (0.25 * _eta(a, a))[..., None] * IDENTITY_VEC


def _sqrt_parts(a, tol: float):
    """``sqrt(eta(a, a))`` and ``r = sqrt(a_0 + sqrt(eta(a, a)))`` of each nonzero PSD row."""
    height, norm = entry(a, 0), _eta(a, a)
    if np.count_nonzero((height < -tol) | (norm < -tol)):
        raise ValueError("vector is not the image of a PSD matrix")
    root = np.sqrt(np.maximum(norm, 0.0))
    r_sq = height + root
    if np.count_nonzero(r_sq <= tol):
        raise ValueError("square root undefined for the zero vector")
    return root, np.sqrt(r_sq)


def sqrt_vec(a, tol: float = DEFAULT_GEOM_TOL) -> np.ndarray:
    """Coordinates of the PSD square root of a PSD ``A``.

    ``sqrt(A) = (a + sqrt(eta(a, a)) * identity / 2) / r`` with
    ``r = sqrt(a_0 + sqrt(eta(a, a)))``.  ``a`` may be a ``(..., 4)`` stack,
    rooted row by row.  Raises on the zero vector.
    """
    a = _as4(a, "a", stacked=True)
    root, r = _sqrt_parts(a, tol)
    return (a + (0.5 * root)[..., None] * IDENTITY_VEC) / r[..., None]


def cross_relations(a, rho) -> tuple[float, float, float]:
    """Scalar identities linking ``A``, ``A**2`` and ``sqrt(A)`` to ``rho``.

    Returns ``(eta(sqrt a, sqrt a), a_squared . rho, sqrt_a . rho)``:

    * ``eta(sqrt A, sqrt A) = 2 sqrt(eta(A, A))``
    * ``A^2 . rho = A_0 (A . rho) - rho_0 eta(A, A) / 2``
    * ``sqrt(A) . rho = (A . rho + rho_0 sqrt(eta(A, A))) / r``

    ``a`` and ``rho`` may be broadcasting ``(..., 4)`` stacks, which give arrays.
    """
    a = _as4(a, "a", stacked=True)
    rho = _as4(rho, "rho", stacked=True)
    root, r = _sqrt_parts(a, DEFAULT_GEOM_TOL)
    dot = dot_last(a, rho)
    eta_sqrt = 2.0 * root
    sq_dot = entry(a, 0) * dot - 0.5 * entry(rho, 0) * _eta(a, a)
    sqrt_dot = (dot + entry(rho, 0) * root) / r
    return as_floats(eta_sqrt, sq_dot, sqrt_dot)


def post_inner_products(e, r0, r1, rescaled: bool = True):
    """Inner products of the two post-measurement states of effect ``e``.

    ``e`` is the coordinate vector of the effect (not of its square root);
    ``r0`` and ``r1`` are the incoming states.  Writing ``rho_m^x`` for the
    unrescaled state of input ``x`` after the outcome, returns

    * ``full4``:     4-dot of the unrescaled states,
      ``[2 (e.r0)(e.r1) - eta(e,e) eta(r0,r1)] / 4``
    * ``rescaled4``: 4-dot of the rescaled states,
      ``2 - eta(e,e) eta(r0,r1) / ((e.r0)(e.r1))``
    * ``bloch3``:    3-dot of the unrescaled restricted vectors,
      ``[(e.r0)(e.r1) - eta(e,e) eta(r0,r1)] / 4``
    * ``rescaled3``: 3-dot of the rescaled restricted vectors,
      ``1 - eta(e,e) eta(r0,r1) / ((e.r0)(e.r1))``

    A vanishing outcome probability leaves the rescaled quantities
    undefined: by default that raises; with ``rescaled=False`` the
    unrescaled products are still returned and the rescaled slots are
    ``None``.  The arguments may be broadcasting ``(..., 4)`` stacks, which
    give arrays; single 4-vectors give floats.  A stack raises if any row
    has a vanishing probability.
    """
    e = _as4(e, "e", stacked=True)
    r0 = _as4(r0, "r0", stacked=True)
    r1 = _as4(r1, "r1", stacked=True)
    d0 = dot_last(e, r0)
    d1 = dot_last(e, r1)
    cross = _eta(e, e) * _eta(r0, r1)
    full4 = 0.25 * (2.0 * d0 * d1 - cross)
    bloch3 = 0.25 * (d0 * d1 - cross)
    if np.count_nonzero((d0 <= PROBABILITY_FLOOR) | (d1 <= PROBABILITY_FLOOR)):
        if rescaled:
            raise ValueError("zero outcome probability: rescaled products undefined")
        return as_floats(full4, None, bloch3, None)
    rescaled4 = 2.0 - cross / (d0 * d1)
    rescaled3 = 1.0 - cross / (d0 * d1)
    return as_floats(full4, rescaled4, bloch3, rescaled3)


def post_norms(e, rho, rescaled: bool = True):
    """Squared norms of the post-measurement state of ``rho`` under ``e``.

    The ``r0 == r1`` specialization of :func:`post_inner_products`:
    ``(n4, n4p, n3, n3p)`` are the squared 4-norm and 3-norm of the
    unrescaled (plain) and rescaled (primed) post states.  ``n3p == 1``
    exactly when the effect or the state is generalized pure.
    """
    return post_inner_products(e, rho, rho, rescaled=rescaled)
