"""Derivative-free minimization helpers.

:func:`golden_section` also runs many independent searches over one bracket
as a single stacked search, one objective call per step for all of them.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import as_floats

__all__ = ["golden_section", "minimize_periodic"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


def golden_section(f, a: float, b: float, tol: float = 1e-8):
    """Golden-section search for the minimum of a unimodal ``f`` on ``[a, b]``.

    Returns ``(x, f(x))`` at the midpoint of the final bracket, whose width
    is at most ``tol``.  An ``f`` that broadcasts, returning an array of
    values for one abscissa, runs one search per entry: every search starts
    from the same bracket and takes the same number of steps, so they step
    together, one call of ``f`` on an array of abscissae per step.  ``x``
    and ``f(x)`` are then arrays whose entries equal the searches run one
    at a time bit for bit.  A scalar ``f`` gives floats.
    """
    a, b = min(a, b), max(a, b)
    h = b - a
    if h <= tol:
        x = (a + b) / 2
        return x, f(x)
    n = int(math.ceil(math.log(tol / h) / math.log(_INV_PHI)))
    c = a + _INV_PHI_SQ * h
    d = a + _INV_PHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(n - 1):
        h *= _INV_PHI
        # Keep [a, d] and probe a new c where yc < yd, else keep [c, b] and probe a new d.
        left = yc < yd
        a, b, c, d = (
            np.where(left, a, c),
            np.where(left, d, b),
            np.where(left, a + _INV_PHI_SQ * h, d),
            np.where(left, c, c + _INV_PHI * h),
        )
        y = f(np.where(left, c, d))
        yc, yd = np.where(left, y, yd), np.where(left, yc, y)
    x = as_floats(np.where(yc < yd, (a + d) / 2, (c + b) / 2))[0]
    return x, as_floats(f(x))[0]


def minimize_periodic(
    f, period: float = 2.0 * math.pi, samples: int = 64, tol: float = 1e-8
) -> tuple[float, float]:
    """Global minimum of a periodic scalar function.

    Coarse grid scan over one period to bracket the minimum, then
    golden-section refinement inside the bracketing cell.
    """
    step = period / samples
    xs = [k * step for k in range(samples)]
    ys = [f(x) for x in xs]
    k = min(range(samples), key=ys.__getitem__)
    return golden_section(f, xs[k] - step, xs[k] + step, tol)
