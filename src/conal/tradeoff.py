"""Information gain versus disturbance for two equiprobable pure qubit states.

Scenario: a preparer draws a bit ``x`` uniformly and sends one of two pure
states whose coordinate vectors are ``(1, +/-c, s, 0)`` with
``s = sqrt(1 - c^2)`` the state overlap.  An eavesdropper measures with a
two-outcome POVM, applies an outcome-conditioned repair rotation, and
returns the state; the preparer verifies with the projector onto the
original state.  Information gain ``I`` is the mutual information (in bits)
between the preparation bit and the outcome; disturbance ``D`` is the
probability that the verification fails.

Two independent evaluation routes are provided.  :func:`closed_form_table`
evaluates the closed forms of the symmetric attack family
``(1, +/-beta, 0, 0)`` over whole arrays of ``(c, beta)`` in one pass,

    D = 1/2 - 1/2 sqrt(1 + (c^2 - c^4)(beta^2 - 2 + 2 sqrt(1 - beta^2)))
    I = 1/2 [(1 + beta c) log2(1 + beta c) + (1 - beta c) log2(1 - beta c)]

in forms free of cancellation, together with the per-outcome
probabilities, angles and repair offsets.  An end-to-end array pipeline
(effect square root, conjugation, exact Procrustes repair rotation) must
agree with them.  The scalar per-outcome functions accept any effect and
share their formulas with the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import PROBABILITY_FLOOR, as_floats, dot_last
from .optimize import minimize_periodic  # noqa: F401  (clibench's tracer test reads it)
from .qubit import post_inner_products, qubit_positive, sandwich, sqrt_vec

__all__ = [
    "Scenario",
    "ClosedFormTable",
    "StationarityReport",
    "make_scenario",
    "joint_probs",
    "info_contribution",
    "optimal_repair",
    "repair_objective",
    "outcome_info",
    "outcome_disturbance",
    "closed_form_table",
    "closed_form_point",
    "pipeline_point",
    "stationarity_check",
    "pipeline_residual",
]

#: Coordinate sum of a complete two-outcome attack; the effects must add to it.
ATTACK_TOTAL = np.array([2.0, 0.0, 0.0, 0.0])

#: Largest tolerated ``|I|`` or ``|D|`` gap between the closed forms and the pipeline.
VERIFY_TOL = 1e-9

_SIGNS = np.array([1.0, -1.0])


def _acos(x):
    return np.arccos(np.minimum(np.maximum(x, -1.0), 1.0))


def _xlog2x(t: np.ndarray) -> np.ndarray:
    """Elementwise ``t log2 t``, zero where ``t <= 0``."""
    return t * np.log2(t, out=np.zeros_like(t), where=t > 0.0)


def _unit_interval(x, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    bad = ~((0.0 <= x) & (x <= 1.0))
    if np.count_nonzero(bad):
        raise ValueError(f"{what} must lie in [0, 1], got {x[bad].flat[0]}")
    return x


def _pm_pairs(x, y) -> np.ndarray:
    """The coordinate vectors ``(1, +x, y, 0)`` and ``(1, -x, y, 0)``, shape ``x.shape + (2, 4)``.

    With ``y = sqrt(1 - x^2)`` they are the prepared states, with ``y = 0``
    the symmetric attack.
    """
    x = np.multiply.outer(x, _SIGNS)
    y = np.broadcast_to(np.asarray(y, dtype=float)[..., None], x.shape)
    return np.stack([np.ones_like(x), x, y, np.zeros_like(x)], -1)


@dataclass(frozen=True)
class Scenario:
    """Two equiprobable pure states parametrized by the half-separation ``c``.

    Made from an array of ``c``, every field holds one entry per value
    (``v0`` and ``v1`` along a last axis of length 4), and the per-outcome
    functions broadcast over it.
    """

    c: float | np.ndarray
    s: float | np.ndarray
    v0: np.ndarray
    v1: np.ndarray

    @property
    def theta(self) -> float | np.ndarray:
        """Bloch angle between the two prepared states, ``acos(1 - 2 c^2)``."""
        return as_floats(_acos(1.0 - 2.0 * self.c * self.c))[0]


class ClosedFormTable(NamedTuple):
    """Closed-form tradeoff of the symmetric attack at ``n`` points ``(c, beta)``.

    ``c``, ``beta``, the state angle ``theta`` and the totals ``info_bits``
    and ``disturbance`` have shape ``(n,)``.  The per-outcome fields have
    shape ``(n, 2)``, one column per outcome: the joint probabilities ``p``
    and ``q``, the information and repaired disturbance contributions, the
    angular deficit ``delta = theta - theta_m`` and the optimal bisector
    offset ``omega``.  :meth:`row` gives one point as Python values.
    """

    c: np.ndarray
    beta: np.ndarray
    theta: np.ndarray
    info_bits: np.ndarray
    disturbance: np.ndarray
    p: np.ndarray
    q: np.ndarray
    outcome_info: np.ndarray
    outcome_disturbance: np.ndarray
    delta: np.ndarray
    omega: np.ndarray

    def row(self, k: int) -> ClosedFormTable:
        """Point ``k``: floats for ``c`` .. ``disturbance``, ``[outcome 0, outcome 1]`` lists for the rest."""
        return ClosedFormTable(*(x[k].tolist() for x in self))


def make_scenario(c) -> Scenario:
    """Scenario for half-separation ``c`` in [0, 1]; overlap ``s = sqrt(1-c^2)``.

    A float gives float fields; an array of ``c`` gives a broadcasting
    scenario with one entry per value.
    """
    c = _unit_interval(c, "half-separation")
    s = np.sqrt(1.0 - c * c)
    v0, v1 = np.moveaxis(_pm_pairs(c, s), -2, 0)
    return Scenario(*as_floats(c, s), v0, v1)


def joint_probs(eps, sc: Scenario):
    """Joint probabilities ``p(x, m)`` of outcome ``m`` with effect vector ``eps``.

    With uniform priors these are ``(eps . v0) / 4`` and ``(eps . v1) / 4``.
    ``eps`` may be a ``(..., 4)`` stack; floats come out for one effect of
    a float scenario.
    """
    eps = np.asarray(eps, dtype=float)
    return as_floats(dot_last(eps, sc.v0) / 4.0, dot_last(eps, sc.v1) / 4.0)


def info_contribution(p, q):
    """Mutual-information contribution (bits) of one outcome.

    ``I_m = -(p+q) log2(p+q) + p log2(2p) + q log2(2q)`` with the usual
    ``0 log 0 = 0`` convention.  When one branch is impossible the outcome
    identifies the state: ``I_m = p`` for ``q = 0``.  Broadcasts over
    arrays; floats in give a float out.
    """
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if np.count_nonzero((p < 0.0) | (q < 0.0)):
        raise ValueError("joint probabilities must be nonnegative")
    if np.count_nonzero(p + q == 0.0):
        raise ValueError("outcome never occurs")
    return as_floats((p + q) + _xlog2x(p) + _xlog2x(q) - _xlog2x(p + q))[0]


def repair_objective(p, q, delta, omega):
    """Disturbance of one outcome at bisector offset ``omega``.

    ``delta`` is the offset of each post state from its target when the
    bisectors are aligned, i.e. half the angular deficit
    ``(theta - theta_m) / 2``.  Broadcasts over arrays; floats in give a
    float out.
    """
    return as_floats((p + q - p * np.cos(delta - omega) - q * np.cos(delta + omega)) / 2.0)[0]


def optimal_repair(p, q, delta):
    """Minimize :func:`repair_objective` over the bisector offset.

    Returns ``(omega, d_min)`` with

    ``omega = arcsin((p - q) sin(delta) / sqrt(p^2 + q^2 + 2 p q cos(2 delta)))``
    ``d_min = (p + q - sqrt(p^2 + q^2 + 2 p q cos(2 delta))) / 2``

    valid for ``delta`` in ``[0, pi/2]``.  At the degenerate point
    ``p == q, cos(2 delta) == -1`` the objective is flat and ``omega = 0``
    by continuity.  Broadcasts over arrays; floats in give floats out.
    """
    p, q, delta = (np.asarray(x, dtype=float) for x in (p, q, delta))
    total = p + q
    if np.count_nonzero((p < 0.0) | (q < 0.0) | (total <= 0.0)):
        raise ValueError("need nonnegative probabilities with positive sum")
    amp = np.sqrt(np.maximum(p * p + q * q + 2.0 * p * q * np.cos(2.0 * delta), 0.0))
    flat = amp <= 1e-15 * total
    arg = (p - q) * np.sin(delta) / np.where(flat, 1.0, amp)
    omega = np.where(flat, 0.0, np.arcsin(np.minimum(np.maximum(arg, -1.0), 1.0)))
    return as_floats(omega, np.where(flat, total, total - amp) / 2.0)


def outcome_info(eps, sc: Scenario):
    """Information contribution (bits) of the outcome with effect ``eps`` (broadcasts)."""
    return info_contribution(*joint_probs(eps, sc))


def _deficit(eps, sc: Scenario, p: np.ndarray, q: np.ndarray):
    """Angular deficit ``theta - theta_m`` of the effects ``eps`` with joint probabilities ``(p, q)``.

    Also returns where both branches survive, i.e. both heights ``4p`` and
    ``4q`` exceed the floor.  With one branch left, both post states lie on
    its ray, so ``theta_m = 0``.
    """
    both = ~(np.minimum(p, q) * 4.0 <= PROBABILITY_FLOOR)
    theta_m = np.zeros(p.shape)
    alive = (x[both] for x in np.broadcast_arrays(eps, sc.v0, sc.v1))
    theta_m[both] = _acos(post_inner_products(*alive)[3])
    return sc.theta - theta_m, both


def _repair(eps, sc: Scenario):
    """``(p, q, delta, omega, d)`` of the effects ``eps``, as arrays over the broadcast shape.

    Joint probabilities, angular deficit ``theta - theta_m``, optimal
    bisector offset and repaired disturbance.  Branches with vanishing
    probability are perfectly repairable: the repair aligns the survivor
    exactly (``omega = theta / 2``, no disturbance), and they never reach
    :func:`optimal_repair`.
    """
    p, q = (np.asarray(x) for x in joint_probs(eps, sc))
    delta, both = _deficit(eps, sc, p, q)
    omega, dist = optimal_repair(np.where(both, p, 1.0), np.where(both, q, 1.0), delta / 2.0)
    return p, q, delta, np.where(both, omega, sc.theta / 2.0), np.where(both, dist, 0.0)


def outcome_disturbance(eps, sc: Scenario):
    """Optimally repaired disturbance contribution of the effect ``eps`` (broadcasts)."""
    return as_floats(_repair(eps, sc)[4])[0]


def closed_form_table(c, beta) -> ClosedFormTable:
    """Tradeoff of the symmetric attack ``(1, +/-beta, 0, 0)`` in closed form.

    ``c`` and ``beta`` broadcast to one flat grid of points, each value in
    [0, 1].  The totals use forms without cancellation, accurate in
    relative terms down to ``beta -> 0``: with ``u = beta c``,
    ``x = c^2 (1 - c)(1 + c) beta^4 / (1 + sqrt((1 - beta)(1 + beta)))^2``
    and ``D = x / (2 (1 + sqrt(1 - x)))``; ``I`` is
    ``(log1p(-u^2) + 2 u atanh(u)) / (2 ln 2)`` below ``u = 1/2`` and the
    ``t log2 t`` form above, where ``1 - u`` is exact and ``u^2`` would
    round ``1 - u^2`` away.  The per-outcome columns are those of
    :func:`outcome_info` and :func:`outcome_disturbance` on the stack of
    both effects.
    """
    c = _unit_interval(c, "half-separation")
    beta = _unit_interval(beta, "attack strength")
    c, beta = (np.ravel(x) for x in np.broadcast_arrays(c, beta))
    sc = make_scenario(c[:, None])
    p, q, delta, omega, dist = _repair(_pm_pairs(beta, 0.0), sc)

    u = beta * c
    with np.errstate(divide="ignore", invalid="ignore"):
        small_u = (np.log1p(-u * u) + 2.0 * u * np.arctanh(u)) / (2.0 * math.log(2.0))
    info = np.where(u < 0.5, small_u, (_xlog2x(1.0 + u) + _xlog2x(1.0 - u)) / 2.0)
    b = beta * beta / (1.0 + np.sqrt((1.0 - beta) * (1.0 + beta)))
    x = c * c * (1.0 - c) * (1.0 + c) * b * b
    disturbance = x / (2.0 * (1.0 + np.sqrt(1.0 - x)))
    return ClosedFormTable(
        c, beta, sc.theta[:, 0], info, disturbance, p, q, info_contribution(p, q), dist, delta, omega
    )


def closed_form_point(c: float, beta: float) -> ClosedFormTable:
    """Tradeoff of the symmetric attack ``(1, +/-beta, 0, 0)`` in closed form.

    The one row of :func:`closed_form_table` at ``(c, beta)``.
    """
    return closed_form_table(c, beta).row(0)


def _pipeline_arrays(c: np.ndarray, beta: np.ndarray):
    """End-to-end tradeoff of the symmetric attack at the pairs ``(c[i], beta[i])``.

    Conjugates each state with each effect root and takes the joint
    probabilities ``w`` off the heights.  The repair rotation ``R(chi)``
    about z maximizes ``sum w t.R(chi)r`` over targets ``t`` and rescaled
    post vectors ``r``, skipping dead branches (height at most
    ``PROBABILITY_FLOOR``).  With in-plane vectors as complex ``x + iy`` the
    sum is ``Re(exp(i chi) m)`` with ``m = sum w conj(t) r = A - iB`` (the
    targets have no z part), so ``chi* = atan2(B, A)`` and the optimum is
    ``|m| = hypot(A, B)``.  ``omega`` is the angle from the target bisector
    to the repaired one.  Returns ``(p, q, info, disturbance, omega)``, each
    ``(n, 2)`` with one column per outcome.
    """
    sc = make_scenario(c)
    states = np.stack([sc.v0, sc.v1], -2)
    posts = sandwich(sqrt_vec(_pm_pairs(beta, 0.0))[:, :, None], states[:, None])  # [i, outcome, input]
    heights = posts[..., 0]
    joint = heights / 2.0
    p, q = joint[..., 0], joint[..., 1]
    info = (p + q) + _xlog2x(p) + _xlog2x(q) - _xlog2x(p + q)
    alive = heights > PROBABILITY_FLOOR
    r = np.where(alive, posts[..., 1] + 1j * posts[..., 2], 0.0) / np.where(alive, heights, 1.0)
    t = states[:, None, :, 1] + 1j * states[:, None, :, 2]
    m = np.sum(joint * np.conj(t) * r, axis=-1)
    repaired = np.sum(np.exp(-1j * np.angle(m))[..., None] * r, axis=-1)
    omega = np.angle(repaired * np.conj(np.sum(t, axis=-1)))
    return p, q, info, (p + q - np.abs(m)) / 2.0, omega


def pipeline_point(c: float, beta: float) -> ClosedFormTable:
    """Tradeoff of the symmetric attack computed end to end.

    Builds the effect square roots with :func:`conal.qubit.sqrt_vec`,
    conjugates the states with :func:`conal.qubit.sandwich`, reads the
    joint probabilities off the post-vector heights, and solves the repair
    rotation exactly as an in-plane Procrustes problem (no arcsin closed
    form, no search).  The angular deficits come from the post-measurement
    angle of the effect, as in :func:`outcome_disturbance`.  One row, like
    :func:`closed_form_point`, with which it must agree to high accuracy.
    """
    sc = make_scenario(c)
    c, beta = np.array([sc.c]), np.array([_unit_interval(beta, "attack strength")])
    p, q, info, dist, omega = _pipeline_arrays(c, beta)
    delta, _ = _deficit(_pm_pairs(beta, 0.0), sc, p, q)
    theta = np.array([sc.theta])
    pipe = ClosedFormTable(c, beta, theta, info.sum(-1), dist.sum(-1), p, q, info, dist, delta, omega)
    return pipe.row(0)


@dataclass(frozen=True)
class StationarityReport:
    """Finite-difference evidence that a symmetric attack is stationary."""

    c: float
    beta: float
    h: float
    grad_info: np.ndarray
    grad_disturbance: np.ndarray
    constrained_derivatives: tuple[float, ...]
    max_constrained_derivative: float
    info_gradient_along_x: bool
    mirror_max_residual: float
    mirror_ok: bool
    passes: bool


#: Index of the coordinate separating the two prepared states; the
#: per-outcome gradients flip sign there and match elsewhere.
MIRROR_FLIP_INDEX = 1


def stationarity_check(
    c: float, beta: float, h: float = 1e-5, tol: float = 1e-5
) -> StationarityReport:
    """Verify the symmetric attack is a constrained stationary point.

    Perturbs the first effect by ``+/- h`` along each coordinate (the
    second moves oppositely to keep the pair complete), forms central
    differences of total information and disturbance, projects the
    disturbance gradient onto the constant-information subspace, and
    checks the directional derivatives vanish within ``tol``.  Also checks
    the mirror symmetry of the per-outcome gradients: equal components
    everywhere except a sign flip on the state-separating axis.

    Steps that would push either effect out of the positive cone are
    rejected and retried with a smaller ``h``.  All gradients come from one
    :func:`outcome_info` and one :func:`outcome_disturbance` call on the
    stack of every probe.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("stationarity is checked at interior attack strengths")
    sc = make_scenario(c)
    eps0, eps1 = _pm_pairs(beta, 0.0)

    step = h
    for _ in range(60):
        steps = step * np.eye(4)
        around0 = np.concatenate([eps0 + steps, eps0 - steps])
        if np.all(qubit_positive(around0)) and np.all(qubit_positive(ATTACK_TOTAL - around0)):
            break
        step /= 2.0
    else:
        raise ValueError("could not find a perturbation step inside the cone")

    # Rows: the first effect at eps0 +/- step, the second (its complement)
    # there, and the first at eps1 +/- step; each block is (+, -) by coordinate.
    probes = np.concatenate([around0, ATTACK_TOTAL - around0, eps1 + steps, eps1 - steps])
    info, dist = (f(probes, sc).reshape(3, 2, 4) for f in (outcome_info, outcome_disturbance))

    def central(values: np.ndarray) -> np.ndarray:
        return (values[0] - values[1]) / (2.0 * step)

    grad_info = central(info[0] + info[1])
    grad_dist = central(dist[0] + dist[1])

    info_dir = grad_info / np.linalg.norm(grad_info)
    # Orthonormal basis of the constant-information subspace.
    _, _, vh = np.linalg.svd(info_dir[None, :])
    null_basis = vh[1:]
    derivs = tuple(float(grad_dist @ n) for n in null_basis)
    max_deriv = max(abs(x) for x in derivs)

    off_axis = np.delete(np.abs(info_dir), MIRROR_FLIP_INDEX)
    info_along_x = bool(np.max(off_axis) <= 1e-6)

    mirror_residual = 0.0
    for values in (info, dist):
        expected = central(values[2])
        expected[MIRROR_FLIP_INDEX] *= -1.0
        mirror_residual = max(mirror_residual, float(np.max(np.abs(central(values[0]) - expected))))
    mirror_ok = mirror_residual <= 1e-6

    return StationarityReport(
        c=c,
        beta=beta,
        h=step,
        grad_info=grad_info,
        grad_disturbance=grad_dist,
        constrained_derivatives=derivs,
        max_constrained_derivative=max_deriv,
        info_gradient_along_x=info_along_x,
        mirror_max_residual=mirror_residual,
        mirror_ok=mirror_ok,
        passes=max_deriv <= tol and mirror_ok,
    )


def pipeline_residual(table: ClosedFormTable) -> tuple[float, tuple[float, float] | None]:
    """Worst disagreement of a closed-form table with the end-to-end pipeline.

    Recomputes every row in one pass of the pipeline behind
    :func:`pipeline_point` and returns the largest ``|I|`` or ``|D|``
    difference and the first ``(c, beta)`` where it occurs; a NaN counts
    as the worst.
    """
    if not len(table.c):
        return 0.0, None
    _, _, pipe_info, pipe_dist, _ = _pipeline_arrays(table.c, table.beta)
    residual = np.maximum(
        np.abs(pipe_info.sum(-1) - table.info_bits),
        np.abs(pipe_dist.sum(-1) - table.disturbance),
    )
    k = int(np.argmax(residual))
    return float(residual[k]), (float(table.c[k]), float(table.beta[k]))
