"""Information gain versus disturbance for two equiprobable pure qubit states.

Scenario: a preparer draws a bit ``x`` uniformly and sends one of two pure
states whose coordinate vectors are ``(1, +/-c, s, 0)`` with
``s = sqrt(1 - c^2)`` the state overlap.  An eavesdropper measures with a
two-outcome POVM, applies an outcome-conditioned repair rotation, and
returns the state; the preparer verifies with the projector onto the
original state.  Information gain ``I`` is the mutual information (in bits)
between the preparation bit and the outcome; disturbance ``D`` is the
probability that the verification fails.

Two independent evaluation routes are provided: closed forms for the
symmetric attack family ``(1, +/-beta, 0, 0)``,

    D = 1/2 - 1/2 sqrt(1 + (c^2 - c^4)(beta^2 - 2 + 2 sqrt(1 - beta^2)))
    I = 1/2 [(1 + beta c) log2(1 + beta c) + (1 - beta c) log2(1 - beta c)]

and an end-to-end pipeline (effect square root, conjugation, numeric
minimization over the repair rotation) that must agree with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import PROBABILITY_FLOOR
from .optimize import minimize_periodic
from .qubit import post_inner_products, qubit_positive, sandwich, sqrt_vec

__all__ = [
    "Scenario",
    "AngleSet",
    "OutcomeTradeoff",
    "TradeoffPoint",
    "StationarityReport",
    "make_scenario",
    "joint_probs",
    "info_contribution",
    "post_angle",
    "optimal_repair",
    "repair_objective",
    "outcome_info",
    "outcome_disturbance",
    "closed_form_point",
    "pipeline_point",
    "stationarity_check",
    "pipeline_residual",
    "sweep",
]

#: Coordinate sum of a complete two-outcome attack; the effects must add to it.
ATTACK_TOTAL = np.array([2.0, 0.0, 0.0, 0.0])


@dataclass(frozen=True)
class Scenario:
    """Two equiprobable pure states parametrized by the half-separation ``c``."""

    c: float
    s: float
    v0: np.ndarray
    v1: np.ndarray

    @property
    def theta(self) -> float:
        """Bloch angle between the two prepared states, ``acos(1 - 2 c^2)``."""
        return math.acos(min(1.0, max(-1.0, 1.0 - 2.0 * self.c * self.c)))


@dataclass(frozen=True)
class AngleSet:
    """Bloch angles of one outcome.

    ``theta`` separates the prepared states, ``theta_m`` the post-measurement
    states; ``delta_m = theta - theta_m`` is the angular deficit closed by
    the repair, and ``omega_m`` the optimal bisector offset.
    """

    theta: float
    theta_m: float
    delta_m: float
    omega_m: float = 0.0


@dataclass(frozen=True)
class OutcomeTradeoff:
    """Per-outcome joint probabilities and tradeoff contributions."""

    p: float
    q: float
    info_bits: float
    disturbance: float
    angles: AngleSet


@dataclass(frozen=True)
class TradeoffPoint:
    c: float
    beta: float
    info_bits: float
    disturbance: float
    outcomes: tuple[OutcomeTradeoff, ...]


def make_scenario(c: float) -> Scenario:
    """Scenario for half-separation ``c`` in [0, 1]; overlap ``s = sqrt(1-c^2)``."""
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"half-separation must lie in [0, 1], got {c}")
    s = math.sqrt(1.0 - c * c)
    return Scenario(
        c=c,
        s=s,
        v0=np.array([1.0, c, s, 0.0]),
        v1=np.array([1.0, -c, s, 0.0]),
    )


def joint_probs(eps, sc: Scenario) -> tuple[float, float]:
    """Joint probabilities ``p(x, m)`` of outcome ``m`` with effect vector ``eps``.

    With uniform priors these are ``(eps . v0) / 4`` and ``(eps . v1) / 4``.
    """
    eps = np.asarray(eps, dtype=float)
    return float(eps @ sc.v0) / 4.0, float(eps @ sc.v1) / 4.0


def _xlog2x(t: float) -> float:
    return t * math.log2(t) if t > 0.0 else 0.0


def info_contribution(p: float, q: float) -> float:
    """Mutual-information contribution (bits) of one outcome.

    ``I_m = -(p+q) log2(p+q) + p log2(2p) + q log2(2q)`` with the usual
    ``0 log 0 = 0`` convention.  When one branch is impossible the outcome
    identifies the state: ``I_m = p`` for ``q = 0``.
    """
    if p < 0.0 or q < 0.0:
        raise ValueError("joint probabilities must be nonnegative")
    if p + q == 0.0:
        raise ValueError("outcome never occurs")
    return (p + q) + _xlog2x(p) + _xlog2x(q) - _xlog2x(p + q)


def post_angle(eps, sc: Scenario) -> AngleSet:
    """Bloch angles before and after the outcome with effect vector ``eps``.

    ``cos(theta_m) = 1 - eta(eps, eps) eta(v0, v1) / ((eps.v0)(eps.v1))`` is
    the rescaled 3-dot of :func:`conal.qubit.post_inner_products`; pure
    effects collapse both states onto one ray (``theta_m = 0``), the
    identity leaves the angle untouched.  Raises on a zero-probability branch.
    """
    cos_tm = post_inner_products(eps, sc.v0, sc.v1)[3]
    theta, theta_m = sc.theta, math.acos(min(1.0, max(-1.0, cos_tm)))
    return AngleSet(theta=theta, theta_m=theta_m, delta_m=theta - theta_m)


def repair_objective(p: float, q: float, delta: float, omega: float) -> float:
    """Disturbance of one outcome at bisector offset ``omega``.

    ``delta`` is the offset of each post state from its target when the
    bisectors are aligned, i.e. half the angular deficit
    ``(theta - theta_m) / 2``.
    """
    return (p + q - p * math.cos(delta - omega) - q * math.cos(delta + omega)) / 2.0


def optimal_repair(p: float, q: float, delta: float) -> tuple[float, float]:
    """Minimize :func:`repair_objective` over the bisector offset.

    Returns ``(omega, d_min)`` with

    ``omega = arcsin((p - q) sin(delta) / sqrt(p^2 + q^2 + 2 p q cos(2 delta)))``
    ``d_min = (p + q - sqrt(p^2 + q^2 + 2 p q cos(2 delta))) / 2``

    valid for ``delta`` in ``[0, pi/2]``.  At the degenerate point
    ``p == q, cos(2 delta) == -1`` the objective is flat and ``omega = 0``
    by continuity.
    """
    if p < 0.0 or q < 0.0 or p + q <= 0.0:
        raise ValueError("need nonnegative probabilities with positive sum")
    amp_sq = p * p + q * q + 2.0 * p * q * math.cos(2.0 * delta)
    amp = math.sqrt(max(amp_sq, 0.0))
    if amp <= 1e-15 * (p + q):
        return 0.0, (p + q) / 2.0
    arg = (p - q) * math.sin(delta) / amp
    omega = math.asin(min(1.0, max(-1.0, arg)))
    return omega, (p + q - amp) / 2.0


def outcome_info(eps, sc: Scenario) -> float:
    """Information contribution (bits) of the outcome with effect ``eps``."""
    p, q = joint_probs(eps, sc)
    return info_contribution(p, q)


def _outcome_angles(eps, sc: Scenario, p: float, q: float) -> tuple[AngleSet, bool]:
    """Bloch angles of the outcome with joint probabilities ``(p, q)``, and whether both occur.

    With one branch left, both post states lie on its ray (``theta_m = 0``)
    and the exact repair puts the bisector offset at ``theta / 2``.
    """
    if min(p, q) * 4.0 <= PROBABILITY_FLOOR:
        theta = sc.theta
        return AngleSet(theta, 0.0, theta, theta / 2.0), False
    return post_angle(eps, sc), True


def _analytic_repair(eps, sc: Scenario, p: float, q: float) -> tuple[AngleSet, float]:
    """Angles with the arcsin-optimal offset, and the repaired disturbance."""
    angles, both = _outcome_angles(eps, sc, p, q)
    if not both:
        return angles, 0.0
    omega, dist = optimal_repair(p, q, angles.delta_m / 2.0)
    return replace(angles, omega_m=omega), dist


def outcome_disturbance(eps, sc: Scenario) -> float:
    """Optimally repaired disturbance contribution of the effect ``eps``.

    Branches with vanishing probability are perfectly repairable, so the
    degenerate cases reduce to aligning the surviving state exactly.
    """
    return _analytic_repair(eps, sc, *joint_probs(eps, sc))[1]


def _outcome_detail(eps, sc: Scenario) -> OutcomeTradeoff:
    p, q = joint_probs(eps, sc)
    info = info_contribution(p, q)
    angles, dist = _analytic_repair(eps, sc, p, q)
    return OutcomeTradeoff(p=p, q=q, info_bits=info, disturbance=dist, angles=angles)


def _symmetric_attack(beta: float) -> tuple[np.ndarray, np.ndarray]:
    return np.array([1.0, beta, 0.0, 0.0]), np.array([1.0, -beta, 0.0, 0.0])


def _check_beta(beta: float) -> None:
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"attack strength must lie in [0, 1], got {beta}")


def closed_form_point(c: float, beta: float) -> TradeoffPoint:
    """Tradeoff of the symmetric attack ``(1, +/-beta, 0, 0)`` in closed form."""
    sc = make_scenario(c)
    _check_beta(beta)
    radicand = 1.0 + (c**2 - c**4) * (beta**2 - 2.0 + 2.0 * math.sqrt(1.0 - beta**2))
    disturbance = 0.5 - 0.5 * math.sqrt(max(radicand, 0.0))
    u = beta * c
    info = 0.5 * (_xlog2x(1.0 + u) + _xlog2x(1.0 - u))
    outcomes = tuple(_outcome_detail(eps, sc) for eps in _symmetric_attack(beta))
    return TradeoffPoint(
        c=c, beta=beta, info_bits=info, disturbance=disturbance, outcomes=outcomes
    )


def _rotate_xy(w: np.ndarray, chi: float) -> np.ndarray:
    """Rotate the (x, y) block of a Bloch 3-vector by ``chi`` about z."""
    cos_c, sin_c = math.cos(chi), math.sin(chi)
    return np.array(
        [cos_c * w[0] - sin_c * w[1], sin_c * w[0] + cos_c * w[1], w[2]]
    )


def _signed_xy_angle(u: np.ndarray, w: np.ndarray) -> float:
    """Signed angle from ``u`` to ``w`` in the (x, y) plane."""
    return math.atan2(u[0] * w[1] - u[1] * w[0], float(u[:2] @ w[:2]))


def _numeric_repair(
    p: float, q: float, sc: Scenario, u0: np.ndarray, u1: np.ndarray
) -> tuple[float, float]:
    """Minimize the outcome disturbance over in-plane repair rotations.

    ``u0`` and ``u1`` are the unrescaled post vectors of the two inputs.
    Returns ``(omega, d_min)`` where ``omega`` is the realized bisector
    offset of the repaired pair.  The minimization is a coarse scan plus
    golden-section refinement, independent of the closed forms.
    """
    terms = []
    if u0[0] > PROBABILITY_FLOOR:
        terms.append((p, sc.v0[1:], u0[1:] / u0[0]))
    if u1[0] > PROBABILITY_FLOOR:
        terms.append((q, sc.v1[1:], u1[1:] / u1[0]))
    if not terms:
        return 0.0, 0.0

    def objective(chi: float) -> float:
        fooled = sum(w * float(t @ _rotate_xy(r, chi)) for w, t, r in terms)
        return (p + q - fooled) / 2.0

    chi_star, d_min = minimize_periodic(objective, samples=64, tol=1e-8)
    target_bisector = sc.v0[1:] + sc.v1[1:]
    repaired_bisector = sum(_rotate_xy(r, chi_star) for _, _, r in terms)
    omega = _signed_xy_angle(target_bisector, repaired_bisector)
    return omega, d_min


def pipeline_point(c: float, beta: float) -> TradeoffPoint:
    """Tradeoff of the symmetric attack computed end to end.

    Builds the effect square roots with :func:`conal.qubit.sqrt_vec`,
    conjugates the states with :func:`conal.qubit.sandwich`, reads the
    joint probabilities off the post-vector heights, and optimizes the
    repair rotation numerically.  Must agree with
    :func:`closed_form_point` to high accuracy.
    """
    sc = make_scenario(c)
    _check_beta(beta)
    outcomes = []
    for eps in _symmetric_attack(beta):
        root = sqrt_vec(eps)
        u0 = sandwich(root, sc.v0)
        u1 = sandwich(root, sc.v1)
        p, q = u0[0] / 2.0, u1[0] / 2.0
        info = info_contribution(p, q)
        angles, _ = _outcome_angles(eps, sc, p, q)
        omega, dist = _numeric_repair(p, q, sc, u0, u1)
        outcomes.append(
            OutcomeTradeoff(
                p=p,
                q=q,
                info_bits=info,
                disturbance=dist,
                angles=replace(angles, omega_m=omega),
            )
        )
    return TradeoffPoint(
        c=c,
        beta=beta,
        info_bits=sum(o.info_bits for o in outcomes),
        disturbance=sum(o.disturbance for o in outcomes),
        outcomes=tuple(outcomes),
    )


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


def _in_cone_pair(eps0: np.ndarray) -> bool:
    return qubit_positive(eps0) and qubit_positive(ATTACK_TOTAL - eps0)


def _central_gradient(f, x: np.ndarray, h: float) -> np.ndarray:
    g = np.zeros(len(x))
    for mu in range(len(x)):
        step = np.zeros(len(x))
        step[mu] = h
        g[mu] = (f(x + step) - f(x - step)) / (2.0 * h)
    return g


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
    rejected and retried with a smaller ``h``.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("stationarity is checked at interior attack strengths")
    sc = make_scenario(c)
    eps0, eps1 = _symmetric_attack(beta)

    step = h
    for _ in range(60):
        probes = [eps0 + s * np.eye(4)[mu] for mu in range(4) for s in (step, -step)]
        if all(_in_cone_pair(e) for e in probes):
            break
        step /= 2.0
    else:
        raise ValueError("could not find a perturbation step inside the cone")

    def total_info(e0: np.ndarray) -> float:
        return outcome_info(e0, sc) + outcome_info(ATTACK_TOTAL - e0, sc)

    def total_disturbance(e0: np.ndarray) -> float:
        return outcome_disturbance(e0, sc) + outcome_disturbance(ATTACK_TOTAL - e0, sc)

    grad_info = _central_gradient(total_info, eps0, step)
    grad_dist = _central_gradient(total_disturbance, eps0, step)

    info_dir = grad_info / np.linalg.norm(grad_info)
    # Orthonormal basis of the constant-information subspace.
    _, _, vh = np.linalg.svd(info_dir[None, :])
    null_basis = vh[1:]
    derivs = tuple(float(grad_dist @ n) for n in null_basis)
    max_deriv = max(abs(x) for x in derivs)

    off_axis = np.delete(np.abs(info_dir), MIRROR_FLIP_INDEX)
    info_along_x = bool(np.max(off_axis) <= 1e-6)

    mirror_residual = 0.0
    for func in (outcome_info, outcome_disturbance):
        g0 = _central_gradient(lambda e: func(e, sc), eps0, step)
        g1 = _central_gradient(lambda e: func(e, sc), eps1, step)
        expected = g1.copy()
        expected[MIRROR_FLIP_INDEX] *= -1.0
        mirror_residual = max(mirror_residual, float(np.max(np.abs(g0 - expected))))
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


def pipeline_residual(points) -> tuple[float, tuple[float, float] | None]:
    """Worst disagreement of closed-form points with the end-to-end pipeline.

    Recomputes every point with :func:`pipeline_point` and returns the
    largest ``|I|`` or ``|D|`` difference and the first ``(c, beta)`` where
    it occurs.
    """

    def residual(pt: TradeoffPoint) -> float:
        pipe = pipeline_point(pt.c, pt.beta)
        return max(abs(pipe.info_bits - pt.info_bits), abs(pipe.disturbance - pt.disturbance))

    pairs = ((residual(pt), (pt.c, pt.beta)) for pt in points)
    return max(pairs, key=lambda pair: pair[0], default=(0.0, None))


def sweep(
    c: float, betas, verify: bool = False, verify_tol: float = 1e-9
) -> list[TradeoffPoint]:
    """Closed-form tradeoff points over a grid of attack strengths.

    With ``verify=True`` every point is recomputed through the end-to-end
    pipeline and a disagreement beyond ``verify_tol`` raises, naming the
    worst ``(c, beta)``.
    """
    points = [closed_form_point(c, float(b)) for b in betas]
    if verify:
        worst, where = pipeline_residual(points)
        if worst > verify_tol:
            raise ValueError(
                f"closed form and pipeline disagree: worst residual {worst:.3e} "
                f"at c={where[0]:.12g} beta={where[1]:.12g}"
            )
    return points
