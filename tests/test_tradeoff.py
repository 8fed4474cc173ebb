import math

import numpy as np
import pytest

from conal.basis import embed, unembed
from conal.linalg import sqrt_psd
from conal.optimize import golden_section
from conal.qubit import minkowski4, qubit_positive
from conal.sampling import random_psd
from conal.tradeoff import (
    ATTACK_TOTAL,
    closed_form_point,
    info_contribution,
    joint_probs,
    make_scenario,
    optimal_repair,
    outcome_disturbance,
    pipeline_point,
    post_angle,
    repair_objective,
    stationarity_check,
    sweep,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def exact_repair_disturbance(eps, sc, tau):
    """Oracle: optimal repaired disturbance over the full rotation group.

    Rotations act on Bloch 3-vectors; the best alignment of the weighted
    post states with their targets is an orthogonal Procrustes problem
    whose optimum is the sum of the top singular values.  The coupling
    matrix has rank at most two, so the special-orthogonal restriction is
    free.
    """
    E = unembed(np.asarray(eps, dtype=float), tau)
    root = sqrt_psd(E)
    M = np.zeros((3, 3))
    total = 0.0
    for weight_vec, prior in ((sc.v0, 0.5), (sc.v1, 0.5)):
        state = unembed(weight_vec, tau)
        post = embed(root @ state @ root, tau)
        joint = prior * post[0]
        total += joint
        if post[0] > 1e-14:
            M += joint * np.outer(post[1:] / post[0], weight_vec[1:])
    sv = np.linalg.svd(M, compute_uv=False)
    return (total - sv[0] - sv[1]) / 2.0


def test_make_scenario_examples():
    sc = make_scenario(0.0)
    assert np.allclose(sc.v0, [1, 0, 1, 0]) and np.allclose(sc.v1, [1, 0, 1, 0])
    sc = make_scenario(1.0)
    assert np.allclose(sc.v0, [1, 1, 0, 0]) and np.allclose(sc.v1, [1, -1, 0, 0])
    sc = make_scenario(INV_SQRT2)
    theta = post_angle(np.array([2.0, 0, 0, 0]), sc).theta
    assert theta == pytest.approx(math.pi / 2, abs=1e-12)


def test_scenario_invariants(rng):
    for c in rng.uniform(0.0, 1.0, 50):
        sc = make_scenario(float(c))
        assert abs(minkowski4(sc.v0, sc.v0)) < 1e-12
        assert abs(minkowski4(sc.v1, sc.v1)) < 1e-12
        assert float(sc.v0 @ sc.v1) == pytest.approx(2 * sc.s**2, abs=1e-12)


def test_make_scenario_rejects_bad_c():
    with pytest.raises(ValueError):
        make_scenario(-0.1)
    with pytest.raises(ValueError):
        make_scenario(1.5)


def test_joint_probs_examples():
    sc = make_scenario(1.0)
    p, q = joint_probs(np.array([2.0, 0, 0, 0]), sc)
    assert (p, q) == (pytest.approx(0.5), pytest.approx(0.5))
    p, q = joint_probs(np.array([1.0, 1.0, 0, 0]), sc)
    assert (p, q) == (pytest.approx(0.5), pytest.approx(0.0, abs=1e-15))
    sc = make_scenario(0.6)
    for beta in (0.2, 0.7):
        p, q = joint_probs(np.array([1.0, beta, 0, 0]), sc)
        assert p == pytest.approx((1 + beta * 0.6) / 4, abs=1e-14)
        assert q == pytest.approx((1 - beta * 0.6) / 4, abs=1e-14)


def test_info_contribution_examples():
    assert info_contribution(0.5, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert info_contribution(0.5, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert info_contribution(0.0, 0.3) == pytest.approx(0.3, abs=1e-15)
    with pytest.raises(ValueError):
        info_contribution(-0.1, 0.2)
    with pytest.raises(ValueError):
        info_contribution(0.0, 0.0)


def test_info_sums_to_closed_form():
    c = INV_SQRT2
    p = (1 + c) / 4
    q = (1 - c) / 4
    total = 2 * info_contribution(p, q)
    assert total == pytest.approx(closed_form_point(c, 1.0).info_bits, abs=1e-12)


def test_post_angle_examples():
    sc = make_scenario(0.6)
    pure = np.array([1.0, 1.0, 0.0, 0.0])
    angles = post_angle(pure, sc)
    assert angles.theta_m == pytest.approx(0.0, abs=1e-7)
    assert angles.delta_m == pytest.approx(angles.theta, abs=1e-7)
    full = np.array([2.0, 0, 0, 0])
    angles = post_angle(full, sc)
    assert angles.theta_m == pytest.approx(angles.theta, abs=1e-12)
    assert angles.delta_m == pytest.approx(0.0, abs=1e-12)


def test_post_angle_against_dense_pipeline(rng, bases):
    tau = bases[2]
    for _ in range(200):
        c = float(rng.uniform(0.05, 0.95))
        beta = float(rng.uniform(0.0, 0.95))
        sc = make_scenario(c)
        eps = np.array([1.0, beta, 0.0, 0.0])
        angles = post_angle(eps, sc)
        root = sqrt_psd(unembed(eps, tau))
        blochs = []
        for v in (sc.v0, sc.v1):
            post = embed(root @ unembed(v, tau) @ root, tau)
            blochs.append(post[1:] / post[0])
        cos_num = float(blochs[0] @ blochs[1]) / (
            np.linalg.norm(blochs[0]) * np.linalg.norm(blochs[1])
        )
        assert math.cos(angles.theta_m) == pytest.approx(cos_num, abs=1e-10)


def test_post_angle_zero_probability():
    sc = make_scenario(1.0)
    with pytest.raises(ValueError):
        post_angle(np.array([1.0, 1.0, 0.0, 0.0]), sc)


def test_optimal_repair_symmetric():
    omega, _ = optimal_repair(0.3, 0.3, 0.7)
    assert omega == pytest.approx(0.0, abs=1e-15)


def test_optimal_repair_single_branch():
    for delta in (0.0, 0.3, 1.2):
        omega, dist = optimal_repair(0.4, 0.0, delta)
        assert dist == pytest.approx(0.0, abs=1e-15)
        assert omega == pytest.approx(delta, abs=1e-12)


def test_optimal_repair_degenerate_flat():
    omega, dist = optimal_repair(0.25, 0.25, math.pi / 2)
    assert omega == 0.0
    assert dist == pytest.approx(0.25, abs=1e-12)


def test_optimal_repair_consistent_with_closed_form_at_full_strength():
    # At full attack strength the post states collapse, the deficit is the
    # whole initial angle, and twice the per-outcome disturbance must match
    # the closed-form total.
    for c in (0.3, INV_SQRT2, 0.9):
        sc = make_scenario(c)
        p = (1 + c) / 4
        q = (1 - c) / 4
        theta = post_angle(np.array([2.0, 0, 0, 0]), sc).theta
        _, d_m = optimal_repair(p, q, theta / 2.0)
        assert 2 * d_m == pytest.approx(closed_form_point(c, 1.0).disturbance, abs=1e-12)


def test_optimal_repair_matches_golden_section(rng):
    for _ in range(500):
        p, q = rng.uniform(0.02, 0.5, 2)
        delta = float(rng.uniform(0.0, 1.5))
        omega, dist = optimal_repair(p, q, delta)
        w_num, d_num = golden_section(
            lambda w: repair_objective(p, q, delta, w), -math.pi / 2, math.pi / 2, 1e-9
        )
        assert abs(omega - w_num) < 1e-6
        assert dist == pytest.approx(d_num, abs=1e-12)


def test_optimal_repair_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        optimal_repair(-0.1, 0.2, 0.3)
    with pytest.raises(ValueError):
        optimal_repair(0.0, 0.0, 0.3)


def test_closed_form_endpoints():
    for c in (0.37, 0.5):
        pt = closed_form_point(c, 0.0)
        assert pt.info_bits == pytest.approx(0.0, abs=1e-15)
        assert pt.disturbance == pytest.approx(0.0, abs=1e-15)
    pt = closed_form_point(1.0, 1.0)
    assert pt.info_bits == pytest.approx(1.0, abs=1e-12)
    assert pt.disturbance == pytest.approx(0.0, abs=1e-12)


def test_closed_form_spot_values():
    # Frozen values computed from the closed forms and confirmed by the
    # end-to-end pipeline: D = 1/2 - sqrt(3)/4 exactly at this point.
    pt = closed_form_point(INV_SQRT2, 1.0)
    assert pt.disturbance == pytest.approx(0.5 - math.sqrt(3.0) / 4.0, abs=1e-15)
    assert pt.disturbance == pytest.approx(0.0669873, abs=1e-6)
    assert pt.info_bits == pytest.approx(0.3991240, abs=1e-5)


def test_closed_form_outcome_bookkeeping(rng):
    for _ in range(50):
        c = float(rng.uniform(0.05, 0.95))
        beta = float(rng.uniform(0.0, 1.0))
        pt = closed_form_point(c, beta)
        assert all(o.p >= 0.0 and o.q >= 0.0 for o in pt.outcomes)
        total = sum(o.p + o.q for o in pt.outcomes)
        assert total == pytest.approx(1.0, abs=1e-10)
        assert sum(o.info_bits for o in pt.outcomes) == pytest.approx(
            pt.info_bits, abs=1e-10
        )
        assert sum(o.disturbance for o in pt.outcomes) == pytest.approx(
            pt.disturbance, abs=1e-10
        )
        assert 0.0 <= pt.disturbance <= 0.5
        assert 0.0 <= pt.info_bits <= 1.0


def test_closed_form_rejects_out_of_range():
    with pytest.raises(ValueError):
        closed_form_point(1.2, 0.5)
    with pytest.raises(ValueError):
        closed_form_point(0.5, -0.2)


def test_pipeline_matches_closed_form_grid():
    betas = np.linspace(0.0, 1.0, 11)
    for c in (0.1, 0.3, 0.5, INV_SQRT2, 0.9, 0.99):
        for beta in betas:
            cf = closed_form_point(c, float(beta))
            pp = pipeline_point(c, float(beta))
            assert abs(cf.info_bits - pp.info_bits) < 1e-9
            assert abs(cf.disturbance - pp.disturbance) < 1e-9


def test_pipeline_matches_at_degenerate_separations():
    for c in (0.0, 1.0):
        for beta in (0.0, 0.3, 0.7, 1.0):
            cf = closed_form_point(c, beta)
            pp = pipeline_point(c, beta)
            assert abs(cf.info_bits - pp.info_bits) < 1e-9
            assert abs(cf.disturbance - pp.disturbance) < 1e-9


def test_pipeline_matches_near_boundary_strengths():
    for beta in (1e-12, 1.0 - 1e-12):
        cf = closed_form_point(0.5, beta)
        pp = pipeline_point(0.5, beta)
        assert abs(cf.info_bits - pp.info_bits) < 1e-9
        assert abs(cf.disturbance - pp.disturbance) < 1e-9


def test_pipeline_full_strength_branch():
    pt = pipeline_point(0.7, 1.0)
    for o in pt.outcomes:
        assert o.angles.theta_m == pytest.approx(0.0, abs=1e-6)
    total = sum(o.p + o.q for o in pt.outcomes)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_pipeline_omega_magnitude_matches_formula(rng):
    for _ in range(50):
        c = float(rng.uniform(0.1, 0.9))
        beta = float(rng.uniform(0.1, 0.9))
        pp = pipeline_point(c, beta)
        for o in pp.outcomes:
            expected, _ = optimal_repair(o.p, o.q, o.angles.delta_m / 2.0)
            assert abs(abs(o.angles.omega_m) - abs(expected)) < 1e-6


def test_outcome_disturbance_matches_exact_rotation_oracle(rng, bases):
    # The analytic per-outcome disturbance agrees with the Procrustes
    # optimum over all rotations, including effects off the symmetric family.
    tau = bases[2]
    for _ in range(300):
        c = float(rng.uniform(0.05, 0.95))
        sc = make_scenario(c)
        eps = embed(random_psd(rng, 2), tau)
        eps /= eps[0] * rng.uniform(1.0, 2.0)
        if not qubit_positive(eps):
            continue
        p, q = joint_probs(eps, sc)
        if min(p, q) < 1e-6:
            continue
        assert outcome_disturbance(eps, sc) == pytest.approx(
            exact_repair_disturbance(eps, sc, tau), abs=1e-10
        )


def test_out_of_plane_rotation_never_improves(rng, bases):
    # Coarse scan over tilted rotation axes: no rotation outside the state
    # plane beats the in-plane optimum by more than numerical noise.
    tau = bases[2]
    axis_angles = np.linspace(0.0, math.pi, 13)
    spins = np.linspace(-math.pi, math.pi, 25)
    for _ in range(50):
        c = float(rng.uniform(0.1, 0.9))
        beta = float(rng.uniform(0.1, 1.0))
        sc = make_scenario(c)
        eps = np.array([1.0, beta, 0.0, 0.0])
        root = sqrt_psd(unembed(eps, tau))
        posts = []
        for v, prior in ((sc.v0, 0.5), (sc.v1, 0.5)):
            u = embed(root @ unembed(v, tau) @ root, tau)
            posts.append((prior * u[0], u[1:] / u[0], v[1:]))
        best_analytic = outcome_disturbance(eps, sc)
        total = sum(w for w, _, _ in posts)
        for tilt in axis_angles:
            axis = np.array([math.sin(tilt), 0.0, math.cos(tilt)])
            for spin in spins:
                K = np.array(
                    [
                        [0, -axis[2], axis[1]],
                        [axis[2], 0, -axis[0]],
                        [-axis[1], axis[0], 0],
                    ]
                )
                R = (
                    np.eye(3)
                    + math.sin(spin) * K
                    + (1 - math.cos(spin)) * (K @ K)
                )
                fooled = sum(w * float(t @ (R @ r)) for w, r, t in posts)
                scanned = (total - fooled) / 2.0
                assert scanned >= best_analytic - 1e-8


@pytest.mark.parametrize(
    "c,beta",
    [(c, b) for c in (0.3, 0.5, INV_SQRT2, 0.9) for b in (0.2, 0.4, 0.5, 0.6, 0.8)],
)
def test_stationarity_on_interior_grid(c, beta):
    report = stationarity_check(c, beta, h=1e-5)
    assert report.max_constrained_derivative <= 1e-5
    assert report.mirror_ok
    assert report.info_gradient_along_x
    assert report.passes


def test_stationarity_rejects_boundary():
    with pytest.raises(ValueError):
        stationarity_check(0.5, 0.0)
    with pytest.raises(ValueError):
        stationarity_check(0.5, 1.0)


def test_stationarity_constraint_kills_x_direction():
    # The constant-information constraint admits no perturbation along the
    # state-separating axis: the information gradient points along it.
    report = stationarity_check(0.6, 0.5)
    direction = report.grad_info / np.linalg.norm(report.grad_info)
    assert abs(direction[1]) == pytest.approx(1.0, abs=1e-6)


def test_attack_total_shared_between_outcomes():
    eps0 = np.array([1.0, 0.4, 0.0, 0.0])
    eps1 = ATTACK_TOTAL - eps0
    assert qubit_positive(eps0) and qubit_positive(eps1)
    assert np.allclose(eps0 + eps1, [2, 0, 0, 0])


def test_sweep_structure_and_monotonicity():
    betas = np.linspace(0.0, 1.0, 11)
    points = sweep(INV_SQRT2, betas)
    assert len(points) == 11
    assert points[0].info_bits == pytest.approx(0.0, abs=1e-15)
    assert points[0].disturbance == pytest.approx(0.0, abs=1e-15)
    assert points[-1].info_bits == pytest.approx(0.3991240, abs=1e-5)
    assert points[-1].disturbance == pytest.approx(0.0669873, abs=1e-6)
    infos = [pt.info_bits for pt in points]
    assert all(b >= a - 1e-12 for a, b in zip(infos, infos[1:]))


def test_sweep_degenerate_separations():
    for pt in sweep(0.0, np.linspace(0, 1, 6)):
        assert pt.info_bits == pytest.approx(0.0, abs=1e-12)
    for pt in sweep(1.0, np.linspace(0, 1, 6)):
        assert pt.disturbance == pytest.approx(0.0, abs=1e-12)


def test_sweep_verify_mode():
    points = sweep(0.5, np.linspace(0.0, 1.0, 5), verify=True)
    assert len(points) == 5
    with pytest.raises(ValueError, match=r"worst residual \S+ at c=0\.5 beta=\S+$"):
        sweep(0.5, np.linspace(0.0, 1.0, 5), verify=True, verify_tol=1e-30)
