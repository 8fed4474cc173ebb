import math
import re

import numpy as np
import pytest

from conal import tradeoff
from conal.basis import embed, unembed
from conal.linalg import PROBABILITY_FLOOR, sqrt_psd
from conal.optimize import golden_section
from conal.qubit import minkowski4, post_inner_products, qubit_positive
from conal.sampling import random_psd
from conal.tradeoff import (
    ATTACK_TOTAL,
    VERIFY_TOL,
    ClosedFormTable,
    closed_form_point,
    closed_form_table,
    info_contribution,
    joint_probs,
    make_scenario,
    optimal_repair,
    outcome_disturbance,
    outcome_info,
    pipeline_point,
    pipeline_residual,
    repair_objective,
    stationarity_check,
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
    assert make_scenario(INV_SQRT2).theta == pytest.approx(math.pi / 2, abs=1e-12)


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
    # Pure effects (beta = 1) collapse both states onto one ray, theta_m = 0;
    # half the identity (beta = 0) leaves the angle untouched.
    table = closed_form_table(0.6, [1.0, 0.0])
    theta = table.theta[0]
    assert table.delta[0] == pytest.approx([theta, theta], abs=1e-7)
    assert table.delta[1] == pytest.approx([0.0, 0.0], abs=1e-12)


def test_post_angle_against_dense_pipeline(rng, bases):
    # theta_m = theta - delta of both outcomes against the angle between the
    # dense post-measurement Bloch vectors.
    tau = bases[2]
    cases = rng.uniform([0.05, 0.0], [0.95, 0.95], (200, 2))
    table = closed_form_table(*cases.T)
    for (c, beta), theta, deltas in zip(cases, table.theta, table.delta):
        sc = make_scenario(float(c))
        for m, sign in enumerate((1.0, -1.0)):
            root = sqrt_psd(unembed(np.array([1.0, sign * beta, 0.0, 0.0]), tau))
            blochs = []
            for v in (sc.v0, sc.v1):
                post = embed(root @ unembed(v, tau) @ root, tau)
                blochs.append(post[1:] / post[0])
            cos_num = float(blochs[0] @ blochs[1]) / (
                np.linalg.norm(blochs[0]) * np.linalg.norm(blochs[1])
            )
            assert math.cos(theta - deltas[m]) == pytest.approx(cos_num, abs=1e-10)


def test_post_angle_zero_probability():
    # At c = 1 a pure effect annihilates one state: the post products have no
    # angle to give, and the table takes theta_m = 0 with nothing to repair.
    sc = make_scenario(1.0)
    with pytest.raises(ValueError):
        post_inner_products(np.array([1.0, 1.0, 0.0, 0.0]), sc.v0, sc.v1)
    pt = closed_form_point(1.0, 1.0)
    assert pt.delta == [pt.theta, pt.theta]
    assert pt.omega == [pt.theta / 2.0, pt.theta / 2.0]
    assert pt.outcome_disturbance == [0.0, 0.0]


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
        _, d_m = optimal_repair(p, q, sc.theta / 2.0)
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


def test_outcome_disturbances_sum_to_the_total_in_relative_terms():
    # d_min = 2pq sin^2(delta) / (p + q + amp) has no cancellation at small
    # beta; (p + q - amp) / 2 summed to 7.7% off at c = 0.1, beta = 1e-3 and
    # to 0 at beta = 1e-4.  What is left is the acos in the deficit delta.
    beta = np.logspace(-4.0, 0.0, 40, endpoint=False)
    for c in (0.1, 0.5, 0.7, 0.9):
        table = closed_form_table(c, beta)
        rel = np.abs(table.outcome_disturbance.sum(axis=1) - table.disturbance) / table.disturbance
        assert rel.max() <= 1e-6, (c, beta[np.argmax(rel)], rel.max())


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
        assert min(pt.p) >= 0.0 and min(pt.q) >= 0.0
        assert sum(pt.p) + sum(pt.q) == pytest.approx(1.0, abs=1e-10)
        assert sum(pt.outcome_info) == pytest.approx(pt.info_bits, abs=1e-10)
        assert sum(pt.outcome_disturbance) == pytest.approx(pt.disturbance, abs=1e-10)
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
    for delta in pt.delta:
        assert pt.theta - delta == pytest.approx(0.0, abs=1e-6)
    assert sum(pt.p) + sum(pt.q) == pytest.approx(1.0, abs=1e-12)


def test_pipeline_omega_magnitude_matches_formula(rng):
    for _ in range(50):
        c = float(rng.uniform(0.1, 0.9))
        beta = float(rng.uniform(0.1, 0.9))
        pp = pipeline_point(c, beta)
        for p, q, delta, omega in zip(pp.p, pp.q, pp.delta, pp.omega):
            expected, _ = optimal_repair(p, q, delta / 2.0)
            assert abs(abs(omega) - abs(expected)) < 1e-12


def _pipeline_cases(rng):
    cases = [(float(c), float(b)) for c, b in rng.uniform(0.0, 1.0, (200, 2))]
    return cases + [(c, b) for c in (0.0, 1.0) for b in (0.0, 1e-12, 1.0 - 1e-12, 1.0)]


def test_pipeline_disturbance_matches_exact_rotation_oracle(rng, bases):
    # The pipeline's in-plane repair reaches the Procrustes optimum over all
    # rotations, outcome by outcome, including the degenerate separations.
    tau = bases[2]
    for c, beta in _pipeline_cases(rng):
        sc = make_scenario(c)
        pp = pipeline_point(c, beta)
        for dist, sign in zip(pp.outcome_disturbance, (1.0, -1.0)):
            eps = np.array([1.0, sign * beta, 0.0, 0.0])
            assert dist == pytest.approx(
                exact_repair_disturbance(eps, sc, tau), abs=1e-12
            ), (c, beta)


def test_pipeline_residual_matches_pointwise(rng):
    cases = [
        (c, beta)
        for c in (0.0, 0.3, INV_SQRT2, 0.9, 1.0)
        for beta in (0.0, 1e-12, 0.25, 0.5, 0.75, 1.0 - 1e-12, 1.0)
    ]
    cases += _pipeline_cases(rng)
    table = closed_form_table(*np.array(cases).T)
    pointwise = []
    for c, beta in cases:
        pt, pp = closed_form_point(c, beta), pipeline_point(c, beta)
        gap = max(abs(pp.info_bits - pt.info_bits), abs(pp.disturbance - pt.disturbance))
        pointwise.append((gap, (c, beta)))
    assert pipeline_residual(table) == max(pointwise, key=lambda pair: pair[0])
    head = ClosedFormTable(*(x[:3] for x in table))
    assert pipeline_residual(head) == max(pointwise[:3], key=lambda pair: pair[0])
    assert pipeline_residual(closed_form_table(0.5, [])) == (0.0, None)


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
    table = closed_form_table(INV_SQRT2, np.linspace(0.0, 1.0, 11))
    assert len(table.c) == 11
    assert table.info_bits[0] == pytest.approx(0.0, abs=1e-15)
    assert table.disturbance[0] == pytest.approx(0.0, abs=1e-15)
    assert table.info_bits[-1] == pytest.approx(0.3991240, abs=1e-5)
    assert table.disturbance[-1] == pytest.approx(0.0669873, abs=1e-6)
    assert np.all(np.diff(table.info_bits) >= -1e-12)


def test_sweep_degenerate_separations():
    betas = np.linspace(0, 1, 6)
    assert closed_form_table(0.0, betas).info_bits == pytest.approx(np.zeros(6), abs=1e-12)
    assert closed_form_table(1.0, betas).disturbance == pytest.approx(np.zeros(6), abs=1e-12)


def test_sweep_verify_mode():
    worst, (c, beta) = pipeline_residual(closed_form_table(0.5, np.linspace(0.0, 1.0, 5)))
    assert 0.0 < worst <= VERIFY_TOL
    assert c == 0.5 and beta in np.linspace(0.0, 1.0, 5)


def test_sweep_verify_rejects_nan_residual(monkeypatch):
    # NaN compares false with any tolerance; the residual must still report it.
    real = tradeoff._pipeline_arrays

    def broken(c, beta):
        p, q, info, dist, omega = real(c, beta)
        dist = dist.copy()
        dist[2, 1] = np.nan
        return p, q, info, dist, omega

    monkeypatch.setattr(tradeoff, "_pipeline_arrays", broken)
    worst, where = pipeline_residual(closed_form_table(0.5, np.linspace(0.0, 1.0, 5)))
    assert math.isnan(worst) and not worst <= VERIFY_TOL
    assert where == (0.5, 0.5)


def test_closed_forms_relative_accuracy_against_mpmath():
    # Reference: the textbook forms (which cancel catastrophically in
    # floating point) evaluated exactly enough at 120 digits, from the
    # binary values of c and beta.
    mp = pytest.importorskip("mpmath")
    betas = np.geomspace(1e-8, 1.0, 41)
    for c in (1e-4, 0.1, 0.5, INV_SQRT2, 0.9, 1.0 - 1e-12):
        table = closed_form_table(c, betas)
        for beta, info, dist in zip(betas, table.info_bits, table.disturbance):
            with mp.workdps(120):
                C, B = mp.mpf(c), mp.mpf(float(beta))
                u = B * C
                ref_info = ((1 + u) * mp.log(1 + u) + (1 - u) * mp.log(1 - u)) / (2 * mp.log(2))
                ref_dist = (1 - mp.sqrt(1 + (C**2 - C**4) * (B**2 - 2 + 2 * mp.sqrt(1 - B**2)))) / 2
                rel_info = float(abs(info - ref_info) / ref_info)
                rel_dist = float(abs(dist - ref_dist) / ref_dist)
            assert rel_info <= 2e-15, (c, beta, rel_info)
            assert rel_dist <= 2e-15, (c, beta, rel_dist)


def test_closed_form_table_rows_match_scalar_functions(rng):
    cases = _pipeline_cases(rng)
    table = closed_form_table(*np.array(cases).T)
    for i, (c, beta) in enumerate(cases):
        sc = make_scenario(c)
        assert table.theta[i] == sc.theta
        for m, eps in enumerate((np.array([1.0, beta, 0.0, 0.0]), np.array([1.0, -beta, 0.0, 0.0]))):
            p, q = joint_probs(eps, sc)
            assert (table.p[i, m], table.q[i, m]) == (p, q)
            assert table.outcome_info[i, m] == pytest.approx(outcome_info(eps, sc), abs=1e-16)
            assert table.outcome_disturbance[i, m] == pytest.approx(
                outcome_disturbance(eps, sc), abs=1e-16
            )
            if min(p, q) * 4.0 <= PROBABILITY_FLOOR:
                assert table.delta[i, m] == sc.theta
                assert table.omega[i, m] == sc.theta / 2.0
                assert table.outcome_disturbance[i, m] == 0.0
                continue
            cos_tm = post_inner_products(eps, sc.v0, sc.v1)[3]
            delta = sc.theta - math.acos(min(max(cos_tm, -1.0), 1.0))
            omega, dist = optimal_repair(p, q, delta / 2.0)
            assert table.delta[i, m] == pytest.approx(delta, abs=1e-15)
            assert table.omega[i, m] == pytest.approx(omega, abs=1e-15)
            assert table.outcome_disturbance[i, m] == pytest.approx(dist, abs=1e-16)


@pytest.mark.parametrize(
    "c,beta,message",
    [
        (1.2, 0.5, "half-separation must lie in [0, 1], got 1.2"),
        (-0.1, 0.5, "half-separation must lie in [0, 1], got -0.1"),
        (math.nan, 0.5, "half-separation must lie in [0, 1], got nan"),
        (0.5, -0.2, "attack strength must lie in [0, 1], got -0.2"),
        (0.5, 1.5, "attack strength must lie in [0, 1], got 1.5"),
        (0.5, [0.2, 1.25, -1.0], "attack strength must lie in [0, 1], got 1.25"),
        ([0.3, 2.0], [-1.0, 0.5], "half-separation must lie in [0, 1], got 2.0"),
    ],
)
def test_closed_form_table_rejects_out_of_range(c, beta, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        closed_form_table(c, beta)


def test_closed_form_table_broadcasts_and_matches_points():
    betas = np.linspace(0.0, 1.0, 7)
    table = closed_form_table(0.6, betas)
    assert table.c.shape == table.info_bits.shape == (7,)
    assert table.p.shape == table.omega.shape == (7, 2)
    assert closed_form_table(0.6, 0.5).c.shape == (1,)
    assert closed_form_table(0.6, []).p.shape == (0, 2)
    for k, beta in enumerate(betas):
        assert table.row(k) == closed_form_point(0.6, float(beta))


def test_row_holds_python_values():
    # Plain floats and lists, so rows compare with == to a bool.
    table = closed_form_table([0.3, 0.8], [0.5, 0.9])
    row = table.row(1)
    assert type(row) is ClosedFormTable
    for x, column in zip(row, table):
        if column.ndim == 1:
            assert type(x) is float and x == column[1]
        else:
            assert type(x) is list and x == [column[1, 0], column[1, 1]]
    assert (row == table.row(1)) is True
    assert (row == table.row(0)) is False


def test_per_outcome_functions_broadcast(rng):
    # Arrays in give the elementwise scalar results; floats in give floats.
    p, q = rng.uniform(0.0, 0.5, (2, 100))
    delta = rng.uniform(0.0, 1.5, 100)
    info = info_contribution(p, q)
    omega, dist = optimal_repair(p, q, delta)
    for i in range(100):
        scalar_info = info_contribution(float(p[i]), float(q[i]))
        scalar_omega, scalar_dist = optimal_repair(float(p[i]), float(q[i]), float(delta[i]))
        assert type(scalar_info) is type(scalar_omega) is type(scalar_dist) is float
        assert info[i] == pytest.approx(scalar_info, abs=1e-16)
        assert omega[i] == pytest.approx(scalar_omega, abs=1e-15)
        assert dist[i] == pytest.approx(scalar_dist, abs=1e-16)
    sc = make_scenario(0.4)
    effects = np.array([[1.0, 0.3, 0.1, -0.2], [1.0, 1.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]])
    stacked_info = outcome_info(effects, sc)
    stacked_dist = outcome_disturbance(effects, sc)
    for eps, i, d in zip(effects, stacked_info, stacked_dist):
        assert i == pytest.approx(outcome_info(eps, sc), abs=1e-16)
        assert d == pytest.approx(outcome_disturbance(eps, sc), abs=1e-16)


def test_outcome_disturbance_of_dead_branches_is_zero():
    # A zero effect and effects that annihilate one state leave nothing to
    # repair; their joint probabilities (0, or a rounded -1e-17) never reach
    # optimal_repair.
    sc = make_scenario(0.5)
    assert outcome_disturbance(np.zeros(4), sc) == 0.0
    for c in np.linspace(0.05, 0.95, 19):
        sc = make_scenario(float(c))
        for eps in (np.array([1.0, c, -sc.s, 0.0]), np.array([1.0, -c, -sc.s, 0.0])):
            assert min(joint_probs(eps, sc)) * 4.0 <= PROBABILITY_FLOOR
            assert outcome_disturbance(eps, sc) == 0.0
            assert outcome_disturbance(0.5 * eps, sc) == 0.0
    stacked = outcome_disturbance(np.array([np.zeros(4), [1.0, 0.2, 0.1, 0.0]]), sc)
    assert stacked[0] == 0.0 and stacked[1] > 0.0


def test_pipeline_point_runs_no_closed_form(monkeypatch):
    expected = [pipeline_point(c, b) for c, b in ((0.7, 0.4), (0.0, 1.0), (1.0, 0.0))]
    closed = closed_form_point(0.7, 0.4)

    def forbidden(*args, **kwargs):
        raise AssertionError("closed form called from the pipeline")

    for name in ("closed_form_table", "closed_form_point", "optimal_repair", "info_contribution"):
        monkeypatch.setattr(tradeoff, name, forbidden)
    got = [pipeline_point(c, b) for c, b in ((0.7, 0.4), (0.0, 1.0), (1.0, 0.0))]
    assert got == expected
    assert expected[0].delta == pytest.approx(closed.delta, abs=1e-15)
    assert expected[0].theta == closed.theta


def test_array_paths_do_not_need_numpy2_vecdot(monkeypatch):
    # The declared NumPy range starts before np.vecdot existed.
    monkeypatch.delattr(np, "vecdot", raising=False)
    assert pipeline_residual(closed_form_table(0.7, np.linspace(0.0, 1.0, 11)))[0] <= VERIFY_TOL
    sc = make_scenario(np.array([0.3, 0.6]))
    assert outcome_disturbance(np.array([1.0, 0.5, 0.0, 0.0]), sc).shape == (2,)
    table = closed_form_table(0.6, 0.5)
    assert table.theta[0] - table.delta[0, 0] > 0.0
    assert stationarity_check(0.6, 0.5).passes
