"""The verification registry: every check holds over twenty seeds.

Twenty seeds give each sampled property at least as many draws as the
largest single-seed suites did (1000 measurement trials, 2000 qubit
oracle draws).
"""

import math
import re

import numpy as np
import pytest

from conal import GeneralizedMeasurement, apply_all, build_basis, psi_matrix, selftest
from conal.optimize import golden_section
from conal.qubit import qubit_positive
from conal.sampling import (
    complete_kraus,
    random_complex,
    random_density,
    random_hermitian,
    random_kraus_set,
    random_psd,
    random_pure,
    random_unitary,
)
from conal.selftest import CHECKS, _check, _max_abs, _per_dim, run_selftest
from conal.tradeoff import (
    ATTACK_TOTAL,
    MIRROR_FLIP_INDEX,
    StationarityReport,
    _pm_pairs,
    make_scenario,
    optimal_repair,
    outcome_disturbance,
    outcome_info,
    repair_objective,
    stationarity_check,
)

#: Every check's draws as its per-trial loop made them, one plain sampler call
#: per matrix, in the order of the loop.
REPLAY = {
    "basis_gram": lambda rng: None,
    "isometry": lambda rng: [random_hermitian(rng, d) for d in range(2, 6) for _ in range(2 * 25)],
    "embed_round_trip": lambda rng: [random_hermitian(rng, d) for d in range(2, 6) for _ in range(25)],
    "trace_positivity": lambda rng: [
        (random_psd(rng, d), random_psd(rng, d), random_hermitian(rng, d))
        for d in (2, 3, 4)
        for _ in range(25)
    ],
    "sqrt_psd": lambda rng: [random_psd(rng, d) for d in (2, 3, 5) for _ in range(20)],
    "polar_decomposition": lambda rng: [random_complex(rng, d) for d in (2, 3, 4) for _ in range(20)],
    "psi_homomorphism": lambda rng: [random_complex(rng, d) for d in (2, 3) for _ in range(2 * 20)],
    "psi_unitary_rotation": lambda rng: [
        (random_unitary(rng, d), rng.uniform(0, 2 * np.pi)) for d in (2, 3) for _ in range(20)
    ],
    "psi_effect_symmetric_psd": lambda rng: [random_psd(rng, d) for d in (2, 3) for _ in range(20)],
    "psd_inside_cone": lambda rng: [random_psd(rng, d) for d in range(2, 6) for _ in range(50)],
    "pure_states_lightlike": lambda rng: [random_pure(rng, d) for d in range(2, 6) for _ in range(50)],
    "qubit_positivity_closed_form": lambda rng: [rng.standard_normal(4) for _ in range(200)],
    "qubit_sandwich_oracle": lambda rng: [random_psd(rng, 2) for _ in range(2 * 100)],
    "qubit_roots_oracle": lambda rng: [random_psd(rng, 2) for _ in range(2 * 100)],
    "qubit_post_products_oracle": lambda rng: [random_psd(rng, 2) for _ in range(3 * 100)],
    "measurement_statistics": lambda rng: [
        ([random_complex(rng, d) for _ in range(rng.integers(2, 5))], random_psd(rng, d))
        for d in (2, 3)
        for _ in range(25)
    ],
    "repair_arcsin_vs_golden": lambda rng: [
        (rng.uniform(0.02, 0.5, 2), rng.uniform(0.0, 1.5)) for _ in range(100)
    ],
    "tradeoff_closed_vs_pipeline": lambda rng: None,
    "stationarity": lambda rng: None,
}


@pytest.mark.parametrize("name,check", CHECKS, ids=[name for name, _ in CHECKS])
def test_registry_check_holds(name, check):
    for seed in range(20):
        result = check(np.random.default_rng(seed))
        assert result.ok, f"{name} fails at seed {seed}: {result}"


def test_nan_residual_is_the_reported_failure(monkeypatch):
    # A NaN after a finite residual must become the worst value and its
    # input, and must fail, rather than vanish in max(0.0, nan).
    @_check(1.0)
    def nan_check(rng):
        return np.array([0.0, math.nan, 0.5]), [{"trial": 0}, {"trial": 1}, {"trial": 2}]

    result = nan_check(np.random.default_rng(0))
    assert math.isnan(result.worst)
    assert result.argworst == {"trial": 1}
    assert not result.ok
    monkeypatch.setattr(selftest, "CHECKS", [("nan_check", nan_check)])
    lines = []
    assert run_selftest(seed=0, out=lines.append) == (0, 1)
    assert lines[0].startswith("FAIL nan_check") and lines[0].endswith("residual nan (tol 1.0e+00) at trial=1")


def test_negative_worst_is_reported_as_zero():
    @_check(1e-12)
    def margins(rng):
        return np.array([-0.5, -0.25]), [{"trial": 0}, {"trial": 1}]

    result = margins(None)
    assert result.worst == 0.0 and result.argworst == {"trial": 1} and result.ok


@pytest.mark.parametrize("seed", [0, 7])
def test_checks_draw_the_stream_of_their_per_trial_loops(seed):
    rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
    assert [name for name, _ in CHECKS] == list(REPLAY)
    for name, check in CHECKS:
        check(rng)
        REPLAY[name](replay)
        assert rng.bit_generator.state == replay.bit_generator.state, name


@pytest.mark.parametrize("d", [2, 3, 5])
def test_stacked_samplers_equal_looped_draws(d):
    for sampler in (random_complex, random_hermitian, random_psd, random_pure):
        rng, looped = np.random.default_rng(d), np.random.default_rng(d)
        stack = sampler(rng, d, (4, 3))
        rows = [sampler(looped, d) for _ in range(12)]
        assert stack.shape == (4, 3, d, d)
        assert np.array_equal(stack.reshape(12, d, d), np.array(rows)), sampler.__name__
        assert rng.bit_generator.state == looped.bit_generator.state
    # Plain draws: the real part's normals, then the imaginary part's.
    rng, reference = np.random.default_rng(d), np.random.default_rng(d)
    G = random_complex(rng, d)
    assert np.array_equal(G, reference.standard_normal((d, d)) + 1j * reference.standard_normal((d, d)))
    psi = reference.standard_normal(d) + 1j * reference.standard_normal(d)
    psi /= np.linalg.norm(psi)
    assert np.array_equal(random_pure(rng, d), np.outer(psi, psi.conj()))
    # The Kraus set from one stacked draw equals the one built matrix by matrix.
    kraus = random_kraus_set(rng, d, 3)
    Gs = [random_complex(reference, d) for _ in range(3)]
    w, V = np.linalg.eigh(sum(G.conj().T @ G for G in Gs))
    assert all(np.array_equal(M, G @ ((V / np.sqrt(w)) @ V.conj().T)) for M, G in zip(kraus, Gs))


def test_failure_names_the_trial_and_dimension_of_a_stacked_row(monkeypatch):
    real_contains, real_sandwich = selftest.cone_contains, selftest.sandwich

    def contains(v, *args):
        inside = real_contains(v, *args)
        if v.shape[-1] == 16:
            inside[37] = False
        return inside

    def sandwich(a, rho):
        post = real_sandwich(a, rho)
        post[37] += 1.0
        return post

    monkeypatch.setattr(selftest, "cone_contains", contains)
    monkeypatch.setattr(selftest, "sandwich", sandwich)
    lines = []
    assert run_selftest(seed=0, out=lines.append) == (16, 3)
    fails = [line for line in lines if line.startswith("FAIL")]
    assert re.fullmatch(r"FAIL psd_inside_cone +residual 1\.000e\+00 \(tol 5\.0e-01\) at d=4 trial=37", fails[0])
    assert re.fullmatch(r"FAIL qubit_sandwich_oracle +residual 1\.000e\+00 \(tol 1\.0e-10\) at trial=37", fails[1])
    assert re.fullmatch(r"FAIL qubit_post_products_oracle +residual \S+ \(tol 1\.0e-08\) at trial=37", fails[2])


# The per-trial and per-probe loops the stacked checks replaced, kept as
# oracles: same draws, same kernels, one trial or probe at a time.


@_check(1e-8)
def psi_unitary_loop(rng):
    def residuals(d):
        basis = build_basis(d)
        eye = np.eye(d * d)
        U = np.empty((20, d, d), dtype=complex)
        phase = np.empty(20, dtype=complex)
        for t in range(20):
            Q, R = np.linalg.qr(random_complex(rng, d))
            phases = np.diag(R) / np.abs(np.diag(R))
            U[t] = Q * phases
            phase[t] = np.exp(1j * rng.uniform(0, 2 * np.pi))
        R = psi_matrix(U, basis)
        return np.stack([
            _max_abs(R.swapaxes(-1, -2) @ R - eye),
            abs(np.linalg.det(R) - 1.0),
            _max_abs(R[:, :, 0] - eye[:, 0], axis=-1),
            _max_abs(psi_matrix(phase[:, None, None] * U, basis) - R),
        ], axis=-1)

    return _per_dim((2, 3), 20, residuals)


@_check(1e-10)
def measurement_statistics_loop(rng):
    def residuals(d):
        basis = build_basis(d)
        worst = []
        for _ in range(25):
            meas = GeneralizedMeasurement(dim=d, kraus=random_kraus_set(rng, d, rng.integers(2, 5)))
            records = apply_all(meas, random_density(rng, d), basis)
            row = [abs(sum(rec.probability for rec in records) - 1.0)]
            row += [abs(rec.unrescaled[0] - rec.probability) for rec in records]
            worst.append(np.max(row))
        return worst

    return _per_dim((2, 3), 25, residuals)


@_check(1e-6)
def repair_loop(rng):
    samples = [(*rng.uniform(0.02, 0.5, 2), rng.uniform(0.0, 1.5)) for _ in range(100)]
    omegas, d_mins = optimal_repair(*np.array(samples).T)
    numeric = [
        golden_section(lambda w: repair_objective(p, q, delta, w), -np.pi / 2, np.pi / 2, 1e-9)
        for p, q, delta in samples
    ]
    residuals = np.abs(np.stack([omegas, d_mins], axis=-1) - np.array(numeric))
    return residuals, [{"p": p, "q": q, "delta": delta} for p, q, delta in samples]


def stationarity_loop(c, beta, h=1e-5, tol=1e-5):
    """:func:`stationarity_check` with one positivity test and one gradient call per probe."""
    sc = make_scenario(c)
    eps0, eps1 = _pm_pairs(beta, 0.0)

    def in_cone_pair(e0):
        return qubit_positive(e0) and qubit_positive(ATTACK_TOTAL - e0)

    def central_gradient(f, x, step):
        steps = step * np.eye(len(x))
        plus, minus = np.split(f(np.concatenate([x + steps, x - steps])), 2)
        return (plus - minus) / (2.0 * step)

    step = h
    for _ in range(60):
        probes = [eps0 + s * np.eye(4)[mu] for mu in range(4) for s in (step, -step)]
        if all(in_cone_pair(e) for e in probes):
            break
        step /= 2.0
    grad_info = central_gradient(lambda e: outcome_info(e, sc) + outcome_info(ATTACK_TOTAL - e, sc), eps0, step)
    grad_dist = central_gradient(
        lambda e: outcome_disturbance(e, sc) + outcome_disturbance(ATTACK_TOTAL - e, sc), eps0, step
    )
    info_dir = grad_info / np.linalg.norm(grad_info)
    _, _, vh = np.linalg.svd(info_dir[None, :])
    derivs = tuple(float(grad_dist @ n) for n in vh[1:])
    max_deriv = max(abs(x) for x in derivs)
    info_along_x = bool(np.max(np.delete(np.abs(info_dir), MIRROR_FLIP_INDEX)) <= 1e-6)
    mirror_residual = 0.0
    for func in (outcome_info, outcome_disturbance):
        g0 = central_gradient(lambda e: func(e, sc), eps0, step)
        expected = central_gradient(lambda e: func(e, sc), eps1, step)
        expected[MIRROR_FLIP_INDEX] *= -1.0
        mirror_residual = max(mirror_residual, float(np.max(np.abs(g0 - expected))))
    return StationarityReport(
        c, beta, step, grad_info, grad_dist, derivs, max_deriv, info_along_x,
        mirror_residual, mirror_residual <= 1e-6, max_deriv <= tol and mirror_residual <= 1e-6,
    )


@_check(1e-5)
def stationarity_loop_check(rng):
    points = ((0.5, 0.4), (0.8, 0.6))
    reports = [stationarity_loop(c, beta) for c, beta in points]
    residuals = [(r.max_constrained_derivative, r.mirror_max_residual) for r in reports]
    return residuals, [{"c": c, "beta": beta} for c, beta in points]


ORACLES = {
    "psi_unitary_rotation": psi_unitary_loop,
    "measurement_statistics": measurement_statistics_loop,
    "repair_arcsin_vs_golden": repair_loop,
    "stationarity": stationarity_loop_check,
}


@pytest.mark.parametrize("name", list(ORACLES))
def test_stacked_checks_equal_their_loops(name):
    check = dict(CHECKS)[name]
    for seed in range(26):
        rng, looped = np.random.default_rng(seed), np.random.default_rng(seed)
        assert check(rng) == ORACLES[name](looped), (name, seed)
        assert rng.bit_generator.state == looped.bit_generator.state, (name, seed)


def test_stacked_golden_section_equals_scalar_searches(rng):
    p, q = rng.uniform(0.02, 0.5, (2, 60))
    delta = rng.uniform(0.0, 1.5, 60)
    x, fx = golden_section(lambda w: repair_objective(p, q, delta, w), -np.pi / 2, np.pi / 2, 1e-9)
    assert x.shape == fx.shape == (60,)
    for k in range(60):
        scalar = golden_section(lambda w: repair_objective(p[k], q[k], delta[k], w), -np.pi / 2, np.pi / 2, 1e-9)
        assert (x[k], fx[k]) == scalar
        assert all(type(v) is float for v in scalar)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_padded_kraus_completion_rows_equal_random_kraus_sets(d):
    rng, looped = np.random.default_rng(d), np.random.default_rng(d)
    G = np.zeros((12, 4, d, d), dtype=complex)
    counts = rng.integers(1, 5, 12)
    looped.integers(1, 5, 12)
    for t, n in enumerate(counts):
        G[t, :n] = random_complex(rng, d, (n,))
    kraus = complete_kraus(G)
    for t, n in enumerate(counts):
        assert np.array_equal(kraus[t, :n], np.array(random_kraus_set(looped, d, n)))
        assert not np.any(kraus[t, n:])


def test_stationarity_check_equals_per_probe_loop():
    for c in np.linspace(0.05, 0.95, 10):
        for beta in np.linspace(0.05, 0.95, 10):
            stacked, looped = stationarity_check(c, beta), stationarity_loop(c, beta)
            for field in vars(stacked):
                assert np.array_equal(getattr(stacked, field), getattr(looped, field)), (c, beta, field)
