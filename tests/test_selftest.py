"""The verification registry: every check holds over twenty seeds.

Twenty seeds give each sampled property at least as many draws as the
largest single-seed suites did (1000 measurement trials, 2000 qubit
oracle draws).
"""

import math
import re

import numpy as np
import pytest

from conal import selftest
from conal.sampling import (
    random_complex,
    random_hermitian,
    random_kraus_set,
    random_psd,
    random_pure,
    random_unitary,
)
from conal.selftest import CHECKS, _check, run_selftest

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
