"""The verification registry: every check holds over twenty seeds.

Twenty seeds give each sampled property at least as many draws as the
largest single-seed suites did (1000 measurement trials, 2000 qubit
oracle draws).
"""

import math

import numpy as np
import pytest

from conal import selftest
from conal.selftest import CHECKS, _check, run_selftest


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
        yield 0.0, {"trial": 0}
        yield math.nan, {"trial": 1}
        yield 0.5, {"trial": 2}

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
        yield -0.5, {"trial": 0}
        yield -0.25, {"trial": 1}

    result = margins(None)
    assert result.worst == 0.0 and result.argworst == {"trial": 1} and result.ok
