"""The verification registry: every check holds over twenty seeds.

Twenty seeds give each sampled property at least as many draws as the
largest single-seed suites did (1000 measurement trials, 2000 qubit
oracle draws).
"""

import numpy as np
import pytest

from conal.selftest import CHECKS


@pytest.mark.parametrize("name,check", CHECKS, ids=[name for name, _ in CHECKS])
def test_registry_check_holds(name, check):
    for seed in range(20):
        result = check(np.random.default_rng(seed))
        assert result.ok, f"{name} fails at seed {seed}: {result}"
