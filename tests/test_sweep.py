"""Opt-in seed sweep: every suite at every rank passes for any seed.

Run with `pytest -m slow tests/test_sweep.py`; the default run leaves it out.
"""

import pytest

from ucgl.report import run_suite


@pytest.mark.slow
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_seed_sweep(n):
    """Seeds 0..39 at samples=30: no check fails and no suite raises."""
    bad = {}
    for seed in range(40):
        rep = run_suite({"n": n, "suite": "all", "seed": seed, "samples": 30})
        failed = [(c.name, c.max_residual, c.details.get("message")) for c in rep.checks
                  if not c.passed]
        if failed:
            bad[seed] = failed
    assert not bad, bad
