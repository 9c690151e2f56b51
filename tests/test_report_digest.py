"""The pinned reports against their committed digest (tests/report_digest.py).

The default run compares one report per rank at seed 42; `-m slow` compares
all 64.  A failure names every check that moved.
"""

import pytest

import report_digest
from report_digest import PINNED, digest, key, load, moved

SEED_42 = [(n, 42) for n in report_digest.RANKS]


def _compare(n, seed):
    stored = load()["reports"][key(n, seed)]
    lines = moved(stored, digest(n, seed))
    assert not lines, f"{key(n, seed)} moved:\n" + "\n".join(lines)


@pytest.mark.parametrize("n,seed", SEED_42)
def test_report_matches_digest(n, seed):
    _compare(n, seed)


@pytest.mark.slow
@pytest.mark.parametrize("n,seed", PINNED)
def test_every_pinned_report_matches_digest(n, seed):
    _compare(n, seed)


def test_digest_covers_the_pinned_reports():
    stored = load()
    assert stored["samples"] == report_digest.SAMPLES
    assert sorted(stored["reports"]) == sorted(key(n, seed) for n, seed in PINNED)
