"""The digest of the pinned verification reports: each check's verdict and residual.

  PYTHONPATH=src python3 tests/report_digest.py

rewrites tests/report_digest.json.  The pinned reports are those of
`ucgl verify --suite all --samples 100` at n = 1..4, at seed 42 and at the
15 verify seeds of the benchmark (64 reports).  Each check is stored as its
verdict and its residual as float.hex, so a comparison sees every bit that
moves.  The residuals are those of the numpy and BLAS that wrote the digest:
on another build they may move at round-off, and the comparison says which.

A change that moves arithmetic regenerates the digest; its diff is the
record of every check that moved.
"""

import json
import os

from ucgl.report import run_suite

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "report_digest.json")

RANKS = (1, 2, 3, 4)
#: seed 42, then the verify seeds of the benchmark (bench/inputs.py, VERIFY_SEEDS)
SEEDS = (42, 7, 8, 13, 15, 16, 20, 24, 26, 28, 30, 32, 34, 35, 37, 39)
SAMPLES = 100
PINNED = tuple((n, seed) for n in RANKS for seed in SEEDS)


def key(n, seed):
    return f"n={n} seed={seed}"


def digest(n, seed):
    """{check name: 'pass|fail <residual as float.hex>'} of one pinned report."""
    report = run_suite({"n": n, "suite": "all", "seed": seed, "samples": SAMPLES})
    return {c.name: f"{'pass' if c.passed else 'fail'} {float(c.max_residual).hex()}"
            for c in report.checks}


def load():
    with open(PATH) as fh:
        return json.load(fh)


def moved(old, new):
    """Lines naming each check whose entry differs, or that only one side has."""
    lines = []
    for name in sorted(set(old) | set(new)):
        a, b = old.get(name, "absent"), new.get(name, "absent")
        if a != b:
            lines.append(f"{name}: {_readable(a)} -> {_readable(b)}")
    return lines


def _readable(entry):
    if entry == "absent":
        return entry
    verdict, residual = entry.split()
    return f"{verdict} {float.fromhex(residual):.6e}"


def main():
    reports = {key(n, seed): digest(n, seed) for n, seed in PINNED}
    with open(PATH, "w") as fh:
        json.dump({"samples": SAMPLES, "reports": reports}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
