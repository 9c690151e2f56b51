"""Inputs of the workloads, made from the benchmark seed.

The program receives only what is generated here.  Run as a script it
prepares the sample-slocal points for one seed:

  python3 bench/inputs.py --seed S --out FILE

It draws palindromic parameters and sampler seeds per rank, asks the
package to sample and test each point, and keeps the first POINTS_PER_RANK
points that pass with a tenfold margin.  Points that fail are left out and
counted, since which ones fail depends on the seed (README.md, "Failing
operations").  The fixed failing points below are then added to every
round, so the failed share is the same in every run.
"""

import argparse
import json
import sys

import numpy as np

RANKS = (1, 2, 3, 4)

#: samples per verify run, as in the README's `ucgl verify` example
VERIFY_SAMPLES = 100

#: (rank, verify seed) of the kept failing operation: ucgl verify --n 1
#: --suite all --samples 100 --seed 42 raises PreconditionError in the
#: slocal-experiment suite and exits 2 without a report.
VERIFY_FAILING = (1, 42)

#: Verify seeds at which ranks 2, 3 and 4 all pass (samples=100): 15 of the
#: seeds 0..39.  The benchmark seed picks one; README.md lists the others.
VERIFY_SEEDS = (7, 8, 13, 15, 16, 20, 24, 26, 28, 30, 32, 34, 35, 37, 39)

#: points per rank in one sample-slocal round
POINTS_PER_RANK = 100
#: drawn points per rank that may fail before the inputs are refused
MAX_LEFT_OUT = 50

#: Points that fail every time, as (rank, half of s, sampler seed): per rank,
#: the first of the first 5000 draws at seed 42 on which sample_slocal_fiber
#: raises ("det B differs from 1", |det B - 1| at least 5x its 1e-9
#: tolerance), and the first that slocal_membership rejects at tol=1e-8 and
#: still at 1e-7.  Each round attempts them after the seeded points of its rank.
SAMPLE_FAILING = (
    (1, [-0.9044397989727991], 164560655),
    (1, [-0.42193025298524245], 726919943),
    (2, [0.9326913324656654], 2128553817),
    (2, [0.15365584240873342], 807122824),
    (3, [1.1428970615009706, 1.5504166172132092], 391539973),
    (3, [0.8462172430533709, 0.15995699190489482], 1832795098),
    (4, [1.3431900194774666, -0.15733876006282893], 784254858),
    (4, [1.2392635079198309, 0.5290265548715306], 941532924),
)


def verify_seed(seed):
    """Verify seed per rank for a benchmark seed; rank 1 keeps the failing one."""
    out = {n: VERIFY_SEEDS[seed % len(VERIFY_SEEDS)] for n in RANKS}
    out[VERIFY_FAILING[0]] = VERIFY_FAILING[1]
    return out


def palindromic(half, n):
    """Real palindromic s with s_i = s_{n+1-i}, from its first ceil(n/2) entries."""
    half = np.asarray(half, dtype=float)
    return np.concatenate([half, half[: n // 2][::-1]]).astype(complex)


def draw(seed, n):
    """Endless stream of (half of s, sampler seed) for one rank, as the CLI draws them."""
    rng = np.random.default_rng((seed, n))
    while True:
        half = rng.standard_normal((n + 1) // 2)
        yield half.tolist(), int(rng.integers(0, 2 ** 31))


def _passes_with_margin(rs, half, sampler_seed, n):
    """The package's own verdict on a point, at a tenth of its tolerances."""
    from ucgl.errors import UcglError
    from ucgl.groupoid import sample_slocal_fiber, z_membership
    from ucgl.involutions import slocal_membership
    from ucgl.stokes import build_M

    A = build_M(rs, palindromic(half, n))
    try:
        p = sample_slocal_fiber(rs, A, sampler_seed)
    except UcglError:
        return False
    flags = slocal_membership(rs, p, tol=1e-9)
    return flags["fixed_route"] and flags["direct_route"] and z_membership(rs, p.B, p.A, tol=1e-10)


def prepare_points(seed):
    """Seeded points per rank that pass, plus the fixed failing ones."""
    from ucgl.stokes import derive_root_sets

    points, left_out = {}, {}
    for n in RANKS:
        rs = derive_root_sets(n)
        kept, skipped = [], 0
        for half, sampler_seed in draw(seed, n):
            if len(kept) == POINTS_PER_RANK:
                break
            if skipped > MAX_LEFT_OUT:
                raise SystemExit(f"rank {n}: more than {MAX_LEFT_OUT} drawn points fail")
            if _passes_with_margin(rs, half, sampler_seed, n):
                kept.append([half, sampler_seed])
            else:
                skipped += 1
        kept += [[list(h), sd] for (r, h, sd) in SAMPLE_FAILING if r == n]
        points[n] = kept
        left_out[n] = skipped
    return {"points": points, "left_out": left_out}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    prepared = prepare_points(args.seed)
    with open(args.out, "w") as fh:
        json.dump(prepared, fh)
    print(json.dumps({"left_out": prepared["left_out"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
