"""One workload in one fresh process: set up, run whole rounds, check outputs.

Started by run.py; prints one JSON object on its last line of stdout.

  python3 bench/worker.py WORKLOAD --seed S --seconds T --trace 0|1
      --spawned-at MONOTONIC --tmp DIR [--inputs FILE] [--setup-only]

setup_s runs from --spawned-at (the parent's clock reading just before it
started this process) to the first timed operation.  A round is the same
fixed list of operations every time; rounds repeat until --seconds have
passed, and at least one runs.  The speed reference is timed before the
first round and after each one.  With --setup-only the process sets up,
times the speed reference and exits.
"""

import argparse
import json
import os
import resource
import sys
import time
from time import perf_counter

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
from inputs import (  # noqa: E402
    RANKS, SAMPLE_FAILING, VERIFY_FAILING, VERIFY_SAMPLES, palindromic, verify_seed,
)


def _setup(workload, inputs_path):
    """Import the package and load what the timed operations need."""
    import ucgl  # noqa: F401
    import ucgl.cli
    from ucgl.stokes import derive_root_sets

    roots = {}
    if workload != "roots-cold":
        roots = {n: derive_root_sets(n) for n in RANKS}
    points = None
    if inputs_path:
        with open(inputs_path) as fh:
            points = {int(n): pts for n, pts in json.load(fh)["points"].items()}
    return ucgl.cli.main, roots, points


# A round returns its seconds per rank, its outputs, the operations attempted
# and the keys of those that failed.  The rounds import ucgl names when they
# run, so that a traced round calls the tracer's wrappers; checks run after
# the wrappers are removed.


def round_roots_cold(ctx):
    from ucgl.errors import UcglError
    from ucgl.stokes import derive_root_sets

    times, outputs, failed = {}, {}, []
    for n in RANKS:
        t = perf_counter()
        try:
            outputs[n] = derive_root_sets(n, force=True)
        except UcglError:
            failed.append(f"roots n={n}")
        times[n] = perf_counter() - t
    return times, outputs, len(RANKS), failed


def round_verify_all(ctx):
    times, outputs, failed = {}, {}, []
    for n in RANKS:
        seed = ctx["verify_seed"][n]
        out = os.path.join(ctx["tmp"], f"verify_n{n}.json")
        argv = ["verify", "--n", str(n), "--suite", "all", "--samples", str(VERIFY_SAMPLES),
                "--seed", str(seed), "--out", out]
        t = perf_counter()
        rc = ctx["main"](argv)
        times[n] = perf_counter() - t
        if rc != 0:
            failed.append(verify_key(n, seed))
        else:
            outputs[n] = (out, seed)
    return times, outputs, len(RANKS), failed


def round_sample_slocal(ctx):
    from ucgl.errors import UcglError
    from ucgl.groupoid import sample_slocal_fiber
    from ucgl.involutions import slocal_membership
    from ucgl.stokes import build_M

    times, outputs, attempted, failed = {}, {}, 0, []
    for n in RANKS:
        rs = ctx["roots"][n]
        kept = []
        t = perf_counter()
        for half, sampler_seed in ctx["points"][n]:
            s = palindromic(half, n)
            A = build_M(rs, s)
            try:
                p = sample_slocal_fiber(rs, A, sampler_seed)
            except UcglError:
                failed.append(sample_key(n, half, sampler_seed))
                continue
            flags = slocal_membership(rs, p, tol=1e-8)
            if flags["fixed_route"] and flags["direct_route"]:
                kept.append((s, p.B, p.A))
            else:
                failed.append(sample_key(n, half, sampler_seed))
        times[n] = perf_counter() - t
        attempted += len(ctx["points"][n])
        outputs[n] = kept
    return times, outputs, attempted, failed


def verify_key(n, seed):
    return f"verify n={n} seed={seed}"


def sample_key(n, half, sampler_seed):
    return f"sample n={n} s={list(half)} seed={sampler_seed}"


#: the operations that may fail: the named ones of README.md, "Failing operations"
NAMED_FAILING = {
    "roots-cold": frozenset(),
    "verify-all": frozenset({verify_key(*VERIFY_FAILING)}),
    "sample-slocal": frozenset(sample_key(*point) for point in SAMPLE_FAILING),
}


ROUNDS = {
    "roots-cold": round_roots_cold,
    "verify-all": round_verify_all,
    "sample-slocal": round_sample_slocal,
}


def check_round(workload, outputs, ctx):
    if workload == "roots-cold":
        rng = np.random.default_rng(ctx["seed"])
        return [p for n, rs in outputs.items() for p in checks.check_root_sets(rs, n, rng)]
    if workload == "verify-all":
        return [p for n, (path, seed) in outputs.items()
                for p in checks.check_report(path, n, seed)]
    return [p for n, pts in outputs.items() for (s, B, A) in pts
            for p in checks.check_point(n, s, B, A)]


def check_reproducible(ctx):
    """Two reports of one (n, seed, samples) agree byte for byte apart from timing."""
    paths, codes = [], []
    for k in range(2):
        path = os.path.join(ctx["tmp"], f"repro_{k}.json")
        codes.append(ctx["main"](["verify", "--n", "2", "--suite", "all", "--samples", "10",
                                  "--seed", str(ctx["verify_seed"][2]), "--out", path]))
        paths.append(path)
    if codes[0] != codes[1]:
        return [f"repeat verify exit codes differ: {codes}"]
    if all(os.path.exists(p) for p in paths) and not checks.same_apart_from_timing(*paths):
        return ["two reports of one (n, seed, samples) differ apart from timing"]
    return []


#: the fixed work of the speed reference: products, inverses, determinants
#: and characteristic polynomials of small complex matrices in a Python loop,
#: the same mix of interpreter and small numpy calls as the package's own
REFERENCE_MATRICES = 40
REFERENCE_LOOPS = 40


def speed_reference():
    """Seconds the fixed reference work takes now.

    It uses numpy and the interpreter only, never the package, so a change to
    the package cannot move it; it moves with the machine's speed."""
    rng = np.random.default_rng(0)
    mats = rng.standard_normal((REFERENCE_MATRICES, 5, 5)) + 1j * rng.standard_normal(
        (REFERENCE_MATRICES, 5, 5))
    t = perf_counter()
    for _ in range(REFERENCE_LOOPS):
        for m in mats:
            np.linalg.det(m @ np.linalg.inv(m))
            np.poly(m)
    return perf_counter() - t


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--inputs", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    cli_main, roots, points = _setup(args.workload, args.inputs)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        refs = sorted(speed_reference() for _ in range(3))
        print(json.dumps({"setup_s": setup_s, "reference_s": refs[1]}))
        return 0

    import scipy

    ctx = {"main": cli_main, "roots": roots, "points": points, "seed": args.seed,
           "tmp": args.tmp, "verify_seed": verify_seed(args.seed)}
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    run_round = ROUNDS[args.workload]
    named = NAMED_FAILING[args.workload]
    rounds, problems, passing_named = [], [], set()
    attempted = failed = 0
    # the speed reference runs before the first round and after each round,
    # while no package code runs, so that each round has one on either side
    references = [speed_reference()]
    start = perf_counter()
    while not rounds or perf_counter() - start < args.seconds:
        if tracer:
            with tracer.installed():
                times, outputs, att, fail = run_round(ctx)
        else:
            times, outputs, att, fail = run_round(ctx)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # high-water mark
        references.append(speed_reference())
        rounds.append(times)
        attempted += att
        failed += len(fail)
        problems += [f"unexpected failure: {key}" for key in fail if key not in named]
        passing_named |= named - set(fail)
        problems += check_round(args.workload, outputs, ctx)
    if args.workload == "verify-all":
        problems += check_reproducible(ctx)

    result = {
        "setup_s": setup_s,
        "rounds": [{str(n): t for n, t in r.items()} for r in rounds],
        "reference_s": references,
        "attempted": attempted,
        "failed": failed,
        "problems": sorted(set(problems)),
        "passing_named": sorted(passing_named),
        "peak_rss_mb": peak_kb / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "verify_seed": ctx["verify_seed"] if args.workload == "verify-all" else None,
    }
    if tracer:
        result["layers"] = tracer.metrics(len(rounds))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
