"""Benchmark of the ucgl lab: root search, full verification, locus sampling.

Run from the root of a checkout:

  python3 bench/run.py --workload roots-cold|verify-all|sample-slocal
                       [--seed 42] [--seconds 20] [--trace 0|1] [--out FILE]

Each workload runs in its own fresh process (bench/worker.py) on one BLAS
thread.  With --trace 0 the last line of stdout is the end-to-end result;
with --trace 1 it holds the per-layer metrics of a traced run and the
tracing overhead against an untraced run made just before it.  The line
before it is the full result record, which --out also appends to FILE for
bench/compare.py.  See bench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")

WORKLOADS = ("roots-cold", "verify-all", "sample-slocal")
#: fresh processes whose set-up time is measured per run, half of the extra
#: ones before the timed worker and half after it, so that the samples span
#: the run and not only the few seconds of one phase of the machine's speed;
#: the median is reported
SETUP_SAMPLES = 5
#: times are reported at the machine speed at which the speed reference
#: (worker.speed_reference) takes this long; on the 2-CPU machine the
#: benchmark was written on it took 0.09 to 0.17 s (see README.md, "Spread")
REFERENCE_NOMINAL_S = 0.1
#: a run must end within this many seconds; the first one may also fill the root cache
RUN_LIMIT_S = 175
CACHE_FILL_LIMIT_S = 600

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

UNITS = {"setup_s": "s", "wall_s": "s", "n4_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not run (missing package, child failure, time limit)."""


def source_hash():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "ucgl")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def child_env(cache_dir):
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("UCGL_ROOT_CACHE", None)
    if cache_dir:
        env["UCGL_ROOT_CACHE"] = cache_dir
    return env


def run_child(argv, env, deadline):
    """Run a Python child to its end and parse the JSON on its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run time limit reached")
    try:
        out = subprocess.run([sys.executable] + argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[0]} exceeded the run time limit") from exc
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(argv[:2])} exited with code {out.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        raise BenchError(f"{' '.join(argv[:2])} printed no result") from exc


def ensure_root_cache(src_hash):
    """Root sets for n = 1..4 in a cache private to the benchmark, filled once per source."""
    cache = os.path.join(BUILD, f"roots-{src_hash[:16]}")
    if all(os.path.exists(os.path.join(cache, f"roots_n{n}.json")) for n in range(1, 5)):
        return cache
    os.makedirs(BUILD, exist_ok=True)
    fill = tempfile.mkdtemp(prefix="roots-fill-", dir=BUILD)
    code = ("import sys\nfrom ucgl.stokes import derive_root_sets\n"
            "for n in range(1, 5):\n    derive_root_sets(n, cache_dir=sys.argv[1])\n"
            "print('{}')\n")
    try:
        run_child(["-c", code, fill], child_env(None), time.monotonic() + CACHE_FILL_LIMIT_S)
        os.replace(fill, cache)
    finally:
        shutil.rmtree(fill, ignore_errors=True)
    return cache


def worker(args, tmp, env, deadline, trace=0, setup_only=False, inputs=None):
    argv = [os.path.join(BENCH, "worker.py"), args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(trace), "--tmp", tmp]
    if inputs:
        argv += ["--inputs", inputs]
    if setup_only:
        argv.append("--setup-only")
    return run_child(argv + ["--spawned-at", repr(time.monotonic())], env, deadline)


def round_walls(res):
    return [sum(r.values()) for r in res["rounds"]]


def raw_times(res, setup_samples):
    """Measured seconds: set-up, one round, and the rank-4 part of a round."""
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(round_walls(res)),
        "n4_s": statistics.median(r["4"] for r in res["rounds"]),
    }


def scaled_rounds(res):
    """(round, rank-4 part) seconds of each round at the reference speed,
    each scaled by the speed reference measured on either side of it."""
    refs = res["reference_s"]
    return [(sum(r.values()) * f, r["4"] * f)
            for r, f in zip(res["rounds"],
                            (REFERENCE_NOMINAL_S / ((a + b) / 2) for a, b in zip(refs, refs[1:])))]


def end_to_end(res, setup_samples, setup_references):
    """The times at the reference speed, and the peak memory.  The set-up
    samples are scaled by the median reference of the set-up processes,
    which ran before and after the timed worker."""
    rounds = scaled_rounds(res)
    return {
        "setup_s": statistics.median(setup_samples)
        * REFERENCE_NOMINAL_S / statistics.median(setup_references),
        "wall_s": statistics.median(w for w, _ in rounds),
        "n4_s": statistics.median(n4 for _, n4 in rounds),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(traced, untraced):
    from tracer import metric_specs

    metrics = dict(traced["layers"])
    base, with_trace = (statistics.median(w for w, _ in scaled_rounds(r)) for r in (untraced, traced))
    metrics["trace.overhead_pct"] = 100.0 * (with_trace - base) / base
    return {name: {"value": metrics[name], "unit": unit} for name, unit in metric_specs()}


def run(args):
    if not os.path.exists(os.path.join(SRC, "ucgl", "__init__.py")):
        raise BenchError(f"no ucgl package under {SRC}; run from the root of a checkout")
    src_hash = source_hash()
    cache = None if args.workload == "roots-cold" else ensure_root_cache(src_hash)
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env(cache)
    os.makedirs(BUILD, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": os.cpu_count(), "git_sha": git_sha(),
              "source_sha256": src_hash}
    try:
        inputs = None
        if args.workload == "sample-slocal":
            inputs = os.path.join(tmp, "points.json")
            record["left_out"] = run_child(
                [os.path.join(BENCH, "inputs.py"), "--seed", str(args.seed), "--out", inputs],
                env, deadline)["left_out"]
        if args.trace:
            untraced = worker(args, tmp, env, deadline, inputs=inputs)
            res = worker(args, tmp, env, deadline, trace=1, inputs=inputs)
            metrics = per_layer(res, untraced)
            problems = untraced["problems"] + res["problems"]
        else:
            def setup_only():
                return worker(args, tmp, env, deadline, setup_only=True, inputs=inputs)

            extra = SETUP_SAMPLES - 1
            probes = [setup_only() for _ in range(extra // 2)]
            res = worker(args, tmp, env, deadline, inputs=inputs)
            probes += [setup_only() for _ in range(extra - extra // 2)]
            setups = [p["setup_s"] for p in probes] + [res["setup_s"]]
            setup_references = [p["reference_s"] for p in probes]
            metrics = {k: {"value": v, "unit": UNITS[k]}
                       for k, v in end_to_end(res, setups, setup_references).items()}
            record.update({"setup_samples": setups, "setup_reference_s": setup_references,
                           "reference_s": res["reference_s"], "raw_s": raw_times(res, setups)})
            problems = res["problems"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    walls = round_walls(res)
    record.update({
        "versions": res["versions"],
        "verify_seed": res["verify_seed"],
        "rounds": len(walls),
        "round_rank_s": {n: statistics.median(r[n] for r in res["rounds"]) for n in res["rounds"][0]},
        "ops_per_s": res["attempted"] / sum(walls),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "passing_named": res["passing_named"],
        "problems": problems,
        "correct": not problems,
        "metrics": metrics,
    })
    return record


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="append the result record to this file")
    args = ap.parse_args()
    sys.path.insert(0, BENCH)
    try:
        record = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
