"""The benchmark's names, keywords and keys exist in the package."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from ucgl.groupoid import random_slocal_points, sample_slocal_fiber, z_membership
from ucgl.involutions import slocal_membership
from ucgl.stokes import build_M, derive_root_sets

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    """The module bench/<name>.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    """bench/run.py --trace 1 wraps getattr(ucgl.<module>, name) for every LAYERS entry."""
    tracer = _load("tracer")
    missing = [
        f"ucgl.{mod}.{fn}"
        for mod, fns in tracer.LAYERS.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"ucgl.{mod}"), fn, None))
    ]
    assert not missing


def test_benchmark_keywords_and_flag_keys(roots):
    """bench/ calls derive_root_sets(n, cache_dir=, force=), slocal_membership(rs, p,
    tol=) and z_membership(rs, B, A, tol=), and reads the fixed_route and
    direct_route flags."""
    for fn, keywords in ((derive_root_sets, {"cache_dir", "force"}),
                         (slocal_membership, {"tol"}), (z_membership, {"tol"})):
        assert keywords <= set(inspect.signature(fn).parameters), fn.__name__
    rs = roots[2]
    p = random_slocal_points(rs, np.random.default_rng(3), 1)[0]
    flags = slocal_membership(rs, p, tol=1e-8)
    assert flags["fixed_route"] is True and flags["direct_route"] is True
    assert z_membership(rs, p.B, p.A, tol=1e-10) is True


def test_benchmark_failing_samples_now_pass():
    """The (rank, half of s, sampler seed) points of bench/inputs.py's SAMPLE_FAILING,
    on which an earlier sampler raised or missed the fixed locus, sample and pass
    slocal_membership at tol=1e-8."""
    inputs = _load("inputs")
    for n, half, seed in inputs.SAMPLE_FAILING:
        rs = derive_root_sets(n)
        p = sample_slocal_fiber(rs, build_M(rs, inputs.palindromic(half, n)), seed)
        flags = slocal_membership(rs, p, tol=1e-8)
        assert flags["fixed_route"] and flags["direct_route"], (n, half, seed)
