"""The benchmark's names, keywords and keys exist in the package."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from ucgl.groupoid import random_slocal_point, z_membership
from ucgl.involutions import slocal_membership
from ucgl.stokes import derive_root_sets

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_traced_names_resolve():
    """bench/run.py --trace 1 wraps getattr(ucgl.<module>, name) for every LAYERS entry."""
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
    p = random_slocal_point(rs, np.random.default_rng(3))
    flags = slocal_membership(rs, p, tol=1e-8)
    assert flags["fixed_route"] is True and flags["direct_route"] is True
    assert z_membership(rs, p.B, p.A, tol=1e-10) is True
