"""The benchmark tracer's layer table names functions that exist in the package."""

import importlib
import importlib.util
from pathlib import Path

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
