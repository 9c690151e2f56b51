"""Per-layer tracing by wrapping the public functions of each ucgl module.

A wrapper counts calls, adds inclusive seconds (outermost call only, so
recursion is not counted twice) and charges the time between two wrapper
events to the module of the innermost active wrapped call.  That charge is
the module's self time: its wrapped calls minus the time they spend in
wrapped calls of other modules.

A function that other ucgl modules import by name is replaced in each of
them, so every call site is seen.  Nothing in the package is edited; the
wrappers are installed on the imported modules and removed again.
"""

import contextlib
import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: module -> public functions whose calls and inclusive seconds are traced
LAYERS = {
    "core": ("structural_matrices", "inverse", "char_poly", "is_regular"),
    "stokes": ("derive_root_sets", "build_M", "build_Q", "dM_ds", "section_membership"),
    "involutions": (
        "make_point", "apply_sigma", "apply_theta", "slocal_membership", "F_sigma", "F_theta",
    ),
    "groupoid": ("sample_commuting", "sample_slocal_fiber", "tangent_space", "centralizer_basis"),
    "symplectic": (
        "omega", "expm_frechet", "closedness_residual", "gram_matrix",
        "composable_tangent_basis", "multiplicativity_residual",
        "involution_pullback_residual", "poisson_bracket_residual", "real_form_checks",
    ),
    "connection": ("alpha_symmetry_residual",),
    "bondal": ("embed_slocal", "compose", "triangularizing_permutation"),
}

#: verification suites of ucgl.report, timed per rank
SUITES = (
    "connection", "stokes", "involutions", "groupoid", "symplectic", "bondal",
    "slocal-experiment",
)
RANKS = (1, 2, 3, 4)

#: functions whose inclusive seconds are reported per rank instead of in total
PER_RANK = {("stokes", "derive_root_sets")}

#: (module, function) pairs reported as a call count only
COUNT_ONLY = {("stokes", "build_M"), ("stokes", "build_Q"), ("stokes", "dM_ds")}


def metric_specs():
    """Every per-layer metric as (name, unit), in report order."""
    specs = []
    for mod, funcs in LAYERS.items():
        for fn in funcs:
            if (mod, fn) in PER_RANK:
                specs += [(f"{mod}.{fn}.n{n}_s", "s") for n in RANKS]
                continue
            specs.append((f"{mod}.{fn}.calls", "count"))
            if (mod, fn) not in COUNT_ONLY:
                specs.append((f"{mod}.{fn}.s", "s"))
        specs.append((f"{mod}.self_s", "s"))
    specs += [(f"report.{suite}.n{n}_s", "s") for suite in SUITES for n in RANKS]
    specs.append(("report.self_s", "s"))
    specs.append(("trace.overhead_pct", "%"))
    return specs


def _rank(arg):
    """Rank of a derive_root_sets argument (n) or a suite argument (root sets)."""
    return int(getattr(arg, "n", arg))


class Tracer:
    """Counters and timers filled by the wrappers while installed."""

    def __init__(self):
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.self_s = defaultdict(float)
        self._depth = Counter()
        self._stack = []
        self._last = 0.0

    def _wrap(self, mod, key, fn, per_rank):
        calls, seconds, self_s = self.calls, self.seconds, self.self_s
        depth, stack = self._depth, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = perf_counter()
            if stack:
                self_s[stack[-1]] += t - self._last
            stack.append(mod)
            calls[key] += 1
            depth[key] += 1
            self._last = t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t = perf_counter()
                self_s[mod] += t - self._last
                stack.pop()
                depth[key] -= 1
                if depth[key] == 0:
                    name = f"{key}.n{_rank(args[0] if args else kwargs['n'])}_s" if per_rank else f"{key}.s"
                    seconds[name] += t - t0
                self._last = perf_counter()

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Replace every traced function in every ucgl module, then restore them."""
        import ucgl.report as report

        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "ucgl" or name.startswith("ucgl."))]
        wrappers = {}
        for mod, funcs in LAYERS.items():
            module = sys.modules[f"ucgl.{mod}"]
            for fn in funcs:
                orig = getattr(module, fn)
                wrappers[id(orig)] = (orig, self._wrap(mod, f"{mod}.{fn}", orig, (mod, fn) in PER_RANK))
        suite_funcs = dict(report._SUITE_FUNCS)
        for suite, orig in suite_funcs.items():
            wrappers[id(orig)] = (orig, self._wrap("report", f"report.{suite}", orig, True))
        patched = []
        for m in mods:
            for attr, val in list(vars(m).items()):
                if id(val) in wrappers and wrappers[id(val)][0] is val:
                    setattr(m, attr, wrappers[id(val)][1])
                    patched.append((m, attr, val))
        report._SUITE_FUNCS.update({s: wrappers[id(f)][1] for s, f in suite_funcs.items()})
        try:
            yield self
        finally:
            for m, attr, val in patched:
                setattr(m, attr, val)
            report._SUITE_FUNCS.update(suite_funcs)

    def metrics(self, rounds):
        """Per-layer metrics per round, as {name: value}; counts divide exactly."""
        out = {}
        for name, unit in metric_specs():
            if name == "trace.overhead_pct":
                continue
            if unit == "count":
                value = self.calls[name[: -len(".calls")]] / rounds
            elif name.endswith(".self_s"):
                value = self.self_s[name[: -len(".self_s")]] / rounds
            else:
                value = self.seconds[name] / rounds
            out[name] = value
        return out
