"""Layer spans for the traced run, recorded from outside the engine.

`Tracer.install()` wraps every public module-level function of each
engine layer, plus the constructors of `FpMatrix`, `KernelData`,
`CokernelData` and `StableHomSpace`.  The engine imports names with
`from .linalg import rref`, so each wrapper replaces the name in every
`stmodcat` module that holds it.

Spans nest.  A span's self time is its duration minus that of the spans
it encloses; time spent in unwrapped engine code (private helpers,
methods, the computation contexts) counts as self time of the nearest
enclosing wrapped function.  Time in the timed section outside every
span is the benchmark's own (`bench.self_s`), so the layer self times
and `bench.self_s` add up to `bench.timed_s`.

Spans are folded into per-function totals as they close rather than kept
one by one: a round opens about a million of them.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time

LAYERS = ("linalg", "modrep", "stcat", "toda", "adams", "heller", "cli")
CONSTRUCTORS = {"linalg": ("FpMatrix",), "modrep": ("KernelData", "CokernelData"),
                "stcat": ("StableHomSpace",)}
# functions whose arguments are remembered, for repeat_ratio
KEYED = {"hom_basis", "omega", "sigma", "stable_hom", "post_matrix", "pre_matrix",
         "sigma_map", "omega_map", "cone_triangle", "fiber_triangle"}
SMALL_CELLS = 81

# (metric, unit); every traced run prints all of them
METRICS = [
    ("linalg.rref.calls_small", "count"), ("linalg.rref.calls_large", "count"),
    ("linalg.rref.self_s_small", "s"), ("linalg.rref.self_s_large", "s"),
    ("linalg.rref.cells_p50", "cells"), ("linalg.solve_affine.calls", "count"),
    ("linalg.nullspace.calls", "count"), ("linalg.in_span.calls", "count"),
    ("linalg.enumerate_points.points", "count"),
    ("linalg.FpMatrix.constructions", "count"), ("linalg.self_s", "s"),
    ("modrep.jordan_chains.calls", "count"), ("modrep.jordan_chains.self_s", "s"),
    ("modrep.jordan_chains.total_s", "s"), ("modrep.hom_basis.calls", "count"),
    ("modrep.hom_basis.repeat_ratio", "ratio"), ("modrep.omega.repeat_ratio", "ratio"),
    ("modrep.sigma.repeat_ratio", "ratio"), ("modrep.KernelData.calls", "count"),
    ("modrep.CokernelData.calls", "count"), ("modrep.self_s", "s"),
    ("stcat.StableHomSpace.constructions", "count"),
    ("stcat.StableHomSpace.self_s", "s"), ("stcat.stable_hom.calls", "count"),
    ("stcat.stable_hom.repeat_ratio", "ratio"),
    ("stcat.post_matrix.calls", "count"), ("stcat.post_matrix.repeat_ratio", "ratio"),
    ("stcat.post_matrix.self_s", "s"), ("stcat.pre_matrix.calls", "count"),
    ("stcat.pre_matrix.repeat_ratio", "ratio"), ("stcat.pre_matrix.self_s", "s"),
    ("stcat.sigma_map.calls", "count"), ("stcat.sigma_map.repeat_ratio", "ratio"),
    ("stcat.omega_map.calls", "count"), ("stcat.omega_map.repeat_ratio", "ratio"),
    ("stcat.cone_triangle.calls", "count"), ("stcat.cone_triangle.repeat_ratio", "ratio"),
    ("stcat.fiber_triangle.calls", "count"),
    ("stcat.fiber_triangle.repeat_ratio", "ratio"),
    ("stcat.is_distinguished.total_s", "s"), ("stcat.self_s", "s"),
    ("toda.bracket3.calls", "count"), ("toda.bracket3.self_s", "s"),
    ("toda.higher_bracket.calls", "count"), ("toda.higher_bracket.self_s", "s"),
    ("toda.higher_bracket.branches", "count"), ("toda.toda_family.pairs", "count"),
    ("toda.restricted_higher_bracket.self_s", "s"),
    ("toda.indeterminacy_basis.calls", "count"), ("toda.self_s", "s"),
    ("adams.adams_resolution.total_s", "s"), ("adams.ghost_cover.calls", "count"),
    ("adams.pages.total_s", "s"), ("adams.dr_set.calls", "count"),
    ("adams.dr_set.chains", "count"), ("adams.dr_bracket_forms.calls", "count"),
    ("adams.dr_bracket_forms.total_s", "s"), ("adams.self_s", "s"),
    ("heller.heller_check.calls", "count"), ("heller.heller_check.total_s", "s"),
    ("heller.heller_check.self_s", "s"), ("heller.self_s", "s"),
    ("cli.run_command.calls", "count"), ("cli.run_command.total_s", "s"),
    ("cli.parse_session.total_s", "s"), ("cli.self_s", "s"),
    ("bench.self_s", "s"), ("bench.timed_s", "s"),
]


class _Stat:
    __slots__ = ("layer", "calls", "self_ns", "total_ns", "depth", "seen", "repeats")

    def __init__(self, layer):
        self.layer = layer
        self.calls = self.self_ns = self.total_ns = self.depth = self.repeats = 0
        self.seen = set()


class Tracer:
    def __init__(self):
        self.on = False
        self.stats: dict[str, _Stat] = {}
        self.extra = {"rref_small": [0, 0], "rref_large": [0, 0], "rref_cells": [],
                      "points": 0, "pairs": 0, "branches": 0, "chains": 0}
        self._stack: list[list[int]] = []
        self.top_ns = 0
        self.timed_ns = 0

    # -- installation --------------------------------------------------------

    def install(self):
        layers = {layer: importlib.import_module(f"stmodcat.{layer}") for layer in LAYERS}
        mods = [m for name, m in sys.modules.items()
                if name == "stmodcat" or name.startswith("stmodcat.")]
        for layer, mod in layers.items():
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(layer, name, fn)
                for m in mods:
                    if getattr(m, name, None) is fn:
                        setattr(m, name, wrapped)
            for cls_name in CONSTRUCTORS.get(layer, ()):
                cls = getattr(mod, cls_name)
                type.__setattr__(cls, "__init__",
                                 self._wrap(layer, cls_name, cls.__init__))
        return self

    def _wrap(self, layer, name, fn):
        stat = self.stats.setdefault(f"{layer}.{name}", _Stat(layer))
        stack = self._stack
        clock = time.perf_counter_ns
        keyed = name in KEYED
        after = getattr(self, f"_after_{name}", None)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if keyed:
                key = (args, tuple(sorted(kwargs.items())))
                if key in stat.seen:
                    stat.repeats += 1
                else:
                    stat.seen.add(key)
            frame = [0]
            stack.append(frame)
            stat.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                self_ns = dt - frame[0]
                stat.self_ns += self_ns
                if not stat.depth:
                    stat.total_ns += dt
                if stack:
                    stack[-1][0] += dt
                else:
                    tracer.top_ns += dt
            if after is not None:
                after(args, result, self_ns)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-function extras -------------------------------------------------

    def _after_rref(self, args, result, self_ns):
        cells = args[0].rows * args[0].cols
        bucket = self.extra["rref_small" if cells <= SMALL_CELLS else "rref_large"]
        bucket[0] += 1
        bucket[1] += self_ns
        self.extra["rref_cells"].append(cells)

    def _after_enumerate_points(self, args, result, self_ns):
        self.extra["points"] += len(result)

    def _after_toda_family(self, args, result, self_ns):
        self.extra["pairs"] += len(result)

    def _after_higher_bracket(self, args, result, self_ns):
        bs = result[0] if isinstance(result, tuple) else result
        self.extra["branches"] += bs.metadata["branches"]

    def _after_dr_set(self, args, result, self_ns):
        self.extra["chains"] += result.metadata["chains"]

    # -- timed section -------------------------------------------------------

    def start(self):
        self.on = True
        self._t0 = time.perf_counter_ns()

    def stop(self):
        self.timed_ns = time.perf_counter_ns() - self._t0
        self.on = False

    def metrics(self) -> dict[str, float]:
        """Every metric in METRICS for this round (seconds, counts, ratios)."""
        st, ex = self.stats, self.extra
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(s.self_ns for s in st.values()
                                         if s.layer == layer) / 1e9
        for name, unit in METRICS:
            if name in out:
                continue
            layer, rest = name.split(".", 1)
            entry, field = rest.rsplit(".", 1) if "." in rest else (rest, "")
            s = st.get(f"{layer}.{entry}")
            if field in ("calls", "constructions"):
                out[name] = s.calls
            elif field == "self_s":
                out[name] = s.self_ns / 1e9
            elif field == "total_s":
                out[name] = s.total_ns / 1e9
            elif field == "repeat_ratio":
                out[name] = s.repeats / s.calls if s.calls else 0.0
        out["linalg.rref.calls_small"], small_ns = ex["rref_small"]
        out["linalg.rref.calls_large"], large_ns = ex["rref_large"]
        out["linalg.rref.self_s_small"] = small_ns / 1e9
        out["linalg.rref.self_s_large"] = large_ns / 1e9
        out["linalg.rref.cells_p50"] = (statistics.median(ex["rref_cells"])
                                        if ex["rref_cells"] else 0)
        out["linalg.enumerate_points.points"] = ex["points"]
        out["toda.toda_family.pairs"] = ex["pairs"]
        out["toda.higher_bracket.branches"] = ex["branches"]
        out["adams.dr_set.chains"] = ex["chains"]
        out["bench.timed_s"] = self.timed_ns / 1e9
        out["bench.self_s"] = (self.timed_ns - self.top_ns) / 1e9
        return out
