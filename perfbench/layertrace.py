"""Outside-in layer trace of phidual.

`Tracer.install()` rebinds every `phidual.*` module attribute (and class
attribute) that is one of the traced public functions to a timing wrapper;
modules bind names at import, so each binding is replaced where it lives.
`Tracer.restore()` puts the original objects back.  The library's source is
not touched.

Spans are aggregated as they close (a span stack gives self time = span time
minus the time of its child spans), so memory stays flat however many
point evaluations a run makes.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# layer -> (module, attribute path) of its public functions (ROADMAP layers)
LAYERS = {
    "L0": [
        ("phidual.functions", "quad_sup_on_interval"),
        ("phidual.functions", "quad_sup_on_interval_many"),
        ("phidual.functions", "quad_inf_on_interval"),
        ("phidual.functions", "PiecewiseQuadratic.sup_quadratic_offset"),
        ("phidual.functions", "PiecewiseQuadratic.sup_quadratic_offset_many"),
        ("phidual.functions", "PiecewiseQuadratic.inf_plus_quadratic"),
    ],
    "L1": [
        ("phidual.functions", "values_on_grid"),
        ("phidual.functions", "Elementary.__call__"),
        ("phidual.functions", "ProperFunction.__call__"),
        ("phidual.core", "sup_on_grid"),
        ("phidual.core", "inf_on_grid"),
    ],
    "L2": [
        ("phidual.conjugation", "conjugates_at_params"),
        ("phidual.conjugation", "conjugate_table"),
        ("phidual.conjugation", "biconjugate_on_grid"),
    ],
    "L3": [
        ("phidual.conjugation", "refine_in_params"),
        ("phidual.core", "refine_extremum"),
        ("phidual.core", "extremum_on_box"),
        ("phidual.core", "diverges_on_expanding_boxes"),
    ],
    "L4": [
        ("phidual.duality", "duality_chain_report"),
        ("phidual.gap", "theorem_bridge_report"),
        ("phidual.gap", "check_intersection_property"),
        ("phidual.gap", "check_bui_condition"),
        ("phidual.kkt", "verify_kkt"),
        ("phidual.kkt", "search_kkt_pair"),
    ],
    "L5": [
        ("phidual.serialize", "load_instance"),
        ("phidual.serialize", "parse_instance"),
    ],
}

# lru caches whose hit ratios the trace reports: metric prefix -> target
CACHES = {
    "L1.values_on_grid": ("phidual.functions", "values_on_grid"),
    "L2.conjugate_table": ("phidual.conjugation", "conjugate_table"),
}


def resolve(module: str, path: str):
    """-> (owner, attribute name, original object)."""
    owner = sys.modules[module]
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # a class attribute is read from the class dict, where the method lives
    return owner, name, vars(owner)[name]


def phidual_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "phidual" or n.startswith("phidual."))]


class _Frame:
    __slots__ = ("layer", "name", "child")

    def __init__(self, layer, name):
        self.layer, self.name, self.child = layer, name, 0.0


def library_caches() -> list:
    """The lru-cache objects bound in the library's modules."""
    found = {}
    for mod in phidual_modules():
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                found[id(obj)] = obj
    return list(found.values())


class CacheStats:
    """Hits and misses of the library's lru caches, kept across cache clears.

    Made before any tracer is installed: it keeps the original lru-cache
    objects, which a tracer's wrappers hide (a wrapper has no cache_clear)."""

    def __init__(self):
        self.caches = {key: resolve(*target)[2] for key, target in CACHES.items()}
        if not all(hasattr(c, "cache_clear") for c in self.caches.values()):
            raise RuntimeError("CacheStats must be made before a tracer is installed")
        self.all_caches = library_caches()
        self.totals = {key: [0, 0] for key in CACHES}

    def clear_all(self):
        """Fold the current counts into the totals, then empty every lru cache
        of the library (a cold start, as in a fresh process)."""
        for key, cache in self.caches.items():
            info = cache.cache_info()
            self.totals[key][0] += info.hits
            self.totals[key][1] += info.misses
        for cache in self.all_caches:
            cache.cache_clear()


class Tracer:
    def __init__(self, cache_stats: CacheStats):
        self.cache_stats = cache_stats
        self.stack: list[_Frame] = []
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls = {layer: 0 for layer in LAYERS}
        self.count: dict[str, float] = {}
        self.inclusive: dict[str, float] = {}
        self._bound: list[tuple[object, str, object]] = []
        self._cache_base = None

    # -- counters -----------------------------------------------------------

    def add(self, key: str, n: float = 1):
        self.count[key] = self.count.get(key, 0) + n

    def _counted_objective(self, fn, sign: float):
        """Wrap a refinement objective: count evaluations and the ones that
        improved the incumbent (the first evaluation is the incumbent)."""
        best = [None]

        def objective(*args):
            value = fn(*args)
            s = sign * value
            self.add("L3.objective_evals")
            if best[0] is None:
                best[0] = s
            elif s > best[0]:
                best[0] = s
                self.add("L3.improvements")
            return value

        return objective

    def _before(self, name, args, kwargs):
        """Per-function work counters; may return replaced args."""
        if name == "quad_sup_on_interval":
            self.add("L0.rows")
        elif name == "quad_sup_on_interval_many":
            self.add("L0.rows", int(np.size(args[0])))
        elif name in ("Elementary.__call__", "ProperFunction.__call__"):
            self.add("L1.point_evals")
        elif name == "values_on_grid":
            self.add("L1.values_on_grid.calls")
        elif name == "conjugates_at_params":
            f, _, box, params = args[:4]
            rows = int(params.shape[0])
            self.add("L2.rows", rows)
            self.add("L2.conjugates_at_params.calls")
            if f.piecewise is None:
                self.add("L2.grid_cells", rows * box.grid().size)
        elif name == "biconjugate_on_grid":
            f, phi_class, box = args[:3]
            extras = args[3] if len(args) > 3 else kwargs.get("extra_phis", ())
            rows = int(np.prod(phi_class.grid_sizes)) + len(extras)
            self.add("L2.grid_cells", rows * box.grid().size)
        elif name in ("refine_in_params", "refine_extremum"):
            self.add("L3.refine_calls")
            kind = args[4] if len(args) > 4 else kwargs.get("kind", "sup")
            sign = 1.0 if name == "refine_in_params" or kind == "sup" else -1.0
            key = "objective" if name == "refine_in_params" else "h"
            if args:
                args = (self._counted_objective(args[0], sign),) + tuple(args[1:])
            else:
                kwargs[key] = self._counted_objective(kwargs[key], sign)
        elif name == "diverges_on_expanding_boxes":
            self.add("L3.sentinel.calls")
        elif name == "check_intersection_property":
            self.add("L4.intersection_checks")
        elif name == "parse_instance":
            self.add("L5.parse_calls")
        return args, kwargs

    def _after(self, name, result):
        if name == "diverges_on_expanding_boxes" and result:
            self.add("L3.sentinel.fired")
        elif name == "check_intersection_property" and result.holds:
            self.add("L4.intersection_found")

    # -- spans --------------------------------------------------------------

    def _wrap(self, layer: str, name: str, original):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            outer_same_name = not any(fr.name == name for fr in stack)
            args, kwargs = tracer._before(name, args, kwargs)
            frame = _Frame(layer, name)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1].child += elapsed
                tracer.self_s[layer] += elapsed - frame.child
                if parent is None or parent.layer != layer:
                    tracer.calls[layer] += 1
                    if layer == "L5":
                        tracer.add("L5.parse_s", elapsed)
                if outer_same_name:
                    tracer.inclusive[name] = tracer.inclusive.get(name, 0.0) + elapsed
            tracer._after(name, result)
            return result

        return traced

    def install(self):
        if self._bound:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, targets in LAYERS.items():
            for module, path in targets:
                owner, attr, original = resolve(module, path)
                name = path
                if isinstance(owner, type):
                    wrapper = self._wrap(layer, name, original)
                    self._bound.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                else:
                    wrappers[id(original)] = (original, self._wrap(layer, name, original))
        for mod in phidual_modules():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bound.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        self.cache_stats.clear_all()
        self._cache_base = {k: list(v) for k, v in self.cache_stats.totals.items()}

    def restore(self):
        for owner, attr, original in reversed(self._bound):
            setattr(owner, attr, original)
        self._bound = []

    # -- report -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics; a ratio with no attempts reads 0."""
        self.cache_stats.clear_all()
        c = lambda key: self.count.get(key, 0)
        ratio = lambda num, den: (num / den) if den else 0.0
        hit = {}
        for key, (h, m) in self.cache_stats.totals.items():
            h0, m0 = self._cache_base[key]
            hit[key] = ratio(h - h0, (h - h0) + (m - m0))
        return {
            "L0.calls": (self.calls["L0"], "count"),
            "L0.rows": (c("L0.rows"), "count"),
            "L0.self_s": (self.self_s["L0"], "s"),
            "L1.point_evals": (c("L1.point_evals"), "count"),
            "L1.values_on_grid.calls": (c("L1.values_on_grid.calls"), "count"),
            "L1.values_on_grid.hit_ratio": (hit["L1.values_on_grid"], "1"),
            "L1.self_s": (self.self_s["L1"], "s"),
            "L2.calls": (self.calls["L2"], "count"),
            "L2.rows": (c("L2.rows"), "count"),
            "L2.grid_cells": (c("L2.grid_cells"), "count"),
            "L2.rows_per_call": (ratio(c("L2.rows"), c("L2.conjugates_at_params.calls")), "count"),
            "L2.conjugate_table.hit_ratio": (hit["L2.conjugate_table"], "1"),
            "L2.self_s": (self.self_s["L2"], "s"),
            "L3.refine_calls": (c("L3.refine_calls"), "count"),
            "L3.objective_evals": (c("L3.objective_evals"), "count"),
            "L3.improve_ratio": (ratio(c("L3.improvements"), c("L3.objective_evals")), "1"),
            "L3.sentinel.calls": (c("L3.sentinel.calls"), "count"),
            "L3.sentinel.fired_ratio": (ratio(c("L3.sentinel.fired"), c("L3.sentinel.calls")), "1"),
            "L3.self_s": (self.self_s["L3"], "s"),
            "L4.chain_s": (self.inclusive.get("duality_chain_report", 0.0), "s"),
            "L4.bridge_s": (self.inclusive.get("theorem_bridge_report", 0.0), "s"),
            "L4.kkt_verify_s": (self.inclusive.get("verify_kkt", 0.0), "s"),
            "L4.kkt_search_s": (self.inclusive.get("search_kkt_pair", 0.0), "s"),
            "L4.intersection_checks": (c("L4.intersection_checks"), "count"),
            "L4.intersection_found_ratio": (
                ratio(c("L4.intersection_found"), c("L4.intersection_checks")), "1"),
            "L4.self_s": (self.self_s["L4"], "s"),
            "L5.parse_calls": (c("L5.parse_calls"), "count"),
            "L5.parse_s": (c("L5.parse_s"), "s"),
            "L5.self_s": (self.self_s["L5"], "s"),
        }
