"""Spans around the package's layers, recorded from outside the package.

``install`` wraps every public function of the layer modules and rebinds the
wrapper at every binding site: the defining module, each module that took
the name with ``from ... import``, the package namespace and ``fuzz.SUITES``.
Patching only the defining module would miss those calls.  ``Group.char_values``
is wrapped on the class.  Spans are kept in memory as
``[name, start, end, parent]`` and written out when the pass ends.

``layer_metrics`` turns spans into per-layer numbers; a span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import math
import time

LAYERS = ("cli", "fuzz", "extremal", "groups", "lp", "density", "radial", "trinomial")

# direct child of each verify suite's span whose end closes one instance (the
# last per-instance call the suite makes); instance time is the gap between
# consecutive ends
INSTANCE_END = {
    "tile": "extremal.verify_tile_theorem",
    "main": "extremal.verify_main_theorem",
    "hom": "extremal.verify_homomorphism_bound",
    "product": "extremal.verify_product_bound",
    "auto": "extremal.verify_automorphism_invariance",
    "density": "density.shift_counts",
    "ineq": "extremal.largest_packing_witness",
}


def _lp_probe(args, result):
    problem = args[0]
    objective = getattr(result, "objective_value", math.nan)
    dual_objective = getattr(result, "dual_objective", math.nan)
    return {"rows": int(problem.nrows), "cols": int(problem.nvars),
            "iterations": int(getattr(result, "iterations", 0)),
            "violation": float(getattr(result, "max_violation", math.nan)),
            "gap": abs(float(objective) - float(dual_objective)),
            "status": str(getattr(result, "status", ""))}


def _char_values_probe(args, result):
    return {"rows": int(result.shape[0]), "cols": int(result.shape[1])}


def _hankel_probe(args, result):
    values, info = result
    return {"s_points": int(len(values)),
            "max_refinement_diff": float(info.get("max_refinement_diff", 0.0))}


def _suite_probe(args, result):
    return {"suite": result.get("suite"), "instances": len(result.get("instances", ()))}


PROBES = {
    "lp.solve": _lp_probe,
    "groups.char_values": _char_values_probe,
    "radial.hankel_grid": _hankel_probe,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.extras: dict[int, dict] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, probe=None):
        spans, extras, stack = self.spans, self.extras, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if probe is not None:
                extras[index] = probe(args, result)
            return result

        return traced


def install(tracer: Tracer) -> int:
    """Wrap the layers' public functions at every binding site; returns how many."""
    package = importlib.import_module("pdextremal")
    modules = {layer: importlib.import_module(f"pdextremal.{layer}") for layer in LAYERS}
    wrappers = {}  # id(original) -> (original, wrapper)
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # bound here by import; wrapped where it is defined
            name = f"{layer}.{attr}"
            probe = _suite_probe if attr.startswith("run_") and layer == "fuzz" else PROBES.get(name)
            wrappers[id(obj)] = (obj, tracer.wrap(name, obj, probe))

    for namespace in [vars(m) for m in modules.values()] + [vars(package), modules["fuzz"].SUITES]:
        for attr, obj in list(namespace.items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                namespace[attr] = hit[1]

    group_cls = modules["groups"].Group
    group_cls.char_values = tracer.wrap("groups.char_values", group_cls.char_values,
                                        PROBES["groups.char_values"])
    return len(wrappers) + 1


def _nearest_rank(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def instance_times(spans, extras) -> list[float]:
    """Per-instance seconds of every verify suite, from the suite's instance-end spans."""
    ends: dict[int, list[float]] = {}
    for name, _, end, parent in spans:
        if parent >= 0 and name == INSTANCE_END.get(extras.get(parent, {}).get("suite")):
            ends.setdefault(parent, []).append(end)
    times = []
    for i, (name, start, _, _) in enumerate(spans):
        if not name.startswith("fuzz.run_") or i not in extras:
            continue
        suite_ends = sorted(ends.get(i, ()))
        if len(suite_ends) != extras[i]["instances"]:
            continue  # the suite's call pattern changed; leave it out of the percentiles
        previous = start
        for end in suite_ends:
            times.append(end - previous)
            previous = end
    return times


def layer_metrics(spans, extras) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics, and the number of spans each layer recorded."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = {layer: 0.0 for layer in LAYERS}
    layer_spans = {layer: 0 for layer in LAYERS}
    total_s: dict[str, float] = {}
    count: dict[str, int] = {}
    for i, (name, start, end, _) in enumerate(spans):
        layer = name.split(".", 1)[0]
        self_s[layer] += (end - start) - child_time[i]
        layer_spans[layer] += 1
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        count[name] = count.get(name, 0) + 1

    def probed(name, key):
        return [x[key] for i, x in extras.items() if spans[i][0] == name]

    lp_s = total_s.get("lp.solve", 0.0)
    iterations = sum(probed("lp.solve", "iterations"))
    tables = [r * c for r, c in zip(probed("groups.char_values", "rows"),
                                    probed("groups.char_values", "cols"))]
    instances = sorted(instance_times(spans, extras))
    return {
        "lp.solve_s": lp_s,
        "lp.calls": count.get("lp.solve", 0),
        "lp.iterations": iterations,
        "lp.us_per_iteration": 1e6 * lp_s / iterations if iterations else 0.0,
        "lp.rows_max": max(probed("lp.solve", "rows"), default=0),
        "lp.cols_max": max(probed("lp.solve", "cols"), default=0),
        "lp.max_violation": max(probed("lp.solve", "violation"), default=0.0),
        "lp.max_gap": max(probed("lp.solve", "gap"), default=0.0),
        "lp.nonoptimal": sum(s != "optimal" for s in probed("lp.solve", "status")),
        "groups.char_values_s": total_s.get("groups.char_values", 0.0),
        "groups.char_values_calls": count.get("groups.char_values", 0),
        # computed from the returned shape: complex128 is 16 bytes per entry
        "groups.char_table_mb": 16.0 * max(tables, default=0) / 2**20,
        "extremal.self_s": self_s["extremal"],
        "extremal.calls": layer_spans["extremal"],
        "extremal.witness_s": total_s.get("extremal.largest_packing_witness", 0.0),
        "fuzz.self_s": self_s["fuzz"],
        "fuzz.instances": sum(x["instances"] for i, x in extras.items()
                              if spans[i][0].startswith("fuzz.run_")),
        "fuzz.instance_p50_ms": 1e3 * _nearest_rank(instances, 0.5),
        "fuzz.instance_p90_ms": 1e3 * _nearest_rank(instances, 0.9),
        "density.self_s": self_s["density"],
        "trinomial.self_s": self_s["trinomial"],
        "radial.hankel_s": total_s.get("radial.hankel_grid", 0.0),
        "radial.s_points": sum(probed("radial.hankel_grid", "s_points")),
        "radial.bessel_j_s": total_s.get("radial.bessel_j", 0.0),
        "radial.bessel_j_calls": count.get("radial.bessel_j", 0),
        "radial.max_refinement_diff": max(probed("radial.hankel_grid", "max_refinement_diff"),
                                          default=0.0),
        "radial.gorbachev_s": total_s.get("radial.gorbachev_H_grid", 0.0),
        "cli.self_s": self_s["cli"],
    }, layer_spans
